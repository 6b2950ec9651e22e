//! Experiment implementations, one module per paper artifact.

pub mod ablation;
pub mod autoscale;
pub mod bandwidth_matrix;
pub mod batching;
pub mod budget_slo;
pub mod case_study;
pub mod catalog;
pub mod cloud_slo;
pub mod comm_precision;
pub mod convergence;
pub mod event_loop;
pub mod failure;
pub mod gqa;
pub mod mm;
pub mod net_contention;
pub mod network;
pub mod price;
pub mod quant_quality;
pub mod ratio;
pub mod sched_ablation;
pub mod scheduler_threads;
pub mod sim_accuracy;
pub mod throughput;
pub mod workload_robustness;
