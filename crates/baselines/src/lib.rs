//! # ts-baselines
//!
//! Reimplementations of the paper's baseline systems as *policies* over the
//! shared simulator, so every comparison runs on identical substrate. The
//! planners only produce groups or plans; both topologies then run on one
//! [`ts_sim::Simulation`] — [`ts_sim::Simulation::new`] for phase-split
//! plans, [`ts_sim::Simulation::colocated`] for colocated groups — reading
//! the same [`ts_sim::SimConfig`], which is validated once at construction
//! (so the prefill policy, mitigation knobs and observability mean the same
//! thing for ThunderServe and for every baseline):
//!
//! * [`vllm`] — a vLLM-like planner: colocated continuous batching on a
//!   homogeneous cluster, one replica per smallest TP group that fits the
//!   model, run with [`ts_sim::Simulation::colocated`];
//! * [`distserve`] — a DistServe-like planner: homogeneous phase splitting
//!   with an exhaustive sweep over the prefill:decode replica ratio,
//!   assuming fast intra-node interconnect for KV transfer;
//! * [`hexgen`] — a HexGen-like planner: heterogeneity-aware asymmetric
//!   parallelism (groups formed by bandwidth clustering, per-group parallel
//!   configs) but **colocated** phases — heterogeneous scheduling without
//!   phase splitting, which is exactly the axis ThunderServe adds.

pub mod distserve;
pub mod hexgen;
pub mod vllm;

pub use distserve::DistServePlanner;
pub use hexgen::HexGenPlanner;
pub use vllm::VllmPlanner;
