//! # thunderserve
//!
//! A Rust reproduction of **ThunderServe: High-performance and
//! Cost-efficient LLM Serving in Cloud Environments** (MLSYS 2025).
//!
//! ThunderServe serves large language models on heterogeneous cloud GPUs by
//! splitting the prefill and decode phases onto separate model replicas and
//! co-optimizing, with a two-level scheduling algorithm, how GPUs are
//! grouped, which phase each group serves, how each replica is parallelized
//! and how requests are routed between phases — plus a *lightweight
//! rescheduling* mechanism that adapts to workload shifts and node failures
//! without reloading model weights, and 4-bit KV-cache compression for the
//! prefill→decode transfer on slow cloud links.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! * [`scheduler`] — the two-level scheduler and rescheduling
//!   ([`thunderserve_core`]);
//! * [`cluster`] — GPU catalog, topologies and the paper's environments;
//! * [`costmodel`] — roofline and alpha-beta performance models;
//! * [`kvcache`] — the int4/int8 KV wire codec and its fidelity metrics;
//! * [`workload`] — synthetic coding/conversation workloads and profiling;
//! * [`solver`] — LP, transportation, clustering and routing-DP primitives;
//! * [`sim`] — the discrete-event serving simulator standing in for GPUs;
//! * [`telemetry`] — request-lifecycle tracing, utilization time series and
//!   Chrome-trace export;
//! * [`baselines`] — vLLM-like, DistServe-like and HexGen-like planners;
//! * [`runtime`] — the online serving runtime;
//! * [`autoscale`] — coordinated prefill/decode autoscaling over a
//!   spot-priced elastic fleet, with per-segment cost accounting.
//!
//! # Quickstart
//!
//! ```
//! use thunderserve::prelude::*;
//!
//! // The paper's heterogeneous cloud: 32 GPUs across 7 instances.
//! let cluster = thunderserve::cluster::presets::paper_cloud_cluster();
//! let model = ModelSpec::llama_30b();
//! let workload = thunderserve::workload::spec::coding(2.0);
//! let slo = SloSpec::new(
//!     SimDuration::from_secs(4),
//!     SimDuration::from_millis(250),
//!     SimDuration::from_secs(48),
//! );
//!
//! let mut cfg = SchedulerConfig::fast();
//! cfg.seed = 7;
//! let plan = Scheduler::new(cfg)
//!     .schedule(&cluster, &model, &workload, &slo)?
//!     .plan;
//! assert!(plan.phase_ratio().0 >= 1 && plan.phase_ratio().1 >= 1);
//! # Ok::<(), thunderserve::Error>(())
//! ```

pub use thunderserve_core as scheduler;
pub use ts_autoscale as autoscale;
pub use ts_baselines as baselines;
pub use ts_cluster as cluster;
pub use ts_common as common;
pub use ts_costmodel as costmodel;
pub use ts_kvcache as kvcache;
pub use ts_runtime as runtime;
pub use ts_sim as sim;
pub use ts_solver as solver;
pub use ts_telemetry as telemetry;
pub use ts_workload as workload;

pub use ts_common::{Error, Result};

/// The most common imports for building on ThunderServe.
pub mod prelude {
    pub use thunderserve_core::{ScheduleResult, Scheduler, SchedulerConfig};
    pub use ts_cluster::{Cluster, ClusterBuilder, GpuModel};
    pub use ts_common::{
        DeploymentPlan, GpuId, GroupSpec, ModelId, ModelSpec, ParallelConfig, Phase, Request,
        RequestId, ServedModel, SimDuration, SimTime, SloKind, SloSpec,
    };
    pub use ts_sim::{config::SimConfig, engine::Simulation, metrics::Metrics};
    pub use ts_workload::WorkloadSpec;
}
