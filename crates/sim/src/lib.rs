//! # ts-sim
//!
//! Deterministic discrete-event simulator for phase-split LLM serving.
//!
//! This is the execution substrate standing in for real GPUs (see
//! DESIGN.md): request arrival → prefill batching → KV-cache transfer →
//! continuous-batching decode, with every duration produced by the
//! [`ts_costmodel`] roofline/alpha-beta models and every random choice
//! seeded. The paper itself evaluates candidate plans with a simulator of
//! this style (adopted from DistServe and extended with KV-transfer costs);
//! we use one engine both for plan evaluation and for the "measured" side of
//! every experiment.
//!
//! * [`config`] — [`SimConfig`], the one config both topologies read: each
//!   paired mitigation knob as one typed value ([`Quarantine`], [`Hedge`]),
//!   and one check, run by both [`Simulation`] constructors, that rejects
//!   settings that could not take effect;
//! * [`event`] — the time-ordered event queue;
//! * [`metrics`] — per-request records, SLO attainment and throughput;
//! * [`router`] — deterministic stride router implementing a routing matrix;
//! * [`exec`] — the phase-agnostic execution core: the shared event-loop
//!   driver, the [`exec::ReplicaExecutor`] trait and its prefill / decode /
//!   colocated implementations, and the per-sequence batching bookkeeping
//!   both topologies are built from;
//! * [`engine`] — [`engine::Simulation`], the one facade over [`exec`]:
//!   [`Simulation::new`] builds the phase-split topology and
//!   [`Simulation::colocated`] the prefill/decode-colocated one used for
//!   vLLM-like and HexGen-like baselines (it captures phase interference),
//!   with the same config, fault injection and observability;
//! * [`estimate`] — the fast analytic SLO estimator the scheduler calls in
//!   its inner loop (validated against the engine in Figure 19).
//!
//! # Examples
//!
//! ```
//! use ts_cluster::presets;
//! use ts_common::{ModelSpec, GpuId, GroupSpec, ParallelConfig, Phase, StageSpec,
//!                 DeploymentPlan, RoutingMatrix, SimDuration};
//! use ts_sim::{config::SimConfig, engine::Simulation};
//! use ts_workload::{generator::generate, spec};
//!
//! let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
//! let model = ModelSpec::llama_13b();
//! let group = |phase, gpus: [u32; 4]| GroupSpec::new(
//!     phase,
//!     ParallelConfig::new(2, 2).unwrap(),
//!     vec![
//!         StageSpec { gpus: vec![GpuId(gpus[0]), GpuId(gpus[1])], layers: 20 },
//!         StageSpec { gpus: vec![GpuId(gpus[2]), GpuId(gpus[3])], layers: 20 },
//!     ],
//! ).unwrap();
//! let plan = DeploymentPlan::new(
//!     vec![group(Phase::Prefill, [0, 1, 2, 3]), group(Phase::Decode, [4, 5, 6, 7])],
//!     RoutingMatrix::uniform(1, 1),
//! ).unwrap();
//! let cfg = SimConfig::new(model);
//! let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
//! let reqs = generate(&spec::coding(1.0), SimDuration::from_secs(30), 7);
//! let metrics = sim.run(&reqs).unwrap();
//! assert_eq!(metrics.num_completed(), reqs.len());
//! ```

pub mod config;
pub mod engine;
pub mod estimate;
pub mod event;
pub mod exec;
pub mod fault;
pub mod metrics;
pub mod router;
pub mod snapshot;

pub use config::{Hedge, KvTransfer, Quarantine, SimConfig};
pub use engine::Simulation;
pub use estimate::{estimate_attainment, AttainmentEstimate};
pub use event::QueueWork;
pub use exec::{DecodeWork, KvWork};
pub use fault::{Detection, FaultKind, FaultScript, TimedFault};
pub use metrics::{LossKind, LossRecord, Metrics, RecoveryCounters, RequestRecord};
pub use router::RouterWork;
pub use ts_telemetry::{RequestSpan, TraceLog};

#[cfg(test)]
mod colocated;
