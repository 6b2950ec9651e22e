//! The phase-agnostic execution core.
//!
//! The serving engine [`crate::engine::Simulation`] is a thin facade over
//! the layered machinery in this module; its two constructors pick the
//! topology:
//!
//! ```text
//!   Simulation::new / Simulation::colocated   (facade: public API)
//!                  │
//!                  ▼
//!            exec::Driver                   (one event loop: routing,
//!           ┌──────┴───────┐                 admission/shed, fault layer,
//!           ▼              ▼                 recovery accounting)
//!     Topology::Split  Topology::Colocated
//!           │              │
//!           ▼              ▼
//!   PrefillExecutor   ColocatedExecutor     (ReplicaExecutor impls:
//!   DecodeExecutor                           liveness/epoch/drain contract)
//!           │              │
//!           └──────┬───────┘
//!                  ▼
//!        seq::{BatchCore, PrefillQueue}     (shared batching + ITL
//!        seq::{PrefillJob, ActiveSeq, …}     bookkeeping, one copy)
//! ```
//!
//! The driver owns everything both topologies share; the executors own
//! what a single replica knows; `kv` owns the KV transport between
//! phase-split replicas (transfer model, link faults, the flow fabric and
//! its timer); [`seq`] owns the per-sequence types every layer passes
//! around. Fault handling is written once in the driver
//! against the [`ReplicaExecutor`] trait, which is why colocated baselines
//! support `run_with_faults` with the same
//! [`crate::metrics::RecoveryCounters`] semantics as the phase-split
//! topology.

pub mod executor;
pub mod seq;

pub(crate) mod driver;
mod kv;

pub use executor::{
    ColocatedExecutor, DecodeExecutor, DecodeWork, DrainedWork, LostSeq, PrefillExecutor,
    ReplicaExecutor, Work,
};
pub use seq::{
    ActiveSeq, AdmitOutcome, BatchCore, Pending, PrefillJob, PrefillQueue, ResumeState, WaitingSeq,
};
