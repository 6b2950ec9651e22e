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
//!            exec::Driver                   (driver: one event loop,
//!           ┌──────┴───────┐                 routing, admission/shed,
//!           ▼              ▼                 the shared replica steps)
//!     Topology::Split  Topology::Colocated
//!     decode, kv       colo
//!           │              │
//!           ▼              ▼
//!   PrefillExecutor   ColocatedExecutor     (ReplicaExecutor impls:
//!   DecodeExecutor                           liveness/epoch/drain contract)
//!           │              │
//!           └──────┬───────┘
//!                  ▼
//!        seq::{BatchCore, PrefillQueue}     (shared batching + ITL
//!        seq::{PrefillJob, ActiveSeq, …}     bookkeeping, one copy)
//!
//!   across both topologies: faults, gray
//! ```
//!
//! The driver owns the state every layer reads (event queue, request
//! slab, routes) and the replica steps both topologies take, each written
//! once; the executors own what a single replica knows; [`seq`] owns the
//! per-sequence types every layer passes around. Each other layer is a
//! module that owns its state:
//!
//! * `decode` — decode plans and step coalescing on phase-split decode
//!   replicas;
//! * `kv` — the KV transport between phase-split replicas (transfer
//!   model, link faults, the flow fabric and its timer);
//! * `colo` — the colocated work loop;
//! * `faults` — fault triggers, detection, recovery and the stall queue,
//!   written once against the [`ReplicaExecutor`] trait, which is why
//!   colocated baselines support `run_with_faults` with the same
//!   [`crate::metrics::RecoveryCounters`] semantics as the phase-split
//!   topology;
//! * `gray` — flaky heartbeats, straggler quarantine and hedging.

pub mod executor;
pub mod seq;

mod colo;
mod decode;
pub(crate) mod driver;
mod faults;
mod gray;
mod kv;

pub use executor::{
    ColocatedExecutor, DecodeExecutor, DecodeWork, DrainedWork, LostSeq, PrefillExecutor,
    ReplicaExecutor, Work,
};
pub use kv::KvWork;
pub use seq::{
    ActiveSeq, AdmitOutcome, BatchCore, Pending, PrefillJob, PrefillQueue, ResumeState, WaitingSeq,
};
