//! # ts-runtime
//!
//! The online serving runtime of ThunderServe (Appendix E): the layer that
//! owns a live deployment, watches the workload and the cluster, and decides
//! when and how to reschedule.
//!
//! * [`service`] — [`service::ServingRuntime`]: epoch-driven serving over
//!   the discrete-event engine. It deploys a plan, serves request segments,
//!   reacts to GPU failures and workload shifts with the configured
//!   [`service::ReschedulePolicy`] (none / lightweight / full), and models
//!   the parameter-reload blackout that full rescheduling incurs. Mid-flight
//!   losses are detected by the engine's one rule
//!   (`ts_sim::Simulation::detections`), which the runtime reads.

pub mod service;

pub use service::{ReschedulePolicy, SegmentReport, ServingRuntime, DEFAULT_FULL_REPLAN_FRACTION};
