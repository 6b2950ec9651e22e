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
//!   the parameter-reload blackout that full rescheduling incurs.
//! * [`heartbeat`] — [`heartbeat::HeartbeatMonitor`]: per-node heartbeat
//!   tracking with timeout detection, the trigger for failure handling
//!   (Appendix E's "GPU heartbeat timeout").
//! * [`coordinator`] — [`coordinator::TaskCoordinator`]: a real concurrent
//!   task coordinator (`std::sync::mpsc` channels + worker threads) that dispatches
//!   requests across replica workers according to the plan's routing matrix,
//!   the way the paper's libP2P-based coordinator dispatches across model
//!   serving groups. Used by the live-serving example; execution durations
//!   come from the cost model, compressed by a configurable time scale.

pub mod coordinator;
pub mod heartbeat;
pub mod service;

pub use coordinator::{CompletedRequest, CoordinatorConfig, TaskCoordinator};
pub use heartbeat::HeartbeatMonitor;
pub use service::{ReschedulePolicy, SegmentReport, ServingRuntime};
