//! # ts-telemetry
//!
//! The observability layer of the simulator stack: a typed event taxonomy
//! for request lifecycles, network flows and scheduler search steps, a
//! [`TraceSink`] abstraction with a buffering [`Recorder`], derived
//! per-replica/per-link step series ([`TraceSeries`], all on the one
//! [`StepFunction`]), SLO [`BurnMonitor`]s, the post-run
//! [`MetricsSnapshot`], and exporters (Chrome trace-event JSON viewable in
//! Perfetto, and Prometheus text exposition of a snapshot).
//!
//! Design constraints, in order of importance:
//!
//! 1. **Zero cost when off.** Instrumented code holds an
//!    `Option<Recorder>`; the disabled path is a `None` check and must keep
//!    simulation outputs bit-identical (the same discipline
//!    the opt-in KV-transfer fabric follows). Instrumentation *observes*
//!    at event-handler boundaries — it never schedules events, draws
//!    randomness, or otherwise perturbs the simulation.
//! 2. **Events are facts, series are views.** The engines emit raw
//!    [`TraceEvent`]s only; occupancy/queue-depth/in-flight-bytes series
//!    are derived afterwards by [`TraceLog::series`] in one pass, so the
//!    hot path stays free of tally state. The one online exception is
//!    [`PressureTally`]: a control loop that needs only each replica's mean
//!    and peak queue depth and batch occupancy folds them as the events
//!    arrive, at a few words per replica, instead of recording, sorting and
//!    rescanning a log. Both integrate with the same [`StepFunction`], so
//!    the tally and the log agree bit for bit.
//! 3. **Time-sorted at finalization.** A few producers stamp events at
//!    *future* simulated times (e.g. a KV wire start scheduled behind a
//!    busy uplink); [`Recorder::finish`] stably sorts by timestamp so every
//!    consumer sees a monotone log.

pub mod burn;
pub mod chrome;
pub mod event;
pub mod log;
pub mod pressure;
pub mod profile;
pub mod prom;
pub mod search;
pub mod series;
pub mod sink;
pub mod snapshot;

pub use burn::{BurnMonitor, HealthSignal, HealthState};
pub use chrome::{validate_chrome_trace, ChromeTraceStats};
pub use event::{LinkKind, Role, ScaleKind, TraceEvent, TraceKind};
pub use log::{RequestSpan, TraceLog};
pub use pressure::{PressureTally, StepFunction};
pub use profile::{ProfileEntry, ProfileReport, ScopeGuard};
pub use prom::{render_prometheus, validate_exposition, ExpositionStats, FAMILIES};
pub use search::{SearchStep, SearchTrace};
pub use series::{LinkSeries, ReplicaSeries, StepSeries, TraceSeries};
pub use sink::{Recorder, TraceSink};
pub use snapshot::{MeanPeak, MetricsSnapshot, RolePressure, Summary, WindowCounts};
