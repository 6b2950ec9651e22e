//! # ts-autoscale
//!
//! Coordinated prefill/decode autoscaling over a spot-priced elastic fleet.
//!
//! ThunderServe's scheduler (§3) decides *how* to use a fixed set of cloud
//! GPUs; this crate decides *which* GPUs to hold from segment to segment.
//! A deterministic control loop runs between serving segments:
//!
//! 1. [`observe::SegmentObservation`] distils the last segment — SLO
//!    attainment, the prefill pool's queue depth and the decode pool's
//!    batch occupancy from the runtime's online
//!    [`ts_telemetry::PressureTally`], plus outstanding
//!    spot preemption warnings — into a few scalars.
//! 2. [`controller::AutoscaleController`] turns the observation into
//!    [`controller::FleetAction`]s: acquire the cheapest suitable spot
//!    node when the SLO sags or queues build, release the most expensive
//!    held node when the fleet runs cold, and *proactively drain* nodes
//!    whose preemption warnings fall due — so the reclaim lands on an
//!    empty node instead of crashing replicas mid-flight.
//! 3. The harness hands the resulting
//!    [`thunderserve_core::reschedule::FleetDelta`] to
//!    [`ts_runtime::ServingRuntime::apply_fleet_delta`], which grafts or
//!    prunes replicas with **zero reload** for small deltas and escalates
//!    to a full re-plan only on large ones. Phase designations are chosen
//!    to keep the prefill:decode GPU ratio matched to what the two-level
//!    search picked, so both pools scale in a coordinated ratio.
//!
//! Every dollar is accounted: the [`ledger::CostLedger`] records one entry
//! per segment ($/hr by node and pricing tier, spot vs on-demand), and the
//! sum of per-segment costs must equal the trajectory total — an invariant
//! the `BENCH_autoscale` artifact (`reproduce --artifact BENCH_autoscale`)
//! checks in CI.
//!
//! The whole loop is deterministic: observations are pure functions of the
//! (deterministic) simulation outputs, the controller is a pure function of
//! its observation and held-set, and fleet edits reuse the seeded search —
//! a trajectory is bit-reproducible at a fixed seed.

pub mod config;
pub mod controller;
pub mod harness;
pub mod ledger;
pub mod observe;

pub use config::AutoscaleConfig;
pub use controller::{AutoscaleController, FleetAction};
pub use harness::{run_elastic, run_static, AutoscaleTrajectory, Segment, SegmentRecord};
pub use ledger::{CostLedger, LedgerEntry};
pub use observe::{observe_segment, SegmentObservation};
