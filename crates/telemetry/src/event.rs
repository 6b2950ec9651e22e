//! The trace-event taxonomy.
//!
//! One [`TraceEvent`] records one fact at one simulated instant. Request
//! lifecycle events follow the journey
//! `Arrived → Enqueued → PrefillStart/End → KvEnqueued → KvWireStart →
//! KvDone → DecodeJoin → Finished`, with fault/recovery detours
//! (`KvRetry`, `Requeued`, `Reprefill`, `Stalled`, `Dropped`, `Rejected`)
//! and gray-failure mitigation detours (`HedgeLaunched`, `Quarantined`,
//! `Readmitted`).
//! Sampling events (`QueueDepth`, `BatchOccupancy`, `LinkUtilization`,
//! `FlowRate`) carry instantaneous values from which
//! [`crate::TraceLog::series`] derives step series
//! ([`crate::StepSeries`]).

use std::fmt;
use ts_common::{ModelId, RequestId, SimTime};

/// Which serving role a replica plays in the emitting engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// A disaggregated prefill replica.
    Prefill,
    /// A disaggregated decode replica.
    Decode,
    /// A colocated replica serving both phases.
    Colocated,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Prefill => write!(f, "prefill"),
            Role::Decode => write!(f, "decode"),
            Role::Colocated => write!(f, "colocated"),
        }
    }
}

/// The class of a fabric link in a [`TraceKind::LinkUtilization`] sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkKind {
    /// NIC uplink of the given node.
    Uplink(usize),
    /// NIC downlink of the given node.
    Downlink(usize),
    /// Intra-node bus (PCIe/NVLink) of the given node.
    Intra(usize),
    /// An inter-node fabric link (identified by its link index alone).
    Inter,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkKind::Uplink(n) => write!(f, "uplink(node {n})"),
            LinkKind::Downlink(n) => write!(f, "downlink(node {n})"),
            LinkKind::Intra(n) => write!(f, "intra(node {n})"),
            LinkKind::Inter => write!(f, "inter"),
        }
    }
}

/// What a [`TraceKind::ScaleAction`] did to the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScaleKind {
    /// A node was acquired (spot grant or on-demand scale-up).
    Acquire,
    /// A node was released back to the provider.
    Release,
    /// A node entered proactive drain after a preemption warning: it stops
    /// taking new work and will be released before the reclaim lands.
    Drain,
    /// The provider announced an upcoming spot reclaim of the node.
    PreemptionWarning,
    /// A serving group's phase designation was flipped to rebalance the
    /// prefill:decode ratio (the node hosts the flipped group).
    PhaseFlip,
}

impl fmt::Display for ScaleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleKind::Acquire => f.write_str("acquire"),
            ScaleKind::Release => f.write_str("release"),
            ScaleKind::Drain => f.write_str("drain"),
            ScaleKind::PreemptionWarning => f.write_str("preemption warning"),
            ScaleKind::PhaseFlip => f.write_str("phase flip"),
        }
    }
}

/// One timestamped trace fact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// When the fact holds, in simulated time.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// A request entered the system.
    Arrived {
        /// The request.
        request: RequestId,
    },
    /// A request was routed onto a replica's prefill queue.
    Enqueued {
        /// The request.
        request: RequestId,
        /// Serving role of the target replica.
        role: Role,
        /// Index of the target replica within its role.
        replica: usize,
    },
    /// A request's prompt entered a prefill launch.
    PrefillStart {
        /// The request.
        request: RequestId,
        /// Serving role of the executing replica.
        role: Role,
        /// Index of the executing replica.
        replica: usize,
        /// Prompt (or re-prefilled context) tokens processed.
        tokens: u64,
    },
    /// A request's prefill launch completed.
    PrefillEnd {
        /// The request.
        request: RequestId,
        /// Serving role of the executing replica.
        role: Role,
        /// Index of the executing replica.
        replica: usize,
    },
    /// The request's first output token was produced (set once; re-prefills
    /// keep the original instant).
    FirstToken {
        /// The request.
        request: RequestId,
    },
    /// A KV transfer was enqueued on the sender (first attempt only).
    KvEnqueued {
        /// The request whose KV is moving.
        request: RequestId,
        /// Sending prefill replica.
        from: usize,
        /// Receiving decode replica.
        to: usize,
        /// Wire bytes of the full transfer.
        bytes: u64,
    },
    /// KV bytes started moving on the wire (re-stamped by retries).
    KvWireStart {
        /// The request whose KV is moving.
        request: RequestId,
        /// Transfer attempt number (1 = first).
        attempt: u32,
    },
    /// The KV cache arrived at the decode replica.
    KvDone {
        /// The request whose KV arrived.
        request: RequestId,
    },
    /// A KV transfer failed (link fault / dead target) and was re-launched.
    KvRetry {
        /// The affected request.
        request: RequestId,
        /// The new attempt number.
        attempt: u32,
    },
    /// A sequence joined a decode replica's continuous batch.
    DecodeJoin {
        /// The request.
        request: RequestId,
        /// Serving role of the admitting replica.
        role: Role,
        /// Index of the admitting replica.
        replica: usize,
    },
    /// The request completed successfully.
    Finished {
        /// The request.
        request: RequestId,
    },
    /// The request was lost mid-service (unrecovered fault, KV eviction).
    Dropped {
        /// The request.
        request: RequestId,
    },
    /// The request was shed at admission (stall queue overflow).
    Rejected {
        /// The request.
        request: RequestId,
    },
    /// The request stalled in the coordinator: no live route existed.
    Stalled {
        /// The request.
        request: RequestId,
    },
    /// Fault recovery re-queued the request's prefill work onto survivors.
    Requeued {
        /// The request.
        request: RequestId,
    },
    /// Fault recovery re-prefilled the request's lost context.
    Reprefill {
        /// The request.
        request: RequestId,
        /// Context tokens re-prefilled.
        tokens: u64,
    },
    /// A scripted fault fired.
    FaultTriggered {
        /// Index of the fault in the script.
        index: usize,
    },
    /// The coordinator detected a scripted replica loss (heartbeat
    /// timeout); a loss that heals before its timeout is never detected.
    FaultDetected {
        /// Index of the fault in the script.
        index: usize,
    },
    /// A service pause ended.
    ServiceResumed,
    /// Prefill queue depth of a replica after a queue transition.
    QueueDepth {
        /// Serving role of the replica.
        role: Role,
        /// Index of the replica.
        replica: usize,
        /// Queued jobs after the transition.
        depth: usize,
    },
    /// Active continuous-batch size of a replica after a batch transition,
    /// emitted only when it differs from the replica's previous sample.
    BatchOccupancy {
        /// Serving role of the replica.
        role: Role,
        /// Index of the replica.
        replica: usize,
        /// Sequences in the active batch.
        active: usize,
    },
    /// Instantaneous utilization of one fabric link (emitted when the
    /// link's aggregate flow rate changes).
    LinkUtilization {
        /// Stable link index within the fabric topology.
        link: usize,
        /// The link's class (and owning node, where applicable).
        kind: LinkKind,
        /// Aggregate rate of flows crossing the link, bytes/s.
        used_bps: f64,
        /// Link capacity, bytes/s.
        capacity_bps: f64,
    },
    /// A fabric flow's max-min fair rate changed.
    FlowRate {
        /// The request whose flow this is (flows are keyed by request).
        request: RequestId,
        /// The new rate, bytes/s.
        rate_bps: f64,
    },
    /// A hedged duplicate of a stuck prefill (or a re-dispatch of a stuck
    /// KV transfer) was launched on an alternate replica.
    HedgeLaunched {
        /// The hedged request.
        request: RequestId,
        /// Serving role of the replica the hedge runs on.
        role: Role,
        /// Index of the replica the hedge runs on.
        replica: usize,
    },
    /// A replica was removed from routing — straggler quarantine or a
    /// flaky-heartbeat false positive.
    Quarantined {
        /// Serving role of the quarantined replica.
        role: Role,
        /// Index of the quarantined replica.
        replica: usize,
    },
    /// A quarantined (or spuriously dead) replica rejoined routing.
    Readmitted {
        /// Serving role of the readmitted replica.
        role: Role,
        /// Index of the readmitted replica.
        replica: usize,
    },
    /// The autoscale control plane changed the fleet (between serving
    /// segments): a node was acquired, drained, released, warned of
    /// preemption, or had its group's phase flipped.
    ScaleAction {
        /// The node the action concerns.
        node: usize,
        /// What happened to it.
        kind: ScaleKind,
    },
    /// The request belongs to the given served model. Emitted once at
    /// arrival, and only on multi-model runs (a non-empty catalog) — single
    /// model traces carry no tags and stay byte-identical to older builds.
    ModelTag {
        /// The tagged request.
        request: RequestId,
        /// The served model it targets.
        model: ModelId,
    },
}

impl TraceKind {
    /// The request this event concerns, if it is request-scoped.
    pub fn request(&self) -> Option<RequestId> {
        match *self {
            TraceKind::Arrived { request }
            | TraceKind::Enqueued { request, .. }
            | TraceKind::PrefillStart { request, .. }
            | TraceKind::PrefillEnd { request, .. }
            | TraceKind::FirstToken { request }
            | TraceKind::KvEnqueued { request, .. }
            | TraceKind::KvWireStart { request, .. }
            | TraceKind::KvDone { request }
            | TraceKind::KvRetry { request, .. }
            | TraceKind::DecodeJoin { request, .. }
            | TraceKind::Finished { request }
            | TraceKind::Dropped { request }
            | TraceKind::Rejected { request }
            | TraceKind::Stalled { request }
            | TraceKind::Requeued { request }
            | TraceKind::Reprefill { request, .. }
            | TraceKind::FlowRate { request, .. }
            | TraceKind::HedgeLaunched { request, .. }
            | TraceKind::ModelTag { request, .. } => Some(request),
            _ => None,
        }
    }

    /// The `(role, replica)` this event concerns, if it is replica-scoped:
    /// the events that make a replica appear in [`crate::TraceSeries`] and
    /// in a [`crate::PressureTally`].
    pub fn replica(&self) -> Option<(Role, usize)> {
        match *self {
            TraceKind::Enqueued { role, replica, .. }
            | TraceKind::PrefillStart { role, replica, .. }
            | TraceKind::PrefillEnd { role, replica, .. }
            | TraceKind::DecodeJoin { role, replica, .. }
            | TraceKind::QueueDepth { role, replica, .. }
            | TraceKind::BatchOccupancy { role, replica, .. }
            | TraceKind::HedgeLaunched { role, replica, .. }
            | TraceKind::Quarantined { role, replica }
            | TraceKind::Readmitted { role, replica } => Some((role, replica)),
            _ => None,
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceKind::Arrived { .. } => write!(f, "arrived"),
            TraceKind::Enqueued { role, replica, .. } => {
                write!(f, "enqueued on {role} replica {replica}")
            }
            TraceKind::PrefillStart {
                role,
                replica,
                tokens,
                ..
            } => write!(
                f,
                "prefill start on {role} replica {replica} ({tokens} tokens)"
            ),
            TraceKind::PrefillEnd { role, replica, .. } => {
                write!(f, "prefill end on {role} replica {replica}")
            }
            TraceKind::FirstToken { .. } => write!(f, "first token"),
            TraceKind::KvEnqueued {
                from, to, bytes, ..
            } => write!(f, "kv enqueued {from} -> {to} ({bytes} B)"),
            TraceKind::KvWireStart { attempt, .. } => {
                write!(f, "kv wire start (attempt {attempt})")
            }
            TraceKind::KvDone { .. } => write!(f, "kv delivered"),
            TraceKind::KvRetry { attempt, .. } => write!(f, "kv retry (attempt {attempt})"),
            TraceKind::DecodeJoin { role, replica, .. } => {
                write!(f, "joined decode batch on {role} replica {replica}")
            }
            TraceKind::Finished { .. } => write!(f, "finished"),
            TraceKind::Dropped { .. } => write!(f, "dropped"),
            TraceKind::Rejected { .. } => write!(f, "rejected"),
            TraceKind::Stalled { .. } => write!(f, "stalled (no live route)"),
            TraceKind::Requeued { .. } => write!(f, "requeued after fault"),
            TraceKind::Reprefill { tokens, .. } => {
                write!(f, "re-prefill of {tokens} lost context tokens")
            }
            TraceKind::FaultTriggered { index } => write!(f, "fault #{index} triggered"),
            TraceKind::FaultDetected { index } => write!(f, "fault #{index} detected"),
            TraceKind::ServiceResumed => write!(f, "service resumed"),
            TraceKind::QueueDepth {
                role,
                replica,
                depth,
            } => write!(f, "queue depth {depth} on {role} replica {replica}"),
            TraceKind::BatchOccupancy {
                role,
                replica,
                active,
            } => write!(f, "batch occupancy {active} on {role} replica {replica}"),
            TraceKind::LinkUtilization {
                link,
                kind,
                used_bps,
                capacity_bps,
            } => write!(
                f,
                "link {link} [{kind}] at {:.1}% ({used_bps:.0}/{capacity_bps:.0} B/s)",
                100.0 * used_bps / capacity_bps.max(1.0)
            ),
            TraceKind::FlowRate { rate_bps, .. } => write!(f, "flow rate {rate_bps:.0} B/s"),
            TraceKind::HedgeLaunched { role, replica, .. } => {
                write!(f, "hedge launched on {role} replica {replica}")
            }
            TraceKind::Quarantined { role, replica } => {
                write!(f, "{role} replica {replica} quarantined")
            }
            TraceKind::Readmitted { role, replica } => {
                write!(f, "{role} replica {replica} readmitted")
            }
            TraceKind::ScaleAction { node, kind } => write!(f, "fleet {kind} of node {node}"),
            TraceKind::ModelTag { model, .. } => write!(f, "serves {model}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_extraction_covers_lifecycle_kinds() {
        let r = RequestId(7);
        assert_eq!(TraceKind::Arrived { request: r }.request(), Some(r));
        assert_eq!(TraceKind::Finished { request: r }.request(), Some(r));
        assert_eq!(
            TraceKind::BatchOccupancy {
                role: Role::Decode,
                replica: 0,
                active: 3
            }
            .request(),
            None
        );
        assert_eq!(TraceKind::ServiceResumed.request(), None);
    }

    #[test]
    fn scale_actions_are_fleet_scoped_not_request_scoped() {
        let k = TraceKind::ScaleAction {
            node: 3,
            kind: ScaleKind::Drain,
        };
        assert_eq!(k.request(), None);
        assert_eq!(k.to_string(), "fleet drain of node 3");
        let w = TraceKind::ScaleAction {
            node: 5,
            kind: ScaleKind::PreemptionWarning,
        };
        assert_eq!(w.to_string(), "fleet preemption warning of node 5");
    }

    #[test]
    fn display_is_humane() {
        let k = TraceKind::KvRetry {
            request: RequestId(1),
            attempt: 3,
        };
        assert_eq!(k.to_string(), "kv retry (attempt 3)");
    }
}
