//! Availability events for dynamic-cluster experiments.
//!
//! Cloud resources are unstable (§3.4): nodes fail heartbeats, spot instances
//! are preempted, and capacity is added back later. A [`ClusterEvent`] is a
//! timestamped change to the availability mask of a [`crate::Cluster`]; the
//! runtime replays a script of these events to drive the Figure 11
//! experiment (4 of 32 GPUs going offline).
//!
//! Scripts have a line-oriented text form (one `event <micros> <kind> …`
//! line each, see [`script_to_text`]) so failure scenarios can be saved and
//! replayed without a JSON dependency.

use ts_common::{Error, GpuId, NodeId, Result, SimTime};

use crate::topology::Cluster;

/// What changed.
///
/// The `*Down`/`*Up` kinds flip the cluster's availability mask (crash-stop
/// failures). The degradation kinds — [`EventKind::NodeSlow`],
/// [`EventKind::LinkDegraded`] and [`EventKind::HeartbeatFlaky`] — describe
/// *gray* failures: capacity that stays online but underperforms. They do
/// not touch the availability mask (the resource is still schedulable);
/// engines consume them by projecting onto replica-level degradation faults
/// (`ts_sim::FaultScript::from_cluster_events`). A degradation factor of
/// exactly 1 (or a loss probability of 0) means "healed".
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A whole node went offline (heartbeat timeout).
    NodeDown(NodeId),
    /// A whole node came back online (outage ended / replacement arrived).
    NodeUp(NodeId),
    /// Specific GPUs went offline.
    GpusDown(Vec<GpuId>),
    /// Specific GPUs came (back) online.
    GpusUp(Vec<GpuId>),
    /// A node became a straggler: compute on it runs `factor`× slower
    /// (factor ≥ 1; 1 heals).
    NodeSlow(NodeId, f64),
    /// The network path between two nodes lost bandwidth: transfers run
    /// `factor`× slower (factor ≥ 1; 1 heals).
    LinkDegraded(NodeId, NodeId, f64),
    /// A node's heartbeats are lost with the given probability per beat
    /// (0 ≤ p ≤ 1; 0 heals), flapping it in and out of routing.
    HeartbeatFlaky(NodeId, f64),
    /// The fleet deliberately acquired this node (autoscaler scale-up or a
    /// spot grant). Activates the node like [`EventKind::NodeUp`], but marks
    /// the change as *intentional*: the runtime registers heartbeats rather
    /// than treating it as an outage ending.
    ScaleUp(NodeId),
    /// The fleet deliberately released this node (autoscaler scale-down or
    /// a spot reclaim firing). Deactivates the node like
    /// [`EventKind::NodeDown`], but the control plane deregisters its
    /// heartbeats instead of waiting for a timeout.
    ScaleDown(NodeId),
    /// The provider announced it will reclaim this spot node soon. The
    /// availability mask is untouched — the node still serves — but an
    /// autoscaler with enough warning lead time drains it proactively
    /// instead of paying crash recovery when the `scale-down` lands.
    PreemptionWarning(NodeId),
}

/// A timestamped availability change.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEvent {
    /// When the change is observed.
    pub at: SimTime,
    /// The change itself.
    pub kind: EventKind,
}

impl ClusterEvent {
    /// Creates an event.
    pub fn new(at: SimTime, kind: EventKind) -> Self {
        ClusterEvent { at, kind }
    }

    /// Applies this event to a cluster's availability mask. Degradation
    /// events leave the mask untouched (the resource stays schedulable);
    /// they only validate their node ids.
    ///
    /// # Errors
    /// Propagates [`ts_common::Error::InvalidConfig`] for unknown ids.
    pub fn apply(&self, cluster: &mut Cluster) -> Result<()> {
        let check_node = |n: NodeId| {
            if (n.0 as usize) < cluster.nodes().len() {
                Ok(())
            } else {
                Err(Error::InvalidConfig(format!("unknown node {}", n.0)))
            }
        };
        match &self.kind {
            EventKind::NodeDown(n) | EventKind::ScaleDown(n) => cluster.deactivate_node(*n),
            EventKind::NodeUp(n) | EventKind::ScaleUp(n) => cluster.activate_node(*n),
            EventKind::GpusDown(ids) => cluster.deactivate_gpus(ids),
            EventKind::GpusUp(ids) => cluster.activate_gpus(ids),
            EventKind::NodeSlow(n, _)
            | EventKind::HeartbeatFlaky(n, _)
            | EventKind::PreemptionWarning(n) => check_node(*n),
            EventKind::LinkDegraded(a, b, _) => check_node(*a).and_then(|()| check_node(*b)),
        }
    }
}

/// Sorts a script of events by time (stable), so it can be replayed in order.
pub fn sort_script(events: &mut [ClusterEvent]) {
    events.sort_by_key(|e| e.at);
}

/// Renders a script in the text format, one event per line:
///
/// ```text
/// event 2000000 node-down 1
/// event 5000000 gpus-up 4,5
/// ```
pub fn script_to_text(events: &[ClusterEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in events {
        let _ = write!(out, "event {} ", e.at.as_micros());
        match &e.kind {
            EventKind::NodeDown(n) => {
                let _ = writeln!(out, "node-down {}", n.0);
            }
            EventKind::NodeUp(n) => {
                let _ = writeln!(out, "node-up {}", n.0);
            }
            EventKind::GpusDown(ids) => {
                let _ = writeln!(out, "gpus-down {}", join_ids(ids));
            }
            EventKind::GpusUp(ids) => {
                let _ = writeln!(out, "gpus-up {}", join_ids(ids));
            }
            EventKind::NodeSlow(n, f) => {
                let _ = writeln!(out, "node-slow {} {}", n.0, f);
            }
            EventKind::LinkDegraded(a, b, f) => {
                let _ = writeln!(out, "link-degraded {} {} {}", a.0, b.0, f);
            }
            EventKind::HeartbeatFlaky(n, p) => {
                let _ = writeln!(out, "heartbeat-flaky {} {}", n.0, p);
            }
            EventKind::ScaleUp(n) => {
                let _ = writeln!(out, "scale-up {}", n.0);
            }
            EventKind::ScaleDown(n) => {
                let _ = writeln!(out, "scale-down {}", n.0);
            }
            EventKind::PreemptionWarning(n) => {
                let _ = writeln!(out, "preemption-warning {}", n.0);
            }
        }
    }
    out
}

fn join_ids(ids: &[GpuId]) -> String {
    ids.iter()
        .map(|g| g.0.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a script from the text format (blank lines ignored).
///
/// # Errors
/// Returns [`Error::InvalidConfig`] describing the first malformed line.
pub fn script_from_text(text: &str) -> Result<Vec<ClusterEvent>> {
    let bad = |msg: String| Error::InvalidConfig(format!("script parse: {msg}"));
    let mut events = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let mut parts = line.split_whitespace();
        if parts.next() != Some("event") {
            return Err(bad(format!("expected 'event ...', got {line:?}")));
        }
        let at: u64 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(format!("bad timestamp in {line:?}")))?;
        let kind = parts
            .next()
            .ok_or_else(|| bad(format!("missing kind in {line:?}")))?;
        let args: Vec<&str> = parts.collect();
        let want = |n: usize| -> Result<()> {
            match args.len().cmp(&n) {
                std::cmp::Ordering::Less => Err(bad(format!("missing argument in {line:?}"))),
                std::cmp::Ordering::Greater => Err(bad(format!("trailing tokens in {line:?}"))),
                std::cmp::Ordering::Equal => Ok(()),
            }
        };
        let parse_node = |v: &str| {
            v.parse::<u32>()
                .map(NodeId)
                .map_err(|_| bad(format!("bad node id {v:?}")))
        };
        let parse_gpus = |v: &str| -> Result<Vec<GpuId>> {
            v.split(',')
                .map(|t| {
                    t.parse::<u32>()
                        .map(GpuId)
                        .map_err(|_| bad(format!("bad gpu id {t:?}")))
                })
                .collect()
        };
        // Degradation factors are slowdown multipliers: a factor below 1
        // would be a speed-up and a factor of 0 or less is meaningless, so
        // both are rejected (exactly 1 means "healed").
        let parse_factor = |v: &str| -> Result<f64> {
            let f: f64 = v
                .parse()
                .map_err(|_| bad(format!("bad degradation factor {v:?}")))?;
            if f.is_finite() && f >= 1.0 {
                Ok(f)
            } else {
                Err(bad(format!(
                    "degradation factor must be >= 1 (got {v}; 1 heals)"
                )))
            }
        };
        let parse_prob = |v: &str| -> Result<f64> {
            let p: f64 = v
                .parse()
                .map_err(|_| bad(format!("bad loss probability {v:?}")))?;
            if p.is_finite() && (0.0..=1.0).contains(&p) {
                Ok(p)
            } else {
                Err(bad(format!("loss probability must be in [0, 1] (got {v})")))
            }
        };
        let kind = match kind {
            "node-down" => {
                want(1)?;
                EventKind::NodeDown(parse_node(args[0])?)
            }
            "node-up" => {
                want(1)?;
                EventKind::NodeUp(parse_node(args[0])?)
            }
            "gpus-down" => {
                want(1)?;
                EventKind::GpusDown(parse_gpus(args[0])?)
            }
            "gpus-up" => {
                want(1)?;
                EventKind::GpusUp(parse_gpus(args[0])?)
            }
            "node-slow" => {
                want(2)?;
                EventKind::NodeSlow(parse_node(args[0])?, parse_factor(args[1])?)
            }
            "link-degraded" => {
                want(3)?;
                EventKind::LinkDegraded(
                    parse_node(args[0])?,
                    parse_node(args[1])?,
                    parse_factor(args[2])?,
                )
            }
            "heartbeat-flaky" => {
                want(2)?;
                EventKind::HeartbeatFlaky(parse_node(args[0])?, parse_prob(args[1])?)
            }
            "scale-up" => {
                want(1)?;
                EventKind::ScaleUp(parse_node(args[0])?)
            }
            "scale-down" => {
                want(1)?;
                EventKind::ScaleDown(parse_node(args[0])?)
            }
            "preemption-warning" => {
                want(1)?;
                EventKind::PreemptionWarning(parse_node(args[0])?)
            }
            other => return Err(bad(format!("unknown event kind {other:?}"))),
        };
        events.push(ClusterEvent::new(SimTime::from_micros(at), kind));
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::GpuModel;
    use crate::topology::ClusterBuilder;

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .node("a", GpuModel::A5000, 2)
            .node("b", GpuModel::A5000, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn node_down_then_gpus_up() {
        let mut c = cluster();
        ClusterEvent::new(SimTime::ZERO, EventKind::NodeDown(NodeId(1)))
            .apply(&mut c)
            .unwrap();
        assert_eq!(c.num_gpus(), 2);
        ClusterEvent::new(SimTime::from_micros(5), EventKind::GpusUp(vec![GpuId(2)]))
            .apply(&mut c)
            .unwrap();
        assert_eq!(c.num_gpus(), 3);
    }

    #[test]
    fn node_up_restores_the_whole_node() {
        let mut c = cluster();
        ClusterEvent::new(SimTime::ZERO, EventKind::NodeDown(NodeId(0)))
            .apply(&mut c)
            .unwrap();
        assert_eq!(c.num_gpus(), 2);
        ClusterEvent::new(SimTime::from_micros(9), EventKind::NodeUp(NodeId(0)))
            .apply(&mut c)
            .unwrap();
        assert_eq!(c.num_gpus(), 4);
        assert!(c.is_active(GpuId(0)) && c.is_active(GpuId(1)));
    }

    #[test]
    fn script_sorts_by_time() {
        let mut script = vec![
            ClusterEvent::new(
                SimTime::from_micros(10),
                EventKind::GpusDown(vec![GpuId(0)]),
            ),
            ClusterEvent::new(SimTime::ZERO, EventKind::GpusDown(vec![GpuId(1)])),
        ];
        sort_script(&mut script);
        assert_eq!(script[0].at, SimTime::ZERO);
    }

    #[test]
    fn unknown_node_errors() {
        let mut c = cluster();
        let e = ClusterEvent::new(SimTime::ZERO, EventKind::NodeDown(NodeId(9)));
        assert!(e.apply(&mut c).is_err());
        let e = ClusterEvent::new(SimTime::ZERO, EventKind::NodeUp(NodeId(9)));
        assert!(e.apply(&mut c).is_err());
    }

    #[test]
    fn text_round_trips_every_kind() {
        let script = vec![
            ClusterEvent::new(
                SimTime::from_micros(2_000_000),
                EventKind::NodeDown(NodeId(1)),
            ),
            ClusterEvent::new(
                SimTime::from_micros(3_500_000),
                EventKind::NodeUp(NodeId(1)),
            ),
            ClusterEvent::new(
                SimTime::from_micros(4_000_000),
                EventKind::GpusDown(vec![GpuId(0), GpuId(3)]),
            ),
            ClusterEvent::new(
                SimTime::from_micros(5_000_000),
                EventKind::GpusUp(vec![GpuId(0)]),
            ),
        ];
        let text = script_to_text(&script);
        assert!(text.contains("event 2000000 node-down 1"));
        assert!(text.contains("event 4000000 gpus-down 0,3"));
        let back = script_from_text(&text).unwrap();
        assert_eq!(script, back);
    }

    #[test]
    fn text_rejects_malformed_lines() {
        assert!(script_from_text("event x node-down 1").is_err());
        assert!(script_from_text("event 5 explode 1").is_err());
        assert!(script_from_text("event 5 node-down").is_err());
        assert!(script_from_text("event 5 gpus-up 1,x").is_err());
        assert!(script_from_text("event 5 node-up 1 junk").is_err());
        assert!(script_from_text("not-an-event 5 node-up 1").is_err());
        assert!(script_from_text("").unwrap().is_empty());
    }

    #[test]
    fn text_round_trips_degradation_kinds() {
        let script = vec![
            ClusterEvent::new(
                SimTime::from_micros(1_000_000),
                EventKind::NodeSlow(NodeId(0), 3.5),
            ),
            ClusterEvent::new(
                SimTime::from_micros(2_000_000),
                EventKind::LinkDegraded(NodeId(0), NodeId(1), 8.0),
            ),
            ClusterEvent::new(
                SimTime::from_micros(3_000_000),
                EventKind::HeartbeatFlaky(NodeId(1), 0.25),
            ),
            // Healing forms round-trip too.
            ClusterEvent::new(
                SimTime::from_micros(4_000_000),
                EventKind::NodeSlow(NodeId(0), 1.0),
            ),
            ClusterEvent::new(
                SimTime::from_micros(5_000_000),
                EventKind::HeartbeatFlaky(NodeId(1), 0.0),
            ),
        ];
        let text = script_to_text(&script);
        assert!(text.contains("event 1000000 node-slow 0 3.5"));
        assert!(text.contains("event 2000000 link-degraded 0 1 8"));
        assert!(text.contains("event 3000000 heartbeat-flaky 1 0.25"));
        let back = script_from_text(&text).unwrap();
        assert_eq!(script, back);
    }

    #[test]
    fn text_rejects_malformed_factors() {
        for bad in [
            "event 5 node-slow 0 0",       // factor of zero
            "event 5 node-slow 0 -2",      // negative factor
            "event 5 node-slow 0 0.5",     // < 1 is a speed-up, not a fault
            "event 5 link-degraded 0 1 0", // zero bandwidth factor
            "event 5 link-degraded 0 1 nan",
            "event 5 heartbeat-flaky 0 1.5", // probability > 1
            "event 5 heartbeat-flaky 0 -0.1",
            "event 5 node-slow 0",           // missing factor
            "event 5 link-degraded 0 1 2 9", // trailing token
        ] {
            let err = script_from_text(bad).expect_err(bad).to_string();
            assert!(
                err.contains("factor")
                    || err.contains("probability")
                    || err.contains("tokens")
                    || err.contains("argument"),
                "unhelpful message for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn text_round_trips_fleet_lifecycle_kinds() {
        // The extended vocabulary (scale-up / scale-down / preemption-
        // warning) must survive the text round trip like every other
        // kind, preserving order, timestamps and node ids exactly.
        let script = vec![
            ClusterEvent::new(
                SimTime::from_micros(1_000_000),
                EventKind::PreemptionWarning(NodeId(1)),
            ),
            ClusterEvent::new(
                SimTime::from_micros(2_000_000),
                EventKind::ScaleDown(NodeId(1)),
            ),
            ClusterEvent::new(
                SimTime::from_micros(3_000_000),
                EventKind::ScaleUp(NodeId(0)),
            ),
        ];
        let text = script_to_text(&script);
        assert!(text.contains("event 1000000 preemption-warning 1"));
        assert!(text.contains("event 2000000 scale-down 1"));
        assert!(text.contains("event 3000000 scale-up 0"));
        let back = script_from_text(&text).unwrap();
        assert_eq!(script, back);
        // Malformed forms are rejected with the usual diagnostics.
        assert!(script_from_text("event 5 scale-up").is_err());
        assert!(script_from_text("event 5 scale-down x").is_err());
        assert!(script_from_text("event 5 preemption-warning 0 junk").is_err());
    }

    #[test]
    fn fleet_lifecycle_events_move_the_mask_deliberately() {
        let mut c = cluster();
        ClusterEvent::new(SimTime::ZERO, EventKind::ScaleDown(NodeId(1)))
            .apply(&mut c)
            .unwrap();
        assert_eq!(c.num_gpus(), 2, "scale-down releases the node");
        // A preemption warning is advisory: the node keeps serving.
        ClusterEvent::new(
            SimTime::from_micros(1),
            EventKind::PreemptionWarning(NodeId(0)),
        )
        .apply(&mut c)
        .unwrap();
        assert_eq!(c.num_gpus(), 2, "warning must not deactivate capacity");
        ClusterEvent::new(SimTime::from_micros(2), EventKind::ScaleUp(NodeId(1)))
            .apply(&mut c)
            .unwrap();
        assert_eq!(c.num_gpus(), 4, "scale-up re-acquires the node");
        // Unknown nodes are rejected for all three kinds.
        for kind in [
            EventKind::ScaleUp(NodeId(9)),
            EventKind::ScaleDown(NodeId(9)),
            EventKind::PreemptionWarning(NodeId(9)),
        ] {
            let e = ClusterEvent::new(SimTime::ZERO, kind);
            assert!(e.apply(&mut c).is_err());
        }
    }

    #[test]
    fn degradation_events_leave_the_mask_alone() {
        let mut c = cluster();
        for kind in [
            EventKind::NodeSlow(NodeId(0), 4.0),
            EventKind::LinkDegraded(NodeId(0), NodeId(1), 2.0),
            EventKind::HeartbeatFlaky(NodeId(1), 0.5),
        ] {
            ClusterEvent::new(SimTime::ZERO, kind)
                .apply(&mut c)
                .unwrap();
        }
        assert_eq!(c.num_gpus(), 4, "degradation must not deactivate capacity");
        let e = ClusterEvent::new(SimTime::ZERO, EventKind::NodeSlow(NodeId(9), 2.0));
        assert!(e.apply(&mut c).is_err(), "unknown node must be rejected");
    }
}
