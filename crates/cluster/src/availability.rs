//! Availability events for dynamic-cluster experiments.
//!
//! Cloud resources are unstable (§3.4): nodes fail heartbeats, spot instances
//! are preempted, and capacity is added back later. A [`ClusterEvent`] is a
//! timestamped change to the availability mask of a [`crate::Cluster`]; the
//! runtime replays a script of these events to drive the Figure 11
//! experiment (4 of 32 GPUs going offline).

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
