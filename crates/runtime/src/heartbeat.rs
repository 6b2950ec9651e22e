//! GPU/node heartbeat monitoring (Appendix E).
//!
//! The paper's scheduler reacts to "a GPU heartbeat timeout that suggests a
//! need for cluster size adjustment". [`HeartbeatMonitor`] tracks the last
//! heartbeat per node against a timeout and reports nodes that went silent;
//! an operator turns an expiry into failure handling with
//! [`crate::ServingRuntime::handle_failure`]. Losses that strike mid-segment
//! are detected by the engine instead, by the same timeout rule
//! (`ts_sim::Simulation::detections`).

use std::collections::HashMap;
use ts_common::{NodeId, SimDuration, SimTime};

/// Tracks per-node heartbeats and flags timeouts.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    timeout: SimDuration,
    last_seen: HashMap<NodeId, SimTime>,
    reported: HashMap<NodeId, bool>,
}

impl HeartbeatMonitor {
    /// Creates a monitor that declares a node dead after `timeout` without a
    /// heartbeat.
    ///
    /// # Panics
    /// Panics if the timeout is zero.
    pub fn new(timeout: SimDuration) -> Self {
        assert!(!timeout.is_zero(), "heartbeat timeout must be positive");
        HeartbeatMonitor {
            timeout,
            last_seen: HashMap::new(),
            reported: HashMap::new(),
        }
    }

    /// Registers a node so silence counts against it from `now`. This is
    /// also the **only** path back from a reported outage: re-registering a
    /// dead node clears its flag (cloud capacity explicitly returning).
    pub fn register(&mut self, node: NodeId, now: SimTime) {
        self.last_seen.insert(node, now);
        self.reported.insert(node, false);
    }

    /// Records a heartbeat and returns whether it was accepted.
    ///
    /// Beats from unknown nodes are ignored (no implicit registration), and
    /// beats from nodes in a reported outage are ignored too: a flapping
    /// node cannot silently bounce back into the alive set on a stray beat —
    /// the control plane must re-admit it via [`HeartbeatMonitor::register`]
    /// once it considers the node healthy again.
    pub fn beat(&mut self, node: NodeId, now: SimTime) -> bool {
        if !self.last_seen.contains_key(&node) || self.is_dead(node) {
            return false;
        }
        self.last_seen.insert(node, now);
        true
    }

    /// Nodes whose last heartbeat is older than the timeout at `now`,
    /// reported **once** per outage (subsequent calls stay silent until the
    /// node beats again).
    pub fn expired(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut dead: Vec<NodeId> = Vec::new();
        for (&node, &seen) in &self.last_seen {
            let silent = now.saturating_since(seen);
            if silent > self.timeout && !self.reported.get(&node).copied().unwrap_or(false) {
                dead.push(node);
            }
        }
        dead.sort_unstable();
        for n in &dead {
            self.reported.insert(*n, true);
        }
        dead
    }

    /// Whether a node is currently flagged dead.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.reported.get(&node).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_micros(s * 1_000_000)
    }

    #[test]
    fn silent_node_expires_once() {
        let mut m = HeartbeatMonitor::new(SimDuration::from_secs(10));
        m.register(NodeId(0), t(0));
        m.register(NodeId(1), t(0));
        m.beat(NodeId(0), t(8));
        assert!(m.expired(t(9)).is_empty());
        assert_eq!(m.expired(t(11)), vec![NodeId(1)]);
        // second poll: already reported
        assert!(m.expired(t(12)).is_empty());
        assert!(m.is_dead(NodeId(1)));
        assert!(!m.is_dead(NodeId(0)));
    }

    #[test]
    fn dead_node_needs_explicit_reregistration() {
        let mut m = HeartbeatMonitor::new(SimDuration::from_secs(5));
        m.register(NodeId(3), t(0));
        assert_eq!(m.expired(t(6)), vec![NodeId(3)]);
        // A stray beat from the flagged node does NOT resurrect it.
        assert!(!m.beat(NodeId(3), t(7)));
        assert!(m.is_dead(NodeId(3)));
        // Explicit re-registration is the only way back in.
        m.register(NodeId(3), t(7));
        assert!(!m.is_dead(NodeId(3)));
        assert!(m.expired(t(11)).is_empty());
        assert_eq!(m.expired(t(13)), vec![NodeId(3)]);
    }

    #[test]
    fn unknown_node_beats_are_ignored() {
        let mut m = HeartbeatMonitor::new(SimDuration::from_secs(5));
        assert!(!m.beat(NodeId(9), t(1)), "no implicit registration");
        assert!(m.expired(t(100)).is_empty());
    }

    #[test]
    fn flapping_node_reports_once_per_admitted_outage() {
        // A node that flaps — beats, goes silent, expires, emits a stray
        // beat, is re-admitted, goes silent again — is reported exactly once
        // per outage the control plane actually admitted it for, and the
        // stray beats in between never short-circuit an outage.
        let mut m = HeartbeatMonitor::new(SimDuration::from_secs(5));
        m.register(NodeId(0), t(0));
        assert!(m.beat(NodeId(0), t(2)));
        // first outage
        assert_eq!(m.expired(t(8)), vec![NodeId(0)]);
        assert!(!m.beat(NodeId(0), t(9)), "flap: stray beat while dead");
        assert!(m.expired(t(10)).is_empty(), "still the same outage");
        assert!(m.is_dead(NodeId(0)));
        // control plane re-admits it
        m.register(NodeId(0), t(12));
        assert!(m.beat(NodeId(0), t(14)));
        assert!(m.expired(t(15)).is_empty());
        // second outage reports again
        assert_eq!(m.expired(t(20)), vec![NodeId(0)]);
        assert!(m.expired(t(25)).is_empty(), "reported once per outage");
    }

    #[test]
    fn multiple_expiries_sorted() {
        let mut m = HeartbeatMonitor::new(SimDuration::from_secs(1));
        for i in [4u32, 1, 3] {
            m.register(NodeId(i), t(0));
        }
        assert_eq!(m.expired(t(2)), vec![NodeId(1), NodeId(3), NodeId(4)]);
    }

    #[test]
    #[should_panic]
    fn zero_timeout_panics() {
        let _ = HeartbeatMonitor::new(SimDuration::ZERO);
    }
}
