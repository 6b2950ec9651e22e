//! The deterministic fleet controller.

use std::collections::BTreeSet;

use ts_cluster::ElasticPool;
use ts_common::{NodeId, Result, SimTime};

use crate::config::{AutoscaleConfig, COOLDOWN_SEGMENTS, MAX_RELEASE_PER_STEP};
use crate::observe::SegmentObservation;

/// One fleet edit the controller decided on at a segment boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAction {
    /// Acquire a parked spot node from the pool.
    Acquire(NodeId),
    /// Voluntarily release a held spot node back to the provider (the fleet
    /// runs cold; stop paying for it).
    Release(NodeId),
    /// Proactively drain a held node whose announced reclaim falls due:
    /// evict its replicas at this boundary so the reclaim lands on an empty
    /// node instead of crash-stopping work mid-flight.
    Drain(NodeId),
}

impl FleetAction {
    /// The node the action touches.
    pub fn node(self) -> NodeId {
        match self {
            FleetAction::Acquire(n) | FleetAction::Release(n) | FleetAction::Drain(n) => n,
        }
    }
}

/// Deterministic control loop over an [`ElasticPool`].
///
/// The controller owns the *held set*: base nodes are always held (and
/// never released), spot nodes are acquired and released as the observed
/// workload demands. Decisions are a pure function of the configuration,
/// the held set and the latest [`SegmentObservation`] — no randomness, no
/// wall clock — so a trajectory replays bit-identically.
#[derive(Debug, Clone)]
pub struct AutoscaleController {
    cfg: AutoscaleConfig,
    /// Spot nodes currently held (base nodes are implicit).
    held: BTreeSet<NodeId>,
    /// Spot nodes drained or released this trajectory whose reclaim was
    /// announced — never re-acquired (the provider is taking them back).
    lost: BTreeSet<NodeId>,
    /// Segments remaining before another voluntary action is allowed.
    cooldown: usize,
}

impl AutoscaleController {
    /// Creates a controller holding only the pool's base nodes.
    ///
    /// # Errors
    /// Returns [`ts_common::Error::InvalidConfig`] if the configuration is
    /// inconsistent ([`AutoscaleConfig::validate`]).
    pub fn new(cfg: AutoscaleConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(AutoscaleController {
            cfg,
            held: BTreeSet::new(),
            lost: BTreeSet::new(),
            cooldown: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// Spot nodes currently held.
    pub fn held(&self) -> &BTreeSet<NodeId> {
        &self.held
    }

    /// Records that the provider reclaimed a node out from under us (a
    /// mid-segment `ScaleDown` the drain did not beat): it is no longer
    /// held and never shopped again.
    pub fn note_reclaimed(&mut self, node: NodeId) {
        self.held.remove(&node);
        self.lost.insert(node);
    }

    /// Decides the fleet edits for the next segment.
    ///
    /// Order matters and is fixed: preemption drains first (they bypass the
    /// cooldown — the provider's deadline does not negotiate), then at most
    /// one voluntary direction, scale-up winning over scale-down when both
    /// triggers somehow fire. `now` is the current runtime clock; a warning
    /// is acted on once `reclaim_at` is within
    /// [`AutoscaleConfig::warning_lead_time`] of it.
    pub fn decide(
        &mut self,
        pool: &ElasticPool,
        obs: &SegmentObservation,
        now: SimTime,
    ) -> Vec<FleetAction> {
        let mut actions = Vec::new();

        // 1. Drains: a held node whose reclaim falls due within the lead
        //    window is evicted now, while the fleet can still reroute
        //    gracefully.
        for &(node, reclaim_at) in &obs.warned {
            let due = reclaim_at.saturating_since(now) <= self.cfg.warning_lead_time;
            if due && self.held.remove(&node) {
                self.lost.insert(node);
                actions.push(FleetAction::Drain(node));
            } else if due {
                // Warned about a node we don't hold (or already drained):
                // remember not to acquire it.
                self.lost.insert(node);
            }
        }

        if self.cooldown > 0 {
            self.cooldown -= 1;
            return actions;
        }

        let pressure = obs.attainment < self.cfg.attainment_floor
            || obs.prefill_queue > self.cfg.queue_depth_high;
        let cold = obs.attainment >= self.cfg.attainment_ceiling
            && obs.decode_duty < self.cfg.occupancy_low
            && obs.prefill_queue < 1.0;

        if pressure {
            // Acquire the cheapest parked spot nodes first: the tabu search
            // will decide what to run on them, the controller only shops.
            let mut candidates: Vec<NodeId> = pool
                .spot
                .iter()
                .copied()
                .filter(|n| !self.held.contains(n) && !self.lost.contains(n))
                .collect();
            candidates.sort_by(|&a, &b| {
                pool.node_price(a)
                    .partial_cmp(&pool.node_price(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for n in candidates.into_iter().take(self.cfg.max_acquire_per_step) {
                self.held.insert(n);
                actions.push(FleetAction::Acquire(n));
            }
        } else if cold {
            // Release the most expensive held node: biggest saving first.
            let mut held: Vec<NodeId> = self.held.iter().copied().collect();
            held.sort_by(|&a, &b| {
                pool.node_price(b)
                    .partial_cmp(&pool.node_price(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for n in held.into_iter().take(MAX_RELEASE_PER_STEP) {
                self.held.remove(&n);
                actions.push(FleetAction::Release(n));
            }
        }
        if actions
            .iter()
            .any(|a| matches!(a, FleetAction::Acquire(_) | FleetAction::Release(_)))
        {
            self.cooldown = COOLDOWN_SEGMENTS;
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets::elastic_cloud_pool;

    fn obs(attainment: f64, queue: f64, duty: f64) -> SegmentObservation {
        SegmentObservation {
            attainment,
            prefill_queue: queue,
            decode_duty: duty,
            warned: Vec::new(),
        }
    }

    #[test]
    fn pressure_acquires_cheapest_spot_first() {
        let pool = elastic_cloud_pool();
        let mut c = AutoscaleController::new(AutoscaleConfig {
            max_acquire_per_step: 1,
            ..AutoscaleConfig::default()
        })
        .unwrap();
        let a = c.decide(&pool, &obs(0.5, 10.0, 0.9), SimTime::ZERO);
        assert_eq!(a.len(), 1);
        let FleetAction::Acquire(n) = a[0] else {
            panic!("expected acquire, got {a:?}");
        };
        // Cheapest spot nodes in the pool are the A5000 boxes (6, 7).
        assert_eq!(n, NodeId(6));
        assert!(c.held().contains(&NodeId(6)));
    }

    /// Takes `segments` segments under `o`, asserting that each takes no
    /// voluntary action.
    fn cool_down(
        c: &mut AutoscaleController,
        pool: &ElasticPool,
        o: &SegmentObservation,
        segments: usize,
    ) {
        for step in 0..segments {
            let a = c.decide(pool, o, SimTime::ZERO);
            assert!(
                a.iter().all(|x| matches!(x, FleetAction::Drain(_))),
                "cooling step {step} took a voluntary action: {a:?}"
            );
        }
    }

    #[test]
    fn cooldown_suppresses_voluntary_actions_but_not_drains() {
        let pool = elastic_cloud_pool();
        let mut c = AutoscaleController::new(AutoscaleConfig::default()).unwrap();
        assert!(!c
            .decide(&pool, &obs(0.5, 10.0, 0.9), SimTime::ZERO)
            .is_empty());
        // The first cooling segment: still under pressure, so only the
        // cooldown holds the acquire back, and a due warning drains
        // regardless of it.
        let held = *c.held().iter().next().unwrap();
        let mut warned = obs(0.5, 10.0, 0.9);
        warned.warned = vec![(held, SimTime::from_secs_f64(30.0))];
        let a = c.decide(&pool, &warned, SimTime::ZERO);
        assert_eq!(a, vec![FleetAction::Drain(held)]);
        assert!(!c.held().contains(&held));
        cool_down(&mut c, &pool, &obs(0.5, 10.0, 0.9), COOLDOWN_SEGMENTS - 1);
        // The cooldown is over.
        let a = c.decide(&pool, &obs(0.5, 10.0, 0.9), SimTime::ZERO);
        assert!(
            a.iter().any(|x| matches!(x, FleetAction::Acquire(_))),
            "{a:?}"
        );
    }

    #[test]
    fn drained_nodes_are_never_reacquired() {
        let pool = elastic_cloud_pool();
        let mut c = AutoscaleController::new(AutoscaleConfig {
            max_acquire_per_step: 8,
            ..AutoscaleConfig::default()
        })
        .unwrap();
        // Acquire everything, then drain one on a warning.
        c.decide(&pool, &obs(0.5, 10.0, 0.9), SimTime::ZERO);
        let victim = *c.held().iter().next().unwrap();
        let mut warned = obs(0.99, 0.0, 0.9);
        warned.warned = vec![(victim, SimTime::ZERO)];
        c.decide(&pool, &warned, SimTime::ZERO);
        assert!(!c.held().contains(&victim));
        cool_down(&mut c, &pool, &obs(0.9, 1.0, 0.6), COOLDOWN_SEGMENTS);
        // Renewed pressure must not shop the reclaimed node again.
        let a = c.decide(&pool, &obs(0.5, 10.0, 0.9), SimTime::ZERO);
        assert!(
            a.iter().all(|x| x.node() != victim),
            "reclaimed node re-acquired: {a:?}"
        );
    }

    #[test]
    fn cold_fleet_releases_most_expensive_held_node() {
        let pool = elastic_cloud_pool();
        let mut c = AutoscaleController::new(AutoscaleConfig {
            max_acquire_per_step: 8,
            ..AutoscaleConfig::default()
        })
        .unwrap();
        c.decide(&pool, &obs(0.5, 10.0, 0.9), SimTime::ZERO);
        cool_down(&mut c, &pool, &obs(0.99, 0.0, 0.1), COOLDOWN_SEGMENTS);
        let dear = c
            .held()
            .iter()
            .copied()
            .max_by(|&a, &b| {
                pool.node_price(a)
                    .partial_cmp(&pool.node_price(b))
                    .unwrap()
                    .then(b.cmp(&a))
            })
            .unwrap();
        // A cold step releases one node, the dearest.
        let a = c.decide(&pool, &obs(0.99, 0.0, 0.1), SimTime::ZERO);
        assert_eq!(a, vec![FleetAction::Release(dear)]);
        // A release starts a cooldown too, even under pressure.
        cool_down(&mut c, &pool, &obs(0.5, 10.0, 0.9), COOLDOWN_SEGMENTS);
    }

    #[test]
    fn dead_band_holds_the_fleet_steady() {
        let pool = elastic_cloud_pool();
        let mut c = AutoscaleController::new(AutoscaleConfig::default()).unwrap();
        // Attainment between floor and ceiling, queues moderate: no action.
        assert!(c
            .decide(&pool, &obs(0.9, 1.0, 0.6), SimTime::ZERO)
            .is_empty());
    }

    #[test]
    fn far_future_warning_is_not_acted_on_yet() {
        let pool = elastic_cloud_pool();
        let mut c = AutoscaleController::new(AutoscaleConfig::default()).unwrap();
        c.decide(&pool, &obs(0.5, 10.0, 0.9), SimTime::ZERO);
        cool_down(&mut c, &pool, &obs(0.9, 1.0, 0.6), COOLDOWN_SEGMENTS);
        let held = *c.held().iter().next().unwrap();
        let mut warned = obs(0.9, 1.0, 0.6);
        // Reclaim a full hour out, lead time is 120 s: keep serving on it.
        warned.warned = vec![(held, SimTime::from_secs_f64(3600.0))];
        let a = c.decide(&pool, &warned, SimTime::ZERO);
        assert!(a.is_empty(), "{a:?}");
        assert!(c.held().contains(&held));
    }
}
