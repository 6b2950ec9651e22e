//! Mid-flight fault injection for the serving engine.
//!
//! The paper's §3.4 failure experiments (Figure 11, Appendix E) flip cluster
//! availability *between* serving segments; this module lets the engine take
//! faults *during* a run. A [`FaultScript`] is a time-ordered list of
//! replica-, link- and service-level faults that
//! [`crate::engine::Simulation::run_with_faults`] consumes as ordinary
//! discrete events: capacity changes take effect at `at`, while recovery
//! actions wait one heartbeat `detection_delay` — between the two, lost work
//! stays silently lost, exactly as a real deployment would experience it.
//! A loss is detected only if its replica is still down when the delay runs
//! out ([`Detection`]); a blip that heals first is never seen.
//!
//! Scripts can be written by hand or derived from the runtime's
//! [`ts_cluster::availability::ClusterEvent`] scripts with
//! [`FaultScript::from_cluster_events`], which projects GPU-level
//! availability changes onto the replicas of a concrete deployment plan.
//!
//! # Colocated engines
//!
//! Because fault handling lives in the shared execution core
//! ([`crate::exec`]), the same scripts drive a colocated simulation
//! ([`crate::Simulation::colocated`]). A colocated
//! replica hosts both phases, so [`FaultKind::PrefillDown`]`(i)` and
//! [`FaultKind::DecodeDown`]`(i)` both mean "replica `i` dies" (and the
//! `*Up` variants both revive it); [`FaultKind::Pause`] is
//! topology-agnostic; the link faults are rejected with `InvalidConfig`
//! since colocated replicas have no inter-replica KV transfer fabric.

use std::collections::BTreeSet;
use ts_cluster::availability::{ClusterEvent, EventKind as ClusterEventKind};
use ts_cluster::Cluster;
use ts_common::{DeploymentPlan, GpuId, SimDuration, SimTime};

/// A single injected fault.
///
/// The crash-stop kinds (`*Down`/`*Up`, `LinkDown`/`LinkUp`, `Pause`) kill
/// or restore capacity outright. The *gray* kinds (`PrefillSlow`,
/// `DecodeSlow`, `LinkDegraded`, `HeartbeatFlaky`) model capacity that
/// stays online but underperforms — the dominant failure mode on cloud
/// GPUs. Degradation factors are slowdown multipliers (≥ 1; exactly 1
/// heals), so carrying them makes `FaultKind` `PartialEq` but not `Eq`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Prefill replica (engine index) dies: its queued and in-flight batches
    /// are lost until detection, then re-routed to survivors.
    PrefillDown(usize),
    /// Decode replica (engine index) dies: sequences decoding on it lose
    /// their KV cache and must be re-prefilled on a survivor.
    DecodeDown(usize),
    /// Prefill replica comes (back) online, immediately accepting work.
    PrefillUp(usize),
    /// Decode replica comes (back) online with an empty KV cache.
    DecodeUp(usize),
    /// The prefill→decode transfer link of a replica pair goes down:
    /// transfers completing while it is down are retried with capped
    /// exponential backoff.
    LinkDown {
        /// Engine index of the sending prefill replica.
        prefill: usize,
        /// Engine index of the receiving decode replica.
        decode: usize,
    },
    /// The pair's transfer link recovers.
    LinkUp {
        /// Engine index of the sending prefill replica.
        prefill: usize,
        /// Engine index of the receiving decode replica.
        decode: usize,
    },
    /// Whole-service pause until the given time (models the reload blackout
    /// of a full reschedule happening mid-segment): arrivals stall in the
    /// coordinator up to the shed threshold, in-system work drains.
    Pause {
        /// When the service resumes.
        until: SimTime,
    },
    /// Prefill replica becomes a straggler: its batch iteration times
    /// multiply by `factor` (≥ 1; exactly 1 heals it). On colocated
    /// engines, like `PrefillDown`, the index names the whole replica and
    /// both phases slow down.
    PrefillSlow(usize, f64),
    /// Decode replica becomes a straggler: its decode step times multiply
    /// by `factor` (≥ 1; exactly 1 heals it). Colocated: same semantics as
    /// [`FaultKind::PrefillSlow`].
    DecodeSlow(usize, f64),
    /// The prefill→decode transfer path of a replica pair loses bandwidth:
    /// legacy modeled transfers take `factor`× longer, and under
    /// `KvTransfer::Fabric` the fabric links along the pair's KV route have
    /// their capacity divided by `factor` with in-flight flows re-fair-
    /// shared live. Factor ≥ 1; exactly 1 heals.
    LinkDegraded {
        /// Engine index of the sending prefill replica.
        prefill: usize,
        /// Engine index of the receiving decode replica.
        decode: usize,
        /// Slowdown multiplier (≥ 1; 1 heals).
        factor: f64,
    },
    /// A replica host's heartbeats are lost with probability `loss_prob`
    /// per beat window (the script's `detection_delay`), drawn from the
    /// engine's seeded fault RNG. A missed beat masks the replica out of
    /// routing as a false positive; the next delivered beat readmits it.
    /// `loss_prob` of 0 heals. The host index counts prefill replicas
    /// first, then decode replicas (colocated: the replica index).
    HeartbeatFlaky(usize, f64),
}

/// A fault and the time it takes effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedFault {
    /// When the fault strikes (capacity changes immediately).
    pub at: SimTime,
    /// What breaks (or heals).
    pub kind: FaultKind,
}

/// A replica loss the engine acts on: the `PrefillDown`/`DecodeDown` fault
/// at index `fault` of [`FaultScript::faults`] is detected at `at`, one
/// `detection_delay` after it struck, because its replica is still down
/// then. [`crate::engine::Simulation::detections`] lists them for a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// When the loss is detected.
    pub at: SimTime,
    /// Index of the detected fault in the script.
    pub fault: usize,
}

/// A time-ordered fault injection plan for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    /// The faults, sorted by time (constructors enforce this).
    pub faults: Vec<TimedFault>,
    /// Heartbeat detection delay: recovery actions for a fault at `t` run at
    /// `t + detection_delay`. Up/healing faults act immediately.
    pub detection_delay: SimDuration,
    /// Whether the engine actively recovers (re-route, re-prefill, retry).
    /// With `false` the faults still destroy capacity and work, but nothing
    /// is rescued — the `ReschedulePolicy::None` baseline.
    pub recovery: bool,
}

impl FaultScript {
    /// The empty script: `run_with_faults` with this is exactly `run`.
    pub fn none() -> Self {
        FaultScript::default()
    }

    /// Builds a script with recovery enabled, sorting the faults by time.
    pub fn new(mut faults: Vec<TimedFault>, detection_delay: SimDuration) -> Self {
        faults.sort_by_key(|f| f.at);
        FaultScript {
            faults,
            detection_delay,
            recovery: true,
        }
    }

    /// Returns a copy with recovery disabled (faults destroy work; nothing
    /// is re-routed, re-prefilled or retried).
    pub fn without_recovery(mut self) -> Self {
        self.recovery = false;
        self
    }

    /// Whether the script injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Projects a cluster availability script onto the replicas of `plan`:
    /// a replica is down while *any* of its GPUs is down. Emits one
    /// `PrefillDown`/`DecodeDown`/`PrefillUp`/`DecodeUp` fault per replica
    /// liveness transition, at the cluster event's time. `cluster` is only
    /// used to resolve node ids to GPU lists; its current availability mask
    /// is ignored (the plan's replicas are assumed live at time zero).
    pub fn from_cluster_events(
        cluster: &Cluster,
        plan: &DeploymentPlan,
        events: &[ClusterEvent],
        detection_delay: SimDuration,
    ) -> Self {
        let mut events: Vec<ClusterEvent> = events.to_vec();
        ts_cluster::availability::sort_script(&mut events);

        // GPU sets per replica, in engine (routing) order.
        let replica_gpus =
            |group_idx: usize| -> BTreeSet<GpuId> { plan.groups[group_idx].gpus().collect() };
        let prefills: Vec<BTreeSet<GpuId>> = plan
            .prefill_indices()
            .into_iter()
            .map(replica_gpus)
            .collect();
        let decodes: Vec<BTreeSet<GpuId>> = plan
            .decode_indices()
            .into_iter()
            .map(replica_gpus)
            .collect();

        let mut down: BTreeSet<GpuId> = BTreeSet::new();
        let mut prefill_dead = vec![false; prefills.len()];
        let mut decode_dead = vec![false; decodes.len()];
        let mut faults = Vec::new();

        let node_gpus = |n: ts_common::NodeId| -> BTreeSet<GpuId> {
            cluster.node(n).gpus.iter().copied().collect()
        };
        let on_node = |sets: &[BTreeSet<GpuId>], gpus: &BTreeSet<GpuId>| -> Vec<usize> {
            sets.iter()
                .enumerate()
                .filter(|(_, s)| !s.is_disjoint(gpus))
                .map(|(i, _)| i)
                .collect()
        };
        for ev in &events {
            match &ev.kind {
                // A spot reclaim (`ScaleDown`) that lands while replicas
                // still occupy the node is a crash-stop from the engine's
                // point of view — exactly a `NodeDown`. A drained node has
                // no replicas on it, so the projection naturally emits
                // nothing.
                ClusterEventKind::NodeDown(n) | ClusterEventKind::ScaleDown(n) => {
                    down.extend(cluster.node(*n).gpus.iter().copied());
                }
                ClusterEventKind::NodeUp(n) | ClusterEventKind::ScaleUp(n) => {
                    for g in &cluster.node(*n).gpus {
                        down.remove(g);
                    }
                }
                // Advisory: nothing fails until the reclaim itself lands.
                ClusterEventKind::PreemptionWarning(_) => {}
                ClusterEventKind::GpusDown(ids) => down.extend(ids.iter().copied()),
                ClusterEventKind::GpusUp(ids) => {
                    for g in ids {
                        down.remove(g);
                    }
                }
                // Gray kinds don't change the availability mask: project
                // them straight onto the replicas hosted by the node(s).
                ClusterEventKind::NodeSlow(n, f) => {
                    let gpus = node_gpus(*n);
                    for i in on_node(&prefills, &gpus) {
                        faults.push(TimedFault {
                            at: ev.at,
                            kind: FaultKind::PrefillSlow(i, *f),
                        });
                    }
                    for j in on_node(&decodes, &gpus) {
                        faults.push(TimedFault {
                            at: ev.at,
                            kind: FaultKind::DecodeSlow(j, *f),
                        });
                    }
                }
                ClusterEventKind::LinkDegraded(a, b, f) => {
                    let (ga, gb) = (node_gpus(*a), node_gpus(*b));
                    for i in on_node(&prefills, &ga) {
                        for j in on_node(&decodes, &gb) {
                            faults.push(TimedFault {
                                at: ev.at,
                                kind: FaultKind::LinkDegraded {
                                    prefill: i,
                                    decode: j,
                                    factor: *f,
                                },
                            });
                        }
                    }
                }
                ClusterEventKind::HeartbeatFlaky(n, p) => {
                    let gpus = node_gpus(*n);
                    for i in on_node(&prefills, &gpus) {
                        faults.push(TimedFault {
                            at: ev.at,
                            kind: FaultKind::HeartbeatFlaky(i, *p),
                        });
                    }
                    for j in on_node(&decodes, &gpus) {
                        faults.push(TimedFault {
                            at: ev.at,
                            kind: FaultKind::HeartbeatFlaky(prefills.len() + j, *p),
                        });
                    }
                }
            }
            let mut transition =
                |dead: &mut [bool], gpus: &[BTreeSet<GpuId>], mk: fn(usize, bool) -> FaultKind| {
                    for (i, set) in gpus.iter().enumerate() {
                        let now_dead = set.iter().any(|g| down.contains(g));
                        if now_dead != dead[i] {
                            dead[i] = now_dead;
                            faults.push(TimedFault {
                                at: ev.at,
                                kind: mk(i, now_dead),
                            });
                        }
                    }
                };
            transition(&mut prefill_dead, &prefills, |i, d| {
                if d {
                    FaultKind::PrefillDown(i)
                } else {
                    FaultKind::PrefillUp(i)
                }
            });
            transition(&mut decode_dead, &decodes, |i, d| {
                if d {
                    FaultKind::DecodeDown(i)
                } else {
                    FaultKind::DecodeUp(i)
                }
            });
        }
        FaultScript::new(faults, detection_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::catalog::GpuModel;
    use ts_cluster::topology::ClusterBuilder;
    use ts_common::{GroupSpec, NodeId, Phase, RoutingMatrix};

    fn testbed() -> (Cluster, DeploymentPlan) {
        let cluster = ClusterBuilder::new()
            .node("a", GpuModel::A5000, 2)
            .node("b", GpuModel::A5000, 2)
            .build()
            .unwrap();
        let single = |phase, id: u32| GroupSpec::single_stage(phase, vec![GpuId(id)], 40).unwrap();
        let plan = DeploymentPlan::new(
            vec![
                single(Phase::Prefill, 0),
                single(Phase::Decode, 2),
                single(Phase::Decode, 3),
            ],
            RoutingMatrix::uniform(1, 2),
        )
        .unwrap();
        (cluster, plan)
    }

    #[test]
    fn empty_script_is_empty() {
        assert!(FaultScript::none().is_empty());
        assert!(!FaultScript::none().recovery || FaultScript::none().faults.is_empty());
    }

    #[test]
    fn new_sorts_by_time() {
        let s = FaultScript::new(
            vec![
                TimedFault {
                    at: SimTime::from_secs_f64(5.0),
                    kind: FaultKind::DecodeDown(0),
                },
                TimedFault {
                    at: SimTime::from_secs_f64(1.0),
                    kind: FaultKind::PrefillDown(0),
                },
            ],
            SimDuration::from_millis(100),
        );
        assert_eq!(s.faults[0].kind, FaultKind::PrefillDown(0));
        assert!(s.recovery);
        assert!(!s.clone().without_recovery().recovery);
    }

    #[test]
    fn cluster_events_project_onto_replicas() {
        let (cluster, plan) = testbed();
        let events = vec![
            // GPU 2 hosts decode replica 0
            ClusterEvent::new(
                SimTime::from_secs_f64(2.0),
                ClusterEventKind::GpusDown(vec![GpuId(2)]),
            ),
            ClusterEvent::new(
                SimTime::from_secs_f64(4.0),
                ClusterEventKind::GpusUp(vec![GpuId(2)]),
            ),
        ];
        let s = FaultScript::from_cluster_events(
            &cluster,
            &plan,
            &events,
            SimDuration::from_millis(50),
        );
        assert_eq!(
            s.faults.iter().map(|f| f.kind).collect::<Vec<_>>(),
            vec![FaultKind::DecodeDown(0), FaultKind::DecodeUp(0)]
        );
        assert_eq!(s.detection_delay, SimDuration::from_millis(50));
    }

    #[test]
    fn node_down_kills_every_replica_on_it() {
        let (cluster, plan) = testbed();
        // node b hosts GPUs 2 and 3 -> both decode replicas die
        let events = vec![ClusterEvent::new(
            SimTime::from_secs_f64(1.0),
            ClusterEventKind::NodeDown(NodeId(1)),
        )];
        let s = FaultScript::from_cluster_events(
            &cluster,
            &plan,
            &events,
            SimDuration::from_millis(50),
        );
        assert_eq!(
            s.faults.iter().map(|f| f.kind).collect::<Vec<_>>(),
            vec![FaultKind::DecodeDown(0), FaultKind::DecodeDown(1)]
        );
    }

    #[test]
    fn gray_cluster_events_project_onto_replicas() {
        let (cluster, plan) = testbed();
        // Node a (GPUs 0,1) hosts the prefill replica; node b (GPUs 2,3)
        // hosts both decode replicas.
        let events = vec![
            ClusterEvent::new(
                SimTime::from_secs_f64(1.0),
                ClusterEventKind::NodeSlow(NodeId(1), 4.0),
            ),
            ClusterEvent::new(
                SimTime::from_secs_f64(2.0),
                ClusterEventKind::LinkDegraded(NodeId(0), NodeId(1), 8.0),
            ),
            ClusterEvent::new(
                SimTime::from_secs_f64(3.0),
                ClusterEventKind::HeartbeatFlaky(NodeId(0), 0.5),
            ),
        ];
        let s = FaultScript::from_cluster_events(
            &cluster,
            &plan,
            &events,
            SimDuration::from_millis(50),
        );
        assert_eq!(
            s.faults.iter().map(|f| f.kind).collect::<Vec<_>>(),
            vec![
                FaultKind::DecodeSlow(0, 4.0),
                FaultKind::DecodeSlow(1, 4.0),
                FaultKind::LinkDegraded {
                    prefill: 0,
                    decode: 0,
                    factor: 8.0
                },
                FaultKind::LinkDegraded {
                    prefill: 0,
                    decode: 1,
                    factor: 8.0
                },
                // Host indices count prefills first: prefill 0 -> host 0.
                FaultKind::HeartbeatFlaky(0, 0.5),
            ]
        );
    }

    #[test]
    fn redundant_events_emit_no_duplicate_transitions() {
        let (cluster, plan) = testbed();
        let down = |t: f64| {
            ClusterEvent::new(
                SimTime::from_secs_f64(t),
                ClusterEventKind::GpusDown(vec![GpuId(2)]),
            )
        };
        let s = FaultScript::from_cluster_events(
            &cluster,
            &plan,
            &[down(1.0), down(2.0)],
            SimDuration::ZERO,
        );
        assert_eq!(s.faults.len(), 1);
    }
}
