//! Epoch-driven online serving with rescheduling.
//!
//! A [`ServingRuntime`] owns the cluster view, the current deployment plan
//! and the workload profiler. The bench harness and examples drive it with
//! request segments and availability events; between segments it can
//! reschedule with one of three policies, reproducing the Figure 11 / Table
//! 4 experiments:
//!
//! * [`ReschedulePolicy::None`] — keep the plan, only drop dead groups;
//! * [`ReschedulePolicy::Lightweight`] — flip-only tabu + re-orchestration,
//!   zero reload (§3.4);
//! * [`ReschedulePolicy::Full`] — full two-level search plus a modeled
//!   weight-reload blackout during which arriving requests queue.
//!
//! Segments execute on `ts_sim`'s unified execution substrate: the runtime
//! drives the phase-split facade, but the identical event loop and fault
//! layer back the colocated baselines, so per-segment `RecoveryCounters`
//! are comparable across every system the experiments run.

use thunderserve_core::config::SchedulerConfig;
use thunderserve_core::orchestrate::sim_config;
use thunderserve_core::reschedule::{
    fleet_reschedule, full_reschedule, lightweight_reschedule, no_reschedule, reload_time,
    FleetDelta, RescheduleOutcome,
};
use thunderserve_core::Scheduler;
use ts_cluster::availability::{sort_script, ClusterEvent, EventKind};
use ts_cluster::Cluster;
use ts_common::{
    DeploymentPlan, Error, GpuId, ModelSpec, NodeId, Request, Result, SimDuration, SimTime, SloSpec,
};
use ts_sim::engine::Simulation;
use ts_sim::fault::{FaultKind, FaultScript, TimedFault};
use ts_sim::metrics::Metrics;
use ts_telemetry::PressureTally;
use ts_workload::{WorkloadProfiler, WorkloadSpec};

/// How to react to failures and workload shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReschedulePolicy {
    /// Keep the deployment plan as-is (prune dead groups only).
    None,
    /// Lightweight rescheduling: phase flips + re-orchestration.
    Lightweight,
    /// Full rescheduling: new plan from scratch + parameter reload blackout.
    Full,
}

/// Outcome of serving one request segment.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// Serving metrics for the segment.
    pub metrics: Metrics,
    /// Reload blackout that applied at the start of this segment.
    pub blackout: SimDuration,
    /// Per-replica queue depth and batch occupancy of the segment,
    /// integrated online (the autoscale controller reads its pressure
    /// signals from it). Every segment runs with the tally; it records no
    /// events, so it costs a few words per replica.
    pub pressure: PressureTally,
}

/// Fraction of the active fleet a [`FleetDelta`] may touch before
/// [`ServingRuntime::apply_fleet_delta`] escalates from the zero-reload
/// graft/prune path to a full re-plan with its weight-reload blackout.
pub const DEFAULT_FULL_REPLAN_FRACTION: f64 = 0.5;

/// The online serving runtime.
pub struct ServingRuntime {
    cluster: Cluster,
    model: ModelSpec,
    slo: SloSpec,
    scheduler_cfg: SchedulerConfig,
    plan: Option<DeploymentPlan>,
    profiler: WorkloadProfiler,
    /// Blackout pending from the last full reschedule (consumed by the next
    /// segment).
    pending_blackout: SimDuration,
    /// Log of rescheduling outcomes for reporting (Table 4).
    pub resched_log: Vec<(ReschedulePolicy, RescheduleOutcome)>,
}

/// Whether any of the node's GPUs is active (the node is in the fleet).
fn node_in_fleet(cluster: &Cluster, node: NodeId) -> bool {
    cluster
        .node(node)
        .gpus
        .iter()
        .any(|&g| cluster.is_active(g))
}

impl ServingRuntime {
    /// Creates a runtime over a snapshot of the cluster: the nodes with an
    /// active GPU are the fleet.
    pub fn new(
        cluster: Cluster,
        model: ModelSpec,
        slo: SloSpec,
        scheduler_cfg: SchedulerConfig,
    ) -> Self {
        ServingRuntime {
            cluster,
            model,
            slo,
            scheduler_cfg,
            plan: None,
            profiler: WorkloadProfiler::new(SimDuration::from_secs(300), 2.0, 30),
            pending_blackout: SimDuration::ZERO,
            resched_log: Vec::new(),
        }
    }

    /// The current plan, if deployed.
    pub fn plan(&self) -> Option<&DeploymentPlan> {
        self.plan.as_ref()
    }

    /// The runtime's cluster view.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Runs the initial scheduling and deploys the plan.
    ///
    /// # Errors
    /// Propagates scheduler failures.
    pub fn deploy(&mut self, workload: &WorkloadSpec) -> Result<()> {
        let result = Scheduler::new(self.scheduler_cfg.clone()).schedule(
            &self.cluster,
            &self.model,
            workload,
            &self.slo,
        )?;
        self.plan = Some(result.plan);
        Ok(())
    }

    /// Serves one request segment with the current plan on the current
    /// cluster. A pending reload blackout delays every request arriving
    /// before it ends (they queue at the coordinator).
    ///
    /// # Errors
    /// Returns [`Error::Runtime`] if no plan is deployed; propagates
    /// simulation errors.
    pub fn serve_segment(&mut self, requests: &[Request]) -> Result<SegmentReport> {
        let plan = self
            .plan
            .as_ref()
            .ok_or_else(|| Error::Runtime("serve_segment before deploy".into()))?;
        let blackout = std::mem::replace(&mut self.pending_blackout, SimDuration::ZERO);
        let adjusted = shift_for_blackout(requests, blackout);
        for r in requests {
            self.profiler.observe(*r);
        }
        let cfg = self.segment_cfg();
        let mut sim = Simulation::new(&self.cluster, plan, cfg)?;
        let metrics = sim.run(&adjusted)?;
        let pressure = sim.take_pressure().expect("segment_cfg attaches the tally");
        Ok(SegmentReport {
            metrics,
            blackout,
            pressure,
        })
    }

    /// The per-segment engine config: the scheduler-derived base with the
    /// pressure tally attached.
    fn segment_cfg(&self) -> ts_sim::SimConfig {
        sim_config(&self.model, &self.scheduler_cfg).with_pressure(true)
    }

    /// Serves one segment while availability `events` strike **mid-flight**:
    /// the events are projected onto the current plan's replicas
    /// ([`FaultScript::from_cluster_events`]) and injected into the engine,
    /// so in-flight requests on failed replicas are re-routed/re-prefilled
    /// (or lost, under [`ReschedulePolicy::None`]) as the run progresses.
    ///
    /// `heartbeat_timeout` is the engine's detection delay: a lost replica
    /// is detected one timeout later if it is still down then
    /// ([`Simulation::detections`]). Under [`ReschedulePolicy::Full`]
    /// the first detection additionally pauses the whole service for the
    /// modeled weight-reload time — the mid-segment equivalent of the
    /// between-segment reload blackout.
    ///
    /// After the segment, the events are applied to the runtime's cluster
    /// view. A fleet change (a `ScaleDown` of an in-fleet node or a
    /// `ScaleUp` of a parked one) edits the plan with
    /// [`fleet_reschedule`]; otherwise the policy's reschedule runs if the
    /// engine detected a loss or GPUs failed or returned. A node blip
    /// shorter than the timeout is never detected and triggers nothing. A
    /// full reschedule after a detection carries no *additional* pending
    /// blackout: the reload was already paid in-flight as the pause.
    ///
    /// # Errors
    /// Returns [`Error::Runtime`] if no plan is deployed; propagates
    /// simulation, event-application and rescheduling failures (except under
    /// `None`, where an infeasible prune keeps the old plan — the dead
    /// replicas simply stop answering).
    pub fn serve_segment_with_faults(
        &mut self,
        requests: &[Request],
        events: &[ClusterEvent],
        policy: ReschedulePolicy,
        workload: &WorkloadSpec,
        heartbeat_timeout: SimDuration,
    ) -> Result<SegmentReport> {
        let plan = self
            .plan
            .as_ref()
            .ok_or_else(|| Error::Runtime("serve_segment_with_faults before deploy".into()))?;
        let blackout = std::mem::replace(&mut self.pending_blackout, SimDuration::ZERO);
        let adjusted = shift_for_blackout(requests, blackout);
        for r in requests {
            self.profiler.observe(*r);
        }

        let mut script =
            FaultScript::from_cluster_events(&self.cluster, plan, events, heartbeat_timeout);
        if policy == ReschedulePolicy::None {
            script = script.without_recovery();
        }
        let cfg = self.segment_cfg();
        let mut sim = Simulation::new(&self.cluster, plan, cfg)?;
        let detections = sim.detections(&script)?;
        // Full rescheduling mid-segment reloads weights: pause the service
        // from the first detection until the reload completes.
        let pause_at = detections
            .first()
            .filter(|_| policy == ReschedulePolicy::Full)
            .map(|d| d.at);
        if let Some(detect) = pause_at {
            let reload = reload_time(&self.cluster, &self.model, plan, &self.scheduler_cfg);
            script.faults.push(TimedFault {
                at: detect,
                kind: FaultKind::Pause {
                    until: detect + reload,
                },
            });
            script.faults.sort_by_key(|f| f.at);
        }
        let metrics = sim.run_with_faults(&adjusted, &script)?;
        let pressure = sim.take_pressure().expect("segment_cfg attaches the tally");

        // Deliberate fleet changes, judged against the fleet before the
        // segment: a reclaim of a node already drained out of the fleet is a
        // no-op by design. GPU-level events come from explicit device errors
        // and are always known. Gray degradations leave the availability
        // mask (and thus the plan's feasibility) untouched, and preemption
        // warnings are advisory: neither triggers anything here.
        let mut sorted = events.to_vec();
        sort_script(&mut sorted);
        let mut delta = FleetDelta::default();
        let mut gpu_level_change = false;
        for ev in &sorted {
            match &ev.kind {
                EventKind::ScaleDown(n) if node_in_fleet(&self.cluster, *n) => {
                    delta.released.push(*n);
                }
                EventKind::ScaleUp(n) if !node_in_fleet(&self.cluster, *n) => {
                    delta.acquired.push(*n);
                }
                EventKind::GpusDown(_) | EventKind::GpusUp(_) => gpu_level_change = true,
                _ => {}
            }
        }
        for ev in &sorted {
            ev.apply(&mut self.cluster)?;
        }
        if !delta.is_empty() {
            // Deliberate fleet change: graft acquired nodes / prune released
            // ones with zero reload where possible. The same pass also drops
            // any groups a concurrent outage killed.
            self.reschedule_fleet(&delta, workload, DEFAULT_FULL_REPLAN_FRACTION)?;
            if pause_at.is_some() {
                self.pending_blackout = SimDuration::ZERO;
            }
        } else if !detections.is_empty() || gpu_level_change {
            match self.reschedule(workload, policy) {
                // Under `None` a phase may have lost every replica, making
                // even the prune infeasible; the old plan stays and the dead
                // replicas just stop answering.
                Err(_) if policy == ReschedulePolicy::None => {}
                other => other?,
            }
            if pause_at.is_some() {
                // The reload was served in-flight as the pause; don't charge
                // the next segment again.
                self.pending_blackout = SimDuration::ZERO;
            }
        }
        Ok(SegmentReport {
            metrics,
            blackout,
            pressure,
        })
    }

    /// Whether the profiler currently flags a workload shift.
    pub fn shift_detected(&self) -> bool {
        self.profiler.shift_detected()
    }

    /// Marks the current workload statistics as the post-schedule baseline.
    pub fn rebaseline(&mut self) {
        self.profiler.rebaseline();
    }

    /// Handles a GPU failure: marks the GPUs inactive and applies the
    /// rescheduling policy.
    ///
    /// # Errors
    /// Propagates rescheduling failures (e.g. a phase losing all replicas
    /// under [`ReschedulePolicy::None`]).
    pub fn handle_failure(
        &mut self,
        failed: &[GpuId],
        workload: &WorkloadSpec,
        policy: ReschedulePolicy,
    ) -> Result<()> {
        self.cluster.deactivate_gpus(failed)?;
        self.reschedule(workload, policy)
    }

    /// Applies a deliberate fleet change between segments: released nodes
    /// are deactivated (their silence is expected, not an outage) and
    /// acquired nodes activated. The plan is then adjusted with
    /// [`fleet_reschedule`]: zero reload for small deltas, a full re-plan
    /// with blackout when the delta exceeds `full_replan_fraction` of the
    /// active fleet.
    ///
    /// # Errors
    /// Returns [`Error::Runtime`] if no plan is deployed; propagates
    /// cluster-edit and rescheduling failures.
    pub fn apply_fleet_delta(
        &mut self,
        delta: &FleetDelta,
        workload: &WorkloadSpec,
        full_replan_fraction: f64,
    ) -> Result<()> {
        for &n in &delta.released {
            self.cluster.deactivate_node(n)?;
        }
        for &n in &delta.acquired {
            self.cluster.activate_node(n)?;
        }
        if delta.is_empty() {
            return Ok(());
        }
        self.reschedule_fleet(delta, workload, full_replan_fraction)
    }

    /// Runs [`fleet_reschedule`] against the current plan (the cluster mask
    /// must already reflect the delta) and installs the outcome, its log
    /// entry tagged by what the edit actually cost: zero reload reads as
    /// lightweight, a reload as full.
    fn reschedule_fleet(
        &mut self,
        delta: &FleetDelta,
        workload: &WorkloadSpec,
        full_replan_fraction: f64,
    ) -> Result<()> {
        let current = self
            .plan
            .as_ref()
            .ok_or_else(|| Error::Runtime("fleet delta before deploy".into()))?;
        let outcome = fleet_reschedule(
            &self.cluster,
            &self.model,
            current,
            delta,
            workload,
            &self.slo,
            &self.scheduler_cfg,
            full_replan_fraction,
        )?;
        let policy = if outcome.reload_time.is_zero() {
            ReschedulePolicy::Lightweight
        } else {
            ReschedulePolicy::Full
        };
        self.commit_outcome(policy, outcome);
        Ok(())
    }

    /// Installs a reschedule outcome: pending blackout, plan, a log entry
    /// tagged `policy`, and the profiler's new baseline.
    fn commit_outcome(&mut self, policy: ReschedulePolicy, outcome: RescheduleOutcome) {
        self.pending_blackout = outcome.reload_time;
        self.plan = Some(outcome.plan.clone());
        self.resched_log.push((policy, outcome));
        self.rebaseline();
    }

    /// Applies a rescheduling policy to adapt the current plan to the
    /// current cluster and workload.
    ///
    /// # Errors
    /// Returns [`Error::Runtime`] if no plan is deployed; propagates
    /// rescheduling failures.
    pub fn reschedule(&mut self, workload: &WorkloadSpec, policy: ReschedulePolicy) -> Result<()> {
        let current = self
            .plan
            .as_ref()
            .ok_or_else(|| Error::Runtime("reschedule before deploy".into()))?;
        let outcome = match policy {
            ReschedulePolicy::None => no_reschedule(
                &self.cluster,
                &self.model,
                current,
                workload,
                &self.slo,
                &self.scheduler_cfg,
            )?,
            ReschedulePolicy::Lightweight => lightweight_reschedule(
                &self.cluster,
                &self.model,
                current,
                workload,
                &self.slo,
                &self.scheduler_cfg,
            )?,
            ReschedulePolicy::Full => full_reschedule(
                &self.cluster,
                &self.model,
                workload,
                &self.slo,
                &self.scheduler_cfg,
            )?,
        };
        self.commit_outcome(policy, outcome);
        Ok(())
    }
}

/// Requests arriving during a reload blackout queue at the coordinator and
/// enter the engine when service resumes.
fn shift_for_blackout(requests: &[Request], blackout: SimDuration) -> Vec<Request> {
    if blackout.is_zero() {
        return requests.to_vec();
    }
    let resume = SimTime::ZERO + blackout;
    requests
        .iter()
        .map(|r| Request {
            arrival: r.arrival.max(resume),
            ..*r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_common::SloKind;
    use ts_workload::{generator::generate, spec};

    fn slo() -> SloSpec {
        SloSpec::new(
            SimDuration::from_secs(5),
            SimDuration::from_millis(300),
            SimDuration::from_secs(60),
        )
    }

    fn runtime() -> ServingRuntime {
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 9;
        ServingRuntime::new(
            presets::paper_cloud_cluster(),
            ModelSpec::llama_30b(),
            slo(),
            cfg,
        )
    }

    #[test]
    fn deploy_then_serve() {
        let mut rt = runtime();
        let w = spec::coding(2.0);
        rt.deploy(&w).unwrap();
        let reqs = generate(&w, SimDuration::from_secs(60), 1);
        let rep = rt.serve_segment(&reqs).unwrap();
        assert_eq!(
            rep.metrics.num_completed() + rep.metrics.num_dropped(),
            reqs.len()
        );
        assert!(rep.blackout.is_zero());
    }

    #[test]
    fn serve_before_deploy_errors() {
        let mut rt = runtime();
        assert!(matches!(rt.serve_segment(&[]), Err(Error::Runtime(_))));
    }

    #[test]
    fn failure_with_lightweight_keeps_serving() {
        let mut rt = runtime();
        let w = spec::coding(2.0);
        rt.deploy(&w).unwrap();
        // Fail 4 of 32 GPUs (a 3090Ti instance), as in Figure 11.
        let failed: Vec<GpuId> = (28..32).map(GpuId).collect();
        rt.handle_failure(&failed, &w, ReschedulePolicy::Lightweight)
            .unwrap();
        let reqs = generate(&w, SimDuration::from_secs(60), 2);
        let rep = rt.serve_segment(&reqs).unwrap();
        assert!(rep.blackout.is_zero(), "lightweight must not blackout");
        assert!(rep.metrics.num_completed() > 0);
        // the new plan avoids failed GPUs
        for g in &rt.plan().unwrap().groups {
            for gpu in g.gpus() {
                assert!(rt.cluster().is_active(gpu));
            }
        }
    }

    #[test]
    fn full_reschedule_incurs_blackout() {
        let mut rt = runtime();
        let w = spec::coding(2.0);
        rt.deploy(&w).unwrap();
        rt.reschedule(&w, ReschedulePolicy::Full).unwrap();
        let reqs = generate(&w, SimDuration::from_secs(60), 3);
        let rep = rt.serve_segment(&reqs).unwrap();
        assert!(
            rep.blackout.as_secs_f64() > 5.0,
            "full reschedule should blackout, got {}",
            rep.blackout
        );
        // TTFT of early requests suffers from the blackout.
        let p50 = rep.metrics.latency_percentile(SloKind::Ttft, 0.5).unwrap();
        assert!(p50 > SimDuration::from_secs(1));
    }

    #[test]
    fn lightweight_beats_none_after_shift() {
        let mut rt = runtime();
        let coding = spec::coding(2.0);
        rt.deploy(&coding).unwrap();
        let conv = spec::conversation(2.5);
        let reqs = generate(&conv, SimDuration::from_secs(120), 4);

        // Serve under the unchanged plan.
        let keep = rt.serve_segment(&reqs).unwrap();
        // Now lightweight-reschedule for the new workload and serve again.
        rt.reschedule(&conv, ReschedulePolicy::Lightweight).unwrap();
        let adapted = rt.serve_segment(&reqs).unwrap();
        let a_keep = keep.metrics.joint_attainment(&slo());
        let a_adapt = adapted.metrics.joint_attainment(&slo());
        assert!(
            a_adapt >= a_keep - 0.05,
            "adapted {a_adapt} should not be worse than kept {a_keep}"
        );
    }

    #[test]
    fn elastic_scale_up_grows_the_deployment() {
        let w = spec::coding(2.0);
        // Start degraded: the two 3090Ti boxes (GPUs 24..32) are offline.
        let lost: Vec<GpuId> = (24..32).map(GpuId).collect();
        let mut cluster = presets::paper_cloud_cluster();
        let mut boxes: Vec<NodeId> = lost.iter().map(|&g| cluster.gpu(g).node).collect();
        boxes.dedup();
        cluster.deactivate_gpus(&lost).unwrap();
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 31;
        let mut rt = ServingRuntime::new(cluster, ModelSpec::llama_30b(), slo(), cfg);
        rt.deploy(&w).unwrap();
        // The degraded deployment avoids the offline GPUs entirely.
        assert!(
            rt.plan()
                .unwrap()
                .groups
                .iter()
                .flat_map(|g| g.gpus().collect::<Vec<_>>())
                .all(|g| g.0 < 24),
            "degraded deploy must not touch offline GPUs"
        );
        let before = rt.plan().unwrap().groups.len();
        // The 3090Ti boxes rejoin the fleet; a zero escalation fraction
        // re-plans the whole deployment around them.
        let delta = FleetDelta {
            acquired: boxes,
            released: Vec::new(),
        };
        rt.apply_fleet_delta(&delta, &w, 0.0).unwrap();
        let after = rt.plan().unwrap().groups.len();
        assert!(
            after >= before,
            "capacity gain should not shrink the deployment: {after} vs {before}"
        );
        // lost GPUs were reactivated by the delta
        assert!(lost.iter().all(|g| rt.cluster().is_active(*g)));
        let uses_new = rt
            .plan()
            .unwrap()
            .groups
            .iter()
            .flat_map(|g| g.gpus().collect::<Vec<_>>())
            .any(|g| g.0 >= 24);
        assert!(uses_new, "the returned GPUs should be used");
        // The full re-plan pays a reload blackout.
        assert!(!rt.resched_log.last().unwrap().1.reload_time.is_zero());
    }

    #[test]
    fn mid_flight_failure_recovers_and_replans() {
        use ts_cluster::availability::{ClusterEvent, EventKind};

        let mut rt = runtime();
        let w = spec::coding(2.0);
        rt.deploy(&w).unwrap();
        // Kill the GPUs of the last decode replica 20s into the segment.
        let plan = rt.plan().unwrap();
        let decode_idx = *plan.decode_indices().last().unwrap();
        let doomed: Vec<GpuId> = plan.groups[decode_idx].gpus().collect();
        let survivors = plan.decode_indices().len() > 1;
        let events = vec![ClusterEvent::new(
            SimTime::from_secs_f64(20.0),
            EventKind::GpusDown(doomed.clone()),
        )];
        let reqs = generate(&w, SimDuration::from_secs(60), 5);
        let rep = rt
            .serve_segment_with_faults(
                &reqs,
                &events,
                ReschedulePolicy::Lightweight,
                &w,
                SimDuration::from_millis(500),
            )
            .unwrap();
        let m = &rep.metrics;
        assert_eq!(
            m.num_completed() + m.num_dropped() + m.num_rejected(),
            reqs.len(),
            "every request must be accounted for"
        );
        if survivors {
            assert_eq!(m.num_completed(), reqs.len(), "survivors absorb the work");
            assert!(m.recovery().any(), "recovery actions should be recorded");
        }
        // The post-segment lightweight reschedule avoids the dead GPUs.
        assert_eq!(
            rt.resched_log.last().unwrap().0,
            ReschedulePolicy::Lightweight
        );
        for g in &rt.plan().unwrap().groups {
            for gpu in g.gpus() {
                assert!(rt.cluster().is_active(gpu), "plan references dead {gpu:?}");
            }
        }
    }

    #[test]
    fn node_blip_below_heartbeat_timeout_triggers_no_reschedule() {
        use ts_cluster::availability::{ClusterEvent, EventKind};
        use ts_common::NodeId;

        let mut rt = runtime();
        let w = spec::coding(2.0);
        rt.deploy(&w).unwrap();
        // Down for 400ms, heartbeat timeout 1s: the coordinator never sees it.
        let events = vec![
            ClusterEvent::new(SimTime::from_secs_f64(10.0), EventKind::NodeDown(NodeId(0))),
            ClusterEvent::new(SimTime::from_secs_f64(10.4), EventKind::NodeUp(NodeId(0))),
        ];
        let reqs = generate(&w, SimDuration::from_secs(30), 6);
        let rep = rt
            .serve_segment_with_faults(
                &reqs,
                &events,
                ReschedulePolicy::Lightweight,
                &w,
                SimDuration::from_secs(1),
            )
            .unwrap();
        assert!(
            rt.resched_log.is_empty(),
            "a sub-timeout blip must not reschedule"
        );
        let m = &rep.metrics;
        assert_eq!(
            m.num_completed() + m.num_dropped() + m.num_rejected(),
            reqs.len()
        );
        // Net availability is unchanged.
        assert_eq!(
            rt.cluster().num_gpus(),
            presets::paper_cloud_cluster().num_gpus()
        );
    }

    #[test]
    fn sub_timeout_blip_under_full_neither_pauses_nor_reschedules() {
        use ts_cluster::availability::{ClusterEvent, EventKind};

        // Node 0 is down for 400ms, under the 1s timeout: nothing is
        // detected, so Full has nothing to reload for.
        let events = vec![
            ClusterEvent::new(SimTime::from_secs_f64(10.0), EventKind::NodeDown(NodeId(0))),
            ClusterEvent::new(SimTime::from_secs_f64(10.4), EventKind::NodeUp(NodeId(0))),
        ];
        let w = spec::coding(2.0);
        let reqs = generate(&w, SimDuration::from_secs(30), 6);
        let serve = |policy| {
            let mut rt = runtime();
            rt.deploy(&w).unwrap();
            let rep = rt
                .serve_segment_with_faults(&reqs, &events, policy, &w, SimDuration::from_secs(1))
                .unwrap();
            (rep.metrics, rt.resched_log.len())
        };
        let (full, full_log) = serve(ReschedulePolicy::Full);
        let (light, _) = serve(ReschedulePolicy::Lightweight);
        assert_eq!(full_log, 0, "an undetected blip must not reschedule");
        assert_eq!(full, light, "an undetected blip must not pause the service");
    }

    #[test]
    fn zero_heartbeat_timeout_serves_or_errs_without_panicking() {
        use ts_cluster::availability::{ClusterEvent, EventKind};

        let w = spec::coding(2.0);
        let reqs = generate(&w, SimDuration::from_secs(30), 6);
        let at = SimTime::from_secs_f64(10.0);
        let serve = |kind: EventKind| {
            let mut rt = runtime();
            rt.deploy(&w).unwrap();
            rt.serve_segment_with_faults(
                &reqs,
                &[ClusterEvent::new(at, kind)],
                ReschedulePolicy::Lightweight,
                &w,
                SimDuration::ZERO,
            )
            .map(|_| rt.resched_log.len())
        };
        // A loss is detected the instant it strikes.
        assert_eq!(serve(EventKind::NodeDown(NodeId(0))).unwrap(), 1);
        // Flaky heartbeats need a beat window; the engine refuses a zero one.
        assert!(matches!(
            serve(EventKind::HeartbeatFlaky(NodeId(0), 0.5)),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn mid_flight_full_pays_reload_in_flight_not_next_segment() {
        use ts_cluster::availability::{ClusterEvent, EventKind};

        let mut rt = runtime();
        let w = spec::coding(2.0);
        rt.deploy(&w).unwrap();
        let plan = rt.plan().unwrap();
        let decode_idx = *plan.decode_indices().last().unwrap();
        let doomed: Vec<GpuId> = plan.groups[decode_idx].gpus().collect();
        let events = vec![ClusterEvent::new(
            SimTime::from_secs_f64(15.0),
            EventKind::GpusDown(doomed),
        )];
        let reqs = generate(&w, SimDuration::from_secs(60), 7);
        rt.serve_segment_with_faults(
            &reqs,
            &events,
            ReschedulePolicy::Full,
            &w,
            SimDuration::from_millis(500),
        )
        .unwrap();
        // The full reschedule ran and modeled a reload…
        let (policy, outcome) = rt.resched_log.last().unwrap();
        assert_eq!(*policy, ReschedulePolicy::Full);
        assert!(!outcome.reload_time.is_zero());
        // …but the next segment starts clean: the pause was paid in-flight.
        let rep = rt
            .serve_segment(&generate(&w, SimDuration::from_secs(10), 8))
            .unwrap();
        assert!(rep.blackout.is_zero(), "reload must not be double-charged");
    }

    /// Elastic-pool runtime serving on a sub-fleet (base + first two spot
    /// nodes), with the rest of the pool parked for later acquisition.
    fn elastic_runtime() -> ServingRuntime {
        let mut cluster = presets::elastic_cloud_pool().cluster;
        for n in 4..8 {
            cluster.deactivate_node(NodeId(n)).unwrap();
        }
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 41;
        ServingRuntime::new(cluster, ModelSpec::llama_30b(), slo(), cfg)
    }

    #[test]
    fn heartbeat_bookkeeping_survives_scale_down_then_scale_up() {
        let mut rt = elastic_runtime();
        let w = spec::coding(2.0);
        rt.deploy(&w).unwrap();
        let fleet = |rt: &ServingRuntime| -> Vec<NodeId> {
            (0..rt.cluster().num_nodes() as u32)
                .map(NodeId)
                .filter(|&n| node_in_fleet(rt.cluster(), n))
                .collect()
        };
        assert_eq!(fleet(&rt), (0..4).map(NodeId).collect::<Vec<_>>());

        // Release spot node 3, serve a segment, re-acquire the SAME node.
        let down = FleetDelta {
            acquired: vec![],
            released: vec![NodeId(3)],
        };
        rt.apply_fleet_delta(&down, &w, DEFAULT_FULL_REPLAN_FRACTION)
            .unwrap();
        assert_eq!(fleet(&rt), (0..3).map(NodeId).collect::<Vec<_>>());
        let reqs = generate(&w, SimDuration::from_secs(30), 11);
        let rep = rt
            .serve_segment_with_faults(
                &reqs,
                &[],
                ReschedulePolicy::Lightweight,
                &w,
                SimDuration::from_secs(1),
            )
            .unwrap();
        // The released node's silence during the segment is NOT an outage:
        // no failure-triggered reschedule beyond the fleet edit itself.
        assert_eq!(rt.resched_log.len(), 1, "silence of a released node");
        assert!(rep.metrics.num_completed() > 0);

        let up = FleetDelta {
            acquired: vec![NodeId(3)],
            released: vec![],
        };
        rt.apply_fleet_delta(&up, &w, DEFAULT_FULL_REPLAN_FRACTION)
            .unwrap();
        // Re-acquiring the same node id puts it back in the fleet.
        assert_eq!(fleet(&rt), (0..4).map(NodeId).collect::<Vec<_>>());
        // And the plan actually uses it again.
        let on_node: usize = rt
            .plan()
            .unwrap()
            .groups
            .iter()
            .flat_map(|g| g.gpus())
            .filter(|&g| rt.cluster().gpu(g).node == NodeId(3))
            .count();
        assert!(on_node > 0, "re-acquired node must rejoin the plan");
    }

    #[test]
    fn requests_conserved_across_fleet_resizes_with_faults() {
        use ts_cluster::availability::{ClusterEvent, EventKind};

        let mut rt = elastic_runtime();
        let w = spec::coding(2.0);
        rt.deploy(&w).unwrap();
        let mut served = 0usize;
        let mut completed = 0usize;

        // Segment 1: mid-flight spot reclaim of a node that actually hosts
        // a decode replica (undrained: its replicas crash-stop and in-flight
        // work re-routes).
        let plan = rt.plan().unwrap();
        let replica_nodes = |indices: Vec<usize>| -> Vec<std::collections::BTreeSet<NodeId>> {
            indices
                .into_iter()
                .map(|gi| {
                    plan.groups[gi]
                        .gpus()
                        .map(|g| rt.cluster().gpu(g).node)
                        .collect()
                })
                .collect()
        };
        let prefills = replica_nodes(plan.prefill_indices());
        let decodes = replica_nodes(plan.decode_indices());
        // A node that hosts at least one replica while BOTH phases keep a
        // replica that avoids it entirely: the reclaim kills work but
        // leaves survivors to re-route to.
        let victim = (0..rt.cluster().num_nodes() as u32)
            .map(NodeId)
            .find(|n| {
                let hosts = prefills.iter().chain(&decodes).any(|s| s.contains(n));
                let p_ok = prefills.iter().any(|s| !s.contains(n));
                let d_ok = decodes.iter().any(|s| !s.contains(n));
                hosts && p_ok && d_ok
            })
            .expect("a reclaimable node that leaves both phases survivors");
        let reqs = generate(&w, SimDuration::from_secs(45), 12);
        let events = vec![
            ClusterEvent::new(
                SimTime::from_secs_f64(10.0),
                EventKind::PreemptionWarning(victim),
            ),
            ClusterEvent::new(SimTime::from_secs_f64(20.0), EventKind::ScaleDown(victim)),
        ];
        let rep = rt
            .serve_segment_with_faults(
                &reqs,
                &events,
                ReschedulePolicy::Lightweight,
                &w,
                SimDuration::from_millis(500),
            )
            .unwrap();
        let m = &rep.metrics;
        assert_eq!(
            m.num_completed() + m.num_dropped() + m.num_rejected(),
            reqs.len(),
            "segment 1: every request accounted for across the reclaim"
        );
        assert!(
            m.recovery().any(),
            "undrained reclaim must trigger recovery actions"
        );
        served += reqs.len();
        completed += m.num_completed();

        // Segment 2: scale back up mid-flight (node 4 joins).
        let reqs = generate(&w, SimDuration::from_secs(45), 13);
        let events = vec![ClusterEvent::new(
            SimTime::from_secs_f64(15.0),
            EventKind::ScaleUp(NodeId(4)),
        )];
        let rep = rt
            .serve_segment_with_faults(
                &reqs,
                &events,
                ReschedulePolicy::Lightweight,
                &w,
                SimDuration::from_millis(500),
            )
            .unwrap();
        let m = &rep.metrics;
        assert_eq!(
            m.num_completed() + m.num_dropped() + m.num_rejected(),
            reqs.len(),
            "segment 2: every request accounted for across the scale-up"
        );
        served += reqs.len();
        completed += m.num_completed();

        // Segment 3: the grown fleet serves clean; plan covers node 4.
        let on_new: usize = rt
            .plan()
            .unwrap()
            .groups
            .iter()
            .flat_map(|g| g.gpus())
            .filter(|&g| rt.cluster().gpu(g).node == NodeId(4))
            .count();
        assert!(on_new > 0, "scaled-up node must serve in the next segment");
        let reqs = generate(&w, SimDuration::from_secs(30), 14);
        let rep = rt.serve_segment(&reqs).unwrap();
        let m = &rep.metrics;
        assert_eq!(
            m.num_completed() + m.num_dropped() + m.num_rejected(),
            reqs.len()
        );
        served += reqs.len();
        completed += m.num_completed();
        assert!(completed > served / 2, "most requests should complete");
    }

    #[test]
    fn resched_log_records_outcomes() {
        let mut rt = runtime();
        let w = spec::coding(2.0);
        rt.deploy(&w).unwrap();
        rt.reschedule(&w, ReschedulePolicy::Lightweight).unwrap();
        rt.reschedule(&w, ReschedulePolicy::Full).unwrap();
        assert_eq!(rt.resched_log.len(), 2);
        assert!(rt.resched_log[0].1.reload_time.is_zero());
        assert!(!rt.resched_log[1].1.reload_time.is_zero());
    }
}
