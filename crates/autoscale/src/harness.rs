//! Driving a [`ServingRuntime`] through a multi-segment trajectory under
//! the autoscale control loop, with full dollar accounting.

use std::collections::BTreeMap;

use thunderserve_core::config::SchedulerConfig;
use thunderserve_core::reschedule::FleetDelta;
use ts_cluster::availability::{ClusterEvent, EventKind};
use ts_cluster::ElasticPool;
use ts_common::{Error, ModelSpec, NodeId, Phase, Request, Result, SimDuration, SimTime, SloSpec};
use ts_runtime::{ReschedulePolicy, ServingRuntime};
use ts_telemetry::{ScaleKind, TraceEvent, TraceKind};
use ts_workload::WorkloadSpec;

use crate::config::{AutoscaleConfig, HEARTBEAT_TIMEOUT};
use crate::controller::{AutoscaleController, FleetAction};
use crate::ledger::CostLedger;
use crate::observe::observe_segment;

/// One serving segment of a trajectory: the requests to serve, the nominal
/// wall-clock window they cover, the workload spec describing them (for
/// rescheduling), and the availability events striking mid-segment, with
/// times relative to the segment start.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Requests arriving during the segment (segment-relative times).
    pub requests: Vec<Request>,
    /// Nominal wall-clock length (billing period and clock increment).
    pub window: SimDuration,
    /// Workload description handed to reschedules during this segment.
    pub workload: WorkloadSpec,
    /// Availability script for the segment (segment-relative times).
    pub events: Vec<ClusterEvent>,
}

/// Per-segment outcome of a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentRecord {
    /// Segment index.
    pub segment: usize,
    /// Requests submitted.
    pub submitted: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests dropped after admission.
    pub dropped: usize,
    /// Requests refused admission.
    pub rejected: usize,
    /// Joint SLO attainment.
    pub attainment: f64,
    /// Active GPUs while serving the segment.
    pub fleet_gpus: usize,
    /// Prefill groups in the plan that served the segment.
    pub prefill_groups: usize,
    /// Decode groups in the plan that served the segment.
    pub decode_groups: usize,
    /// Fleet burn rate during the segment, $/hr.
    pub rate_per_hour: f64,
    /// Reload blackout charged at the segment start.
    pub blackout: SimDuration,
}

/// A full autoscaled (or static) trajectory: per-segment outcomes, the
/// dollar ledger, and the fleet-action trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleTrajectory {
    /// One record per served segment.
    pub records: Vec<SegmentRecord>,
    /// The dollar ledger (one entry per segment).
    pub ledger: CostLedger,
    /// Fleet actions taken, as [`TraceKind::ScaleAction`] events at
    /// trajectory-absolute times.
    pub scale_log: Vec<TraceEvent>,
}

impl AutoscaleTrajectory {
    /// Request-weighted mean joint attainment across segments.
    pub fn mean_attainment(&self) -> f64 {
        let total: usize = self.records.iter().map(|r| r.submitted).sum();
        if total == 0 {
            return 1.0;
        }
        self.records
            .iter()
            .map(|r| r.attainment * r.submitted as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Total dollars spent.
    pub fn total_cost(&self) -> f64 {
        self.ledger.total()
    }

    /// Mean $/hr over the trajectory.
    pub fn mean_rate_per_hour(&self) -> f64 {
        self.ledger.mean_rate_per_hour()
    }

    /// Total requests completed.
    pub fn completed(&self) -> usize {
        self.records.iter().map(|r| r.completed).sum()
    }
}

/// A preemption warning resolved against the full script: when it was
/// announced and when the reclaim actually lands.
#[derive(Debug, Clone, Copy)]
struct ResolvedWarning {
    node: NodeId,
    warned_at: SimTime,
    reclaim_at: SimTime,
}

/// Pairs every `PreemptionWarning` in the trajectory script with the next
/// `ScaleDown` of the same node (the actual reclaim). A warning with no
/// following reclaim assumes one lead time out.
fn resolve_warnings(segments: &[Segment], lead: SimDuration) -> Vec<ResolvedWarning> {
    let mut abs: Vec<(SimTime, &EventKind)> = Vec::new();
    let mut start = SimTime::ZERO;
    for seg in segments {
        for ev in &seg.events {
            abs.push((start + ev.at.saturating_since(SimTime::ZERO), &ev.kind));
        }
        start += seg.window;
    }
    let mut out = Vec::new();
    for (i, (t, kind)) in abs.iter().enumerate() {
        if let EventKind::PreemptionWarning(n) = kind {
            let reclaim_at = abs[i..]
                .iter()
                .find_map(|(t2, k2)| match k2 {
                    EventKind::ScaleDown(m) if m == n => Some(*t2),
                    _ => None,
                })
                .unwrap_or(*t + lead);
            out.push(ResolvedWarning {
                node: *n,
                warned_at: *t,
                reclaim_at,
            });
        }
    }
    out
}

/// Prefill and decode group counts of the runtime's current plan.
fn phase_counts(rt: &ServingRuntime) -> (usize, usize) {
    rt.plan()
        .map(|p| {
            let pre = p
                .groups
                .iter()
                .filter(|g| g.phase == Phase::Prefill)
                .count();
            (pre, p.groups.len() - pre)
        })
        .unwrap_or((0, 0))
}

/// Groups of a plan keyed by their (sorted) GPU list, mapped to phase —
/// used to detect phase flips across a fleet edit.
fn phase_map(rt: &ServingRuntime) -> BTreeMap<Vec<u32>, (Phase, NodeId)> {
    let mut m = BTreeMap::new();
    if let Some(plan) = rt.plan() {
        for g in &plan.groups {
            let mut gpus: Vec<u32> = g.gpus().map(|x| x.0).collect();
            gpus.sort_unstable();
            let node = rt.cluster().gpu(ts_common::GpuId(gpus[0])).node;
            m.insert(gpus, (g.phase, node));
        }
    }
    m
}

/// Runs the coordinated autoscale control loop over an elastic pool.
///
/// The fleet starts as the pool's base nodes (spot nodes parked); the
/// controller acquires/releases/drains from segment boundaries onward,
/// driven by the previous segment's observation. Every segment is billed
/// to the ledger at the fleet's actual composition, segment availability
/// events (reclaim waves, outages) strike mid-flight through the runtime's
/// fault path, and every fleet action lands in the scale log.
///
/// Deterministic: same inputs → bit-identical trajectory.
///
/// # Errors
/// Returns [`Error::InvalidConfig`] for inconsistent thresholds
/// ([`AutoscaleConfig::validate`]) or an empty trajectory; propagates
/// scheduling, cluster-edit and simulation failures.
pub fn run_elastic(
    pool: &ElasticPool,
    model: &ModelSpec,
    slo: &SloSpec,
    sched_cfg: &SchedulerConfig,
    cfg: &AutoscaleConfig,
    segments: &[Segment],
) -> Result<AutoscaleTrajectory> {
    let mut controller = AutoscaleController::new(cfg.clone())?;
    if segments.is_empty() {
        return Err(Error::InvalidConfig("empty trajectory".into()));
    }
    let mut cluster = pool.cluster.clone();
    for &n in &pool.spot {
        cluster.deactivate_node(n)?;
    }
    let mut rt = ServingRuntime::new(cluster, model.clone(), *slo, sched_cfg.clone());
    rt.deploy(&segments[0].workload)?;

    let warnings = resolve_warnings(segments, cfg.warning_lead_time);
    let mut warnings_logged = vec![false; warnings.len()];

    let mut ledger = CostLedger::new();
    let mut records = Vec::with_capacity(segments.len());
    let mut scale_log: Vec<TraceEvent> = Vec::new();
    let mut last_obs = None;
    let mut now = SimTime::ZERO;

    for (i, seg) in segments.iter().enumerate() {
        // Control step at the segment boundary, driven by the previous
        // segment's observation.
        if let Some(obs) = last_obs.take() {
            let actions = controller.decide(pool, &obs, now);
            let mut delta = FleetDelta::default();
            for a in &actions {
                let kind = match a {
                    FleetAction::Acquire(n) => {
                        delta.acquired.push(*n);
                        ScaleKind::Acquire
                    }
                    FleetAction::Release(n) => {
                        delta.released.push(*n);
                        ScaleKind::Release
                    }
                    FleetAction::Drain(n) => {
                        delta.released.push(*n);
                        ScaleKind::Drain
                    }
                };
                scale_log.push(TraceEvent {
                    at: now,
                    kind: TraceKind::ScaleAction {
                        node: a.node().0 as usize,
                        kind,
                    },
                });
            }
            if !delta.is_empty() {
                let before = phase_map(&rt);
                rt.apply_fleet_delta(&delta, &seg.workload, cfg.full_replan_fraction)?;
                // Surviving groups whose designation flipped are part of the
                // coordinated rebalance: log them.
                for (gpus, (phase, node)) in phase_map(&rt) {
                    if let Some((old, _)) = before.get(&gpus) {
                        if *old != phase {
                            scale_log.push(TraceEvent {
                                at: now,
                                kind: TraceKind::ScaleAction {
                                    node: node.0 as usize,
                                    kind: ScaleKind::PhaseFlip,
                                },
                            });
                        }
                    }
                }
            }
        }

        let rep = rt.serve_segment_with_faults(
            &seg.requests,
            &seg.events,
            ReschedulePolicy::Lightweight,
            &seg.workload,
            HEARTBEAT_TIMEOUT,
        )?;

        // Reclaims that landed mid-segment: the provider took the node, the
        // controller must not think it still holds it.
        for ev in &seg.events {
            if let EventKind::ScaleDown(n) = ev.kind {
                controller.note_reclaimed(n);
            }
        }

        let end = now + seg.window;
        // Warnings known by this boundary whose reclaim is still ahead feed
        // the next decision; each is logged once when it becomes known.
        let mut warned = Vec::new();
        for (w, logged) in warnings.iter().zip(warnings_logged.iter_mut()) {
            if w.warned_at < end {
                if !*logged {
                    scale_log.push(TraceEvent {
                        at: w.warned_at,
                        kind: TraceKind::ScaleAction {
                            node: w.node.0 as usize,
                            kind: ScaleKind::PreemptionWarning,
                        },
                    });
                    *logged = true;
                }
                if w.reclaim_at > end {
                    warned.push((w.node, w.reclaim_at));
                }
            }
        }
        last_obs = Some(observe_segment(&rep.metrics, &rep.pressure, slo, warned));
        ledger.charge(i, pool, rt.cluster(), seg.window);
        let entry = ledger.entries.last().expect("just charged");
        let (pre, dec) = phase_counts(&rt);
        records.push(SegmentRecord {
            segment: i,
            submitted: seg.requests.len(),
            completed: rep.metrics.num_completed(),
            dropped: rep.metrics.num_dropped(),
            rejected: rep.metrics.num_rejected(),
            attainment: rep.metrics.joint_attainment(slo),
            fleet_gpus: entry.gpus,
            prefill_groups: pre,
            decode_groups: dec,
            rate_per_hour: entry.rate_per_hour,
            blackout: rep.blackout,
        });
        now = end;
    }

    scale_log.sort_by_key(|e| e.at);
    Ok(AutoscaleTrajectory {
        records,
        ledger,
        scale_log,
    })
}

/// Runs the same trajectory on a *static* fleet: the whole pool held
/// on-demand the entire time. On-demand capacity is not preempted, so the
/// script's spot reclaim events do not apply; the fleet never changes, so
/// there is nothing to reschedule. This is the oracle-provisioned
/// cost/quality baseline the autoscaler is judged against.
///
/// # Errors
/// Returns [`Error::InvalidConfig`] for an empty trajectory; propagates
/// scheduling and simulation failures.
pub fn run_static(
    pool: &ElasticPool,
    model: &ModelSpec,
    slo: &SloSpec,
    sched_cfg: &SchedulerConfig,
    segments: &[Segment],
) -> Result<AutoscaleTrajectory> {
    if segments.is_empty() {
        return Err(Error::InvalidConfig("empty trajectory".into()));
    }
    let mut rt = ServingRuntime::new(pool.cluster.clone(), model.clone(), *slo, sched_cfg.clone());
    rt.deploy(&segments[0].workload)?;
    let rate = pool.static_price_per_hour();
    let nodes: Vec<NodeId> = (0..pool.cluster.num_nodes() as u32).map(NodeId).collect();
    let gpus = pool.cluster.num_gpus();

    let mut ledger = CostLedger::new();
    let mut records = Vec::with_capacity(segments.len());
    for (i, seg) in segments.iter().enumerate() {
        let rep = rt.serve_segment(&seg.requests)?;
        ledger.charge_at_rate(i, rate, nodes.clone(), gpus, seg.window);
        let (pre, dec) = phase_counts(&rt);
        records.push(SegmentRecord {
            segment: i,
            submitted: seg.requests.len(),
            completed: rep.metrics.num_completed(),
            dropped: rep.metrics.num_dropped(),
            rejected: rep.metrics.num_rejected(),
            attainment: rep.metrics.joint_attainment(slo),
            fleet_gpus: gpus,
            prefill_groups: pre,
            decode_groups: dec,
            rate_per_hour: rate,
            blackout: rep.blackout,
        });
    }
    Ok(AutoscaleTrajectory {
        records,
        ledger,
        scale_log: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets::elastic_cloud_pool;
    use ts_workload::{generator::generate, spec};

    fn slo() -> SloSpec {
        SloSpec::new(
            SimDuration::from_secs(5),
            SimDuration::from_millis(300),
            SimDuration::from_secs(60),
        )
    }

    fn sched() -> SchedulerConfig {
        let mut c = SchedulerConfig::fast();
        c.seed = 47;
        c
    }

    /// Four 60 s segments: calm, hot (4× rate), warned, reclaimed — the
    /// warning for spot node 6 lands one segment before the reclaim so the
    /// controller has a boundary to drain at.
    fn trajectory() -> Vec<Segment> {
        let window = SimDuration::from_secs(60);
        let mk = |rate: f64, seed: u64, events: Vec<ClusterEvent>| {
            let w = spec::coding(rate);
            Segment {
                requests: generate(&w, window, seed),
                window,
                workload: w,
                events,
            }
        };
        vec![
            mk(1.0, 1, vec![]),
            mk(4.0, 2, vec![]),
            mk(
                2.0,
                3,
                vec![ClusterEvent::new(
                    SimTime::from_secs_f64(5.0),
                    EventKind::PreemptionWarning(NodeId(6)),
                )],
            ),
            mk(
                1.0,
                4,
                vec![ClusterEvent::new(
                    SimTime::from_secs_f64(10.0),
                    EventKind::ScaleDown(NodeId(6)),
                )],
            ),
        ]
    }

    #[test]
    fn elastic_trajectory_is_deterministic_and_ledger_consistent() {
        let pool = elastic_cloud_pool();
        let cfg = AutoscaleConfig::default();
        let a = run_elastic(
            &pool,
            &ModelSpec::llama_30b(),
            &slo(),
            &sched(),
            &cfg,
            &trajectory(),
        )
        .unwrap();
        let b = run_elastic(
            &pool,
            &ModelSpec::llama_30b(),
            &slo(),
            &sched(),
            &cfg,
            &trajectory(),
        )
        .unwrap();
        assert_eq!(a, b, "trajectory must be bit-reproducible");
        assert_eq!(a.records.len(), 4);
        // Ledger invariant: entries sum to the total.
        let sum: f64 = a.ledger.entries.iter().map(|e| e.cost).sum();
        assert_eq!(sum, a.total_cost());
        assert_eq!(a.ledger.entries.len(), 4);
        // The base fleet is billed in segment 0 (spot nodes parked).
        assert_eq!(a.records[0].fleet_gpus, 8);
        for r in &a.records {
            assert_eq!(
                r.completed + r.dropped + r.rejected,
                r.submitted,
                "segment {} must conserve requests",
                r.segment
            );
        }
    }

    #[test]
    fn inverted_thresholds_are_rejected() {
        let cfg = AutoscaleConfig {
            attainment_floor: 0.99,
            attainment_ceiling: 0.9,
            ..AutoscaleConfig::default()
        };
        let got = run_elastic(
            &elastic_cloud_pool(),
            &ModelSpec::llama_30b(),
            &slo(),
            &sched(),
            &cfg,
            &trajectory(),
        );
        assert!(
            matches!(&got, Err(Error::InvalidConfig(m)) if m.contains("floor")),
            "{got:?}"
        );
    }

    #[test]
    fn static_arm_holds_the_whole_pool_at_on_demand_rates() {
        let pool = elastic_cloud_pool();
        let t = run_static(
            &pool,
            &ModelSpec::llama_30b(),
            &slo(),
            &sched(),
            &trajectory(),
        )
        .unwrap();
        assert_eq!(t.records.len(), 4);
        assert!(t.scale_log.is_empty());
        for r in &t.records {
            assert_eq!(r.fleet_gpus, 32);
            assert!((r.rate_per_hour - pool.static_price_per_hour()).abs() < 1e-12);
        }
        // 4 minutes at the static rate.
        let expect = pool.static_price_per_hour() * 4.0 / 60.0;
        assert!((t.total_cost() - expect).abs() < 1e-9);
    }

    #[test]
    fn warned_reclaim_is_drained_not_crashed() {
        let pool = elastic_cloud_pool();
        // Aggressive thresholds so the hot segment acquires node 6 (the
        // cheapest spot node) before the reclaim wave hits it.
        let cfg = AutoscaleConfig {
            attainment_floor: 0.999,
            attainment_ceiling: 0.9995,
            warning_lead_time: SimDuration::from_secs(120),
            ..AutoscaleConfig::default()
        };
        let t = run_elastic(
            &pool,
            &ModelSpec::llama_30b(),
            &slo(),
            &sched(),
            &cfg,
            &trajectory(),
        )
        .unwrap();
        let kinds: Vec<ScaleKind> = t
            .scale_log
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::ScaleAction { node: 6, kind } => Some(kind),
                _ => None,
            })
            .collect();
        assert!(
            kinds.contains(&ScaleKind::PreemptionWarning),
            "warning must be logged: {kinds:?}"
        );
        // Node 6 was held when the warning matured, so it must have been
        // drained (never crash-reclaimed while populated).
        assert!(
            kinds.contains(&ScaleKind::Acquire),
            "the hot segment must acquire node 6: {kinds:?}"
        );
        assert!(
            kinds.contains(&ScaleKind::Drain),
            "held node with due warning must drain: {kinds:?}"
        );
    }
}
