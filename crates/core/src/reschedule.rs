//! Lightweight and full rescheduling (§3.4).
//!
//! When the workload shifts or GPUs fail, the deployment plan must adapt.
//! *Full* rescheduling reruns the whole two-level search and reloads model
//! weights (minutes of service interruption); *lightweight* rescheduling
//! keeps group construction and parallel configurations frozen and
//! explores only phase flips, re-solving orchestration for each — no
//! parameter movement, so the adjustment is effectively free.
//! [`fleet_reschedule`] does the same after editing the groups for a
//! deliberate fleet change.
//!
//! The flip search is the scheduler's own tabu walk ([`mod@crate::tabu`])
//! over a flip-only space: at most 40 steps, evaluated by the same rule as
//! the full search (including `disable_affinity_tiebreak`). The outcome is
//! the best plan the walk evaluated.

use crate::config::SchedulerConfig;
use crate::parallel::deduce_parallel_config;
use crate::scheduler::Scheduler;
use crate::tabu::{has_both_phases, reschedule_phases};
use ts_cluster::Cluster;
use ts_common::{
    DeploymentPlan, Error, GpuId, GroupSpec, ModelSpec, NodeId, Phase, Result, SimDuration, SloSpec,
};
use ts_costmodel::replica::{ReplicaCostModel, DISK_BANDWIDTH};
use ts_telemetry::SearchTrace;
use ts_workload::WorkloadSpec;

/// Result of a rescheduling operation.
#[derive(Debug, Clone)]
pub struct RescheduleOutcome {
    /// The adjusted plan.
    pub plan: DeploymentPlan,
    /// Estimated overall attainment of the adjusted plan.
    pub estimated_attainment: f64,
    /// Modeled service interruption for weight (re)loading. Zero for
    /// lightweight rescheduling — phases flip in place, no weights move.
    pub reload_time: SimDuration,
    /// The per-step rows of the flip-only (lightweight) or full tabu
    /// search. Empty for [`no_reschedule`], which runs no search.
    pub search_trace: SearchTrace,
}

/// Lightweight rescheduling: drops groups that lost GPUs, then runs a
/// flip-only tabu search with frozen parallel configurations and re-solves
/// orchestration.
///
/// # Errors
/// Returns [`Error::Infeasible`] if fewer than two groups survive the
/// failure or no feasible phase designation exists.
pub fn lightweight_reschedule(
    cluster: &Cluster,
    model: &ModelSpec,
    current: &DeploymentPlan,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    cfg: &SchedulerConfig,
) -> Result<RescheduleOutcome> {
    // Keep only groups whose GPUs are all still active.
    let surviving: Vec<GroupSpec> = current
        .groups
        .iter()
        .filter(|g| g.gpus().all(|id| cluster.is_active(id)))
        .cloned()
        .collect();
    if surviving.len() < 2 {
        return Err(Error::Infeasible(format!(
            "only {} groups survive; need 2",
            surviving.len()
        )));
    }
    flip_phases(cluster, model, surviving, workload, slo, cfg)
}

/// The flip-only search over a fixed group construction — the lower half
/// of [`lightweight_reschedule`], also reused by [`fleet_reschedule`] after
/// it has edited the group list for a deliberate fleet change. The outcome
/// is the best plan the search evaluated.
fn flip_phases(
    cluster: &Cluster,
    model: &ModelSpec,
    groups: Vec<GroupSpec>,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    cfg: &SchedulerConfig,
) -> Result<RescheduleOutcome> {
    let result = reschedule_phases(cluster, model, groups, workload, slo, cfg)?;
    Ok(RescheduleOutcome {
        plan: result.plan,
        estimated_attainment: result.estimated_attainment,
        reload_time: SimDuration::ZERO,
        search_trace: result.search_trace,
    })
}

/// A deliberate fleet change between serving segments: which nodes the
/// autoscaler acquired and which it released (or lost to a spot reclaim).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetDelta {
    /// Nodes that joined the fleet (already activated in the cluster mask).
    pub acquired: Vec<NodeId>,
    /// Nodes that left the fleet (already deactivated in the cluster mask).
    pub released: Vec<NodeId>,
}

impl FleetDelta {
    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.acquired.is_empty() && self.released.is_empty()
    }

    /// Number of GPUs on the nodes this delta touches.
    pub fn gpus_touched(&self, cluster: &Cluster) -> usize {
        self.acquired
            .iter()
            .chain(&self.released)
            .map(|&n| cluster.node(n).gpus.len())
            .sum()
    }
}

/// Rescheduling for a *deliberate* fleet change (§3.4 extended to
/// elasticity): groups on released nodes are dropped, one new group per
/// acquired node is constructed with [`deduce_parallel_config`] — seeded
/// with the phase that keeps the plan's prefill:decode GPU ratio where the
/// scheduler put it, so both pools scale in a coordinated ratio — and the
/// flip-only tabu search plus re-orchestration then refines the phase
/// designations for the observed workload.
///
/// Surviving replicas keep their weights, so like lightweight rescheduling
/// the adjustment carries **zero reload blackout**: freshly acquired nodes
/// load weights in the background while the old fleet keeps serving, and
/// join at the next segment boundary. Only when the delta touches more than
/// `full_replan_fraction` of the active fleet does the change escalate to
/// [`full_reschedule`], paying the weight-reload blackout for a globally
/// re-optimized plan.
///
/// The cluster's availability mask must already reflect the new fleet
/// (acquired nodes active, released nodes inactive).
///
/// # Errors
/// Returns [`Error::Infeasible`] if fewer than two groups exist after the
/// edit; propagates orchestration and (on escalation) scheduler failures.
#[allow(clippy::too_many_arguments)]
pub fn fleet_reschedule(
    cluster: &Cluster,
    model: &ModelSpec,
    current: &DeploymentPlan,
    delta: &FleetDelta,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    cfg: &SchedulerConfig,
    full_replan_fraction: f64,
) -> Result<RescheduleOutcome> {
    let active = cluster.num_gpus();
    let touched = delta.gpus_touched(cluster);
    if active == 0 {
        return Err(Error::Infeasible("no active GPUs in the fleet".into()));
    }
    if touched as f64 > full_replan_fraction * active as f64 {
        // The fleet moved too much for local edits to stay near-optimal:
        // re-plan from scratch and pay the blackout.
        return full_reschedule(cluster, model, workload, slo, cfg);
    }

    // Drop groups that lost any GPU (covers the released nodes).
    let mut groups: Vec<GroupSpec> = current
        .groups
        .iter()
        .filter(|g| g.gpus().all(|id| cluster.is_active(id)))
        .cloned()
        .collect();

    // Coordinated scaling: keep the prefill:decode GPU ratio where the
    // two-level search put it for this workload, instead of growing one
    // pool and starving the other.
    let (cur_p, cur_d) = current.phase_ratio();
    let target_prefill = cur_p as f64 / (cur_p + cur_d).max(1) as f64;
    let mut acquired = delta.acquired.clone();
    acquired.sort_unstable();
    for &node in &acquired {
        let gpus: Vec<GpuId> = cluster
            .node(node)
            .gpus
            .iter()
            .copied()
            .filter(|&g| cluster.is_active(g))
            .collect();
        if gpus.is_empty() {
            continue;
        }
        let prefill_gpus: usize = groups
            .iter()
            .filter(|g| g.phase == Phase::Prefill)
            .map(GroupSpec::num_gpus)
            .sum();
        let total_gpus: usize = groups.iter().map(GroupSpec::num_gpus).sum();
        let frac = prefill_gpus as f64 / total_gpus.max(1) as f64;
        let preferred = if frac < target_prefill {
            Phase::Prefill
        } else {
            Phase::Decode
        };
        // A node whose memory cannot host the phase's layout under one
        // designation may still host the other; an infeasible node is
        // skipped (its GPUs stay idle until a full re-plan picks them up).
        let group = deduce_parallel_config(cluster, model, &gpus, preferred, workload, cfg)
            .or_else(|_| {
                deduce_parallel_config(cluster, model, &gpus, preferred.opposite(), workload, cfg)
            });
        if let Ok(g) = group {
            groups.push(g);
        }
    }

    if groups.len() < 2 {
        return Err(Error::Infeasible(format!(
            "only {} groups after the fleet edit; need 2",
            groups.len()
        )));
    }
    flip_phases(cluster, model, groups, workload, slo, cfg)
}

/// Full rescheduling: rerun the entire two-level search from scratch and
/// model the weight-reload interruption ([`reload_time`] of the new plan).
///
/// # Errors
/// Propagates scheduler failures.
pub fn full_reschedule(
    cluster: &Cluster,
    model: &ModelSpec,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    cfg: &SchedulerConfig,
) -> Result<RescheduleOutcome> {
    let result = Scheduler::new(cfg.clone()).schedule(cluster, model, workload, slo)?;
    Ok(RescheduleOutcome {
        reload_time: reload_time(cluster, model, &result.plan, cfg),
        plan: result.plan,
        estimated_attainment: result.estimated_attainment,
        search_trace: result.search_trace,
    })
}

/// The modeled weight-reload interruption of `plan`: the slowest replica's
/// load time at [`DISK_BANDWIDTH`], since replicas load in parallel.
pub fn reload_time(
    cluster: &Cluster,
    model: &ModelSpec,
    plan: &DeploymentPlan,
    cfg: &SchedulerConfig,
) -> SimDuration {
    plan.groups
        .iter()
        .filter_map(|g| ReplicaCostModel::new(cluster, model, g, &cfg.params).ok())
        .map(|rcm| rcm.weight_load_time(DISK_BANDWIDTH))
        .max()
        .unwrap_or(SimDuration::ZERO)
}

/// "No rescheduling": keep the surviving groups, their phases **and** the
/// old routing matrix — dead rows/columns are pruned and the remaining mass
/// renormalized, exactly what a router does when replicas stop answering.
/// Used as the Figure 11 control arm.
///
/// # Errors
/// Returns [`Error::Infeasible`] if a phase loses all its replicas.
pub fn no_reschedule(
    cluster: &Cluster,
    model: &ModelSpec,
    current: &DeploymentPlan,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    cfg: &SchedulerConfig,
) -> Result<RescheduleOutcome> {
    let alive = |g: &GroupSpec| -> bool { g.gpus().all(|id| cluster.is_active(id)) };
    let surviving: Vec<GroupSpec> = current
        .groups
        .iter()
        .filter(|g| alive(g))
        .cloned()
        .collect();
    if !has_both_phases(&surviving) {
        return Err(Error::Infeasible(
            "a phase lost all replicas; no-reschedule cannot serve".into(),
        ));
    }
    // Prune the old routing matrix to the surviving replicas and renormalize.
    let old_p = current.prefill_indices();
    let old_d = current.decode_indices();
    let keep_rows: Vec<usize> = old_p
        .iter()
        .enumerate()
        .filter(|(_, &gi)| alive(&current.groups[gi]))
        .map(|(r, _)| r)
        .collect();
    let keep_cols: Vec<usize> = old_d
        .iter()
        .enumerate()
        .filter(|(_, &gi)| alive(&current.groups[gi]))
        .map(|(c, _)| c)
        .collect();
    // The kept cells of the old support, in row-major order: their sum has
    // the dense sum's bits, and the cells off the support are +0.0, which
    // renormalize to the zero fill.
    let mut new_col = vec![None; old_d.len()];
    for (k, &c) in keep_cols.iter().enumerate() {
        new_col[c] = Some(k);
    }
    let mut kept = Vec::new();
    for (k, &r) in keep_rows.iter().enumerate() {
        for &(c, v) in current.routing.support().row(r) {
            if let Some(kc) = new_col[c] {
                kept.push((k, kc, v));
            }
        }
    }
    let total = kept.iter().fold(0.0, |t, &(_, _, v)| t + v);
    let routing = if total > 1e-12 {
        let mut rates = vec![vec![0.0; keep_cols.len()]; keep_rows.len()];
        for (k, kc, v) in kept {
            rates[k][kc] = v / total;
        }
        ts_common::RoutingMatrix::new(rates)?
    } else {
        ts_common::RoutingMatrix::uniform(keep_rows.len(), keep_cols.len())
    };
    let plan = DeploymentPlan::new(surviving, routing)?;
    // Estimate attainment of the kept plan for reporting purposes only.
    let sim_cfg = crate::orchestrate::sim_config(model, cfg);
    let est = ts_sim::estimate::estimate_attainment(cluster, &plan, &sim_cfg, workload, slo)?;
    Ok(RescheduleOutcome {
        plan,
        estimated_attainment: est.overall,
        reload_time: SimDuration::ZERO,
        search_trace: SearchTrace::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerConfig;
    use ts_cluster::presets;
    use ts_common::{GpuId, NodeId, RoutingMatrix};
    use ts_workload::spec;

    fn slo() -> SloSpec {
        SloSpec::new(
            SimDuration::from_secs(2),
            SimDuration::from_millis(200),
            SimDuration::from_secs(30),
        )
    }

    fn schedule_cloud() -> (
        ts_cluster::Cluster,
        ModelSpec,
        DeploymentPlan,
        SchedulerConfig,
    ) {
        let cluster = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 21;
        let r = Scheduler::new(cfg.clone())
            .schedule(&cluster, &model, &spec::coding(2.5), &slo())
            .unwrap();
        (cluster, model, r.plan, cfg)
    }

    #[test]
    fn lightweight_survives_node_failure() {
        let (mut cluster, model, plan, cfg) = schedule_cloud();
        cluster.deactivate_node(NodeId(6)).unwrap(); // lose a 3090Ti box
        let out = lightweight_reschedule(&cluster, &model, &plan, &spec::coding(2.5), &slo(), &cfg)
            .unwrap();
        assert!(out.reload_time.is_zero(), "lightweight must not reload");
        assert!(out.estimated_attainment > 0.0);
        for g in &out.plan.groups {
            for gpu in g.gpus() {
                assert!(cluster.is_active(gpu));
            }
        }
    }

    #[test]
    fn lightweight_search_trace_observes_without_changing_the_plan() {
        let (mut cluster, model, plan, cfg) = schedule_cloud();
        cluster.deactivate_node(NodeId(6)).unwrap();
        let w = spec::coding(2.5);
        let first = lightweight_reschedule(&cluster, &model, &plan, &w, &slo(), &cfg).unwrap();
        let again = lightweight_reschedule(&cluster, &model, &plan, &w, &slo(), &cfg).unwrap();
        let tr = &first.search_trace;
        assert!(!tr.steps.is_empty());
        for row in &tr.steps {
            assert_eq!(
                row.tabu_filtered
                    + row.infeasible
                    + row.cache_hits
                    + row.duplicates
                    + row.evaluated,
                row.generated,
                "filter counts must partition the neighbourhood"
            );
        }
        // Flip-only neighbourhoods revisit designations constantly: the
        // memoized orchestration cache must be doing real work.
        assert!(tr.cache_hit_rate() > 0.0, "{tr:?}");
        // The rows only observe the walk: a second run repeats the plan and
        // every row.
        assert_eq!(first.plan, again.plan);
        assert_eq!(first.estimated_attainment, again.estimated_attainment);
        assert_eq!(first.search_trace, again.search_trace);
    }

    #[test]
    fn lightweight_adapts_to_workload_shift() {
        let (cluster, model, plan, cfg) = schedule_cloud();
        // Shift from coding to conversation: lightweight rescheduling should
        // not decrease the estimated attainment vs. keeping the plan as-is,
        // judged by the same estimator on both resulting plans.
        let conv = spec::conversation(2.5);
        let keep = no_reschedule(&cluster, &model, &plan, &conv, &slo(), &cfg).unwrap();
        let light = lightweight_reschedule(&cluster, &model, &plan, &conv, &slo(), &cfg).unwrap();
        let sim_cfg = crate::orchestrate::sim_config(&model, &cfg);
        let score = |p: &DeploymentPlan| {
            ts_sim::estimate::estimate_attainment(&cluster, p, &sim_cfg, &conv, &slo())
                .unwrap()
                .overall
        };
        let s_keep = score(&keep.plan);
        let s_light = score(&light.plan);
        assert!(
            s_light >= s_keep - 0.05,
            "lightweight {s_light} vs keep {s_keep}"
        );
    }

    #[test]
    fn full_reschedule_models_reload_cost() {
        let cluster = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 23;
        let out =
            full_reschedule(&cluster, &model, &spec::conversation(2.5), &slo(), &cfg).unwrap();
        // Reloading ~65GB at 1.2GB/s, sharded: tens of seconds at least.
        assert!(
            out.reload_time.as_secs_f64() > 5.0,
            "reload {} too small",
            out.reload_time
        );
    }

    #[test]
    fn lightweight_is_much_faster_than_full() {
        // Measured in work, not wall clock: lightweight evaluates fewer
        // candidates and reloads no weights.
        let (mut cluster, model, plan, mut cfg) = schedule_cloud();
        cfg.n_step = 30;
        cluster.deactivate_node(NodeId(1)).unwrap();
        let w = spec::coding(2.5);
        let light = lightweight_reschedule(&cluster, &model, &plan, &w, &slo(), &cfg).unwrap();
        let full = full_reschedule(&cluster, &model, &w, &slo(), &cfg).unwrap();
        let evaluated = |out: &RescheduleOutcome| out.search_trace.total_evaluated();
        assert!(
            evaluated(&light) < evaluated(&full),
            "lightweight evaluated {} candidates, full {}",
            evaluated(&light),
            evaluated(&full)
        );
        assert!(light.reload_time.is_zero(), "lightweight must not reload");
        assert!(
            full.reload_time > SimDuration::ZERO,
            "full reschedule reloads weights"
        );
    }

    /// Elastic pool with only the given nodes active, plus a plan scheduled
    /// on that sub-fleet.
    fn elastic_fleet(active: &[u32]) -> (ts_cluster::Cluster, ModelSpec, DeploymentPlan) {
        let mut cluster = presets::elastic_cloud_pool().cluster;
        for n in 0..cluster.num_nodes() {
            if !active.contains(&(n as u32)) {
                cluster.deactivate_node(NodeId(n as u32)).unwrap();
            }
        }
        let model = ModelSpec::llama_30b();
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 29;
        let r = Scheduler::new(cfg.clone())
            .schedule(&cluster, &model, &spec::coding(2.0), &slo())
            .unwrap();
        (cluster, model, r.plan)
    }

    #[test]
    fn fleet_reschedule_grafts_acquired_node_without_reload() {
        let (mut cluster, model, plan) = elastic_fleet(&[0, 1, 2, 3]);
        cluster.activate_node(NodeId(4)).unwrap();
        let delta = FleetDelta {
            acquired: vec![NodeId(4)],
            released: vec![],
        };
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 29;
        let out = fleet_reschedule(
            &cluster,
            &model,
            &plan,
            &delta,
            &spec::coding(2.0),
            &slo(),
            &cfg,
            0.5,
        )
        .unwrap();
        assert!(out.reload_time.is_zero(), "small delta must not reload");
        assert!(
            out.plan.num_gpus() > plan.num_gpus(),
            "acquired node's GPUs should join the plan"
        );
        let on_new: usize = out
            .plan
            .groups
            .iter()
            .flat_map(|g| g.gpus())
            .filter(|&g| cluster.gpu(g).node == NodeId(4))
            .count();
        assert_eq!(on_new, 4, "all four GPUs of the acquired node serve");
        let (p, d) = out.plan.phase_ratio();
        assert!(p > 0 && d > 0, "both pools must stay populated");
    }

    #[test]
    fn fleet_reschedule_drops_released_node_without_reload() {
        let (mut cluster, model, plan) = elastic_fleet(&[0, 1, 2, 3]);
        cluster.deactivate_node(NodeId(3)).unwrap();
        let delta = FleetDelta {
            acquired: vec![],
            released: vec![NodeId(3)],
        };
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 29;
        let out = fleet_reschedule(
            &cluster,
            &model,
            &plan,
            &delta,
            &spec::coding(2.0),
            &slo(),
            &cfg,
            0.5,
        )
        .unwrap();
        assert!(out.reload_time.is_zero());
        for g in &out.plan.groups {
            for gpu in g.gpus() {
                assert_ne!(cluster.gpu(gpu).node, NodeId(3), "released node evicted");
            }
        }
    }

    #[test]
    fn fleet_reschedule_escalates_to_full_replan_on_large_delta() {
        let (mut cluster, model, plan) = elastic_fleet(&[0, 1, 2, 3]);
        for n in 4..8 {
            cluster.activate_node(NodeId(n)).unwrap();
        }
        let delta = FleetDelta {
            acquired: (4..8).map(NodeId).collect(),
            released: vec![],
        };
        assert_eq!(delta.gpus_touched(&cluster), 16);
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 29;
        let out = fleet_reschedule(
            &cluster,
            &model,
            &plan,
            &delta,
            &spec::coding(2.0),
            &slo(),
            &cfg,
            0.4,
        )
        .unwrap();
        assert!(
            out.reload_time.as_secs_f64() > 5.0,
            "doubling the fleet must escalate to a full re-plan (reload {})",
            out.reload_time
        );
    }

    #[test]
    fn rescheduling_honours_disable_affinity_tiebreak() {
        let (mut cluster, model, plan, mut cfg) = schedule_cloud();
        cluster.deactivate_node(NodeId(6)).unwrap();
        let w = spec::conversation(2.5);
        let (fleet, fleet_model, fleet_plan) = elastic_fleet(&[0, 1, 2, 3]);
        let mut grown = fleet.clone();
        grown.activate_node(NodeId(4)).unwrap();
        let delta = FleetDelta {
            acquired: vec![NodeId(4)],
            released: vec![],
        };
        for disable in [false, true] {
            cfg.disable_affinity_tiebreak = disable;
            let light = lightweight_reschedule(&cluster, &model, &plan, &w, &slo(), &cfg).unwrap();
            let graft = fleet_reschedule(
                &grown,
                &fleet_model,
                &fleet_plan,
                &delta,
                &spec::coding(2.0),
                &slo(),
                &cfg,
                0.5,
            )
            .unwrap();
            for out in [light, graft] {
                // The walk's objective is the attainment plus the
                // tie-breaker, or the attainment alone when it is off.
                let top = out
                    .search_trace
                    .steps
                    .iter()
                    .filter_map(|r| r.winner_score)
                    .fold(f64::NEG_INFINITY, f64::max);
                if disable {
                    assert!(
                        top <= out.estimated_attainment,
                        "{top} vs {}",
                        out.estimated_attainment
                    );
                } else {
                    assert!(
                        top > out.estimated_attainment,
                        "{top} vs {}",
                        out.estimated_attainment
                    );
                }
            }
        }
    }

    #[test]
    fn fleet_delta_accounting() {
        let pool = presets::elastic_cloud_pool();
        let d = FleetDelta::default();
        assert!(d.is_empty());
        let d = FleetDelta {
            acquired: vec![NodeId(2)],
            released: vec![NodeId(5)],
        };
        assert!(!d.is_empty());
        assert_eq!(d.gpus_touched(&pool.cluster), 8);
    }

    #[test]
    fn no_reschedule_fails_when_phase_lost() {
        let (mut cluster, model, plan, cfg) = schedule_cloud();
        // Kill every node hosting decode groups.
        let decode_nodes: Vec<NodeId> = plan
            .decode_indices()
            .iter()
            .flat_map(|&gi| plan.groups[gi].gpus())
            .map(|g| cluster.gpu(g).node)
            .collect();
        for n in decode_nodes {
            cluster.deactivate_node(n).unwrap();
        }
        let res = no_reschedule(&cluster, &model, &plan, &spec::coding(2.5), &slo(), &cfg);
        assert!(res.is_err());
    }

    /// The routing of [`no_reschedule`] as the dense code built it: every
    /// kept cell copied, summed and divided.
    fn dense_kept_routing(cluster: &Cluster, current: &DeploymentPlan) -> RoutingMatrix {
        let alive = |gi: usize| current.groups[gi].gpus().all(|id| cluster.is_active(id));
        let rows: Vec<usize> = (0..current.routing.num_prefill())
            .filter(|&r| alive(current.prefill_indices()[r]))
            .collect();
        let cols: Vec<usize> = (0..current.routing.num_decode())
            .filter(|&c| alive(current.decode_indices()[c]))
            .collect();
        let mut rates: Vec<Vec<f64>> = rows
            .iter()
            .map(|&r| cols.iter().map(|&c| current.routing.rate(r, c)).collect())
            .collect();
        let total: f64 = rates.iter().flatten().sum();
        if total > 1e-12 {
            rates.iter_mut().flatten().for_each(|v| *v /= total);
            RoutingMatrix::new(rates).unwrap()
        } else {
            RoutingMatrix::uniform(rows.len(), cols.len())
        }
    }

    /// A random `p × d` routing matrix summing to 1, from dense to a few
    /// cells, with unrouted rows and columns and some zero cells turned
    /// `-0.0` or `-1e-13`.
    fn random_rates(rng: &mut rand::rngs::StdRng, p: usize, d: usize) -> Vec<Vec<f64>> {
        use rand::Rng;
        let density = [1.0, 0.5, 0.1, 0.02][rng.gen_range(0..4usize)];
        let dead_rows: Vec<bool> = (0..p).map(|_| rng.gen_bool(0.2)).collect();
        let dead_cols: Vec<bool> = (0..d).map(|_| rng.gen_bool(0.2)).collect();
        let mut rates = vec![vec![0.0f64; d]; p];
        for i in 0..p {
            for j in 0..d {
                if !dead_rows[i] && !dead_cols[j] && rng.gen_bool(density) {
                    rates[i][j] = rng.gen_range(0.01..1.0);
                }
            }
        }
        if rates.iter().flatten().all(|&v| v == 0.0) {
            let (i, j) = (rng.gen_range(0..p), rng.gen_range(0..d));
            rates[i][j] = 1.0;
        }
        let total: f64 = rates.iter().flatten().sum();
        let odd = [0.0, 0.05, 0.3][rng.gen_range(0..3usize)];
        for v in rates.iter_mut().flatten() {
            if *v != 0.0 {
                *v /= total;
            } else if rng.gen_bool(odd) {
                *v = if rng.gen_bool(0.5) { -0.0 } else { -1e-13 };
            }
        }
        rates
    }

    /// `no_reschedule` renormalizes the kept cells of the old support; the
    /// dense copy-sum-divide is the oracle, bit for bit, on random plans
    /// of tp=1 replicas that lose random nodes.
    #[test]
    fn kept_routing_matches_the_dense_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4e5c);
        let model = ModelSpec::llama_7b();
        let cfg = SchedulerConfig::fast();
        let (mut renormalized, mut uniform) = (0, 0);
        for case in 0..200 {
            let mut side = || {
                if rng.gen_bool(0.8) {
                    rng.gen_range(1..=8usize)
                } else {
                    rng.gen_range(1..=64usize)
                }
            };
            let (p, d) = (side(), side());
            let mut cluster = presets::a5000_cluster(128);
            let groups = (0..p + d)
                .map(|g| {
                    let phase = if g < p { Phase::Prefill } else { Phase::Decode };
                    GroupSpec::single_stage(phase, vec![GpuId(g as u32)], model.num_layers).unwrap()
                })
                .collect();
            let routing = RoutingMatrix::new(random_rates(&mut rng, p, d)).unwrap();
            let plan = DeploymentPlan::new(groups, routing).unwrap();
            for _ in 0..rng.gen_range(0..=3) {
                let node = rng.gen_range(0..(p + d).div_ceil(4));
                cluster.deactivate_node(NodeId(node as u32)).unwrap();
            }
            let w = spec::conversation(1.0);
            let Ok(out) = no_reschedule(&cluster, &model, &plan, &w, &slo(), &cfg) else {
                continue; // a phase lost every replica
            };
            let want = dense_kept_routing(&cluster, &plan);
            let bits = |m: &RoutingMatrix| -> Vec<u64> {
                m.rates().iter().flatten().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&out.plan.routing), bits(&want), "case {case}");
            if want.rates().iter().flatten().any(|&v| v != want.rate(0, 0)) {
                renormalized += 1;
            } else {
                uniform += 1;
            }
        }
        assert!(
            renormalized > 100 && uniform > 10,
            "{renormalized} {uniform}"
        );
    }
}
