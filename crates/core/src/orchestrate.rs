//! Orchestration of prefill and decode replicas (§3.3).
//!
//! Given resolved serving groups, estimate the SLO attainment of every
//! (prefill, decode) pair — including the alpha-beta KV transfer term of
//! Eq. (1) — then solve the capacity-bounded transportation problem to route
//! request flow, producing a complete [`DeploymentPlan`] and its estimated
//! overall attainment.

use crate::config::SchedulerConfig;
use std::borrow::Borrow;
use ts_cluster::Cluster;
use ts_common::{
    DeploymentPlan, Error, GroupSpec, ModelSpec, Phase, Result, RoutingMatrix, SloSpec,
};
use ts_costmodel::ReplicaCostModel;
use ts_sim::config::{KvTransfer, SimConfig};
use ts_sim::estimate::pair_estimates;
use ts_solver::transport::solve_orchestration_with_link_budget;
use ts_telemetry::profile;
use ts_workload::WorkloadSpec;

/// An orchestrated plan plus its estimated attainment.
#[derive(Debug, Clone)]
pub struct OrchestratedPlan {
    /// The complete deployment plan.
    pub plan: DeploymentPlan,
    /// Estimated overall SLO attainment (the tabu objective `f(·)`).
    pub score: f64,
}

/// Builds the routing matrix for `groups` and packages the deployment plan.
///
/// # Errors
/// Returns [`Error::Infeasible`] if either phase has no groups or any group
/// cannot hold the model; propagates solver failures.
pub fn orchestrate(
    cluster: &Cluster,
    model: &ModelSpec,
    groups: Vec<GroupSpec>,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    cfg: &SchedulerConfig,
) -> Result<OrchestratedPlan> {
    orchestrate_with_link_share(cluster, model, groups, workload, slo, cfg, 1.0)
}

/// [`orchestrate`] with a fractional claim on sender uplinks.
///
/// In multi-model serving the transportation problem is solved once per model
/// over that model's own groups, but the node uplinks carrying KV transfers
/// are shared by every co-scheduled model. `link_share` scales the tiered
/// link-headroom budgets so each model only claims its fair fraction of the
/// shared fabric (its traffic share). `link_share == 1.0` reproduces the
/// single-model behaviour exactly (the budgets are multiplied by 1.0, an
/// identity in IEEE-754).
///
/// # Errors
/// Same as [`orchestrate`].
pub fn orchestrate_with_link_share(
    cluster: &Cluster,
    model: &ModelSpec,
    groups: Vec<GroupSpec>,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    cfg: &SchedulerConfig,
    link_share: f64,
) -> Result<OrchestratedPlan> {
    let costs = cost_models(cluster, model, &groups, cfg)?;
    orchestrate_costed(
        cluster, model, groups, &costs, workload, slo, cfg, link_share,
    )
}

/// Each group's cost model, in group order.
///
/// # Errors
/// The first group whose model cannot be built (see
/// [`ReplicaCostModel::new`]).
pub(crate) fn cost_models(
    cluster: &Cluster,
    model: &ModelSpec,
    groups: &[GroupSpec],
    cfg: &SchedulerConfig,
) -> Result<Vec<ReplicaCostModel>> {
    let _g = profile::scope("tabu.cost_models");
    groups
        .iter()
        .map(|g| ReplicaCostModel::new(cluster, model, g, &cfg.params))
        .collect()
}

/// [`orchestrate_with_link_share`] over groups whose cost models are
/// already built: `costs[i]` is the model of `groups[i]`. The tabu walk
/// keeps each group's model beside it in its cache and calls this directly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn orchestrate_costed<M: Borrow<ReplicaCostModel>>(
    cluster: &Cluster,
    model: &ModelSpec,
    groups: Vec<GroupSpec>,
    costs: &[M],
    workload: &WorkloadSpec,
    slo: &SloSpec,
    cfg: &SchedulerConfig,
    link_share: f64,
) -> Result<OrchestratedPlan> {
    let mut prefill: Vec<&ReplicaCostModel> = Vec::new();
    let mut decode: Vec<&ReplicaCostModel> = Vec::new();
    for (g, c) in groups.iter().zip(costs) {
        match g.phase {
            Phase::Prefill => prefill.push(c.borrow()),
            Phase::Decode => decode.push(c.borrow()),
        }
    }
    if prefill.is_empty() || decode.is_empty() {
        return Err(Error::Infeasible(
            "orchestration needs both prefill and decode groups".into(),
        ));
    }

    let sim_cfg = sim_config(model, cfg);
    let est = {
        let _g = profile::scope("tabu.pair_estimates");
        pair_estimates(cluster, &sim_cfg, &prefill, &decode, workload, slo)
    };
    // Sender-uplink budgets: each routed request costs kv_seconds of sender
    // time at workload.rate requests/second. Links want *more* headroom than
    // compute because the attainment matrix D prices transfer time but not
    // transfer queueing, and prefill completions hit the uplink in batched
    // bursts — so prefer 60% utilization, relax to 92%, and drop the
    // constraint entirely when it would strand demand (under saturation,
    // serving at link capacity beats preserving latency headroom for
    // requests that would otherwise never be served).
    let lp = profile::scope("tabu.transport_lp");
    let mut orch = None;
    for headroom in [Some(0.60), Some(0.92), None] {
        let cand = solve_orchestration_with_link_budget(
            &est.d,
            &est.row_cap,
            &est.col_cap,
            headroom.map(|_| est.kv_seconds.as_slice()),
            headroom
                .map(|h| h * link_share / workload.rate)
                .unwrap_or(0.0),
        )?;
        let full = cand.mass >= 0.999;
        orch = Some(cand);
        if full {
            break;
        }
    }
    let orch = orch.expect("at least one orchestration attempt ran");
    drop(lp);
    let _package = profile::scope("tabu.package");

    // Unserved mass counts as missed SLOs in the score.
    let score = orch.value;

    // The LP is degenerate among symmetric replicas (identical D rows/cols)
    // and returns vertex solutions that pile all mass on one of them, which
    // doubles queueing for no objective gain. Average allocations within
    // equivalence classes: feasibility and objective are preserved because
    // the constraints and costs are identical across class members.
    let mut rates_eq = orch.rates.clone();
    equalize_rows(&mut rates_eq, &est.d, &est.row_cap, &est.kv_seconds);
    equalize_cols(&mut rates_eq, &est.d, &est.col_cap);

    let routing = if orch.mass > 0.0 {
        // The dispatcher must route 100% of traffic even when capacity says
        // only `mass` of it can meet its SLO; scale the optimized allocation
        // proportionally. (Under saturation every choice overloads something;
        // keeping the LP's shape concentrates traffic on the highest-value
        // routes. The latency pathologies of near-saturated links are handled
        // upstream by the tiered link headroom, not here.)
        let scale = 1.0 / orch.mass;
        let rates: Vec<Vec<f64>> = rates_eq
            .iter()
            .map(|row| row.iter().map(|&v| v * scale).collect())
            .collect();
        RoutingMatrix::new(rates)?
    } else {
        RoutingMatrix::uniform(prefill.len(), decode.len())
    };

    let plan = DeploymentPlan::new(groups, routing)?;
    Ok(OrchestratedPlan { plan, score })
}

/// Averages routing rows across prefill replicas that are interchangeable:
/// identical attainment rows, capacities and KV costs.
fn equalize_rows(rates: &mut [Vec<f64>], d: &[Vec<f64>], row_cap: &[f64], kv: &[Vec<f64>]) {
    let m = rates.len();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let mut assigned = vec![false; m];
    for i in 0..m {
        if assigned[i] {
            continue;
        }
        let mut class = vec![i];
        for i2 in i + 1..m {
            if assigned[i2] {
                continue;
            }
            let same = close(row_cap[i], row_cap[i2])
                && d[i].iter().zip(&d[i2]).all(|(a, b)| close(*a, *b))
                && kv[i].iter().zip(&kv[i2]).all(|(a, b)| close(*a, *b));
            if same {
                class.push(i2);
            }
        }
        if class.len() > 1 {
            let n = rates[0].len();
            for j in 0..n {
                let avg = class.iter().map(|&r| rates[r][j]).sum::<f64>() / class.len() as f64;
                for &r in &class {
                    rates[r][j] = avg;
                }
            }
        }
        for &r in &class {
            assigned[r] = true;
        }
    }
}

/// Averages routing columns across interchangeable decode replicas.
fn equalize_cols(rates: &mut [Vec<f64>], d: &[Vec<f64>], col_cap: &[f64]) {
    if rates.is_empty() {
        return;
    }
    let n = rates[0].len();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let mut assigned = vec![false; n];
    for j in 0..n {
        if assigned[j] {
            continue;
        }
        let mut class = vec![j];
        for j2 in j + 1..n {
            if assigned[j2] {
                continue;
            }
            let same = close(col_cap[j], col_cap[j2]) && d.iter().all(|row| close(row[j], row[j2]));
            if same {
                class.push(j2);
            }
        }
        if class.len() > 1 {
            for row in rates.iter_mut() {
                let avg = class.iter().map(|&c| row[c]).sum::<f64>() / class.len() as f64;
                for &c in &class {
                    row[c] = avg;
                }
            }
        }
        for &c in &class {
            assigned[c] = true;
        }
    }
}

/// A tie-breaking secondary objective in [0, 1]: how well phase
/// designations match hardware affinity — compute-rich GPUs prefilling and
/// bandwidth-rich GPUs decoding (§5.3's observed behaviour). Scores on the
/// primary objective often plateau (many plans meet the SLO); this bonus
/// steers the search toward the designations the paper's finer-grained cost
/// model would pick, scaled small enough (1e-4 in the tabu objective) never
/// to override a real attainment difference.
pub fn phase_affinity(cluster: &Cluster, groups: &[GroupSpec]) -> f64 {
    let mut max_ci = 0.0f64;
    let mut max_bw = 0.0f64;
    for id in cluster.active_gpus() {
        let spec = cluster.gpu(id).spec();
        max_ci = max_ci.max(spec.compute_intensity());
        max_bw = max_bw.max(spec.mem_bandwidth);
    }
    if max_ci <= 0.0 || max_bw <= 0.0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    let mut n = 0.0f64;
    for g in groups {
        for gpu in g.gpus() {
            let spec = cluster.gpu(gpu).spec();
            total += match g.phase {
                Phase::Prefill => spec.compute_intensity() / max_ci,
                Phase::Decode => spec.mem_bandwidth / max_bw,
            };
            n += 1.0;
        }
    }
    if n == 0.0 {
        0.0
    } else {
        total / n
    }
}

/// The simulator configuration implied by scheduler settings.
pub fn sim_config(model: &ModelSpec, cfg: &SchedulerConfig) -> SimConfig {
    let mut sc = SimConfig::new(model.clone());
    sc.params = cfg.params;
    sc.kv_precision = cfg.kv_precision;
    if cfg.network_contention {
        sc.kv_transfer = KvTransfer::Fabric;
    }
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::deduce_parallel_config;
    use ts_cluster::presets;
    use ts_common::{GpuId, SimDuration};
    use ts_workload::spec;

    fn slo() -> SloSpec {
        SloSpec::new(
            SimDuration::from_secs(2),
            SimDuration::from_millis(200),
            SimDuration::from_secs(30),
        )
    }

    fn ids(v: &[u32]) -> Vec<GpuId> {
        v.iter().map(|&i| GpuId(i)).collect()
    }

    #[test]
    fn sim_config_threads_network_knobs() {
        let mut cfg = SchedulerConfig::fast();
        cfg.network_contention = true;
        let sc = sim_config(&ModelSpec::llama_13b(), &cfg);
        assert_eq!(sc.kv_transfer, KvTransfer::Fabric);
        cfg.network_contention = false;
        let sc = sim_config(&ModelSpec::llama_13b(), &cfg);
        assert_eq!(sc.kv_transfer, KvTransfer::Serialized);
    }

    #[test]
    fn produces_valid_plan() {
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let model = ModelSpec::llama_13b();
        let cfg = SchedulerConfig::default();
        let w = spec::coding(1.0);
        let g1 = deduce_parallel_config(
            &cluster,
            &model,
            &ids(&[0, 1, 2, 3]),
            Phase::Prefill,
            &w,
            &cfg,
        )
        .unwrap();
        let g2 = deduce_parallel_config(
            &cluster,
            &model,
            &ids(&[4, 5, 6, 7]),
            Phase::Decode,
            &w,
            &cfg,
        )
        .unwrap();
        let o = orchestrate(&cluster, &model, vec![g1, g2], &w, &slo(), &cfg).unwrap();
        assert!(o.score > 0.0 && o.score <= 1.0, "score {}", o.score);
        assert_eq!(o.plan.phase_ratio(), (1, 1));
    }

    #[test]
    fn full_link_share_is_the_identity() {
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let model = ModelSpec::llama_13b();
        let cfg = SchedulerConfig::default();
        let w = spec::coding(1.0);
        let g1 = deduce_parallel_config(
            &cluster,
            &model,
            &ids(&[0, 1, 2, 3]),
            Phase::Prefill,
            &w,
            &cfg,
        )
        .unwrap();
        let g2 = deduce_parallel_config(
            &cluster,
            &model,
            &ids(&[4, 5, 6, 7]),
            Phase::Decode,
            &w,
            &cfg,
        )
        .unwrap();
        let base = orchestrate(
            &cluster,
            &model,
            vec![g1.clone(), g2.clone()],
            &w,
            &slo(),
            &cfg,
        )
        .unwrap();
        let shared =
            orchestrate_with_link_share(&cluster, &model, vec![g1, g2], &w, &slo(), &cfg, 1.0)
                .unwrap();
        assert_eq!(base.plan, shared.plan);
        assert_eq!(base.score, shared.score);
    }

    #[test]
    fn single_phase_rejected() {
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let model = ModelSpec::llama_13b();
        let cfg = SchedulerConfig::default();
        let w = spec::coding(1.0);
        let g = deduce_parallel_config(
            &cluster,
            &model,
            &ids(&[0, 1, 2, 3]),
            Phase::Prefill,
            &w,
            &cfg,
        )
        .unwrap();
        assert!(orchestrate(&cluster, &model, vec![g], &w, &slo(), &cfg).is_err());
    }

    #[test]
    fn symmetric_replicas_share_load() {
        // Two identical A40-pair prefill replicas must split traffic evenly
        // instead of piling everything on one (LP vertex degeneracy).
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let model = ModelSpec::llama_13b();
        let cfg = SchedulerConfig::default();
        let w = spec::coding(1.0);
        let p1 = deduce_parallel_config(&cluster, &model, &ids(&[0, 1]), Phase::Prefill, &w, &cfg)
            .unwrap();
        let p2 = deduce_parallel_config(&cluster, &model, &ids(&[2, 3]), Phase::Prefill, &w, &cfg)
            .unwrap();
        let d1 = deduce_parallel_config(
            &cluster,
            &model,
            &ids(&[4, 5, 6, 7]),
            Phase::Decode,
            &w,
            &cfg,
        )
        .unwrap();
        let o = orchestrate(&cluster, &model, vec![p1, p2, d1], &w, &slo(), &cfg).unwrap();
        let r = &o.plan.routing;
        assert!(
            (r.prefill_share(0) - 0.5).abs() < 1e-6,
            "expected even split, got {:?}",
            r.rates()
        );
    }

    #[test]
    fn routing_prefers_fast_links() {
        // Two decode replicas: one co-located with the prefill replica's
        // node island (fast link), one across a slow link. Routing should
        // favour the fast pair.
        let cluster = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let cfg = SchedulerConfig::default();
        let w = spec::conversation(2.0);
        // prefill on A40 (node 4, GPUs 16..20); fast decode on 3090Ti node 5
        // (24..28, 40Gbps to A40); slow decode on A6000 node 0 (0..4, 2.5e9).
        let pf = deduce_parallel_config(
            &cluster,
            &model,
            &ids(&[16, 17, 18, 19]),
            Phase::Prefill,
            &w,
            &cfg,
        )
        .unwrap();
        let fast = deduce_parallel_config(
            &cluster,
            &model,
            &ids(&[24, 25, 26, 27]),
            Phase::Decode,
            &w,
            &cfg,
        )
        .unwrap();
        let slow = deduce_parallel_config(
            &cluster,
            &model,
            &ids(&[0, 1, 2, 3]),
            Phase::Decode,
            &w,
            &cfg,
        )
        .unwrap();
        let o = orchestrate(&cluster, &model, vec![pf, fast, slow], &w, &slo(), &cfg).unwrap();
        let r = &o.plan.routing;
        // column 0 is the fast 3090Ti decode replica
        assert!(
            r.decode_share(0) >= r.decode_share(1) * 0.8,
            "fast replica should carry comparable or more traffic: {:?}",
            r.rates()
        );
    }
}
