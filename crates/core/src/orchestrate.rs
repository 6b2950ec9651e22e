//! Orchestration of prefill and decode replicas (§3.3).
//!
//! Given resolved serving groups, estimate the SLO attainment of every
//! (prefill, decode) pair — including the alpha-beta KV transfer term of
//! Eq. (1) — then solve the capacity-bounded transportation problem to route
//! request flow, producing a complete [`DeploymentPlan`] and its estimated
//! overall attainment.
//!
//! Orchestration is two steps. Scoring (`score_costed`) runs the
//! estimates, the tiered LP and the equalize passes, plus every check that
//! packaging could fail on, and yields the objective. Packaging
//! (`Scored::package`) scales the routing to the whole stream and builds
//! the plan. [`orchestrate`], the one public path, runs both. The tabu walk
//! scores every neighbour once and packages only a new best, from the
//! `Scored` its score left.

use crate::config::SchedulerConfig;
use ts_cluster::Cluster;
use ts_common::{
    DeploymentPlan, Error, GpuId, GroupSpec, ModelSpec, Phase, Result, RoutingMatrix, SloSpec,
};
use ts_costmodel::ReplicaCostModel;
use ts_sim::config::{KvTransfer, SimConfig};
use ts_sim::estimate::{kv_seconds, pair_estimates_from_terms, PairEstimates, ReplicaTerms};
use ts_solver::transport::{Orchestration, OrchestrationProblem};
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

/// Builds the routing matrix for `groups` and packages the deployment plan:
/// each group's cost model and estimator terms, the scoring step with the
/// whole of every sender uplink, then packaging. Each pair's KV seconds
/// are computed on the spot.
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
    let costs = cost_models(cluster, model, &groups, cfg)?;
    let terms: Vec<ReplicaTerms> = costs
        .iter()
        .map(|c| ReplicaTerms::new(c, workload))
        .collect();
    let sim_cfg = sim_config(model, cfg);
    let members = groups
        .iter()
        .zip(costs.iter().zip(&terms))
        .map(|(g, (c, t))| (g.phase, c, t, c));
    let kv =
        |p: &ReplicaCostModel, d: &ReplicaCostModel| kv_seconds(cluster, &sim_cfg, p, d, workload);
    score_costed(members, kv, workload, slo, 1.0)?.package(groups)
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

/// The pair estimates of `members`, read as [`score_costed`] reads them:
/// prefill rows and decode columns, each in group order.
///
/// # Errors
/// Returns [`Error::Infeasible`] if either phase has no groups.
pub(crate) fn estimates<'c, K: Copy>(
    members: impl IntoIterator<Item = (Phase, &'c ReplicaCostModel, &'c ReplicaTerms, K)>,
    mut kv: impl FnMut(K, K) -> f64,
    workload: &WorkloadSpec,
    slo: &SloSpec,
) -> Result<PairEstimates> {
    let mut prefill: Vec<(&ReplicaTerms, K)> = Vec::new();
    let mut decode: Vec<(&ReplicaCostModel, &ReplicaTerms)> = Vec::new();
    let mut decode_keys: Vec<K> = Vec::new();
    for (phase, c, t, k) in members {
        match phase {
            Phase::Prefill => prefill.push((t, k)),
            Phase::Decode => {
                decode.push((c, t));
                decode_keys.push(k);
            }
        }
    }
    if prefill.is_empty() || decode.is_empty() {
        return Err(Error::Infeasible(
            "orchestration needs both prefill and decode groups".into(),
        ));
    }
    let _g = profile::scope("tabu.pair_estimates");
    let kv_seconds = prefill
        .iter()
        .map(|&(_, p)| decode_keys.iter().map(|&d| kv(p, d)).collect())
        .collect();
    Ok(pair_estimates_from_terms(
        prefill.iter().map(|&(t, _)| t),
        &decode,
        kv_seconds,
        workload,
        slo,
    ))
}

/// What scoring leaves for packaging: the LP's routing after the equalize
/// passes, and its objective.
#[derive(Debug, Clone)]
pub(crate) struct Scored {
    /// The LP solution with its rates equalized in place.
    orch: Orchestration,
}

impl Scored {
    /// The estimated attainment: the LP objective, unserved mass counted
    /// as missed SLOs.
    pub(crate) fn score(&self) -> f64 {
        self.orch.value
    }

    /// The routing the plan gets, row-major. The dispatcher must route 100%
    /// of traffic even when capacity says only `mass` of it can meet its
    /// SLO, so a positive mass scales the optimized allocation
    /// proportionally. (Under saturation every choice overloads something;
    /// keeping the LP's shape concentrates traffic on the highest-value
    /// routes. The latency pathologies of near-saturated links are handled
    /// upstream by the tiered link headroom, not here.) A zero mass routes
    /// uniformly.
    pub(crate) fn routing(&self) -> impl Iterator<Item = f64> + '_ {
        let rates = &self.orch.rates;
        let uniform = 1.0 / (rates.len() * rates[0].len()) as f64;
        let scale = (self.orch.mass > 0.0).then(|| 1.0 / self.orch.mass);
        rates
            .iter()
            .flatten()
            .map(move |&v| scale.map_or(uniform, |s| v * s))
    }

    /// Packages the plan over `groups`, the groups scored, in order.
    ///
    /// # Errors
    /// Whatever [`RoutingMatrix::new`] and [`DeploymentPlan::new`] refuse;
    /// scoring has already checked the routing.
    pub(crate) fn package(&self, groups: Vec<GroupSpec>) -> Result<OrchestratedPlan> {
        let _package = profile::scope("tabu.package");
        let (m, n) = (self.orch.rates.len(), self.orch.rates[0].len());
        let routing = if self.orch.mass > 0.0 {
            let mut rates = self.routing();
            RoutingMatrix::new((0..m).map(|_| rates.by_ref().take(n).collect()).collect())?
        } else {
            RoutingMatrix::uniform(m, n)
        };
        Ok(OrchestratedPlan {
            plan: DeploymentPlan::new(groups, routing)?,
            score: self.score(),
        })
    }
}

/// The scoring step of orchestration over `members`, in group order: each
/// group's phase, cost model, estimator terms and a key that `kv` takes to
/// give a (prefill, decode) pair's KV seconds.
///
/// `link_share` is the fraction of each sender uplink the groups may
/// claim; it scales the tiered link-headroom budgets. In multi-model
/// serving the problem is solved once per model over that model's own
/// groups, but the node uplinks carrying KV transfers are shared, so each
/// model claims its traffic share. [`orchestrate`] claims the whole
/// uplink: multiplying by 1.0 is an identity in IEEE-754.
///
/// # Errors
/// Returns [`Error::Infeasible`] if either phase has no groups; propagates
/// solver failures and the routing checks of [`RoutingMatrix::new`].
pub(crate) fn score_costed<'c, K: Copy>(
    members: impl IntoIterator<Item = (Phase, &'c ReplicaCostModel, &'c ReplicaTerms, K)>,
    kv: impl FnMut(K, K) -> f64,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    link_share: f64,
) -> Result<Scored> {
    let est = estimates(members, kv, workload, slo)?;
    // Sender-uplink budgets: each routed request costs kv_seconds of sender
    // time at workload.rate requests/second. Links want *more* headroom than
    // compute because the attainment matrix D prices transfer time but not
    // transfer queueing, and prefill completions hit the uplink in batched
    // bursts — so prefer 60% utilization, relax to 92%, and drop the
    // constraint entirely when it would strand demand (under saturation,
    // serving at link capacity beats preserving latency headroom for
    // requests that would otherwise never be served).
    //
    // A tier whose mass is short before any pivot would be discarded for
    // the next one; only its feasibility matters, because an infeasible
    // tier ends the orchestration. Such a tier runs phase 1 alone.
    const TIERS: [Option<f64>; 3] = [Some(0.60), Some(0.92), None];
    let lp = profile::scope("tabu.transport_lp");
    let mut orch = None;
    for (k, headroom) in TIERS.into_iter().enumerate() {
        let problem = OrchestrationProblem::new(
            &est.d,
            &est.row_cap,
            &est.col_cap,
            headroom.map(|_| est.kv_seconds.as_slice()),
            headroom
                .map(|h| h * link_share / workload.rate)
                .unwrap_or(0.0),
        )?;
        if k + 1 < TIERS.len() && problem.mass() < 0.999 {
            let _g = profile::scope("tabu.lp_feasibility");
            problem.check_feasible()?;
            continue;
        }
        orch = Some(problem.solve()?);
        break;
    }
    let mut orch = orch.expect("the last tier always solves");
    drop(lp);

    // The LP is degenerate among symmetric replicas (identical D rows/cols)
    // and returns vertex solutions that pile all mass on one of them, which
    // doubles queueing for no objective gain. Average allocations within
    // equivalence classes: feasibility and objective are preserved because
    // the constraints and costs are identical across class members.
    equalize_rows(&mut orch.rates, &est.d, &est.row_cap, &est.kv_seconds);
    equalize_cols(&mut orch.rates, &est.d, &est.col_cap);
    let scored = Scored { orch };
    if scored.orch.mass > 0.0 {
        check_routing(scored.routing())?;
    }
    Ok(scored)
}

/// The value checks of [`RoutingMatrix::new`] on row-major `rates`, with
/// its messages: every rate finite and non-negative, the sum within 1e-6
/// of 1.
///
/// # Errors
/// Returns [`Error::InvalidConfig`] for the first check that fails.
pub(crate) fn check_routing(rates: impl Iterator<Item = f64>) -> Result<()> {
    let mut total = 0.0;
    for v in rates {
        if !v.is_finite() || v < -1e-12 {
            return Err(Error::InvalidConfig(format!("bad routing rate {v}")));
        }
        total += v;
    }
    if (total - 1.0).abs() > 1e-6 {
        return Err(Error::InvalidConfig(format!(
            "routing rates sum to {total}, expected 1"
        )));
    }
    Ok(())
}

/// Averages routing rows across prefill replicas that are interchangeable:
/// identical attainment rows, capacities and KV costs.
fn equalize_rows(rates: &mut [Vec<f64>], d: &[Vec<f64>], row_cap: &[f64], kv: &[Vec<f64>]) {
    let m = rates.len();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    // The first member of each row's class, once the row has one.
    let mut leader = vec![usize::MAX; m];
    for i in 0..m {
        if leader[i] != usize::MAX {
            continue;
        }
        leader[i] = i;
        let mut size = 1;
        for i2 in i + 1..m {
            if leader[i2] != usize::MAX {
                continue;
            }
            let same = close(row_cap[i], row_cap[i2])
                && d[i].iter().zip(&d[i2]).all(|(a, b)| close(*a, *b))
                && kv[i].iter().zip(&kv[i2]).all(|(a, b)| close(*a, *b));
            if same {
                leader[i2] = i;
                size += 1;
            }
        }
        if size > 1 {
            let n = rates[0].len();
            for j in 0..n {
                let avg = (i..m)
                    .filter(|&r| leader[r] == i)
                    .map(|r| rates[r][j])
                    .sum::<f64>()
                    / size as f64;
                for r in i..m {
                    if leader[r] == i {
                        rates[r][j] = avg;
                    }
                }
            }
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
    // The first member of each column's class, once the column has one.
    let mut leader = vec![usize::MAX; n];
    for j in 0..n {
        if leader[j] != usize::MAX {
            continue;
        }
        leader[j] = j;
        let mut size = 1;
        for j2 in j + 1..n {
            if leader[j2] != usize::MAX {
                continue;
            }
            let same = close(col_cap[j], col_cap[j2]) && d.iter().all(|row| close(row[j], row[j2]));
            if same {
                leader[j2] = j;
                size += 1;
            }
        }
        if size > 1 {
            for row in rates.iter_mut() {
                let avg = (j..n)
                    .filter(|&c| leader[c] == j)
                    .map(|c| row[c])
                    .sum::<f64>()
                    / size as f64;
                for c in j..n {
                    if leader[c] == j {
                        row[c] = avg;
                    }
                }
            }
        }
    }
}

/// The largest compute intensity and memory bandwidth among a cluster's
/// active GPUs: the scale of [`phase_affinity_of`]. A search space builds
/// it once, since its cluster does not change during a walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AffinityScale {
    max_ci: f64,
    max_bw: f64,
}

impl AffinityScale {
    pub(crate) fn new(cluster: &Cluster) -> Self {
        let mut scale = AffinityScale {
            max_ci: 0.0,
            max_bw: 0.0,
        };
        let active = (0..cluster.num_gpus_provisioned())
            .map(|i| GpuId(i as u32))
            .filter(|&id| cluster.is_active(id));
        for id in active {
            let spec = cluster.gpu(id).spec();
            scale.max_ci = scale.max_ci.max(spec.compute_intensity());
            scale.max_bw = scale.max_bw.max(spec.mem_bandwidth);
        }
        scale
    }
}

/// A tie-breaking secondary objective in [0, 1]: how well phase
/// designations match hardware affinity — compute-rich GPUs prefilling and
/// bandwidth-rich GPUs decoding (§5.3's observed behaviour). Scores on the
/// primary objective often plateau (many plans meet the SLO); this bonus
/// steers the search toward the designations the paper's finer-grained cost
/// model would pick, scaled small enough (1e-4 in the tabu objective) never
/// to override a real attainment difference. Each group is scored under the
/// phase paired with it, against `scale`, the [`AffinityScale`] of
/// `cluster`.
pub(crate) fn phase_affinity_of<'g>(
    cluster: &Cluster,
    scale: AffinityScale,
    groups: impl IntoIterator<Item = (Phase, &'g GroupSpec)>,
) -> f64 {
    let AffinityScale { max_ci, max_bw } = scale;
    if max_ci <= 0.0 || max_bw <= 0.0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    let mut n = 0.0f64;
    for (phase, g) in groups {
        for gpu in g.gpus() {
            let spec = cluster.gpu(gpu).spec();
            total += match phase {
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
        let decode_share = |j: usize| r.rates().iter().map(|row| row[j]).sum::<f64>();
        // column 0 is the fast 3090Ti decode replica
        assert!(
            decode_share(0) >= decode_share(1) * 0.8,
            "fast replica should carry comparable or more traffic: {:?}",
            r.rates()
        );
    }
}
