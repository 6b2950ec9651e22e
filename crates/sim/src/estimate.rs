//! Fast analytic SLO-attainment estimation.
//!
//! The tabu search evaluates thousands of candidate plans; running the full
//! event simulator for each would dominate scheduling time. This module
//! estimates per-pair and overall SLO attainment analytically with simple
//! queueing approximations (M/D/1-style prefill waiting, Little's-law decode
//! batch fixed point, alpha-beta KV transfer), in the spirit of the paper's
//! DistServe-derived simulator. Figure 19 compares this estimator against
//! the discrete-event engine.

use crate::config::{SimConfig, MAX_DECODE_BATCH};
use std::borrow::Borrow;
use ts_cluster::Cluster;
use ts_common::{DeploymentPlan, Result, SloSpec};
use ts_costmodel::replica::{kv_route, kv_transfer_time};
use ts_costmodel::ReplicaCostModel;
use ts_workload::WorkloadSpec;

/// Per-pair estimates plus capacity bounds, ready for the orchestration LP.
#[derive(Debug, Clone)]
pub struct PairEstimates {
    /// `d[i][j]`: estimated joint SLO attainment for the (prefill `i`,
    /// decode `j`) pair.
    pub d: Vec<Vec<f64>>,
    /// Per-kind components `(ttft, tpot, e2e)` for each pair. Only
    /// [`estimate_attainment`] reads them, so only it asks for them;
    /// `None` otherwise.
    pub components: Option<Vec<Vec<(f64, f64, f64)>>>,
    /// Fraction of the total request rate each prefill replica can absorb.
    pub row_cap: Vec<f64>,
    /// Fraction of the total request rate each decode replica can absorb.
    pub col_cap: Vec<f64>,
    /// KV transfer seconds per routed request for each (prefill, decode)
    /// pair — the sender-uplink cost the orchestration LP budgets against.
    pub kv_seconds: Vec<Vec<f64>>,
}

/// Overall plan-level estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttainmentEstimate {
    /// Estimated joint (all-three-criteria) attainment.
    pub overall: f64,
    /// Estimated TTFT attainment.
    pub ttft: f64,
    /// Estimated TPOT attainment.
    pub tpot: f64,
    /// Estimated E2E attainment.
    pub e2e: f64,
}

/// The rate-independent inputs the estimate reads from one replica's cost
/// model under a workload's mean lengths. They depend on the replica and
/// the workload alone, so a search that scores many plans over the same
/// replicas computes them once per replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaTerms {
    /// Prefill seconds of one mean-length prompt: the prefill service time.
    pub prefill_s: f64,
    /// Decode tokens per second at batch 32 and the mean context, floored
    /// at 1e-9: the weight by which decode replicas share the stream.
    pub decode_weight: f64,
    /// The largest decode batch that fits a mean-length request, clamped to
    /// `1..=MAX_DECODE_BATCH`.
    pub bmax: u64,
    /// Decode step seconds at `bmax` and the mean context.
    pub bmax_step_s: f64,
}

impl ReplicaTerms {
    /// The terms of replica `m` under `workload`'s mean lengths.
    pub fn new(m: &ReplicaCostModel, workload: &WorkloadSpec) -> Self {
        let (p_mean, o_mean) = mean_lengths(workload);
        let ctx = p_mean + o_mean / 2.0;
        let bmax = m
            .max_decode_batch((p_mean + o_mean) as u64)
            .clamp(1, MAX_DECODE_BATCH);
        ReplicaTerms {
            prefill_s: m
                .prefill_latency(p_mean as u64, p_mean as u64)
                .as_secs_f64(),
            decode_weight: m.decode_throughput(32, ctx as u64).max(1e-9),
            bmax,
            bmax_step_s: m.decode_step_latency(bmax, ctx as u64).as_secs_f64(),
        }
    }
}

/// The workload's mean prompt and output lengths, each at least one token.
fn mean_lengths(workload: &WorkloadSpec) -> (f64, f64) {
    (
        workload.prompt.mean().max(1.0),
        workload.output.mean().max(1.0),
    )
}

/// KV transfer seconds of one mean-length prompt from replica `prefill` to
/// replica `decode`, at the configured KV precision.
pub fn kv_seconds(
    cluster: &Cluster,
    cfg: &SimConfig,
    prefill: &ReplicaCostModel,
    decode: &ReplicaCostModel,
    workload: &WorkloadSpec,
) -> f64 {
    let (p_mean, _) = mean_lengths(workload);
    let route = kv_route(cluster, prefill, decode);
    kv_transfer_time(prefill.model(), route, p_mean as u64, cfg.kv_precision).as_secs_f64()
}

/// Utilization headroom: capacities are reported at this fraction of the
/// theoretical maximum so the orchestration keeps queues stable.
const CAP_HEADROOM: f64 = 0.92;

// Estimates cross scheduler worker threads; keep them plain data.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PairEstimates>();
    assert_send_sync::<AttainmentEstimate>();
    assert_send_sync::<ReplicaTerms>();
};

/// Builds [`PairEstimates`] for given prefill/decode replica cost models
/// under `workload` and `slo`.
///
/// The reference load for each replica assumes the stream is spread across
/// replicas proportionally to capacity (routing-independent, so the tabu
/// search can evaluate group constructions before orchestration is known).
///
/// This computes every replica's [`ReplicaTerms`] and every pair's
/// [`kv_seconds`], then runs [`pair_estimates_from_terms`]. It is a pure
/// function of its arguments — no global or interior-mutable state — and
/// the scheduler relies on that to evaluate many candidate plans
/// concurrently with bit-identical results; keep any future caching
/// deterministic and thread-safe.
pub fn pair_estimates<M: Borrow<ReplicaCostModel>>(
    cluster: &Cluster,
    cfg: &SimConfig,
    prefill: &[M],
    decode: &[M],
    workload: &WorkloadSpec,
    slo: &SloSpec,
) -> PairEstimates {
    estimate_on_the_fly(cluster, cfg, prefill, decode, workload, slo, false)
}

/// [`pair_estimates`] computing every input on the spot; `components`
/// asks for [`PairEstimates::components`].
fn estimate_on_the_fly<M: Borrow<ReplicaCostModel>>(
    cluster: &Cluster,
    cfg: &SimConfig,
    prefill: &[M],
    decode: &[M],
    workload: &WorkloadSpec,
    slo: &SloSpec,
    components: bool,
) -> PairEstimates {
    let terms = |ms: &[M]| -> Vec<ReplicaTerms> {
        ms.iter()
            .map(|m| ReplicaTerms::new(m.borrow(), workload))
            .collect()
    };
    let (prefill_terms, decode_terms) = (terms(prefill), terms(decode));
    let kv = prefill
        .iter()
        .map(|p| {
            decode
                .iter()
                .map(|d| kv_seconds(cluster, cfg, p.borrow(), d.borrow(), workload))
                .collect()
        })
        .collect();
    let decode: Vec<(&ReplicaCostModel, &ReplicaTerms)> = decode
        .iter()
        .map(Borrow::borrow)
        .zip(&decode_terms)
        .collect();
    assemble(prefill_terms.iter(), &decode, kv, workload, slo, components)
}

/// The rate-dependent half of [`pair_estimates`]: the M/D/1 prefill wait,
/// the Little's-law decode batch and the pair matrix, from each prefill
/// replica's terms, each decode replica's cost model with its terms, and
/// `kv_seconds[i][j]`, the [`kv_seconds`] of pair `(i, j)`. Equal inputs
/// give the bits [`pair_estimates`] gives, without
/// [`PairEstimates::components`].
pub fn pair_estimates_from_terms<'t>(
    prefill: impl Iterator<Item = &'t ReplicaTerms>,
    decode: &[(&ReplicaCostModel, &ReplicaTerms)],
    kv_seconds: Vec<Vec<f64>>,
    workload: &WorkloadSpec,
    slo: &SloSpec,
) -> PairEstimates {
    assemble(prefill, decode, kv_seconds, workload, slo, false)
}

/// [`pair_estimates_from_terms`], filling [`PairEstimates::components`]
/// when `components` asks for them.
fn assemble<'t>(
    prefill: impl Iterator<Item = &'t ReplicaTerms>,
    decode: &[(&ReplicaCostModel, &ReplicaTerms)],
    kv_seconds: Vec<Vec<f64>>,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    components: bool,
) -> PairEstimates {
    let (p_mean, o_mean) = mean_lengths(workload);
    let rate = workload.rate;

    // --- Prefill side -----------------------------------------------------
    let svc: Vec<f64> = prefill.map(|t| t.prefill_s).collect();
    let mu: Vec<f64> = svc.iter().map(|s| 1.0 / s.max(1e-9)).collect();
    let total_mu: f64 = mu.iter().sum();
    let row_cap: Vec<f64> = mu
        .iter()
        .map(|&m| (m * CAP_HEADROOM / rate).min(1.0))
        .collect();
    // Reference per-replica arrival rate: proportional to service capacity.
    let lam_p: Vec<f64> = mu.iter().map(|&m| rate * m / total_mu).collect();

    // --- Decode side ------------------------------------------------------
    let ctx = p_mean + o_mean / 2.0;
    let steps = (o_mean - 1.0).max(0.0);
    let mut step_time = Vec::with_capacity(decode.len());
    let mut col_cap = Vec::with_capacity(decode.len());
    let total_dec_weight: f64 = decode.iter().map(|(_, t)| t.decode_weight).sum();
    for (m, t) in decode {
        let lam_share = rate * t.decode_weight / total_dec_weight;
        // The step time at batch ⌈b⌉. Successive batches often round to
        // the same size, so the last one priced is kept.
        let mut last: Option<(u64, f64)> = None;
        let mut step_at = |b: f64| {
            let batch = b.ceil() as u64;
            match last {
                Some((priced, st)) if priced == batch => st,
                _ => {
                    let st = m.decode_step_latency(batch, ctx as u64).as_secs_f64();
                    last = Some((batch, st));
                    st
                }
            }
        };
        // Little's-law fixed point: b = λ·steps·step_time(b)
        let mut b = 1.0f64;
        for _ in 0..30 {
            let nb = (lam_share * steps * step_at(b)).clamp(1.0, t.bmax as f64);
            if (nb - b).abs() < 0.01 {
                b = nb;
                break;
            }
            b = nb;
        }
        step_time.push(step_at(b));
        // Max sustainable request rate: tokens/s at bmax divided by steps/request.
        let max_rate = if steps > 0.0 {
            t.bmax as f64 / t.bmax_step_s / steps
        } else {
            f64::INFINITY
        };
        col_cap.push((max_rate * CAP_HEADROOM / rate).min(1.0));
    }

    // --- Pair matrix --------------------------------------------------------
    // What depends on the decode replica alone, once per column.
    let a_tpot: Vec<f64> = step_time
        .iter()
        .map(|&st| soft_meet(slo.tpot.as_secs_f64(), st))
        .collect();
    let decode_time: Vec<f64> = step_time.iter().map(|&st| steps * st).collect();
    let ttft_deadline = slo.ttft.as_secs_f64();
    let e2e_deadline = slo.e2e.as_secs_f64();
    let n_d = decode.len();
    debug_assert!(kv_seconds.len() == svc.len() && kv_seconds.iter().all(|r| r.len() == n_d));
    let mut d = vec![vec![0.0; n_d]; svc.len()];
    let mut parts = components.then(|| vec![vec![(0.0, 0.0, 0.0); n_d]; svc.len()]);
    for (i, (row, kv_row)) in d.iter_mut().zip(&kv_seconds).enumerate() {
        let rho = (lam_p[i] * svc[i]).min(0.999);
        // Mean M/D/1 queueing delay, modeled with an exponential tail.
        let wq_mean = rho * svc[i] / (2.0 * (1.0 - rho).max(1e-6));
        let a_ttft = wait_tail(ttft_deadline - svc[i], wq_mean, rho);
        for j in 0..n_d {
            let slack = e2e_deadline - svc[i] - kv_row[j] - decode_time[j];
            let a_e2e = wait_tail(slack, wq_mean, rho);
            if let Some(parts) = parts.as_mut() {
                parts[i][j] = (a_ttft, a_tpot[j], a_e2e);
            }
            row[j] = a_ttft * a_tpot[j] * a_e2e;
        }
    }
    PairEstimates {
        d,
        components: parts,
        row_cap,
        col_cap,
        kv_seconds,
    }
}

/// P(wait ≤ slack) with exponential-tail waiting of mean `wq_mean` and
/// utilization `rho` (probability `rho` of waiting at all).
fn wait_tail(slack: f64, wq_mean: f64, rho: f64) -> f64 {
    if slack < 0.0 {
        return 0.0;
    }
    if wq_mean <= 1e-12 {
        return 1.0;
    }
    1.0 - rho * (-slack / wq_mean).exp()
}

/// Smooth deterministic deadline check: 1 when `value` is comfortably below
/// `deadline`, 0 when far above, logistic in between.
fn soft_meet(deadline: f64, value: f64) -> f64 {
    if value <= 1e-12 {
        return 1.0;
    }
    let x = deadline / value - 1.0;
    1.0 / (1.0 + (-8.0 * x).exp())
}

/// Estimates attainment for a complete plan (groups + routing) under a
/// workload: per-pair estimates weighted by the plan's routing matrix.
/// Unrouted mass counts as missed.
///
/// # Errors
/// Propagates cost-model compilation failures for infeasible groups.
pub fn estimate_attainment(
    cluster: &Cluster,
    plan: &DeploymentPlan,
    cfg: &SimConfig,
    workload: &WorkloadSpec,
    slo: &SloSpec,
) -> Result<AttainmentEstimate> {
    let prefill: Vec<ReplicaCostModel> = plan
        .prefill_indices()
        .iter()
        .map(|&gi| ReplicaCostModel::new(cluster, &cfg.model, &plan.groups[gi], &cfg.params))
        .collect::<Result<_>>()?;
    let decode: Vec<ReplicaCostModel> = plan
        .decode_indices()
        .iter()
        .map(|&gi| ReplicaCostModel::new(cluster, &cfg.model, &plan.groups[gi], &cfg.params))
        .collect::<Result<_>>()?;
    let est = estimate_on_the_fly(cluster, cfg, &prefill, &decode, workload, slo, true);
    let components = est.components.expect("components were asked for");
    let mut overall = 0.0;
    let mut ttft = 0.0;
    let mut tpot = 0.0;
    let mut e2e = 0.0;
    // Every estimate is a probability in [0, 1], so a +0.0 cell off the
    // support would add +0.0 to each sum: walking the support in row-major
    // order gives the dense sums' bits.
    for (i, j, r) in plan.routing.support().iter() {
        overall += r * est.d[i][j];
        let (a, b, c) = components[i][j];
        ttft += r * a;
        tpot += r * b;
        e2e += r * c;
    }
    Ok(AttainmentEstimate {
        overall,
        ttft,
        tpot,
        e2e,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::Rng;
    use ts_cluster::presets;
    use ts_common::{
        GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, RoutingMatrix, SimDuration, StageSpec,
    };
    use ts_costmodel::ModelParams;
    use ts_workload::spec;

    fn group(phase: Phase, gpus: &[u32], tp: usize, pp: usize, layers: usize) -> GroupSpec {
        let per = layers / pp;
        let stages = (0..pp)
            .map(|s| StageSpec {
                gpus: gpus[s * tp..(s + 1) * tp]
                    .iter()
                    .map(|&g| GpuId(g))
                    .collect(),
                layers: if s + 1 == pp {
                    layers - per * (pp - 1)
                } else {
                    per
                },
            })
            .collect();
        GroupSpec::new(phase, ParallelConfig::new(tp, pp).unwrap(), stages).unwrap()
    }

    fn simple_plan() -> (ts_cluster::Cluster, DeploymentPlan, SimConfig) {
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let model = ModelSpec::llama_13b();
        let plan = DeploymentPlan::new(
            vec![
                group(Phase::Prefill, &[0, 1, 2, 3], 2, 2, model.num_layers),
                group(Phase::Decode, &[4, 5, 6, 7], 2, 2, model.num_layers),
            ],
            RoutingMatrix::uniform(1, 1),
        )
        .unwrap();
        let cfg = SimConfig::new(model);
        (cluster, plan, cfg)
    }

    fn slo() -> SloSpec {
        SloSpec::new(
            SimDuration::from_secs(2),
            SimDuration::from_millis(200),
            SimDuration::from_secs(30),
        )
    }

    #[test]
    fn low_rate_high_attainment() {
        let (cluster, plan, cfg) = simple_plan();
        let w = spec::coding(0.2);
        let e = estimate_attainment(&cluster, &plan, &cfg, &w, &slo()).unwrap();
        assert!(e.overall > 0.8, "overall {e:?}");
        assert!(e.ttft > 0.9);
    }

    #[test]
    fn attainment_degrades_with_rate() {
        let (cluster, plan, cfg) = simple_plan();
        let lo = estimate_attainment(&cluster, &plan, &cfg, &spec::coding(0.2), &slo()).unwrap();
        let hi = estimate_attainment(&cluster, &plan, &cfg, &spec::coding(8.0), &slo()).unwrap();
        assert!(hi.overall < lo.overall, "{hi:?} vs {lo:?}");
    }

    #[test]
    fn attainment_improves_with_looser_slo() {
        let (cluster, plan, cfg) = simple_plan();
        let w = spec::coding(1.5);
        let tight = estimate_attainment(&cluster, &plan, &cfg, &w, &slo().scaled(0.25)).unwrap();
        let loose = estimate_attainment(&cluster, &plan, &cfg, &w, &slo().scaled(4.0)).unwrap();
        assert!(loose.overall >= tight.overall, "{loose:?} vs {tight:?}");
    }

    #[test]
    fn compression_helps_e2e_on_slow_links() {
        let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
        let model = ModelSpec::llama_13b();
        let plan = DeploymentPlan::new(
            vec![
                group(Phase::Prefill, &[0, 1, 2, 3], 2, 2, model.num_layers),
                group(Phase::Decode, &[4, 5, 6, 7], 2, 2, model.num_layers),
            ],
            RoutingMatrix::uniform(1, 1),
        )
        .unwrap();
        let w = spec::conversation(1.0);
        let tight_e2e = SloSpec::new(
            SimDuration::from_secs(3),
            SimDuration::from_millis(300),
            SimDuration::from_secs(20),
        );
        let c4 = SimConfig::new(model.clone());
        let c16 = SimConfig::new(model).with_f16_kv();
        let e4 = estimate_attainment(&cluster, &plan, &c4, &w, &tight_e2e).unwrap();
        let e16 = estimate_attainment(&cluster, &plan, &c16, &w, &tight_e2e).unwrap();
        assert!(e4.e2e >= e16.e2e, "{e4:?} vs {e16:?}");
    }

    /// The estimator as it was before it read precomputed terms: every
    /// replica's service time, decode weight, batch cap and step time, and
    /// every pair's KV route, priced inside one pass. The oracle of
    /// `terms_match_the_one_pass_estimator`.
    #[allow(clippy::type_complexity)]
    fn one_pass_reference(
        cluster: &Cluster,
        cfg: &SimConfig,
        prefill: &[ReplicaCostModel],
        decode: &[ReplicaCostModel],
        workload: &WorkloadSpec,
        slo: &SloSpec,
    ) -> (
        Vec<Vec<f64>>,
        Vec<Vec<(f64, f64, f64)>>,
        Vec<f64>,
        Vec<f64>,
        Vec<Vec<f64>>,
    ) {
        let p_mean = workload.prompt.mean().max(1.0);
        let o_mean = workload.output.mean().max(1.0);
        let rate = workload.rate;
        let svc: Vec<f64> = prefill
            .iter()
            .map(|m| {
                m.prefill_latency(p_mean as u64, p_mean as u64)
                    .as_secs_f64()
            })
            .collect();
        let mu: Vec<f64> = svc.iter().map(|s| 1.0 / s.max(1e-9)).collect();
        let total_mu: f64 = mu.iter().sum();
        let row_cap: Vec<f64> = mu
            .iter()
            .map(|&m| (m * CAP_HEADROOM / rate).min(1.0))
            .collect();
        let lam_p: Vec<f64> = mu.iter().map(|&m| rate * m / total_mu).collect();
        let ctx = p_mean + o_mean / 2.0;
        let steps = (o_mean - 1.0).max(0.0);
        let mut step_time = Vec::new();
        let mut dec_cap_rate = Vec::new();
        let total_dec_weight: f64 = decode
            .iter()
            .map(|m| m.decode_throughput(32, ctx as u64).max(1e-9))
            .sum();
        for m in decode {
            let lam_share = rate * m.decode_throughput(32, ctx as u64).max(1e-9) / total_dec_weight;
            let bmax = m
                .max_decode_batch((p_mean + o_mean) as u64)
                .clamp(1, MAX_DECODE_BATCH);
            let mut b = 1.0f64;
            for _ in 0..30 {
                let st = m
                    .decode_step_latency(b.ceil() as u64, ctx as u64)
                    .as_secs_f64();
                let nb = (lam_share * steps * st).clamp(1.0, bmax as f64);
                if (nb - b).abs() < 0.01 {
                    b = nb;
                    break;
                }
                b = nb;
            }
            let st = m
                .decode_step_latency(b.ceil() as u64, ctx as u64)
                .as_secs_f64();
            step_time.push(st);
            let st_max = m.decode_step_latency(bmax, ctx as u64).as_secs_f64();
            dec_cap_rate.push(if steps > 0.0 {
                bmax as f64 / st_max / steps
            } else {
                f64::INFINITY
            });
        }
        let col_cap: Vec<f64> = dec_cap_rate
            .iter()
            .map(|&r| (r * CAP_HEADROOM / rate).min(1.0))
            .collect();
        let (m_p, n_d) = (prefill.len(), decode.len());
        let mut d = vec![vec![0.0; n_d]; m_p];
        let mut components = vec![vec![(0.0, 0.0, 0.0); n_d]; m_p];
        let mut kv_seconds = vec![vec![0.0; n_d]; m_p];
        for i in 0..m_p {
            let rho = (lam_p[i] * svc[i]).min(0.999);
            let wq_mean = rho * svc[i] / (2.0 * (1.0 - rho).max(1e-6));
            let a_ttft = wait_tail(slo.ttft.as_secs_f64() - svc[i], wq_mean, rho);
            for j in 0..n_d {
                let kv = kv_transfer_time(
                    prefill[i].model(),
                    kv_route(cluster, &prefill[i], &decode[j]),
                    p_mean as u64,
                    cfg.kv_precision,
                )
                .as_secs_f64();
                kv_seconds[i][j] = kv;
                let a_tpot = soft_meet(slo.tpot.as_secs_f64(), step_time[j]);
                let slack = slo.e2e.as_secs_f64() - svc[i] - kv - steps * step_time[j];
                let a_e2e = wait_tail(slack, wq_mean, rho);
                components[i][j] = (a_ttft, a_tpot, a_e2e);
                d[i][j] = a_ttft * a_tpot * a_e2e;
            }
        }
        (d, components, row_cap, col_cap, kv_seconds)
    }

    fn bits(m: &[Vec<f64>]) -> Vec<Vec<u64>> {
        m.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// A random replica on the paper cloud: one or two pipeline stages,
    /// each `tp` GPUs of one node, on distinct nodes.
    fn random_replica<R: rand::Rng>(
        cluster: &Cluster,
        model: &ModelSpec,
        phase: Phase,
        rng: &mut R,
    ) -> ReplicaCostModel {
        loop {
            let pp = rng.gen_range(1..=2usize);
            let tp = [1usize, 2, 4][rng.gen_range(0..3usize)];
            let mut nodes: Vec<usize> = (0..cluster.num_nodes()).collect();
            rand::seq::SliceRandom::shuffle(&mut nodes[..], rng);
            let gpus: Vec<u32> = nodes[..pp]
                .iter()
                .flat_map(|&n| {
                    let on_node = &cluster.nodes()[n].gpus;
                    let first = rng.gen_range(0..=on_node.len() - tp);
                    on_node[first..first + tp]
                        .iter()
                        .map(|g| g.0)
                        .collect::<Vec<_>>()
                })
                .collect();
            let g = group(phase, &gpus, tp, pp, model.num_layers);
            if let Ok(m) = ReplicaCostModel::new(cluster, model, &g, &ModelParams::default()) {
                return m;
            }
        }
    }

    #[test]
    fn terms_match_the_one_pass_estimator() {
        let cluster = presets::paper_cloud_cluster();
        let mut rng = ts_common::seeded_rng(0x7E57);
        for draw in 0..200 {
            let model = if draw % 2 == 0 {
                ModelSpec::llama_13b()
            } else {
                ModelSpec::llama_30b()
            };
            let mut cfg = SimConfig::new(model.clone());
            if draw % 4 < 2 {
                cfg = cfg.with_f16_kv();
            }
            let rate = rng.gen_range(0.2..6.0);
            let w = if rng.gen_bool(0.5) {
                spec::coding(rate)
            } else {
                spec::conversation(rate)
            };
            let s = slo().scaled(rng.gen_range(0.25..4.0));
            let prefill: Vec<_> = (0..rng.gen_range(1..=4))
                .map(|_| random_replica(&cluster, &model, Phase::Prefill, &mut rng))
                .collect();
            let decode: Vec<_> = (0..rng.gen_range(1..=4))
                .map(|_| random_replica(&cluster, &model, Phase::Decode, &mut rng))
                .collect();
            let (d, components, row_cap, col_cap, kv) =
                one_pass_reference(&cluster, &cfg, &prefill, &decode, &w, &s);
            let est = pair_estimates(&cluster, &cfg, &prefill, &decode, &w, &s);
            assert_eq!(bits(&est.d), bits(&d), "d, draw {draw}");
            assert_eq!(bits(&est.kv_seconds), bits(&kv), "kv, draw {draw}");
            assert_eq!(bits(&[est.row_cap]), bits(&[row_cap]), "rows, draw {draw}");
            assert_eq!(bits(&[est.col_cap]), bits(&[col_cap]), "cols, draw {draw}");
            assert!(est.components.is_none());
            let with_parts = estimate_on_the_fly(&cluster, &cfg, &prefill, &decode, &w, &s, true);
            let parts = with_parts.components.expect("asked for");
            let flat = |c: &[Vec<(f64, f64, f64)>]| -> Vec<u64> {
                c.iter()
                    .flatten()
                    .flat_map(|&(a, b, c)| [a.to_bits(), b.to_bits(), c.to_bits()])
                    .collect()
            };
            assert_eq!(flat(&parts), flat(&components), "components, draw {draw}");
        }
    }

    #[test]
    fn wait_tail_properties() {
        assert_eq!(wait_tail(-0.1, 1.0, 0.5), 0.0);
        assert_eq!(wait_tail(1.0, 0.0, 0.5), 1.0);
        let a = wait_tail(0.5, 1.0, 0.9);
        let b = wait_tail(2.0, 1.0, 0.9);
        assert!(b > a);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn soft_meet_is_half_at_deadline() {
        let v = soft_meet(0.1, 0.1);
        assert!((v - 0.5).abs() < 1e-9);
        assert!(soft_meet(0.2, 0.1) > 0.9);
        assert!(soft_meet(0.05, 0.1) < 0.1);
    }

    /// A random `p × d` routing matrix summing to 1, from dense to a few
    /// cells, with unrouted rows and columns and some zero cells turned
    /// `-0.0` or `-1e-13`.
    pub(crate) fn random_rates(rng: &mut rand::rngs::StdRng, p: usize, d: usize) -> Vec<Vec<f64>> {
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

    /// The router and the attainment estimate walk a plan's support; the
    /// dense code they replaced is the oracle. The router built from the
    /// support must have the dense scan's options in its order and make
    /// the same first 10,000 picks, and the estimate's four sums must
    /// have the dense sums' bits.
    #[test]
    fn support_walks_match_the_dense_oracle() {
        use crate::router::StrideRouter;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xde75e);
        let cluster = presets::a5000_cluster(128);
        let model = ModelSpec::llama_7b();
        let cfg = SimConfig::new(model.clone());
        for case in 0..200 {
            let mut side = || {
                if rng.gen_bool(0.8) {
                    rng.gen_range(1..=8usize)
                } else {
                    rng.gen_range(1..=64usize)
                }
            };
            let (p, d) = (side(), side());
            let rates = random_rates(&mut rng, p, d);
            let groups = (0..p + d)
                .map(|g| {
                    let phase = if g < p { Phase::Prefill } else { Phase::Decode };
                    group(phase, &[g as u32], 1, 1, model.num_layers)
                })
                .collect();
            let plan =
                DeploymentPlan::new(groups, RoutingMatrix::new(rates.clone()).unwrap()).unwrap();

            let (mut weights, mut coords) = (Vec::new(), Vec::new());
            for (i, row) in rates.iter().enumerate() {
                for (j, &w) in row.iter().enumerate() {
                    if w > 0.0 {
                        weights.push(w);
                        coords.push((i, j));
                    }
                }
            }
            let mut dense = StrideRouter::new(weights).unwrap();
            let (mut sparse, pairs) = StrideRouter::from_support(plan.routing.support()).unwrap();
            assert_eq!(pairs, coords, "case {case}");
            for pick in 0..10_000 {
                assert_eq!(sparse.next(), dense.next(), "case {case} pick {pick}");
            }

            let w = spec::conversation(rng.gen_range(0.5..8.0));
            let got = estimate_attainment(&cluster, &plan, &cfg, &w, &slo()).unwrap();
            let cost = |idx: Vec<usize>| -> Vec<ReplicaCostModel> {
                idx.iter()
                    .map(|&gi| {
                        ReplicaCostModel::new(&cluster, &model, &plan.groups[gi], &cfg.params)
                            .unwrap()
                    })
                    .collect()
            };
            let (pre, dec) = (cost(plan.prefill_indices()), cost(plan.decode_indices()));
            let est = estimate_on_the_fly(&cluster, &cfg, &pre, &dec, &w, &slo(), true);
            let parts = est.components.unwrap();
            let (mut overall, mut ttft, mut tpot, mut e2e) = (0.0, 0.0, 0.0, 0.0);
            for (i, row) in rates.iter().enumerate() {
                for (j, &r) in row.iter().enumerate() {
                    overall += r * est.d[i][j];
                    let (a, b, c) = parts[i][j];
                    ttft += r * a;
                    tpot += r * b;
                    e2e += r * c;
                }
            }
            let bits = |e: [f64; 4]| e.map(f64::to_bits);
            assert_eq!(
                bits([got.overall, got.ttft, got.tpot, got.e2e]),
                bits([overall, ttft, tpot, e2e]),
                "case {case}"
            );
        }
    }
}
