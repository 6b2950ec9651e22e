//! Deduction of parallel configurations (Algorithm 2 / Appendix B).
//!
//! Given a serving group's GPUs and its designated phase, enumerate the
//! feasible `(TP, PP)` layouts under the paper's cloud heuristics and pick
//! the latency-optimal one for prefill groups or the throughput-optimal one
//! for decode groups:
//!
//! 1. tensor parallelism is confined to GPUs of a single model on a single
//!    node (cloud inter-node links cannot carry all-reduce traffic);
//! 2. pipeline stages are ordered by the bitmask DP that maximizes the
//!    bottleneck inter-stage bandwidth;
//! 3. pipeline layers are partitioned proportionally to each stage's memory
//!    capacity (non-uniform partitioning for heterogeneous stages), capped
//!    by per-stage memory limits.

use crate::config::{SchedulerConfig, MAX_PP, MAX_TP};
use std::collections::BTreeMap;
use std::sync::Arc;
use ts_cluster::{Cluster, GpuModel};
use ts_common::{
    Error, GpuId, GroupSpec, ModelSpec, NodeId, ParallelConfig, Phase, Result, ShardedCache,
    StageSpec,
};
use ts_costmodel::replica::usable_memory;
use ts_costmodel::ReplicaCostModel;
use ts_sim::config::MAX_DECODE_BATCH;
use ts_solver::routing_dp::best_stage_order;
use ts_telemetry::profile;
use ts_workload::WorkloadSpec;

/// Deduces the best parallel configuration for a group.
///
/// # Errors
/// Returns [`Error::Infeasible`] if no `(TP, PP)` layout fits the model into
/// the group's memory under the heuristics.
pub fn deduce_parallel_config(
    cluster: &Cluster,
    model: &ModelSpec,
    gpus: &[GpuId],
    phase: Phase,
    workload: &WorkloadSpec,
    cfg: &SchedulerConfig,
) -> Result<GroupSpec> {
    let stage_orders = StageOrders::new(1);
    deduce_with_cost_model(cluster, model, gpus, phase, workload, cfg, &stage_orders)
        .map(|(group, _)| group)
}

/// Memoized [`best_stage_order`] results, keyed by the exact bits of the
/// bandwidth matrix, row-major (its length fixes its size). The order is a
/// function of those bits alone, so one memo serves every deduction of a
/// walk, on every worker. `None`: the DP refused the matrix.
pub(crate) type StageOrders = ShardedCache<Box<[u64]>, Option<Arc<[usize]>>>;

/// [`deduce_parallel_config`] that also returns the cost model it built to
/// score the winning layout, so orchestration need not build it again.
/// Stage orders are read from, and added to, `stage_orders`.
///
/// # Errors
/// Same as [`deduce_parallel_config`].
pub(crate) fn deduce_with_cost_model(
    cluster: &Cluster,
    model: &ModelSpec,
    gpus: &[GpuId],
    phase: Phase,
    workload: &WorkloadSpec,
    cfg: &SchedulerConfig,
    stage_orders: &StageOrders,
) -> Result<(GroupSpec, ReplicaCostModel)> {
    if gpus.is_empty() {
        return Err(Error::Infeasible("empty group".into()));
    }
    // Bucket by (node, model): TP never crosses these boundaries.
    let mut buckets: BTreeMap<(NodeId, GpuModel), Vec<GpuId>> = BTreeMap::new();
    for &g in gpus {
        let gpu = cluster.gpu(g);
        buckets.entry((gpu.node, gpu.model)).or_default().push(g);
    }
    for b in buckets.values_mut() {
        b.sort_unstable();
    }

    let mean_prompt = workload.prompt.mean().max(1.0) as u64;
    let mean_out = workload.output.mean().max(1.0) as u64;
    let ctx = mean_prompt + mean_out / 2;

    let mut best: Option<(f64, GroupSpec, ReplicaCostModel)> = None;
    let mut tp = 1usize;
    while tp <= MAX_TP && tp <= gpus.len() {
        if let Some(group) = try_config(cluster, model, &buckets, phase, tp, cfg, stage_orders) {
            if let Ok(rcm) = ReplicaCostModel::new(cluster, model, &group, &cfg.params) {
                let score = match phase {
                    // Latency-optimal for the compute-bound prefill phase.
                    Phase::Prefill => -rcm.prefill_latency(mean_prompt, mean_prompt).as_secs_f64(),
                    // Throughput-optimal for the bandwidth-bound decode phase.
                    Phase::Decode => {
                        let b = rcm
                            .max_decode_batch(mean_prompt + mean_out)
                            .clamp(1, MAX_DECODE_BATCH);
                        rcm.decode_throughput(b, ctx)
                    }
                };
                if best.as_ref().map(|(s, ..)| score > *s).unwrap_or(true) {
                    best = Some((score, group, rcm));
                }
            }
        }
        tp *= 2;
    }
    best.map(|(_, g, rcm)| (g, rcm)).ok_or_else(|| {
        Error::Infeasible(format!(
            "no feasible parallel configuration for {} GPUs",
            gpus.len()
        ))
    })
}

/// Builds the stage layout for one TP degree, or `None` if invalid.
fn try_config(
    cluster: &Cluster,
    model: &ModelSpec,
    buckets: &BTreeMap<(NodeId, GpuModel), Vec<GpuId>>,
    phase: Phase,
    tp: usize,
    cfg: &SchedulerConfig,
    stage_orders: &StageOrders,
) -> Option<GroupSpec> {
    // Every bucket must shard evenly into TP-sized stages.
    let mut stage_sets: Vec<Vec<GpuId>> = Vec::new();
    for bucket in buckets.values() {
        if bucket.len() % tp != 0 {
            return None;
        }
        for chunk in bucket.chunks(tp) {
            stage_sets.push(chunk.to_vec());
        }
    }
    let pp = stage_sets.len();
    if pp == 0 || pp > MAX_PP || pp > model.num_layers {
        return None;
    }

    // Order stages to maximize the bottleneck inter-stage link.
    if pp > 1 {
        let mut bw = vec![vec![0.0f64; pp]; pp];
        for i in 0..pp {
            for j in 0..pp {
                if i != j {
                    bw[i][j] = best_pair_bandwidth(cluster, &stage_sets[i], &stage_sets[j]);
                }
            }
        }
        let key = bw.iter().flatten().map(|v| v.to_bits()).collect();
        let order = stage_orders.get_or_insert_with(key, || {
            let _g = profile::scope("tabu.stage_order");
            best_stage_order(&bw).ok().map(|o| o.order.into())
        })?;
        stage_sets = order.iter().map(|&i| stage_sets[i].clone()).collect();
    }

    // Non-uniform layer partition proportional to stage memory, capped by
    // per-stage memory limits.
    let layers = partition_layers(cluster, model, &stage_sets, cfg)?;
    let stages: Vec<StageSpec> = stage_sets
        .into_iter()
        .zip(layers)
        .map(|(gpus, layers)| StageSpec { gpus, layers })
        .collect();
    GroupSpec::new(phase, ParallelConfig::new(tp, pp).ok()?, stages).ok()
}

fn best_pair_bandwidth(cluster: &Cluster, a: &[GpuId], b: &[GpuId]) -> f64 {
    let mut best = 0.0f64;
    for &x in a {
        for &y in b {
            let bw = cluster.bandwidth(x, y);
            if bw.is_infinite() {
                return 1e15;
            }
            best = best.max(bw);
        }
    }
    best
}

/// Splits `model.num_layers` across stages proportionally to usable memory,
/// respecting per-stage caps. Returns `None` if the caps cannot hold the
/// model.
fn partition_layers(
    cluster: &Cluster,
    model: &ModelSpec,
    stage_sets: &[Vec<GpuId>],
    cfg: &SchedulerConfig,
) -> Option<Vec<usize>> {
    let total_layers = model.num_layers;
    let layer_bytes = model.layer_weight_bytes(1).max(1);
    let embed = model.weight_bytes() - model.layer_weight_bytes(total_layers);
    let n = stage_sets.len();
    // usable bytes per stage, with headroom for KV cache (keep 25% free)
    let usable: Vec<u64> = stage_sets
        .iter()
        .enumerate()
        .map(|(si, set)| {
            let mem = usable_memory(cluster, set, &cfg.params);
            let embed_share = if si == 0 || si + 1 == n { embed / 2 } else { 0 };
            mem.saturating_sub(embed_share)
        })
        .collect();
    let caps: Vec<usize> = usable
        .iter()
        .map(|&u| ((u as f64 * 0.75) / layer_bytes as f64).floor() as usize)
        .collect();
    if caps.iter().sum::<usize>() < total_layers || caps.contains(&0) {
        return None;
    }
    let total_mem: u64 = usable.iter().sum();
    // proportional start, at least 1 per stage
    let mut layers: Vec<usize> = usable
        .iter()
        .map(|&u| (((u as f64 / total_mem as f64) * total_layers as f64).round() as usize).max(1))
        .collect();
    // clip to caps, then fix the sum by greedy adjustment
    for (l, &c) in layers.iter_mut().zip(&caps) {
        *l = (*l).min(c);
    }
    let mut sum: usize = layers.iter().sum();
    // too few: add to stages with most slack
    while sum < total_layers {
        let idx = layers
            .iter()
            .enumerate()
            .filter(|(i, l)| **l < caps[*i])
            .max_by_key(|(i, l)| caps[*i] - **l)
            .map(|(i, _)| i)?;
        layers[idx] += 1;
        sum += 1;
    }
    // too many: remove from stages with most layers (keep >= 1)
    while sum > total_layers {
        let idx = layers
            .iter()
            .enumerate()
            .filter(|(_, l)| **l > 1)
            .max_by_key(|(_, l)| **l)
            .map(|(i, _)| i)?;
        layers[idx] -= 1;
        sum -= 1;
    }
    Some(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::{presets, GpuModel};
    use ts_workload::spec;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::default()
    }

    fn ids(v: &[u32]) -> Vec<GpuId> {
        v.iter().map(|&i| GpuId(i)).collect()
    }

    #[test]
    fn a40_pair_hosts_30b_with_tp2() {
        let cluster = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        // GPUs 16..24 are the 8xA40 node.
        let g = deduce_parallel_config(
            &cluster,
            &m,
            &ids(&[16, 17]),
            Phase::Prefill,
            &spec::coding(1.0),
            &cfg(),
        )
        .unwrap();
        assert_eq!(g.parallel.tp(), 2);
        assert_eq!(g.parallel.pp(), 1);
        assert_eq!(g.total_layers(), m.num_layers);
    }

    #[test]
    fn single_a5000_cannot_host_30b() {
        let cluster = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        let err = deduce_parallel_config(
            &cluster,
            &m,
            &ids(&[8]),
            Phase::Decode,
            &spec::coding(1.0),
            &cfg(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn mixed_group_uses_pipeline_not_tp_across_types() {
        // 2xA5000 (node 2: GPUs 8,9) + 2x3090Ti (node 5: GPUs 24,25): the
        // paper's mixed replica uses TP=2 within type and PP=2 across.
        let cluster = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        let g = deduce_parallel_config(
            &cluster,
            &m,
            &ids(&[8, 9, 24, 25]),
            Phase::Decode,
            &spec::conversation(1.0),
            &cfg(),
        )
        .unwrap();
        assert_eq!(g.parallel.pp(), 2, "must pipeline across types: {g:?}");
        assert_eq!(g.parallel.tp(), 2);
        // each stage single-type
        for st in &g.stages {
            let models: Vec<_> = st.gpus.iter().map(|&i| cluster.gpu(i).model).collect();
            assert!(models.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn layer_partition_covers_model_nonuniformly() {
        // A6000 (48GB) + A5000 (24GB) stages should get asymmetric layers.
        let cluster = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        // 2 A6000 (node0: 0,1) + 2 A5000 (node2: 8,9)
        let g = deduce_parallel_config(
            &cluster,
            &m,
            &ids(&[0, 1, 8, 9]),
            Phase::Prefill,
            &spec::coding(1.0),
            &cfg(),
        )
        .unwrap();
        assert_eq!(g.total_layers(), m.num_layers);
        if g.parallel.pp() == 2 {
            let l0 = g.stages[0].layers;
            let l1 = g.stages[1].layers;
            assert_ne!(l0, l1, "heterogeneous stages should differ in layers");
            // the A6000 stage (more memory) gets more layers
            let a6000_layers = g
                .stages
                .iter()
                .find(|s| cluster.gpu(s.gpus[0]).model == GpuModel::A6000)
                .unwrap()
                .layers;
            assert!(a6000_layers > m.num_layers / 2);
        }
    }

    #[test]
    fn prefill_prefers_tp_decode_tolerates_pp() {
        // On a 4xA40 node, prefill should use high TP for latency.
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let m = ModelSpec::llama_13b();
        let g = deduce_parallel_config(
            &cluster,
            &m,
            &ids(&[0, 1, 2, 3]),
            Phase::Prefill,
            &spec::coding(1.0),
            &cfg(),
        )
        .unwrap();
        assert!(g.parallel.tp() >= 2, "prefill should shard compute: {g:?}");
    }

    /// Deduction through one shared stage-order memo gives the layout and
    /// cost-model bits a fresh deduction gives, over random GPU sets of
    /// the paper cloud with up to eight pipeline stages.
    #[test]
    fn shared_stage_order_memo_matches_fresh_deduction() {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let cluster = presets::paper_cloud_cluster();
        let mut all: Vec<GpuId> = cluster.active_gpus();
        let memo = StageOrders::default();
        let mut rng = ts_common::seeded_rng(0x57A6E);
        let mut deduced = 0;
        for draw in 0..400 {
            let m = if draw % 2 == 0 {
                ModelSpec::llama_13b()
            } else {
                ModelSpec::llama_30b()
            };
            let phase = if rng.gen_bool(0.5) {
                Phase::Prefill
            } else {
                Phase::Decode
            };
            let w = spec::coding(1.0);
            let n = rng.gen_range(1..=12usize);
            all.shuffle(&mut rng);
            let gpus = &all[..n];
            let shared = deduce_with_cost_model(&cluster, &m, gpus, phase, &w, &cfg(), &memo);
            let fresh = deduce_parallel_config(&cluster, &m, gpus, phase, &w, &cfg());
            match (shared, fresh) {
                (Ok((g, cost)), Ok(f)) => {
                    assert_eq!(g, f, "draw {draw}");
                    let rebuilt = ReplicaCostModel::new(&cluster, &m, &f, &cfg().params).unwrap();
                    assert_eq!(
                        cost.prefill_latency(512, 512),
                        rebuilt.prefill_latency(512, 512)
                    );
                    deduced += 1;
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("draw {draw}: {:?} vs {:?}", a.map(|x| x.0), b),
            }
        }
        assert!(deduced > 100, "{deduced} feasible draws");
        assert!(memo.hit_count() > 0 && memo.miss_count() > 10);
    }

    #[test]
    fn empty_group_is_infeasible() {
        let cluster = presets::paper_inhouse_cluster();
        let m = ModelSpec::llama_7b();
        assert!(deduce_parallel_config(
            &cluster,
            &m,
            &[],
            Phase::Prefill,
            &spec::coding(1.0),
            &cfg()
        )
        .is_err());
    }

    #[test]
    fn group_spec_is_valid_partition_of_inputs() {
        let cluster = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        let input = ids(&[16, 17, 18, 19]);
        let g = deduce_parallel_config(
            &cluster,
            &m,
            &input,
            Phase::Decode,
            &spec::conversation(1.0),
            &cfg(),
        )
        .unwrap();
        let mut got: Vec<GpuId> = g.gpus().collect();
        got.sort_unstable();
        assert_eq!(got, input);
    }
}
