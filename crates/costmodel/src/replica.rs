//! End-to-end cost model for one model replica (serving group).
//!
//! A [`ReplicaCostModel`] is compiled from a [`GroupSpec`] placed on a
//! [`Cluster`]: it resolves every pipeline stage to concrete hardware, then
//! answers the latency/throughput/memory questions the scheduler and the
//! simulator ask. It also computes the prefill→decode KV-cache route between
//! two replicas, matching layer ranges between the source and destination
//! pipeline stages ([`kv_route`]), and times a transfer along it
//! ([`kv_transfer_time`]), each leg sized by the one wire-size rule,
//! [`KvWirePrecision::wire_bytes`].
//!
//! The replica-sizing rule lives here too, once for the scheduler and the
//! baselines: [`usable_memory`], [`KV_HEADROOM`], [`replica_budget`],
//! [`fits_with_kv_headroom`] and [`memory_feasible`].

use crate::alphabeta::CommCost;
use crate::roofline::{decode_step_time, prefill_time, DecodeStageSeries, StageHardware};
use crate::ModelParams;
use ts_cluster::{Cluster, GpuSpec};
use ts_common::{Error, GpuId, GroupSpec, ModelSpec, Result, SimDuration};
use ts_kvcache::codec::KvWirePrecision;

/// Default disk bandwidth for weight (re)loading, bytes/s. The paper quotes
/// 1.2 GB/s when estimating a >5 minute reload for a 175B model.
pub const DISK_BANDWIDTH: f64 = 1.2e9;

/// One parallel leg of a KV-cache transfer: the KV slice for `layers`
/// contiguous layers moving over one link between two concrete GPUs. The
/// alpha-beta model reads the link; the flow-level network fabric also
/// needs the endpoints, to place the transfer on the right NIC
/// uplink/downlink and fabric links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvRouteLeg {
    /// Number of transformer layers whose KV moves on this leg.
    pub layers: usize,
    /// The link used (best pair between the two stages).
    pub link: CommCost,
    /// Sending GPU (on the prefill replica's stage).
    pub from: GpuId,
    /// Receiving GPU (on the decode replica's stage).
    pub to: GpuId,
}

/// Compiled per-stage data.
#[derive(Debug, Clone)]
struct StageModel {
    hw: StageHardware,
    layers: usize,
    /// First layer index (inclusive) of this stage.
    layer_offset: usize,
    /// Weight bytes held by the whole stage (including embedding share on
    /// the first/last stage).
    weight_bytes: u64,
    /// Total usable memory of the stage (bytes, after `mem_util` derating).
    usable_memory: u64,
    /// Link to the next stage (absent for the last stage).
    next_link: Option<CommCost>,
    /// Representative GPUs (used for KV routing).
    gpus: Vec<GpuId>,
}

/// A replica's decode-step latency as a function of mean context length, at
/// a fixed batch size.
///
/// Built by [`ReplicaCostModel::decode_step_series`]; one per-stage
/// [`DecodeStageSeries`] plus the (context-independent) inter-stage
/// activation-transfer time. [`DecodeStepSeries::latency`] returns exactly
/// what [`ReplicaCostModel::decode_step_latency`] would for the same
/// `(batch, avg_context)` — the simulator's golden-metrics test pins this.
#[derive(Debug, Clone)]
pub struct DecodeStepSeries {
    /// Per stage: hoisted roofline series and the link time to the next
    /// stage (absent for the last stage).
    stages: Vec<(DecodeStageSeries, Option<SimDuration>)>,
}

impl DecodeStepSeries {
    /// Decode-step latency at mean context `avg_context`.
    #[inline]
    pub fn latency(&self, avg_context: u64) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for (stage, link) in &self.stages {
            total += stage.step_time(avg_context);
            if let Some(t) = link {
                total += *t;
            }
        }
        total
    }

    /// Writes [`Self::latency`]`(ctx0 + i)` to `out[i]` for every `i`,
    /// evaluating the block stage by stage: each lane performs exactly
    /// the operations of `latency`, so every entry is bit-identical to it.
    pub fn latency_block(&self, ctx0: u64, out: &mut [SimDuration]) {
        out.fill(SimDuration::ZERO);
        for (stage, link) in &self.stages {
            stage.add_step_times(ctx0, out);
            if let Some(t) = link {
                for total in out.iter_mut() {
                    *total += *t;
                }
            }
        }
    }
}

/// Analytic latency/throughput/memory model for one model replica.
///
/// The scheduler evaluates candidate deployments on multiple worker threads
/// and shares compiled cost models across them by reference, so this type
/// must stay `Send + Sync`: plain owned data, no interior mutability, and
/// every query method takes `&self` (asserted at compile time below).
#[derive(Debug, Clone)]
pub struct ReplicaCostModel {
    model: ModelSpec,
    params: ModelParams,
    stages: Vec<StageModel>,
}

// Compile-time guard for the concurrent-evaluation contract above.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ReplicaCostModel>();
};

impl ReplicaCostModel {
    /// Compiles the cost model for `group` placed on `cluster`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if the group names a GPU the cluster
    /// lacks, and [`Error::Infeasible`] if the group's layer partition does
    /// not cover the model, or any stage cannot hold its weight shard in
    /// memory.
    pub fn new(
        cluster: &Cluster,
        model: &ModelSpec,
        group: &GroupSpec,
        params: &ModelParams,
    ) -> Result<Self> {
        cluster.check_gpus(group.gpus())?;
        if group.total_layers() != model.num_layers {
            return Err(Error::Infeasible(format!(
                "group covers {} layers, model has {}",
                group.total_layers(),
                model.num_layers
            )));
        }
        let embed_bytes = model.weight_bytes() - model.layer_weight_bytes(model.num_layers);
        let num_stages = group.stages.len();
        let mut stages = Vec::with_capacity(num_stages);
        let mut layer_offset = 0usize;
        for (si, st) in group.stages.iter().enumerate() {
            let specs: Vec<GpuSpec> = st.gpus.iter().map(|&g| cluster.gpu(g).spec()).collect();
            // Use the weakest member for each capability: the TP group runs
            // in lockstep, so the slowest shard sets the pace.
            let weakest = GpuSpec {
                model: specs[0].model,
                mem_bandwidth: specs
                    .iter()
                    .map(|s| s.mem_bandwidth)
                    .fold(f64::MAX, f64::min),
                peak_fp16_flops: specs
                    .iter()
                    .map(|s| s.peak_fp16_flops)
                    .fold(f64::MAX, f64::min),
                memory_bytes: specs.iter().map(|s| s.memory_bytes).min().unwrap(),
                price_per_hour: specs.iter().map(|s| s.price_per_hour).sum(),
            };
            let intra_bw = cluster.bottleneck_bandwidth(&st.gpus);
            let intra_alpha = if st.gpus.len() > 1 {
                st.gpus
                    .iter()
                    .flat_map(|&a| st.gpus.iter().map(move |&b| (a, b)))
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| cluster.latency(a, b))
                    .max()
                    .unwrap_or(SimDuration::ZERO)
            } else {
                SimDuration::ZERO
            };
            let hw = StageHardware {
                gpu: weakest,
                tp: st.gpus.len(),
                intra_bw,
                intra_alpha,
            };
            let mut weight_bytes = model.layer_weight_bytes(st.layers);
            if si == 0 {
                weight_bytes += embed_bytes / 2;
            }
            if si == num_stages - 1 {
                weight_bytes += embed_bytes - embed_bytes / 2;
            }
            let usable_memory = usable_memory(cluster, &st.gpus, params);
            if usable_memory <= weight_bytes {
                return Err(Error::Infeasible(format!(
                    "stage {si} needs {weight_bytes} weight bytes but has {usable_memory} usable"
                )));
            }
            let next_link = group
                .stages
                .get(si + 1)
                .map(|next| best_pair(cluster, &st.gpus, &next.gpus).0);
            stages.push(StageModel {
                hw,
                layers: st.layers,
                layer_offset,
                weight_bytes,
                usable_memory,
                next_link,
                gpus: st.gpus.clone(),
            });
            layer_offset += st.layers;
        }
        Ok(ReplicaCostModel {
            model: model.clone(),
            params: *params,
            stages,
        })
    }

    /// The model this replica serves.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// End-to-end latency to prefill a batch of `batch_tokens` prompt tokens
    /// (mean context `avg_context`): sum of stage times plus inter-stage
    /// activation transfers.
    pub fn prefill_latency(&self, batch_tokens: u64, avg_context: u64) -> SimDuration {
        self.prefill_latency_and_bottleneck(batch_tokens, avg_context)
            .0
    }

    /// [`Self::prefill_latency`] and the slowest pipeline stage's prefill
    /// time, in one pass over the stages that evaluates each stage's
    /// `prefill_time` once. The bottleneck is the reciprocal of the
    /// replica's steady-state prefill throughput when the pipeline is full.
    pub fn prefill_latency_and_bottleneck(
        &self,
        batch_tokens: u64,
        avg_context: u64,
    ) -> (SimDuration, SimDuration) {
        let act_bytes = self
            .model
            .dtype
            .bytes_for(batch_tokens * self.model.hidden_size as u64);
        let mut total = SimDuration::ZERO;
        let mut bottleneck = SimDuration::ZERO;
        for st in &self.stages {
            let t = prefill_time(
                &self.model,
                st.layers,
                &st.hw,
                batch_tokens,
                avg_context,
                &self.params,
            );
            total += t;
            bottleneck = bottleneck.max(t);
            if let Some(link) = st.next_link {
                total += link.time(act_bytes);
            }
        }
        (total, bottleneck)
    }

    /// Latency of one decode step for `batch` sequences with mean context
    /// `avg_context`.
    pub fn decode_step_latency(&self, batch: u64, avg_context: u64) -> SimDuration {
        let act_bytes = self
            .model
            .dtype
            .bytes_for(batch * self.model.hidden_size as u64);
        let mut total = SimDuration::ZERO;
        for st in &self.stages {
            total += decode_step_time(
                &self.model,
                st.layers,
                &st.hw,
                batch,
                avg_context,
                &self.params,
            );
            if let Some(link) = st.next_link {
                total += link.time(act_bytes);
            }
        }
        total
    }

    /// Pre-folds the context-independent work of [`Self::decode_step_latency`] at
    /// a fixed batch size, for pricing many consecutive decode steps.
    ///
    /// [`DecodeStepSeries::latency`] is bit-identical to
    /// `decode_step_latency(batch, avg_context)`; the simulator builds one
    /// series per decode replica and batch size and prices each step time
    /// of its step tables through it.
    pub fn decode_step_series(&self, batch: u64) -> DecodeStepSeries {
        let act_bytes = self
            .model
            .dtype
            .bytes_for(batch * self.model.hidden_size as u64);
        DecodeStepSeries {
            stages: self
                .stages
                .iter()
                .map(|st| {
                    (
                        DecodeStageSeries::new(&self.model, st.layers, &st.hw, batch, &self.params),
                        st.next_link.map(|link| link.time(act_bytes)),
                    )
                })
                .collect(),
        }
    }

    /// Maximum number of KV-cache tokens the replica can hold (min over
    /// stages of usable memory after weights, divided by per-token KV bytes).
    pub fn kv_capacity_tokens(&self) -> u64 {
        self.stages
            .iter()
            .map(|st| {
                let avail = st.usable_memory - st.weight_bytes;
                let per_token = self.model.kv_bytes_per_token_layers(st.layers).max(1);
                avail / per_token
            })
            .min()
            .unwrap_or(0)
    }

    /// Largest decode batch sustainable if each sequence occupies
    /// `avg_seq_len` KV tokens.
    pub fn max_decode_batch(&self, avg_seq_len: u64) -> u64 {
        self.kv_capacity_tokens() / avg_seq_len.max(1)
    }

    /// Steady-state decode throughput in tokens/second at batch `batch`.
    pub fn decode_throughput(&self, batch: u64, avg_context: u64) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let step = self.decode_step_latency(batch, avg_context);
        batch as f64 / step.as_secs_f64()
    }

    /// Time to (re)load this replica's weights from disk at `disk_bw`
    /// bytes/s — the reload penalty of *full* rescheduling. Stages load in
    /// parallel from independent disks, so the slowest stage dominates.
    pub fn weight_load_time(&self, disk_bw: f64) -> SimDuration {
        assert!(disk_bw > 0.0, "disk bandwidth must be positive");
        self.stages
            .iter()
            .map(|st| SimDuration::from_secs_f64(st.weight_bytes as f64 / disk_bw))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Best (highest-bandwidth) point-to-point link between any GPU of `from`
/// and any GPU of `to`, and the GPU pair that realizes it. Deterministic:
/// pairs are scanned in slice order and only a strictly better bandwidth
/// displaces the incumbent.
fn best_pair(cluster: &Cluster, from: &[GpuId], to: &[GpuId]) -> (CommCost, GpuId, GpuId) {
    let mut best_bw = 0.0f64;
    let mut best = (
        CommCost::LOOPBACK,
        from.first().copied().unwrap_or(GpuId(0)),
        to.first().copied().unwrap_or(GpuId(0)),
    );
    for &a in from {
        for &b in to {
            let bw = cluster.bandwidth(a, b);
            if bw.is_infinite() {
                return (CommCost::LOOPBACK, a, b);
            }
            if bw > best_bw {
                best_bw = bw;
                best = (CommCost::new(cluster.latency(a, b), bw), a, b);
            }
        }
    }
    best
}

/// The KV transfer route from `prefill` to `decode`: for every overlap
/// between a prefill stage's layer range and a decode stage's layer range,
/// one leg moves that slice over the best available link. The legs transfer
/// in parallel. They are produced lazily, so pricing a pair builds nothing.
pub fn kv_route<'a>(
    cluster: &'a Cluster,
    prefill: &'a ReplicaCostModel,
    decode: &'a ReplicaCostModel,
) -> impl Iterator<Item = KvRouteLeg> + 'a {
    prefill.stages.iter().flat_map(move |ps| {
        decode.stages.iter().filter_map(move |ds| {
            let lo = ps.layer_offset.max(ds.layer_offset);
            let hi = (ps.layer_offset + ps.layers).min(ds.layer_offset + ds.layers);
            (lo < hi).then(|| {
                let (link, from, to) = best_pair(cluster, &ps.gpus, &ds.gpus);
                KvRouteLeg {
                    layers: hi - lo,
                    link,
                    from,
                    to,
                }
            })
        })
    })
}

/// Transfer time for `tokens` KV tokens of `model` along `route` at wire
/// `precision`: each leg carries [`KvWirePrecision::wire_bytes`] of its
/// layers over its link. Legs move in parallel, so the slowest one
/// dominates; an empty route takes no time.
pub fn kv_transfer_time(
    model: &ModelSpec,
    route: impl IntoIterator<Item = KvRouteLeg>,
    tokens: u64,
    precision: KvWirePrecision,
) -> SimDuration {
    route
        .into_iter()
        .map(|leg| {
            let bytes = precision.wire_bytes(model, tokens, leg.layers);
            leg.link.time(bytes)
        })
        .max()
        .unwrap_or(SimDuration::ZERO)
}

/// Headroom factor on a replica's weight bytes: the weights plus a quarter
/// of its memory for KV cache, matching the layer partitioner's 75%
/// per-stage cap, so a replica sized by it can serve meaningful batches.
pub const KV_HEADROOM: f64 = 4.0 / 3.0;

/// Memory of `gpus` usable for weights and KV cache: each GPU's capacity
/// derated by `params.mem_util`, truncated to whole bytes, summed.
pub fn usable_memory(cluster: &Cluster, gpus: &[GpuId], params: &ModelParams) -> u64 {
    gpus.iter()
        .map(|&g| (cluster.gpu(g).spec().memory_bytes as f64 * params.mem_util) as u64)
        .sum()
}

/// Memory budgeted per replica when counting how many replicas a pool
/// holds: the weights times [`KV_HEADROOM`].
pub fn replica_budget(model: &ModelSpec) -> u64 {
    (model.weight_bytes() as f64 * KV_HEADROOM) as u64
}

/// Can `gpus` hold the model's weights times [`KV_HEADROOM`]? The weights
/// plus a quarter of memory for KV cache, as the layer partitioner's
/// per-stage cap leaves.
pub fn fits_with_kv_headroom(
    cluster: &Cluster,
    model: &ModelSpec,
    gpus: &[GpuId],
    params: &ModelParams,
) -> bool {
    usable_memory(cluster, gpus, params) as f64 > model.weight_bytes() as f64 * KV_HEADROOM
}

/// Quick feasibility pre-check used by the tabu search to prune neighbours:
/// can `gpus` hold at least one copy of the model's weights?
pub fn memory_feasible(
    cluster: &Cluster,
    model: &ModelSpec,
    gpus: &[GpuId],
    params: &ModelParams,
) -> bool {
    usable_memory(cluster, gpus, params) > model.weight_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_common::{GpuId, ParallelConfig, Phase, StageSpec};

    fn group_on(gpus: &[u32], tp: usize, pp: usize, layers: usize, phase: Phase) -> GroupSpec {
        let per = layers / pp;
        let stages: Vec<StageSpec> = (0..pp)
            .map(|s| StageSpec {
                gpus: gpus[s * tp..(s + 1) * tp]
                    .iter()
                    .map(|&g| GpuId(g))
                    .collect(),
                layers: if s == pp - 1 {
                    layers - per * (pp - 1)
                } else {
                    per
                },
            })
            .collect();
        GroupSpec::new(phase, ParallelConfig::new(tp, pp).unwrap(), stages).unwrap()
    }

    #[test]
    fn compiles_for_paper_cloud() {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        // 8xA40 node is GPUs 16..24; TP=2 PP=1 needs 2 GPUs holding 65GB —
        // infeasible on 2x48GB*0.9=86GB? weights 65GB < 86GB, feasible.
        let g = group_on(&[16, 17], 2, 1, m.num_layers, Phase::Prefill);
        let rcm = ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).unwrap();
        assert!(rcm.kv_capacity_tokens() > 1000);
        assert!(rcm.prefill_latency(1024, 512) > SimDuration::ZERO);
    }

    #[test]
    fn decode_step_series_is_bit_identical() {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        // TP=2 PP=2 exercises the all-reduce constant, a multi-stage sum and
        // the inter-stage link term; TP=1 PP=1 exercises the plain roofline.
        for g in [
            group_on(&[16, 17, 18, 19], 2, 2, m.num_layers, Phase::Decode),
            group_on(&[16, 17], 2, 1, m.num_layers, Phase::Decode),
        ] {
            let rcm = ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).unwrap();
            for batch in [0u64, 1, 2, 7, 64, 640] {
                let series = rcm.decode_step_series(batch);
                for ctx in [0u64, 1, 255, 256, 257, 300, 511, 4096, 1 << 20] {
                    assert_eq!(
                        series.latency(ctx),
                        rcm.decode_step_latency(batch, ctx),
                        "series diverged at batch={batch} ctx={ctx}"
                    );
                }
            }
        }
    }

    /// LLaMA-7B replicas on the paper cloud for every pp and tp in
    /// {1, 2, 4}, each placed from three GPU offsets, so stages mix GPU
    /// types and their links mix intra-node and inter-node hops.
    fn replica_shapes(phase: Phase) -> Vec<ReplicaCostModel> {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_7b();
        let mut out = Vec::new();
        for pp in [1, 2, 4] {
            for tp in [1, 2, 4] {
                for offset in [0u32, 8, 14] {
                    let ids: Vec<u32> = (0..(pp * tp) as u32).map(|k| (offset + k) % 32).collect();
                    let g = group_on(&ids, tp, pp, m.num_layers, phase);
                    out.push(ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).unwrap());
                }
            }
        }
        out
    }

    /// The one-pass pricing against separate folds over the stages: the
    /// latency as stage times plus links in stage order, the bottleneck as
    /// the largest stage time.
    #[test]
    fn one_pass_prefill_pricing_matches_latency_and_stage_max() {
        for rcm in replica_shapes(Phase::Prefill) {
            for tokens in [1u64, 2, 17, 255, 256, 1000, 1400, 4096, 8191, 16_384] {
                let act_bytes = rcm
                    .model
                    .dtype
                    .bytes_for(tokens * rcm.model.hidden_size as u64);
                for ctx in [0u64, 1, tokens / 2, tokens, 4 * tokens] {
                    let stage = |st: &StageModel| {
                        prefill_time(&rcm.model, st.layers, &st.hw, tokens, ctx, &rcm.params)
                    };
                    let latency = rcm.stages.iter().fold(SimDuration::ZERO, |total, st| {
                        total
                            + stage(st)
                            + st.next_link
                                .map_or(SimDuration::ZERO, |l| l.time(act_bytes))
                    });
                    let stage_max = rcm.stages.iter().map(stage).max().unwrap();
                    let shape = format!("{} stages, tokens={tokens} ctx={ctx}", rcm.num_stages());
                    assert_eq!(
                        rcm.prefill_latency_and_bottleneck(tokens, ctx),
                        (latency, stage_max),
                        "{shape}"
                    );
                    assert_eq!(rcm.prefill_latency(tokens, ctx), latency, "{shape}");
                }
            }
        }
    }

    /// Checks `latency_block` against `latency` on `n` contexts from `ctx0`.
    fn check_block(series: &DecodeStepSeries, ctx0: u64, n: usize) {
        let mut out = vec![SimDuration::from_micros(7); n];
        series.latency_block(ctx0, &mut out);
        for (ctx, &t) in (ctx0..).zip(&out) {
            assert_eq!(
                t,
                series.latency(ctx),
                "block from {ctx0} diverged at ctx={ctx}"
            );
        }
    }

    #[test]
    fn latency_block_matches_latency_on_every_context() {
        let shapes = replica_shapes(Phase::Decode);
        // One, two and four stages at tp 1, 2 and 4: every context up to
        // 20,000 in blocks of 64.
        for rcm in [&shapes[0], &shapes[12], &shapes[24]] {
            for batch in [1u64, 8, 32] {
                let series = rcm.decode_step_series(batch);
                for ctx0 in (0..=20_000).step_by(64) {
                    check_block(&series, ctx0, 64);
                }
            }
        }
        // Sampled blocks on every shape: unaligned starts, lengths that
        // are not a multiple of the lane count, contexts far past any
        // prompt, and the free zero-batch series.
        for rcm in &shapes {
            for batch in [0u64, 1, 3, 64, 256] {
                let series = rcm.decode_step_series(batch);
                for (ctx0, n) in [(0u64, 1), (1, 63), (129, 64), (4_095, 150), (1 << 40, 65)] {
                    check_block(&series, ctx0, n);
                }
            }
        }
        // A stage of zero layers is free but its link still costs.
        let m = ModelSpec::llama_7b();
        let hw = StageHardware::single(ts_cluster::GpuModel::A5000.spec());
        let p = ModelParams::default();
        let series = DecodeStepSeries {
            stages: vec![
                (
                    DecodeStageSeries::new(&m, 0, &hw, 8, &p),
                    Some(SimDuration::from_micros(40)),
                ),
                (DecodeStageSeries::new(&m, m.num_layers, &hw, 8, &p), None),
            ],
        };
        for (ctx0, n) in [(0u64, 64), (77, 200)] {
            check_block(&series, ctx0, n);
        }
    }

    #[test]
    fn infeasible_when_memory_too_small() {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        // One A5000 (24GB) cannot hold 30B fp16 weights (~65GB).
        let g = group_on(&[8], 1, 1, m.num_layers, Phase::Prefill);
        assert!(ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).is_err());
        assert!(!memory_feasible(
            &c,
            &m,
            &[GpuId(8)],
            &ModelParams::default()
        ));
        assert!(memory_feasible(
            &c,
            &m,
            &[GpuId(16), GpuId(17)],
            &ModelParams::default()
        ));
    }

    #[test]
    fn layer_partition_must_cover_model() {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        let g = group_on(&[16, 17], 2, 1, 30, Phase::Prefill); // only 30 of 60 layers
        assert!(ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).is_err());
    }

    #[test]
    fn pipeline_adds_interstage_comm() {
        let c = presets::network_case_cluster(presets::ETH_5GBPS);
        let m = ModelSpec::llama_13b();
        let p = ModelParams::default();
        // PP=2 across the two nodes (slow link) vs within one node.
        let cross = group_on(&[0, 1, 4, 5], 2, 2, m.num_layers, Phase::Prefill);
        let local = group_on(&[0, 1, 2, 3], 2, 2, m.num_layers, Phase::Prefill);
        let rc_cross = ReplicaCostModel::new(&c, &m, &cross, &p).unwrap();
        let rc_local = ReplicaCostModel::new(&c, &m, &local, &p).unwrap();
        assert!(
            rc_cross.prefill_latency(4096, 2048) > rc_local.prefill_latency(4096, 2048),
            "cross-node pipeline must pay for the slow link"
        );
    }

    #[test]
    fn kv_route_matches_layers() {
        let c = presets::network_case_cluster(presets::ETH_40GBPS);
        let m = ModelSpec::llama_13b();
        let p = ModelParams::default();
        // prefill on A40 node (PP=2), decode on 3090Ti node (PP=1 over TP=4)
        let pf = group_on(&[0, 1, 2, 3], 2, 2, m.num_layers, Phase::Prefill);
        let dc = group_on(&[4, 5, 6, 7], 4, 1, m.num_layers, Phase::Decode);
        let rp = ReplicaCostModel::new(&c, &m, &pf, &p).unwrap();
        let rd = ReplicaCostModel::new(&c, &m, &dc, &p).unwrap();
        let route: Vec<KvRouteLeg> = kv_route(&c, &rp, &rd).collect();
        let total_layers: usize = route.iter().map(|s| s.layers).sum();
        assert_eq!(total_layers, m.num_layers);
        // 4-bit compression shrinks the transfer ~3x (alpha aside).
        let t16 = kv_transfer_time(&m, route.clone(), 1024, KvWirePrecision::F16);
        let t4 = kv_transfer_time(&m, route, 1024, KvWirePrecision::DEFAULT_COMPRESSED);
        let ratio = t16.as_secs_f64() / t4.as_secs_f64();
        assert!(ratio > 3.0 && ratio <= 4.2, "ratio {ratio}");
        // Pricing the lazy route gives the same time as the collected one.
        assert_eq!(
            kv_transfer_time(&m, kv_route(&c, &rp, &rd), 1024, KvWirePrecision::F16),
            t16
        );
    }

    #[test]
    fn route_legs_expose_endpoints() {
        let c = presets::network_case_cluster(presets::ETH_40GBPS);
        let m = ModelSpec::llama_13b();
        let p = ModelParams::default();
        let pf = group_on(&[0, 1, 2, 3], 2, 2, m.num_layers, Phase::Prefill);
        let dc = group_on(&[4, 5, 6, 7], 4, 1, m.num_layers, Phase::Decode);
        let rp = ReplicaCostModel::new(&c, &m, &pf, &p).unwrap();
        let rd = ReplicaCostModel::new(&c, &m, &dc, &p).unwrap();
        // Endpoints lie on the sending/receiving replicas and realize the
        // leg's advertised link cost.
        for leg in kv_route(&c, &rp, &rd) {
            assert!((0..4).contains(&leg.from.index()));
            assert!((4..8).contains(&leg.to.index()));
            assert_eq!(leg.link.beta, c.bandwidth(leg.from, leg.to));
        }
    }

    #[test]
    fn decode_batch_limited_by_kv_memory() {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        let g = group_on(&[16, 17, 18, 19], 2, 2, m.num_layers, Phase::Decode);
        let rcm = ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).unwrap();
        let cap = rcm.kv_capacity_tokens();
        assert_eq!(rcm.max_decode_batch(1024), cap / 1024);
        assert!(rcm.max_decode_batch(1024) > 0);
    }

    #[test]
    fn weight_load_time_is_minutes_scale() {
        let c = presets::paper_inhouse_cluster();
        let m = ModelSpec::llama_30b();
        let g = group_on(&[0, 1], 2, 1, m.num_layers, Phase::Prefill);
        let rcm = ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).unwrap();
        let t = rcm.weight_load_time(DISK_BANDWIDTH);
        // ~65GB / 1.2GB/s ≈ 54s
        assert!(t.as_secs_f64() > 30.0 && t.as_secs_f64() < 120.0);
    }

    #[test]
    fn throughput_optimal_batch_beats_batch_one() {
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_30b();
        let g = group_on(&[24, 25, 26, 27], 2, 2, m.num_layers, Phase::Decode);
        let rcm = ReplicaCostModel::new(&c, &m, &g, &ModelParams::default()).unwrap();
        let b = rcm.max_decode_batch(1024).min(64);
        assert!(rcm.decode_throughput(b, 1024) > 5.0 * rcm.decode_throughput(1, 1024));
    }
}
