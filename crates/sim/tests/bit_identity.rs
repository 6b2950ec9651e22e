//! Bit-identity regression pin for the execution core.
//!
//! The slab/indexed-queue/decode-coalescing rewrite of the event loop
//! promises to change *no output bit*. This suite holds it to that: a fixed
//! scenario matrix — both engines × {no-fault, crash, gray} × telemetry
//! on/off × single/multi-model × the KV/network config axes — is digested
//! (every `RequestRecord` field, `RecoveryCounters`, derived f64 latencies
//! via `to_bits()`, and telemetry `RequestSpan`s, folded through FNV-1a)
//! and compared against `tests/golden_metrics.txt`, which was generated by
//! the pre-rewrite loop (BinaryHeap + HashMap state + per-step decode
//! events) and must never be regenerated casually.
//!
//! To re-bless after an *intentional* behavioural change:
//! `BLESS_GOLDEN=1 cargo test -p ts-sim --test bit_identity` — and justify
//! the diff in the commit message.

use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelId, ModelRouting, ModelSpec, ParallelConfig, Phase,
    Request, RequestId, RoutingMatrix, ServedModel, SimDuration, SimTime, SloKind, StageSpec,
};
use ts_sim::{
    FaultKind, FaultScript, Hedge, Metrics, Quarantine, SimConfig, Simulation, TimedFault,
};

// ---------------------------------------------------------------- digesting

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
            None => self.u64(0),
        }
    }
}

fn digest(name: &str, m: &Metrics, out: &mut String) {
    out.push_str(&format!("[{name}]\n"));
    digest_metrics(m, out);
}

fn digest_metrics(m: &Metrics, out: &mut String) {
    let r = m.recovery();
    out.push_str(&format!(
        "completed={} dropped={} rejected={}\n",
        m.num_completed(),
        m.num_dropped(),
        m.num_rejected()
    ));
    out.push_str(&format!(
        "throughput_rps=0x{:016x} mean_ttft=0x{:016x} mean_tpot=0x{:016x} p99_e2e=0x{:016x}\n",
        m.throughput_rps().to_bits(),
        m.mean_latency(SloKind::Ttft).map_or(0, |d| d.as_micros()),
        m.mean_latency(SloKind::Tpot).map_or(0, |d| d.as_micros()),
        m.latency_percentile(SloKind::E2e, 0.99)
            .map_or(0, |d| d.as_micros()),
    ));
    out.push_str(&format!(
        "recovery: requeued={} reprefilled={} retries={} recoveries={:?} hedged={}/{} \
         quarantines={} readmissions={}\n",
        r.requeued_requests,
        r.reprefilled_tokens,
        r.kv_transfer_retries,
        r.recovery_times
            .iter()
            .map(|d| d.as_micros())
            .collect::<Vec<_>>(),
        r.hedges_launched,
        r.hedges_won,
        r.quarantines,
        r.readmissions,
    ));
    for pm in &r.per_model {
        out.push_str(&format!(
            "model {}: submitted={} completed={} dropped={} rejected={}\n",
            pm.model.0, pm.submitted, pm.completed, pm.dropped, pm.rejected
        ));
    }
    let mut h = Fnv::new();
    for rec in m.records() {
        h.u64(rec.request.id.0);
        h.u64(rec.request.arrival.as_micros());
        h.u64(u64::from(rec.request.prompt_len));
        h.u64(u64::from(rec.request.output_len));
        h.u64(u64::from(rec.request.model.0));
        h.u64(rec.prefill_replica as u64);
        h.u64(rec.decode_replica as u64);
        h.u64(rec.first_token_at.as_micros());
        h.u64(rec.finished_at.as_micros());
        h.u64(rec.max_token_gap.as_micros());
        h.u64(rec.kv_queue_wait.as_micros());
        h.u64(rec.kv_wire_time.as_micros());
        h.opt(rec.kv_done_at.map(|t| t.as_micros()));
        h.u64(rec.ttft().as_micros());
        h.u64(rec.tpot().as_micros());
        h.u64(rec.e2e().as_micros());
    }
    out.push_str(&format!("records_fnv=0x{:016x}\n", h.0));
}

fn digest_trace(log: &ts_telemetry::TraceLog, out: &mut String) {
    let mut h = Fnv::new();
    let ids = log.request_ids();
    for id in &ids {
        let Some(s) = log.request_span(*id) else {
            continue;
        };
        h.u64(s.request.0);
        h.u64(s.arrived.as_micros());
        h.opt(s.first_token.map(|t| t.as_micros()));
        h.opt(s.finished.map(|t| t.as_micros()));
        h.opt(s.kv_enqueued.map(|t| t.as_micros()));
        h.opt(s.kv_wire_start.map(|t| t.as_micros()));
        h.opt(s.kv_done.map(|t| t.as_micros()));
        h.u64(u64::from(s.kv_retries));
        h.u64(u64::from(s.requeues));
        h.u64(u64::from(s.reprefills));
        h.u64(u64::from(s.hedges));
    }
    out.push_str(&format!(
        "spans={} completed_spans={} spans_fnv=0x{:016x}\n",
        ids.len(),
        log.completed_requests().len(),
        h.0
    ));
}

// ---------------------------------------------------------------- scenarios

/// Deterministic mixed-length workload (no dependency on the workload
/// crate's sampling internals): a tiny LCG drives arrival gaps, prompt and
/// output lengths. `mean_gap_us` tunes load; output lengths span 1 (skip
/// decode entirely) to ~96 so decode batches form and drain at varied
/// sizes.
fn mixed_requests(n: u64, mean_gap_us: u64, salt: u64) -> Vec<Request> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut at = 0u64;
    (0..n)
        .map(|i| {
            at += rng() % (2 * mean_gap_us).max(1);
            let prompt = 32 + (rng() % 736) as u32;
            let output = 1 + (rng() % 96) as u32;
            Request::new(RequestId(i), SimTime::from_micros(at), prompt, output)
        })
        .collect()
}

fn tp1_group(phase: Phase, gpu: u32, layers: usize) -> GroupSpec {
    GroupSpec::single_stage(phase, vec![GpuId(gpu)], layers).unwrap()
}

/// 8×A5000, four tp=1 prefill replicas feeding four tp=1 decode replicas,
/// uniform routing: enough parallelism for cross-replica interleavings.
fn split_plan_8() -> (ts_cluster::Cluster, DeploymentPlan) {
    let model = ModelSpec::llama_7b();
    let cluster = presets::a5000_cluster(8);
    let groups = (0..4)
        .map(|g| tp1_group(Phase::Prefill, g, model.num_layers))
        .chain((0..4).map(|g| tp1_group(Phase::Decode, 4 + g, model.num_layers)))
        .collect();
    let plan = DeploymentPlan::new(groups, RoutingMatrix::uniform(4, 4)).unwrap();
    (cluster, plan)
}

/// The network-case pair: one tp=4 prefill replica, one tp=4 decode
/// replica, 5 Gbps inter-node link (KV wire time dominates).
fn split_plan_pair() -> (ts_cluster::Cluster, DeploymentPlan) {
    let model = ModelSpec::llama_13b();
    let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
    let group = |phase, ids: [u32; 4]| {
        GroupSpec::single_stage(
            phase,
            ids.iter().map(|&i| GpuId(i)).collect(),
            model.num_layers,
        )
        .unwrap()
    };
    let plan = DeploymentPlan::new(
        vec![
            group(Phase::Prefill, [0, 1, 2, 3]),
            group(Phase::Decode, [4, 5, 6, 7]),
        ],
        RoutingMatrix::uniform(1, 1),
    )
    .unwrap();
    (cluster, plan)
}

/// 8×A5000, two tp=1 prefill replicas (one per node) feeding two pp=2
/// decode replicas: GPUs 1→2 within node 0, GPUs 3→5 across the nodes.
fn split_plan_pipelined() -> (ts_cluster::Cluster, DeploymentPlan) {
    let model = ModelSpec::llama_7b();
    let cluster = presets::a5000_cluster(8);
    let half = model.num_layers / 2;
    let pp2 = |a: u32, b: u32| {
        GroupSpec::new(
            Phase::Decode,
            ParallelConfig::new(1, 2).unwrap(),
            vec![
                StageSpec {
                    gpus: vec![GpuId(a)],
                    layers: half,
                },
                StageSpec {
                    gpus: vec![GpuId(b)],
                    layers: model.num_layers - half,
                },
            ],
        )
        .unwrap()
    };
    let groups = vec![
        tp1_group(Phase::Prefill, 0, model.num_layers),
        tp1_group(Phase::Prefill, 4, model.num_layers),
        pp2(1, 2),
        pp2(3, 5),
    ];
    let plan = DeploymentPlan::new(groups, RoutingMatrix::uniform(2, 2)).unwrap();
    (cluster, plan)
}

/// [`split_plan_8`]'s replicas, routed sparsely: prefill 0 feeds decode 0
/// only, prefill 1 decodes 1 and 2, prefill 2 decodes 2 and 3, prefill 3
/// decodes 1 and 3. Nine of the 16 pairs carry no route.
fn split_plan_sparse() -> (ts_cluster::Cluster, DeploymentPlan) {
    let (cluster, dense) = split_plan_8();
    let rates = vec![
        vec![0.25, 0.0, 0.0, 0.0],
        vec![0.0, 0.125, 0.125, 0.0],
        vec![0.0, 0.0, 0.125, 0.125],
        vec![0.0, 0.125, 0.0, 0.125],
    ];
    let plan = DeploymentPlan::new(dense.groups, RoutingMatrix::new(rates).unwrap()).unwrap();
    (cluster, plan)
}

/// Faults for [`split_plan_sparse`]. While decode 0 is down, prefill 0's
/// transfers re-target to decode replicas no route reaches, over links
/// that degrade, fault and heal; the last link faults and heals where no
/// transfer ever runs.
fn sparse_script() -> FaultScript {
    let link = |at: f64, kind: FaultKind| TimedFault {
        at: SimTime::from_secs_f64(at),
        kind,
    };
    FaultScript::new(
        vec![
            link(
                1.0,
                FaultKind::LinkDegraded {
                    prefill: 0,
                    decode: 2,
                    factor: 3.0,
                },
            ),
            link(
                2.5,
                FaultKind::LinkDown {
                    prefill: 0,
                    decode: 1,
                },
            ),
            link(3.0, FaultKind::DecodeDown(0)),
            link(
                3.2,
                FaultKind::LinkDegraded {
                    prefill: 0,
                    decode: 3,
                    factor: 2.0,
                },
            ),
            link(
                4.0,
                FaultKind::LinkUp {
                    prefill: 0,
                    decode: 1,
                },
            ),
            link(6.0, FaultKind::DecodeUp(0)),
            link(
                7.0,
                FaultKind::LinkDown {
                    prefill: 2,
                    decode: 0,
                },
            ),
            link(
                7.5,
                FaultKind::LinkUp {
                    prefill: 2,
                    decode: 0,
                },
            ),
        ],
        SimDuration::from_millis(500),
    )
}

fn crash_script() -> FaultScript {
    FaultScript::new(
        vec![
            TimedFault {
                at: SimTime::from_secs_f64(2.0),
                kind: FaultKind::PrefillDown(1),
            },
            TimedFault {
                at: SimTime::from_secs_f64(4.0),
                kind: FaultKind::DecodeDown(2),
            },
            TimedFault {
                at: SimTime::from_secs_f64(6.0),
                kind: FaultKind::LinkDown {
                    prefill: 0,
                    decode: 1,
                },
            },
            TimedFault {
                at: SimTime::from_secs_f64(8.0),
                kind: FaultKind::LinkUp {
                    prefill: 0,
                    decode: 1,
                },
            },
            TimedFault {
                at: SimTime::from_secs_f64(9.0),
                kind: FaultKind::PrefillUp(1),
            },
            TimedFault {
                at: SimTime::from_secs_f64(12.0),
                kind: FaultKind::Pause {
                    until: SimTime::from_secs_f64(13.5),
                },
            },
        ],
        SimDuration::from_millis(50),
    )
}

fn gray_script() -> FaultScript {
    FaultScript::new(
        vec![
            TimedFault {
                at: SimTime::from_secs_f64(1.0),
                kind: FaultKind::PrefillSlow(0, 3.0),
            },
            TimedFault {
                at: SimTime::from_secs_f64(2.0),
                kind: FaultKind::DecodeSlow(1, 2.5),
            },
            TimedFault {
                at: SimTime::from_secs_f64(3.0),
                kind: FaultKind::LinkDegraded {
                    prefill: 0,
                    decode: 1,
                    factor: 4.0,
                },
            },
            TimedFault {
                at: SimTime::from_secs_f64(4.0),
                kind: FaultKind::HeartbeatFlaky(6, 0.4),
            },
            TimedFault {
                at: SimTime::from_secs_f64(8.0),
                kind: FaultKind::DecodeSlow(1, 1.0),
            },
            TimedFault {
                at: SimTime::from_secs_f64(10.0),
                kind: FaultKind::HeartbeatFlaky(6, 0.0),
            },
        ],
        SimDuration::from_millis(100),
    )
}

/// 4×A5000, four tp=1 colocated replicas.
fn colo_groups() -> (ts_cluster::Cluster, Vec<GroupSpec>) {
    let layers = ModelSpec::llama_7b().num_layers;
    let groups = (0..4)
        .map(|g| tp1_group(Phase::Prefill, g, layers))
        .collect();
    (presets::a5000_cluster(4), groups)
}

/// A colocated replica dies and heals, then the service pauses.
fn colo_crash_script() -> FaultScript {
    FaultScript::new(
        vec![
            TimedFault {
                at: SimTime::from_secs_f64(1.0),
                kind: FaultKind::PrefillDown(0),
            },
            TimedFault {
                at: SimTime::from_secs_f64(3.0),
                kind: FaultKind::PrefillUp(0),
            },
            TimedFault {
                at: SimTime::from_secs_f64(4.0),
                kind: FaultKind::Pause {
                    until: SimTime::from_secs_f64(4.8),
                },
            },
        ],
        SimDuration::from_millis(50),
    )
}

fn gray_cfg(model: ModelSpec) -> SimConfig {
    SimConfig::new(model)
        .with_quarantine(Quarantine {
            threshold: 1.5,
            readmit_after: SimDuration::from_secs(2),
        })
        .with_hedge(Hedge::after(SimDuration::from_millis(400)))
}

/// Two tenants partitioning the 8×A5000 pool: model 1 on the first
/// prefill/decode replica pair pair, model 2 on the second.
fn multi_plan() -> (ts_cluster::Cluster, DeploymentPlan) {
    let model = ModelSpec::llama_7b();
    let cluster = presets::a5000_cluster(8);
    let g = |phase, m: ModelId, a: u32| {
        GroupSpec::single_stage(phase, vec![GpuId(a)], model.num_layers)
            .unwrap()
            .with_model(m)
    };
    let plan = DeploymentPlan::new_multi(
        vec![
            g(Phase::Prefill, ModelId(1), 0),
            g(Phase::Prefill, ModelId(2), 1),
            g(Phase::Decode, ModelId(1), 4),
            g(Phase::Decode, ModelId(2), 5),
        ],
        vec![
            ModelRouting {
                model: ModelId(1),
                routing: RoutingMatrix::uniform(1, 1),
                share: 0.5,
            },
            ModelRouting {
                model: ModelId(2),
                routing: RoutingMatrix::uniform(1, 1),
                share: 0.5,
            },
        ],
    )
    .unwrap();
    (cluster, plan)
}

fn run_split(
    (cluster, plan): &(ts_cluster::Cluster, DeploymentPlan),
    cfg: SimConfig,
    reqs: &[Request],
    script: &FaultScript,
) -> (Metrics, Option<ts_telemetry::TraceLog>) {
    let mut sim = Simulation::new(cluster, plan, cfg).unwrap();
    let m = sim.run_with_faults(reqs, script).unwrap();
    let t = sim.take_trace();
    (m, t)
}

/// Every scenario in the matrix, digested into one golden string.
fn run_matrix(edit: &dyn Fn(SimConfig) -> SimConfig) -> String {
    let mut out = String::new();
    let llama7 = ModelSpec::llama_7b;
    let llama13 = ModelSpec::llama_13b;
    let eight = split_plan_8();
    let pair = split_plan_pair();

    // -- split engine, no fault ------------------------------------------
    let reqs = mixed_requests(400, 12_000, 1);
    let (m, _) = run_split(
        &eight,
        edit(SimConfig::new(llama7())),
        &reqs,
        &FaultScript::none(),
    );
    digest("split_base", &m, &mut out);

    let (m, _) = run_split(
        &pair,
        edit(SimConfig::new(llama13()).with_f16_kv()),
        &mixed_requests(200, 40_000, 2),
        &FaultScript::none(),
    );
    digest("split_pair_f16", &m, &mut out);

    let (m, _) = run_split(
        &eight,
        edit(SimConfig::new(llama7()).with_network_contention(true)),
        &mixed_requests(250, 8_000, 5),
        &FaultScript::none(),
    );
    digest("split_contention", &m, &mut out);

    // -- split engine, crash faults --------------------------------------
    let reqs = mixed_requests(400, 30_000, 6);
    let (m, _) = run_split(
        &eight,
        edit(SimConfig::new(llama7())),
        &reqs,
        &crash_script(),
    );
    digest("split_crash", &m, &mut out);

    let (m, _) = run_split(
        &eight,
        edit(SimConfig::new(llama7())),
        &reqs,
        &crash_script().without_recovery(),
    );
    digest("split_crash_norecover", &m, &mut out);

    // -- split engine, gray faults ---------------------------------------
    let reqs = mixed_requests(400, 25_000, 7);
    let (m, _) = run_split(&eight, edit(gray_cfg(llama7())), &reqs, &gray_script());
    digest("split_gray", &m, &mut out);

    // -- telemetry on: identical metrics, plus pinned spans --------------
    let reqs = mixed_requests(400, 12_000, 1);
    let (m, trace) = run_split(
        &eight,
        edit(SimConfig::new(llama7()).with_telemetry(true)),
        &reqs,
        &FaultScript::none(),
    );
    digest("split_base_telemetry", &m, &mut out);
    digest_trace(&trace.expect("trace recorded"), &mut out);

    let reqs = mixed_requests(400, 25_000, 7);
    let (m, trace) = run_split(
        &eight,
        edit(gray_cfg(llama7()).with_telemetry(true)),
        &reqs,
        &gray_script(),
    );
    digest("split_gray_telemetry", &m, &mut out);
    digest_trace(&trace.expect("trace recorded"), &mut out);

    // -- multi-model -----------------------------------------------------
    let mm = multi_plan();
    let reqs: Vec<Request> = mixed_requests(300, 15_000, 8)
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.with_model(ModelId(1 + (i as u32 % 2))))
        .collect();
    let cfg = SimConfig::new(llama7()).with_catalog(vec![
        ServedModel::llama_7b_chat(ModelId(1), 0.5).unwrap(),
        ServedModel::llama_7b_chat(ModelId(2), 0.5).unwrap(),
    ]);
    let (m, _) = run_split(&mm, edit(cfg), &reqs, &FaultScript::none());
    digest("split_multi_model", &m, &mut out);

    // -- colocated engine ------------------------------------------------
    let model = llama7();
    let (cluster, groups) = colo_groups();
    let reqs = mixed_requests(300, 10_000, 9);
    let mut sim =
        Simulation::colocated(&cluster, &groups, edit(SimConfig::new(model.clone()))).unwrap();
    digest("colo_base", &sim.run(&reqs).unwrap(), &mut out);

    let mut sim = Simulation::colocated(&cluster, &groups, edit(SimConfig::new(model))).unwrap();
    digest(
        "colo_crash",
        &sim.run_with_faults(&mixed_requests(300, 20_000, 10), &colo_crash_script())
            .unwrap(),
        &mut out,
    );

    // -- split engine, flow fabric under faults --------------------------
    // The link fault kills in-flight flows, the gray script degrades a
    // path live and hedges cancel stuck flows.
    let (m, _) = run_split(
        &eight,
        edit(SimConfig::new(llama7()).with_network_contention(true)),
        &mixed_requests(400, 30_000, 6),
        &crash_script(),
    );
    digest("split_fabric_crash", &m, &mut out);

    let (m, _) = run_split(
        &eight,
        edit(gray_cfg(llama7()).with_network_contention(true)),
        &mixed_requests(400, 25_000, 7),
        &gray_script(),
    );
    digest("split_fabric_gray", &m, &mut out);

    // -- split engine, pipelined decode under a slowdown ------------------
    // Every other arm prices single-stage decode replicas; here both decode
    // replicas are two pipeline stages joined by an inter-stage link (one
    // within a node, one across nodes), and one of them slows down mid-run.
    let (m, _) = run_split(
        &split_plan_pipelined(),
        edit(SimConfig::new(llama7())),
        &mixed_requests(300, 250_000, 11),
        &FaultScript::new(
            vec![TimedFault {
                at: SimTime::from_secs_f64(20.0),
                kind: FaultKind::DecodeSlow(1, 2.5),
            }],
            SimDuration::from_millis(50),
        ),
    );
    digest("split_pipelined_slow", &m, &mut out);

    // -- split engine, sparse routing under faults ------------------------
    // Every other split arm routes every pair. The section digests the
    // serialized run, then the fabric run.
    let sparse = split_plan_sparse();
    let reqs = mixed_requests(400, 80_000, 12);
    out.push_str("[split_sparse]\n");
    for fabric in [false, true] {
        let cfg = SimConfig::new(llama7()).with_network_contention(fabric);
        let (m, _) = run_split(&sparse, edit(cfg), &reqs, &sparse_script());
        digest_metrics(&m, &mut out);
    }

    out
}

const GOLDEN: &str = include_str!("golden_metrics.txt");

#[test]
fn outputs_match_the_pre_rewrite_loop() {
    let got = run_matrix(&|c| c);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_metrics.txt"),
            &got,
        )
        .unwrap();
        return;
    }
    assert_eq!(
        got, GOLDEN,
        "simulation outputs diverged from the pinned pre-rewrite loop"
    );
}

/// The compatibility path (decode coalescing off: one event per decode
/// step, exactly the shape of the pre-rewrite loop) must also match the
/// golden — pinning that coalescing is a pure scheduling transform.
#[test]
fn coalescing_off_matches_the_same_golden() {
    let got = run_matrix(&|c| c.with_decode_coalescing(false));
    assert_eq!(
        got, GOLDEN,
        "the per-step compatibility path diverged from the pinned loop"
    );
}

/// The pressure tally folds queue-depth and batch-occupancy samples online,
/// keeping no events: the whole matrix must still digest to the same
/// golden.
#[test]
fn pressure_tally_on_matches_the_same_golden() {
    let got = run_matrix(&|c| c.with_pressure(true));
    assert_eq!(
        got, GOLDEN,
        "the pressure tally perturbed simulation outputs"
    );
}

/// The trace records changes, not decode steps: each traced split arm
/// writes the same events in the same order with decode coalescing on or
/// off, and no replica samples the same batch occupancy twice in a row.
#[test]
fn trace_is_the_same_with_coalescing_on_or_off() {
    use std::collections::HashMap;
    use ts_telemetry::TraceKind;
    let llama7 = ModelSpec::llama_7b;
    let eight = split_plan_8();
    let pair = split_plan_pair();
    let arms = [
        (
            "split_base",
            &eight,
            SimConfig::new(llama7()),
            mixed_requests(400, 12_000, 1),
            FaultScript::none(),
        ),
        (
            "split_pair_f16",
            &pair,
            SimConfig::new(ModelSpec::llama_13b()).with_f16_kv(),
            mixed_requests(200, 40_000, 2),
            FaultScript::none(),
        ),
        (
            "split_contention",
            &eight,
            SimConfig::new(llama7()).with_network_contention(true),
            mixed_requests(250, 8_000, 5),
            FaultScript::none(),
        ),
        (
            "split_crash",
            &eight,
            SimConfig::new(llama7()),
            mixed_requests(400, 30_000, 6),
            crash_script(),
        ),
        (
            "split_gray",
            &eight,
            gray_cfg(llama7()),
            mixed_requests(400, 25_000, 7),
            gray_script(),
        ),
    ];
    for (name, plan, cfg, reqs, script) in arms {
        let trace = |coalescing: bool| {
            let cfg = cfg
                .clone()
                .with_telemetry(true)
                .with_decode_coalescing(coalescing);
            run_split(plan, cfg, &reqs, &script)
                .1
                .expect("trace recorded")
        };
        let (on, off) = (trace(true), trace(false));
        if let Some(i) =
            (0..on.len().max(off.len())).find(|&i| on.events().get(i) != off.events().get(i))
        {
            panic!(
                "{name}: event {i} differs: coalesced {:?}, per-step {:?}",
                on.events().get(i),
                off.events().get(i)
            );
        }
        let mut last = HashMap::new();
        for e in on.events() {
            if let TraceKind::BatchOccupancy {
                role,
                replica,
                active,
            } = e.kind
            {
                let prev = last.insert((role, replica), active);
                assert_ne!(
                    prev,
                    Some(active),
                    "{name}: {role} replica {replica} repeated occupancy {active} at {:?}",
                    e.at
                );
            }
        }
    }
}

/// Every event-heap entry left the heap exactly once: popped or cancelled,
/// with nothing left behind to sift out.
fn every_entry_left_once(sim: &Simulation) {
    let work = sim.queue_work();
    assert_eq!(work.removed, work.pushed, "{work:?}");
}

/// Dispatched event counts, pinned per arm of the matrix. The digests
/// cannot see a wakeup event added or dropped without changing a metric;
/// these counts can. In `split_contention` the fabric signals completions
/// through one timer, so it dispatches its arrivals, prefill, decode and
/// transfer events, and one timer firing per flow completion. Each arm
/// also checks that every event-heap entry left the heap exactly once.
#[test]
fn runs_dispatch_pinned_event_counts() {
    let eight = split_plan_8();
    let split = |cfg: SimConfig, reqs: &[Request], script: &FaultScript| {
        let mut sim = Simulation::new(&eight.0, &eight.1, cfg).unwrap();
        sim.run_with_faults(reqs, script).unwrap();
        every_entry_left_once(&sim);
        sim.events_processed()
    };
    let (cluster, groups) = colo_groups();
    let colo = |cfg: SimConfig, reqs: &[Request], script: &FaultScript| {
        let mut sim = Simulation::colocated(&cluster, &groups, cfg).unwrap();
        sim.run_with_faults(reqs, script).unwrap();
        every_entry_left_once(&sim);
        sim.events_processed()
    };
    let llama7 = ModelSpec::llama_7b;
    let none = FaultScript::none();
    let got = [
        (
            "split_base",
            split(
                SimConfig::new(llama7()),
                &mixed_requests(400, 12_000, 1),
                &none,
            ),
        ),
        (
            "split_contention",
            split(
                SimConfig::new(llama7()).with_network_contention(true),
                &mixed_requests(250, 8_000, 5),
                &none,
            ),
        ),
        (
            "split_gray",
            split(
                gray_cfg(llama7()),
                &mixed_requests(400, 25_000, 7),
                &gray_script(),
            ),
        ),
        (
            "colo_base",
            colo(
                SimConfig::new(llama7()),
                &mixed_requests(300, 10_000, 9),
                &none,
            ),
        ),
        (
            "colo_crash",
            colo(
                SimConfig::new(llama7()),
                &mixed_requests(300, 20_000, 10),
                &colo_crash_script(),
            ),
        ),
    ];
    let pinned = [
        ("split_base", 1276),
        ("split_contention", 797),
        ("split_gray", 8960),
        ("colo_base", 900),
        ("colo_crash", 869),
    ];
    assert_eq!(got, pinned);
}

/// The KV transport builds a (prefill, decode) pair's state on the pair's
/// first use: by a transfer launch, a link fault or a degradation. Setup
/// builds none. Without the link faults, the sparse arm's run builds the
/// seven routed pairs and one more for each unrouted pair prefill 0's
/// transfers re-target to while decode 0 is down. With them, it also
/// builds the two unrouted pairs only the script names, (0, 3) and (2, 0);
/// the other two it names are re-target pairs. Both transfer models build
/// the same pairs.
#[test]
fn sparse_arm_builds_each_pair_on_first_use() {
    use std::collections::BTreeSet;
    type Pairs = BTreeSet<(usize, usize)>;
    let (cluster, plan) = split_plan_sparse();
    let reqs = mixed_requests(400, 80_000, 12);
    let routed: Pairs = (0..4)
        .flat_map(|i| (0..4).map(move |j| (i, j)))
        .filter(|&(i, j)| plan.routing.rates()[i][j] > 0.0)
        .collect();
    let link = |kind: FaultKind| match kind {
        FaultKind::LinkDown { prefill, decode }
        | FaultKind::LinkUp { prefill, decode }
        | FaultKind::LinkDegraded {
            prefill, decode, ..
        } => Some((prefill, decode)),
        _ => None,
    };
    let full = sparse_script();
    let faulted: Pairs = full.faults.iter().filter_map(|f| link(f.kind)).collect();
    let mut liveness_only = full.clone();
    liveness_only.faults.retain(|f| link(f.kind).is_none());
    for fabric in [false, true] {
        let run = |script: &FaultScript| {
            let cfg = SimConfig::new(ModelSpec::llama_7b()).with_network_contention(fabric);
            let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
            assert_eq!(sim.kv_work().pairs_built, 0, "setup builds no pair");
            let m = sim.run_with_faults(&reqs, script).unwrap();
            let used: Pairs = m
                .records()
                .iter()
                .map(|r| (r.prefill_replica, r.decode_replica))
                .collect();
            (used, sim.kv_work().pairs_built)
        };
        let (used, built) = run(&liveness_only);
        let retargeted: Pairs = used.difference(&routed).copied().collect();
        assert_eq!(used.intersection(&routed).count(), 7, "fabric {fabric}");
        assert_eq!(retargeted, Pairs::from([(0, 1), (0, 2)]), "fabric {fabric}");
        assert_eq!(built, 7 + 2, "fabric {fabric}");

        let (used, built) = run(&full);
        let fault_only: Pairs = faulted.difference(&used).copied().collect();
        assert_eq!(fault_only, Pairs::from([(0, 3), (2, 0)]), "fabric {fabric}");
        assert_eq!(used.union(&faulted).count(), 11, "fabric {fabric}");
        assert_eq!(built, 11, "fabric {fabric}");
    }
}
