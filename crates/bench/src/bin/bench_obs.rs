//! Overhead and accuracy of the streaming observability plane, written as
//! `BENCH_obs.json` and enforced by the shared gate (`ts_bench::gate`).
//!
//! Three sections:
//!
//! * **arms** — wall-clock of the event-loop benchmark (same plans and
//!   traces as `bench_sim`, decode coalescing off in *both* arms so the
//!   event stream is fixed) with the streaming plane detached vs attached.
//!   The plane's whole job is to be cheap enough to leave on, so the
//!   overhead fraction is the committed figure: ≤5% on the full-mode
//!   100k × 64 arm.
//! * **sketch** — relative error of the plane's online p50/p99 TTFT and
//!   E2E estimates against exact nearest-rank percentiles recomputed from
//!   the post-hoc trace of the same run, which must stay within the
//!   configured sketch accuracy.
//! * **profiler** — the zero-dependency self-profiler scoped around this
//!   benchmark's own stages; its hierarchical report is printed and its
//!   Chrome-trace export is validated.
//!
//! `--quick` runs the 10k × 8 arm only with lax wall-clock budgets, for CI
//! on untrusted machines.

use std::time::Instant;
use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, Request, RoutingMatrix,
    SimDuration, SloSpec, StageSpec,
};
use ts_sim::{SimConfig, Simulation};
use ts_telemetry::{profile, StreamConfig};
use ts_workload::{generator::generate, spec};

/// Timed off/on pairs per arm, run in alternating order so thermal or
/// load drift lands on both configurations equally. The reported overhead
/// compares the per-configuration *minimum* wall times: external noise
/// (scheduler steal, cache eviction by other tenants) only ever adds
/// time, so the minima are the best available estimate of true cost.
const PAIRS: usize = 7;

struct Arm {
    requests: usize,
    replicas: usize,
    rate: f64,
}

const ARMS: &[Arm] = &[
    Arm {
        requests: 10_000,
        replicas: 8,
        rate: 5.0,
    },
    Arm {
        requests: 100_000,
        replicas: 64,
        rate: 40.0,
    },
];

fn slo() -> SloSpec {
    SloSpec::new(
        SimDuration::from_millis(500),
        SimDuration::from_millis(50),
        SimDuration::from_secs(10),
    )
}

/// Same homogeneous paired phase-split shape as `bench_sim`.
fn split_plan(replicas: usize, layers: usize) -> DeploymentPlan {
    let replica = |phase, gpu: u32| {
        GroupSpec::new(
            phase,
            ParallelConfig::new(1, 1).unwrap(),
            vec![StageSpec {
                gpus: vec![GpuId(gpu)],
                layers,
            }],
        )
        .unwrap()
    };
    let half = replicas / 2;
    let mut groups = Vec::with_capacity(replicas);
    for g in 0..half {
        groups.push(replica(Phase::Prefill, g as u32));
    }
    for g in 0..half {
        groups.push(replica(Phase::Decode, (half + g) as u32));
    }
    let mut rates = vec![vec![0.0; half]; half];
    for (p, row) in rates.iter_mut().enumerate() {
        row[p] = 1.0 / half as f64;
    }
    DeploymentPlan::new(groups, RoutingMatrix::new(rates).unwrap()).unwrap()
}

fn trace(arm: &Arm, seed: u64) -> Vec<Request> {
    let horizon = SimDuration::from_secs_f64(1.25 * arm.requests as f64 / arm.rate);
    let mut reqs = generate(&spec::fixed(256, 64, arm.rate), horizon, seed);
    assert!(reqs.len() >= arm.requests, "horizon too short");
    reqs.truncate(arm.requests);
    reqs
}

struct Measured {
    requests: usize,
    replicas: usize,
    wall_off_s: f64,
    wall_on_s: f64,
    events_observed: u64,
    overhead_fraction: f64,
    ns_per_event: f64,
}

/// One timed run of the arm; returns its wall clock and the plane's
/// observed-event count when streaming was attached.
fn time_once(
    cluster: &ts_cluster::Cluster,
    plan: &DeploymentPlan,
    model: &ModelSpec,
    reqs: &[Request],
    streaming: bool,
) -> (f64, u64) {
    // Decode coalescing off in both arms: the observing and plain runs
    // then dispatch the identical per-step event stream, so the delta
    // is purely the plane's per-event cost.
    let mut cfg = SimConfig::new(model.clone()).with_decode_coalescing(false);
    if streaming {
        cfg = cfg.with_streaming(StreamConfig::new(slo()));
    }
    let mut sim = Simulation::new(cluster, plan, cfg).unwrap();
    let t0 = Instant::now();
    let m = sim.run(reqs).unwrap();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        m.num_completed() + m.num_dropped() + m.num_rejected(),
        reqs.len(),
        "conservation violated"
    );
    let observed = sim
        .take_streaming()
        .map_or(0, |p| p.snapshot().events_observed);
    (wall, observed)
}

fn run_arm(arm: &Arm) -> Measured {
    let model = ModelSpec::llama_7b();
    let cluster = presets::a5000_cluster(arm.replicas);
    let plan = split_plan(arm.replicas, model.num_layers);
    let reqs = {
        let _g = profile::scope("generate_trace");
        trace(arm, 0x5151)
    };
    let mut wall_off = f64::INFINITY;
    let mut wall_on = f64::INFINITY;
    let mut observed = 0;
    // Untimed warmup faults in code pages and allocator arenas.
    time_once(&cluster, &plan, &model, &reqs, false);
    for i in 0..PAIRS {
        let _g = profile::scope("measure_pair");
        // Alternate the order within each pair so warmup and slow drift
        // bias neither configuration.
        let streaming_first = i % 2 == 0;
        let (w1, o1) = time_once(&cluster, &plan, &model, &reqs, streaming_first);
        let (w2, o2) = time_once(&cluster, &plan, &model, &reqs, !streaming_first);
        let (off, on) = if streaming_first { (w2, w1) } else { (w1, w2) };
        wall_off = wall_off.min(off);
        wall_on = wall_on.min(on);
        observed = o1.max(o2);
    }
    assert!(observed > 0, "plane observed nothing");
    let overhead = wall_on / wall_off - 1.0;
    Measured {
        requests: arm.requests,
        replicas: arm.replicas,
        wall_off_s: wall_off,
        wall_on_s: wall_on,
        events_observed: observed,
        overhead_fraction: overhead,
        ns_per_event: overhead.max(0.0) * wall_off * 1e9 / observed as f64,
    }
}

struct SketchAccuracy {
    alpha: f64,
    p50_ttft_err_rel: f64,
    p99_ttft_err_rel: f64,
    p50_e2e_err_rel: f64,
    p99_e2e_err_rel: f64,
}

/// Online-vs-exact accuracy on the small arm: the plane's sketch quantiles
/// against nearest-rank percentiles from the same run's trace spans.
fn sketch_accuracy(alpha: f64) -> SketchAccuracy {
    let _g = profile::scope("sketch_accuracy");
    let arm = &ARMS[0];
    let model = ModelSpec::llama_7b();
    let cluster = presets::a5000_cluster(arm.replicas);
    let plan = split_plan(arm.replicas, model.num_layers);
    let reqs = trace(arm, 0x5151);
    let cfg = SimConfig::new(model)
        .with_decode_coalescing(false)
        .with_telemetry(true)
        .with_streaming(StreamConfig::new(slo()).with_sketch_alpha(alpha));
    let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
    sim.run(&reqs).unwrap();
    let log = sim.take_trace().unwrap();
    let snap = sim.take_streaming().unwrap().snapshot();

    // One pass over the raw events (a per-request span scan would be
    // quadratic), mirroring the plane's own insert semantics: first
    // FirstToken per request wins.
    let mut arrivals = std::collections::BTreeMap::new();
    let mut first_seen = std::collections::BTreeSet::new();
    let mut ttfts = Vec::new();
    let mut e2es = Vec::new();
    for e in log.events() {
        match e.kind {
            ts_telemetry::TraceKind::Arrived { request } => {
                arrivals.insert(request, e.at);
            }
            ts_telemetry::TraceKind::FirstToken { request } if first_seen.insert(request) => {
                ttfts.push(e.at.saturating_since(arrivals[&request]));
            }
            ts_telemetry::TraceKind::Finished { request } => {
                e2es.push(e.at.saturating_since(arrivals[&request]));
            }
            _ => {}
        }
    }
    ttfts.sort_unstable();
    e2es.sort_unstable();
    let rel = |sketch: &ts_telemetry::QuantileSketch, exact: &[SimDuration], q: f64| {
        let s = sketch.quantile_duration(q).unwrap().as_secs_f64();
        let e = ts_common::stats::percentile(exact, q)
            .unwrap()
            .as_secs_f64();
        (s - e).abs() / e
    };
    SketchAccuracy {
        alpha,
        p50_ttft_err_rel: rel(&snap.ttft, &ttfts, 0.5),
        p99_ttft_err_rel: rel(&snap.ttft, &ttfts, 0.99),
        p50_e2e_err_rel: rel(&snap.e2e, &e2es, 0.5),
        p99_e2e_err_rel: rel(&snap.e2e, &e2es, 0.99),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_obs.json".into());

    profile::reset();
    profile::enable();
    let root = profile::scope("bench_obs");

    let arms: Vec<&Arm> = if quick {
        ARMS.iter().take(1).collect()
    } else {
        ARMS.iter().collect()
    };
    println!(
        "streaming-plane overhead ({} arms, best of {PAIRS} alternating paired runs)",
        arms.len()
    );
    println!(
        "{:>10} {:>9} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "requests", "replicas", "off (s)", "on (s)", "overhead", "events", "ns/event"
    );
    let mut measured = Vec::new();
    for arm in arms {
        let m = run_arm(arm);
        println!(
            "{:>10} {:>9} {:>12.4} {:>12.4} {:>9.2}% {:>12} {:>10.1}",
            m.requests,
            m.replicas,
            m.wall_off_s,
            m.wall_on_s,
            m.overhead_fraction * 100.0,
            m.events_observed,
            m.ns_per_event
        );
        measured.push(m);
    }

    let acc = sketch_accuracy(0.01);
    println!(
        "sketch accuracy (alpha {}): ttft p50 {:.5} p99 {:.5}, e2e p50 {:.5} p99 {:.5}",
        acc.alpha,
        acc.p50_ttft_err_rel,
        acc.p99_ttft_err_rel,
        acc.p50_e2e_err_rel,
        acc.p99_e2e_err_rel
    );

    drop(root);
    let report = profile::report();
    println!("\nself-profile:\n{}", report.to_text());
    let chrome = report.to_chrome_trace();
    let stats = ts_telemetry::validate_chrome_trace(&chrome).expect("valid self-profile trace");
    profile::disable();

    let mut json = String::from("{\n");
    json.push_str(
        "  \"benchmark\": \"streaming observability plane: event-loop wall-clock with the \
         plane detached vs attached (decode coalescing off in both arms, fixed event stream), \
         online sketch accuracy vs post-hoc exact percentiles, and the zero-dependency \
         self-profiler\",\n",
    );
    json.push_str(
        "  \"note\": \"wall_*_s are per-configuration minima over alternating off/on pairs; \
         overhead_fraction = min(on)/min(off) - 1. External noise only ever adds time, so \
         the minima estimate true cost. The committed (full-mode) 100k x 64 arm must stay \
         within the 5% budget enforced by gate::check. Sketch errors are deterministic \
         (simulated time) and must stay within the configured relative accuracy.\",\n",
    );
    json.push_str("  \"arms\": [\n");
    for (i, m) in measured.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"requests\": {}, \"replicas\": {}, \"wall_off_s\": {:.4}, \
             \"wall_on_s\": {:.4}, \"events_observed\": {}, \"overhead_fraction\": {:.4}, \
             \"ns_per_event\": {:.1}}}{}\n",
            m.requests,
            m.replicas,
            m.wall_off_s,
            m.wall_on_s,
            m.events_observed,
            m.overhead_fraction,
            m.ns_per_event,
            if i + 1 == measured.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"sketch\": {{\"alpha\": {}, \"p50_ttft_err_rel\": {:.6}, \
         \"p99_ttft_err_rel\": {:.6}, \"p50_e2e_err_rel\": {:.6}, \
         \"p99_e2e_err_rel\": {:.6}}},\n",
        acc.alpha,
        acc.p50_ttft_err_rel,
        acc.p99_ttft_err_rel,
        acc.p50_e2e_err_rel,
        acc.p99_e2e_err_rel
    ));
    json.push_str(&format!(
        "  \"profiler\": {{\"root_total_s\": {:.4}, \"entries\": {}, \"chrome_slices\": {}}}\n",
        report.root_total().as_secs_f64(),
        report.entries.len(),
        stats.slices
    ));
    json.push_str("}\n");
    std::fs::write(&out, &json).expect("write json");
    println!("wrote {out}");

    // The shared gate replaces the ad-hoc floor asserts: quick CI runs get
    // the lax wall-clock budget, full runs the committed 5% budget.
    match ts_bench::gate::check("BENCH_obs", &json, !quick) {
        Ok(r) => println!("gate: {} checks held", r.checks),
        Err(e) => {
            eprintln!("gate: {e}");
            std::process::exit(1);
        }
    }
}
