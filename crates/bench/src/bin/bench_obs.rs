//! Overhead of the trace recorder, written as `BENCH_obs.json` and
//! checked by the shared gate (`ts_bench::gate`).
//!
//! Two sections:
//!
//! * **arms** — wall-clock of the event-loop benchmark (same plans and
//!   traces as `bench_sim`, decode coalescing off in *both* arms so the
//!   event stream is fixed) with the recorder detached vs attached, the
//!   traced run including the log's finalization. The committed figure is
//!   the overhead fraction on the full-mode 100k × 64 arm.
//! * **profiler** — the zero-dependency self-profiler scoped around this
//!   benchmark's own stages; its hierarchical report is printed and its
//!   Chrome-trace export is validated.
//!
//! `--quick` runs the 10k × 8 arm only with a lax wall-clock budget, for
//! CI on untrusted machines.

use std::time::Instant;
use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, Request, RoutingMatrix,
    SimDuration, StageSpec,
};
use ts_sim::{SimConfig, Simulation};
use ts_telemetry::profile;
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
    trace_events: usize,
    overhead_fraction: f64,
    ns_per_event: f64,
}

/// One timed run of the arm, through finalizing the trace when the
/// recorder is attached; returns its wall clock and the trace length.
fn time_once(
    cluster: &ts_cluster::Cluster,
    plan: &DeploymentPlan,
    model: &ModelSpec,
    reqs: &[Request],
    traced: bool,
) -> (f64, usize) {
    // Decode coalescing off in both arms: the traced and plain runs then
    // dispatch the identical per-step event stream, so the delta is purely
    // the recorder's per-event cost.
    let cfg = SimConfig::new(model.clone())
        .with_decode_coalescing(false)
        .with_telemetry(traced);
    let mut sim = Simulation::new(cluster, plan, cfg).unwrap();
    let t0 = Instant::now();
    let m = sim.run(reqs).unwrap();
    let events = sim.take_trace().map_or(0, |log| log.len());
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        m.num_completed() + m.num_dropped() + m.num_rejected(),
        reqs.len(),
        "conservation violated"
    );
    (wall, events)
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
    let mut events = 0;
    // Untimed warmup faults in code pages and allocator arenas.
    time_once(&cluster, &plan, &model, &reqs, false);
    for i in 0..PAIRS {
        let _g = profile::scope("measure_pair");
        // Alternate the order within each pair so warmup and slow drift
        // bias neither configuration.
        let traced_first = i % 2 == 0;
        let (w1, e1) = time_once(&cluster, &plan, &model, &reqs, traced_first);
        let (w2, e2) = time_once(&cluster, &plan, &model, &reqs, !traced_first);
        let (off, on) = if traced_first { (w2, w1) } else { (w1, w2) };
        wall_off = wall_off.min(off);
        wall_on = wall_on.min(on);
        events = e1.max(e2);
    }
    assert!(events > 0, "the recorder recorded nothing");
    let overhead = wall_on / wall_off - 1.0;
    Measured {
        requests: arm.requests,
        replicas: arm.replicas,
        wall_off_s: wall_off,
        wall_on_s: wall_on,
        trace_events: events,
        overhead_fraction: overhead,
        ns_per_event: overhead.max(0.0) * wall_off * 1e9 / events as f64,
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
        "trace-recorder overhead ({} arms, best of {PAIRS} alternating paired runs)",
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
            m.trace_events,
            m.ns_per_event
        );
        measured.push(m);
    }

    drop(root);
    let report = profile::report();
    println!("\nself-profile:\n{}", report.to_text());
    let chrome = report.to_chrome_trace();
    let stats = ts_telemetry::validate_chrome_trace(&chrome).expect("valid self-profile trace");
    profile::disable();

    let mut json = String::from("{\n");
    json.push_str(
        "  \"benchmark\": \"trace recorder: event-loop wall-clock with the recorder detached \
         vs attached (decode coalescing off in both arms, fixed event stream), and the \
         zero-dependency self-profiler\",\n",
    );
    json.push_str(&format!(
        "  \"note\": \"wall_*_s are per-configuration minima over alternating off/on pairs; \
         the traced run's wall clock includes finalizing the log. overhead_fraction = \
         min(on)/min(off) - 1. External noise only ever adds time, so the minima estimate \
         true cost. gate::check holds the committed (full-mode) 100k x 64 arm within a {:.0}% \
         budget.\",\n",
        ts_bench::gate::TRACE_OVERHEAD_BUDGET * 100.0
    ));
    json.push_str("  \"arms\": [\n");
    for (i, m) in measured.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"requests\": {}, \"replicas\": {}, \"wall_off_s\": {:.4}, \
             \"wall_on_s\": {:.4}, \"trace_events\": {}, \"overhead_fraction\": {:.4}, \
             \"ns_per_event\": {:.1}}}{}\n",
            m.requests,
            m.replicas,
            m.wall_off_s,
            m.wall_on_s,
            m.trace_events,
            m.overhead_fraction,
            m.ns_per_event,
            if i + 1 == measured.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"profiler\": {{\"root_total_s\": {:.4}, \"entries\": {}, \"chrome_slices\": {}}}\n",
        report.root_total().as_secs_f64(),
        report.entries.len(),
        stats.slices
    ));
    json.push_str("}\n");
    std::fs::write(&out, &json).expect("write json");
    println!("wrote {out}");

    // Quick CI runs get the lax wall-clock budget, full runs the committed
    // one.
    match ts_bench::gate::check("BENCH_obs", &json, !quick) {
        Ok(r) => println!("gate: {} checks held", r.checks),
        Err(e) => {
            eprintln!("gate: {e}");
            std::process::exit(1);
        }
    }
}
