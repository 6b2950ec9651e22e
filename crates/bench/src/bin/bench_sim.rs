//! Raw event-loop throughput of the simulator on request-count × replica
//! grids, written as `BENCH_sim.json`.
//!
//! Each arm builds a homogeneous A5000 phase-split deployment (half prefill,
//! half decode, tp=1 per replica), generates a fixed-size Poisson trace and
//! times one full `Simulation::run`. Workload generation and plan
//! construction are excluded from the timing.
//!
//! `--quick` runs the small arms only and asserts the committed floor, for
//! CI. The full run (no flag) includes the 1M-request × 1k-replica day-trace
//! arm and asserts the ≥5x events/sec win on the 100k × 64 arm over the
//! pre-refactor loop (both numbers are recorded in the JSON).

use std::time::Instant;
use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, Request, RoutingMatrix,
    SimDuration, StageSpec,
};
use ts_sim::{SimConfig, Simulation};
use ts_workload::{generator::generate, spec};

/// Pre-refactor loop (BinaryHeap + HashMap state + per-step decode events),
/// measured on this machine immediately before the slab/indexed-queue/
/// coalescing rewrite landed, same arms, same traces. The 1M × 1k arm is the
/// pre-PR loop's number for reference only; the quick floor below derives
/// from the 10k arm.
struct Baseline {
    requests: usize,
    replicas: usize,
    wall_clock_s: f64,
    /// Events the pre-refactor loop processed on this arm. The old loop had
    /// no counter; this is the event count of the bit-identical compat path
    /// (coalescing disabled, arrivals counted), which dispatches exactly the
    /// same event sequence.
    events: u64,
    requests_per_sec: f64,
}

impl Baseline {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_clock_s
    }
}

const BASELINE: &[Baseline] = &[
    Baseline {
        requests: 10_000,
        replicas: 8,
        wall_clock_s: 0.1294,
        events: 341_108,
        requests_per_sec: 77_260.6,
    },
    Baseline {
        requests: 100_000,
        replicas: 64,
        wall_clock_s: 0.8824,
        events: 3_414_259,
        requests_per_sec: 113_322.4,
    },
    Baseline {
        requests: 1_000_000,
        replicas: 1024,
        wall_clock_s: 18.1879,
        events: 34_174_641,
        requests_per_sec: 54_981.5,
    },
];

struct Arm {
    requests: usize,
    replicas: usize,
    rate: f64,
}

/// ~1.25 requests/s per decode replica: a lightly loaded day-trace shape
/// (thin decode batches), the regime the ROADMAP's autoscaling sweeps live
/// in.
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
    Arm {
        requests: 1_000_000,
        replicas: 1024,
        rate: 640.0,
    },
];

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
    // Paired routing (prefill i feeds decode i), as the KV-transfer-aware
    // orchestration produces at scale. Every arm keeps this shape so its
    // numbers stay comparable with the committed `BENCH_sim.json`.
    let mut rates = vec![vec![0.0; half]; half];
    for (p, row) in rates.iter_mut().enumerate() {
        row[p] = 1.0 / half as f64;
    }
    DeploymentPlan::new(groups, RoutingMatrix::new(rates).unwrap()).unwrap()
}

fn trace(arm: &Arm, seed: u64) -> Vec<Request> {
    // Over-generate slightly, then truncate to the exact request count so
    // the arm sizes in the JSON are stable across seeds.
    let horizon = SimDuration::from_secs_f64(1.25 * arm.requests as f64 / arm.rate);
    let mut reqs = generate(&spec::fixed(256, 64, arm.rate), horizon, seed);
    assert!(
        reqs.len() >= arm.requests,
        "horizon too short: {} < {}",
        reqs.len(),
        arm.requests
    );
    reqs.truncate(arm.requests);
    reqs
}

struct Measured {
    requests: usize,
    replicas: usize,
    wall_clock_s: f64,
    events_processed: u64,
    events_per_sec: f64,
    requests_per_sec: f64,
}

fn run_arm(arm: &Arm, compat: bool) -> Measured {
    let model = ModelSpec::llama_7b();
    let cluster = presets::a5000_cluster(arm.replicas);
    let plan = split_plan(arm.replicas, model.num_layers);
    let reqs = trace(arm, 0x5151);
    let cfg = SimConfig::new(model).with_decode_coalescing(!compat);
    let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
    let t0 = Instant::now();
    let m = sim.run(&reqs).unwrap();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        m.num_completed() + m.num_dropped() + m.num_rejected(),
        reqs.len(),
        "conservation violated on {}x{}",
        arm.requests,
        arm.replicas
    );
    assert_eq!(m.num_rejected(), 0, "arm must not shed load");
    let events = sim.events_processed();
    Measured {
        requests: arm.requests,
        replicas: arm.replicas,
        wall_clock_s: wall,
        events_processed: events,
        events_per_sec: events as f64 / wall,
        requests_per_sec: reqs.len() as f64 / wall,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // Diagnostic mode: run the bit-identical per-step compatibility path
    // (decode coalescing off). Its event counts are what the pre-refactor
    // loop dispatched; the BASELINE table's `events` fields come from here.
    let compat = args.iter().any(|a| a == "--compat");
    let out = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".into());

    let arms: Vec<&Arm> = if quick {
        ARMS.iter().take(2).collect()
    } else {
        ARMS.iter().collect()
    };

    println!(
        "simulator event-loop throughput ({} arms{})",
        arms.len(),
        if compat { ", compat path" } else { "" }
    );
    println!(
        "{:>10} {:>9} {:>12} {:>12} {:>14} {:>12}",
        "requests", "replicas", "wall (s)", "events", "events/s", "reqs/s"
    );
    let mut measured = Vec::new();
    for arm in arms {
        let m = run_arm(arm, compat);
        println!(
            "{:>10} {:>9} {:>12.3} {:>12} {:>14.0} {:>12.0}",
            m.requests,
            m.replicas,
            m.wall_clock_s,
            m.events_processed,
            m.events_per_sec,
            m.requests_per_sec
        );
        measured.push(m);
    }

    let mut json = String::from("{\n  \"arms\": [\n");
    for (i, m) in measured.iter().enumerate() {
        let base = BASELINE
            .iter()
            .find(|b| b.requests == m.requests && b.replicas == m.replicas);
        json.push_str(&format!(
            "    {{\"requests\": {}, \"replicas\": {}, \"wall_clock_s\": {:.4}, \
             \"events_processed\": {}, \"events_per_sec\": {:.0}, \"requests_per_sec\": {:.1}",
            m.requests,
            m.replicas,
            m.wall_clock_s,
            m.events_processed,
            m.events_per_sec,
            m.requests_per_sec
        ));
        if let Some(b) = base {
            // Coalescing dispatches far fewer events for the same simulated
            // work, so the honest throughput figure is *pre-refactor event
            // equivalents* retired per second: the old loop's event count
            // for this arm over the new wall time.
            let equivalent_eps = b.events as f64 / m.wall_clock_s;
            json.push_str(&format!(
                ", \"baseline_wall_clock_s\": {:.4}, \"baseline_events\": {}, \
                 \"baseline_events_per_sec\": {:.0}, \"baseline_requests_per_sec\": {:.1}, \
                 \"equivalent_events_per_sec\": {:.0}, \"speedup_events_per_sec\": {:.2}",
                b.wall_clock_s,
                b.events,
                b.events_per_sec(),
                b.requests_per_sec,
                equivalent_eps,
                equivalent_eps / b.events_per_sec()
            ));
        }
        json.push_str(if i + 1 == measured.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write json");
    println!("wrote {out}");

    if compat {
        return; // diagnostic run: no floors apply to the per-step path
    }
    // The speedup floors (parity everywhere; 5x on the full-mode 100k arm)
    // live in the shared gate so CI enforces the same thresholds on the
    // committed artifact.
    match ts_bench::gate::check("BENCH_sim", &json, !quick) {
        Ok(r) => println!("gate: {} checks held", r.checks),
        Err(e) => {
            eprintln!("gate: {e}");
            std::process::exit(1);
        }
    }
}
