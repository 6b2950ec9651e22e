//! Records scheduler wall-clock and evaluation-throughput numbers to
//! `BENCH_scheduler.json`, seeding the repo's scheduler perf trajectory.
//!
//! Runs the full two-level `schedule` on three clusters (8/16/32 GPUs)
//! across a sweep of `num_threads` settings. Results are bit-identical
//! across thread counts ([`ts_bench::gate::check`] fails the run otherwise),
//! so the table isolates the wall-clock effect of parallel neighbourhood
//! evaluation.
//!
//! Usage: `cargo run --release -p ts-bench --bin bench_scheduler [out.json]`

use std::time::Instant;
use thunderserve_core::{Scheduler, SchedulerConfig};
use ts_cluster::presets;
use ts_common::{ModelSpec, SimDuration, SloSpec};
use ts_workload::spec;

const ITERATIONS: usize = 5;
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn slo() -> SloSpec {
    SloSpec::new(
        SimDuration::from_millis(400 * 8),
        SimDuration::from_millis(30 * 8),
        SimDuration::from_secs(48),
    )
}

struct Arm {
    gpus: usize,
    threads: usize,
    /// Median wall-clock seconds over [`ITERATIONS`] runs.
    median_s: f64,
    /// Minimum wall-clock seconds (least-noise estimate).
    min_s: f64,
    /// Lower-level evaluations per run (thread-count invariant).
    evaluations: usize,
    /// Evaluations per second at the median wall-clock.
    evals_per_s: f64,
    score: f64,
}

fn measure(gpus: usize, threads: usize) -> Arm {
    let cluster = match gpus {
        8 => presets::network_case_cluster(presets::ETH_40GBPS),
        16 => presets::a5000_cluster(16),
        32 => presets::paper_cloud_cluster(),
        _ => unreachable!("unknown cluster size"),
    };
    let model = if gpus == 16 {
        ModelSpec::llama_13b()
    } else {
        ModelSpec::llama_30b()
    };
    let w = spec::coding(2.0);
    let s = slo();
    // Paper-scale search depth (N_step = 100, N_nghb = 10): per-step batches
    // are large enough that worker overhead amortizes, matching how the
    // scheduler actually runs after a node failure.
    let mut cfg = SchedulerConfig::default();
    cfg.seed = 1;
    cfg.num_threads = threads;
    let sched = Scheduler::new(cfg);

    // Warmup (also primes allocator and page cache).
    let reference = sched.schedule(&cluster, &model, &w, &s).unwrap();
    let mut times = Vec::with_capacity(ITERATIONS);
    for _ in 0..ITERATIONS {
        let t = Instant::now();
        let r = sched.schedule(&cluster, &model, &w, &s).unwrap();
        times.push(t.elapsed().as_secs_f64());
        assert_eq!(
            r.plan, reference.plan,
            "non-deterministic schedule at {gpus} GPUs, {threads} threads"
        );
        assert_eq!(r.evaluations, reference.evaluations);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let median_s = times[times.len() / 2];
    Arm {
        gpus,
        threads,
        median_s,
        min_s: times[0],
        evaluations: reference.evaluations,
        evals_per_s: reference.evaluations as f64 / median_s,
        score: reference.estimated_attainment,
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scheduler.json".to_string());
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut arms = Vec::new();
    for gpus in [8usize, 16, 32] {
        for threads in THREAD_SWEEP {
            let arm = measure(gpus, threads);
            println!(
                "schedule {:>2} GPUs  {} thr  median {:>8.4}s  min {:>8.4}s  {:>5} evals  {:>8.1} evals/s",
                arm.gpus, arm.threads, arm.median_s, arm.min_s, arm.evaluations, arm.evals_per_s
            );
            arms.push(arm);
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"two-level scheduler: full schedule, SchedulerConfig::default() (N_step=100, N_nghb=10), seed 1\",\n");
    json.push_str("  \"note\": \"results are bit-identical across thread counts; arms differ in wall-clock only. Thread arms > host_available_parallelism cannot speed up and only measure worker overhead.\",\n");
    json.push_str(&format!(
        "  \"host_available_parallelism\": {host_threads},\n"
    ));
    json.push_str(&format!("  \"iterations_per_arm\": {ITERATIONS},\n"));
    json.push_str("  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"gpus\": {}, \"threads\": {}, \"median_s\": {:.6}, \"min_s\": {:.6}, \"evaluations\": {}, \"evals_per_s\": {:.2}, \"score\": {:.6}}}{}\n",
            a.gpus,
            a.threads,
            a.median_s,
            a.min_s,
            a.evaluations,
            a.evals_per_s,
            a.score,
            if i + 1 == arms.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    // Every thread arm at one GPU count must report the same evaluations
    // and score; the shared gate also checks the committed artifact.
    match ts_bench::gate::check("BENCH_scheduler", &json, true) {
        Ok(r) => println!("gate: {} checks held", r.checks),
        Err(e) => {
            eprintln!("gate: {e}");
            std::process::exit(1);
        }
    }
    std::fs::write(&out, json).expect("write benchmark output");
    println!("wrote {out}");
}
