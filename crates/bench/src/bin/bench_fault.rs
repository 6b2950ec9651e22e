//! Records gray-failure mitigation numbers to `BENCH_fault.json`, seeding
//! the repo's robustness perf trajectory.
//!
//! Straggler sweep on the Appendix-H two-instance testbed (two tp=2 LLaMA-13B
//! prefill replicas feeding two tp=2 decode replicas): one replica runs
//! `factor`× slow from t=5s, with the mitigation layer (hedged re-dispatch +
//! straggler quarantine) off vs on. Sweeps the slowed role × slowdown factor
//! and records p99 TTFT, p99 E2E, SLO-shed rate and the mitigation counters
//! per arm. Everything is simulated time — results are bit-reproducible, no
//! wall-clock noise.
//!
//! A prefill straggler delays first tokens, so hedging must cut p99 TTFT; a
//! decode straggler delays token streams, so quarantine must cut p99 E2E.
//! Both properties are checked before the JSON is written. CI runs the
//! sweep and `cmp`s its output with the committed artifact, so any change
//! to a simulated figure fails the build; the checks decide whether a
//! deliberate re-record is acceptable.
//!
//! Usage: `cargo run --release -p ts-bench --bin bench_fault [out.json]`

use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, RoutingMatrix, SimDuration,
    SimTime, SloKind, StageSpec,
};
use ts_sim::config::{Hedge, Quarantine, SimConfig};
use ts_sim::engine::Simulation;
use ts_sim::fault::{FaultKind, FaultScript, TimedFault};
use ts_workload::{generator::generate, spec};

const FACTORS: [f64; 3] = [2.0, 4.0, 8.0];

struct Arm {
    role: &'static str,
    factor: f64,
    mitigated: bool,
    p99_ttft_s: f64,
    p99_e2e_s: f64,
    shed_rate: f64,
    hedges: usize,
    quarantines: usize,
}

fn testbed() -> (ts_cluster::Cluster, DeploymentPlan, SimConfig) {
    let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
    let model = ModelSpec::llama_13b();
    let group = |phase, ids: &[u32]| {
        GroupSpec::new(
            phase,
            ParallelConfig::new(2, 1).unwrap(),
            vec![StageSpec {
                gpus: ids.iter().map(|&i| GpuId(i)).collect(),
                layers: model.num_layers,
            }],
        )
        .unwrap()
    };
    let plan = DeploymentPlan::new(
        vec![
            group(Phase::Prefill, &[0, 1]),
            group(Phase::Prefill, &[2, 3]),
            group(Phase::Decode, &[4, 5]),
            group(Phase::Decode, &[6, 7]),
        ],
        RoutingMatrix::uniform(2, 2),
    )
    .unwrap();
    (cluster, plan, SimConfig::new(model))
}

fn measure(role: &'static str, factor: f64, mitigated: bool) -> Arm {
    let (cluster, plan, cfg) = testbed();
    let cfg = if mitigated {
        cfg.with_hedge(Hedge::after(SimDuration::from_millis(400)))
            .with_quarantine(Quarantine {
                threshold: 1.5,
                readmit_after: SimDuration::from_secs(60),
            })
    } else {
        cfg
    };
    let horizon = SimDuration::from_secs(120);
    let reqs = generate(&spec::coding(1.5), horizon, 7);
    let kind = match role {
        "prefill" => FaultKind::PrefillSlow(0, factor),
        _ => FaultKind::DecodeSlow(0, factor),
    };
    let script = FaultScript::new(
        vec![TimedFault {
            at: SimTime::from_secs_f64(5.0),
            kind,
        }],
        SimDuration::from_millis(500),
    );
    let m = Simulation::new(&cluster, &plan, cfg)
        .expect("testbed plan must be feasible")
        .run_with_faults(&reqs, &script)
        .expect("fault run must succeed");
    assert_eq!(
        m.num_completed() + m.num_dropped() + m.num_rejected(),
        reqs.len(),
        "conservation must hold in every arm"
    );
    Arm {
        role,
        factor,
        mitigated,
        p99_ttft_s: m
            .latency_percentile(SloKind::Ttft, 0.99)
            .expect("completions exist")
            .as_secs_f64(),
        p99_e2e_s: m
            .latency_percentile(SloKind::E2e, 0.99)
            .expect("completions exist")
            .as_secs_f64(),
        shed_rate: (m.num_dropped() + m.num_rejected()) as f64 / reqs.len() as f64,
        hedges: m.recovery().hedges_launched,
        quarantines: m.recovery().quarantines,
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fault.json".to_string());

    let mut arms = Vec::new();
    for role in ["prefill", "decode"] {
        for factor in FACTORS {
            for mitigated in [false, true] {
                let arm = measure(role, factor, mitigated);
                println!(
                    "{:>7} straggler {factor:>3}x  mitigation {}  p99 TTFT {:>8.3}s  p99 E2E {:>8.3}s  shed {:>5.3}  hedges {:>3}  quarantines {:>2}",
                    arm.role,
                    if arm.mitigated { " on" } else { "off" },
                    arm.p99_ttft_s,
                    arm.p99_e2e_s,
                    arm.shed_rate,
                    arm.hedges,
                    arm.quarantines,
                );
                arms.push(arm);
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"gray-failure straggler sweep: one replica runs factor-x slow from t=5s on the Appendix-H testbed (2x tp2 prefill -> 2x tp2 decode, LLaMA-13B, coding workload at 1.5 req/s)\",\n");
    json.push_str("  \"note\": \"simulated time (deterministic, no wall-clock). Mitigation = hedged re-dispatch (400ms timeout) + straggler quarantine (EWMA threshold 1.5). A prefill straggler inflates p99 TTFT, which hedging recovers; a decode straggler inflates p99 E2E, which quarantine recovers. shed_rate counts dropped + rejected over submitted.\",\n");
    json.push_str("  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"role\": \"{}\", \"slowdown\": {}, \"mitigated\": {}, \"p99_ttft_s\": {:.6}, \"p99_e2e_s\": {:.6}, \"shed_rate\": {:.6}, \"hedges\": {}, \"quarantines\": {}}}{}\n",
            a.role,
            a.factor,
            a.mitigated,
            a.p99_ttft_s,
            a.p99_e2e_s,
            a.shed_rate,
            a.hedges,
            a.quarantines,
            if i + 1 == arms.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    // The qualitative properties the mitigation layer exists for — per-factor
    // tail recovery with the mechanism actually firing — live in the shared
    // gate, which also checks the committed artifact.
    match ts_bench::gate::check("BENCH_fault", &json, true) {
        Ok(r) => println!("gate: {} checks held", r.checks),
        Err(e) => {
            eprintln!("gate: {e}");
            std::process::exit(1);
        }
    }
    std::fs::write(&out, json).expect("write benchmark output");
    println!("wrote {out}");
}
