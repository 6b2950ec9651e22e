//! Acceptance: sketch-derived p50/p99 TTFT and E2E from the streaming plane
//! agree with exact post-hoc `TraceLog` percentiles within the configured
//! relative-error bound, on the fig8–11 experiment scenarios (cloud
//! phase-split, in-house DistServe split, colocated vLLM, and the failure
//! regime).

use ts_baselines::{DistServePlanner, VllmPlanner};
use ts_bench::harness;
use ts_cluster::presets;
use ts_common::{ModelSpec, RequestId, SimDuration, SimTime, SloSpec};
use ts_sim::engine::Simulation;
use ts_sim::{FaultKind, FaultScript, SimConfig, TimedFault};
use ts_telemetry::{StreamConfig, StreamSnapshot, TraceKind, TraceLog};
use ts_workload::spec;

const ALPHA: f64 = 0.01;

fn stream_cfg(slo: SloSpec) -> StreamConfig {
    StreamConfig::new(slo).with_sketch_alpha(ALPHA)
}

/// Exact TTFT/E2E populations rebuilt from raw trace events, using the same
/// attribution the plane applies online (first `FirstToken` per request).
fn exact_populations(log: &TraceLog) -> (Vec<SimDuration>, Vec<SimDuration>) {
    use std::collections::BTreeMap;
    let mut arrived: BTreeMap<RequestId, SimTime> = BTreeMap::new();
    let mut ttfts = Vec::new();
    let mut e2es = Vec::new();
    for e in log.events() {
        match e.kind {
            TraceKind::Arrived { request } => {
                arrived.insert(request, e.at);
            }
            TraceKind::FirstToken { request } => {
                if let Some(&at) = arrived.get(&request) {
                    ttfts.push(e.at.saturating_since(at));
                }
            }
            TraceKind::Finished { request } => {
                if let Some(&at) = arrived.get(&request) {
                    e2es.push(e.at.saturating_since(at));
                }
            }
            _ => {}
        }
    }
    ttfts.sort_unstable();
    e2es.sort_unstable();
    (ttfts, e2es)
}

fn assert_scenario_accuracy(name: &str, snap: &StreamSnapshot, log: &TraceLog) {
    let (ttfts, e2es) = exact_populations(log);
    assert!(
        ttfts.len() > 50,
        "{name}: too few completions to judge tails"
    );
    assert_eq!(snap.ttft.count() as usize, ttfts.len(), "{name}: ttft pop");
    assert_eq!(snap.e2e.count() as usize, e2es.len(), "{name}: e2e pop");
    for &q in &[0.5, 0.99] {
        for (what, sketch, exact) in [("TTFT", &snap.ttft, &ttfts), ("E2E", &snap.e2e, &e2es)] {
            let s = sketch.quantile_duration(q).unwrap().as_secs_f64();
            let e = ts_common::stats::percentile(exact, q)
                .unwrap()
                .as_secs_f64();
            let bound = ALPHA * e + 2e-6;
            assert!(
                (s - e).abs() <= bound,
                "{name} {what} q={q}: sketch {s} vs exact {e} exceeds {bound}"
            );
        }
    }
}

#[test]
fn fig8_cloud_phase_split_sketches_match_exact() {
    let cluster = presets::paper_cloud_cluster();
    let model = ModelSpec::llama_30b();
    let workload = spec::coding(2.5);
    let slo = harness::base_slo_30b().scaled(8.0);
    let plan = harness::thunderserve_plan(&cluster, &model, &workload, &slo, 17, true).unwrap();
    let cfg = SimConfig::new(model)
        .with_telemetry(true)
        .with_streaming(stream_cfg(slo));
    let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
    sim.run(&harness::trace(&workload, true, 17)).unwrap();
    let log = sim.take_trace().unwrap();
    let snap = sim.take_streaming().unwrap().snapshot();
    assert_scenario_accuracy("fig8-cloud", &snap, &log);
}

#[test]
fn fig9_inhouse_distserve_sketches_match_exact() {
    let cluster = presets::paper_inhouse_cluster();
    let model = ModelSpec::llama_30b();
    let workload = spec::conversation(2.5);
    let slo = harness::base_slo_30b().scaled(8.0);
    let plan = DistServePlanner::new()
        .plan(&cluster, &model, &workload, &slo)
        .unwrap();
    let cfg = SimConfig::new(model)
        .with_f16_kv()
        .with_telemetry(true)
        .with_streaming(stream_cfg(slo));
    let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
    sim.run(&harness::trace(&workload, true, 17)).unwrap();
    let log = sim.take_trace().unwrap();
    let snap = sim.take_streaming().unwrap().snapshot();
    assert_scenario_accuracy("fig9-inhouse", &snap, &log);
}

#[test]
fn fig10_colocated_vllm_sketches_match_exact() {
    let cluster = presets::paper_inhouse_cluster();
    let model = ModelSpec::llama_30b();
    let workload = spec::coding(2.5);
    let slo = harness::base_slo_30b().scaled(8.0);
    let groups = VllmPlanner::new().plan(&cluster, &model).unwrap();
    let cfg = SimConfig::new(model)
        .with_telemetry(true)
        .with_streaming(stream_cfg(slo));
    let mut sim = Simulation::colocated(&cluster, &groups, cfg).unwrap();
    sim.run(&harness::trace(&workload, true, 17)).unwrap();
    let log = sim.take_trace().unwrap();
    let snap = sim.take_streaming().unwrap().snapshot();
    assert_scenario_accuracy("fig10-colocated", &snap, &log);
}

#[test]
fn fig11_failure_regime_sketches_match_exact() {
    let cluster = presets::paper_cloud_cluster();
    let model = ModelSpec::llama_30b();
    let workload = spec::coding(2.5);
    let slo = harness::base_slo_30b().scaled(8.0);
    let plan = harness::thunderserve_plan(&cluster, &model, &workload, &slo, 17, true).unwrap();
    let cfg = SimConfig::new(model)
        .with_telemetry(true)
        .with_streaming(stream_cfg(slo));
    // A mid-run prefill straggler pushes the run into the fig11 degraded
    // regime; the online sketches must stay accurate through it.
    let script = FaultScript::new(
        vec![TimedFault {
            at: SimTime::from_secs_f64(15.0),
            kind: FaultKind::PrefillSlow(0, 8.0),
        }],
        SimDuration::from_millis(500),
    );
    let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
    sim.run_with_faults(&harness::trace(&workload, true, 17), &script)
        .unwrap();
    let log = sim.take_trace().unwrap();
    let snap = sim.take_streaming().unwrap().snapshot();
    assert_scenario_accuracy("fig11-failure", &snap, &log);
}
