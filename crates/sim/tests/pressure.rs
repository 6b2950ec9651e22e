//! Differential tests for the online pressure tally.
//!
//! [`PressureTally`] integrates each replica's queue depth and batch
//! occupancy as the engine emits them; the trace log derives the same step
//! functions afterwards from its recorded, time-sorted events. Both must
//! give every replica the same time-weighted mean and peak, bit for bit —
//! and a tally-only run, which keeps no events, must give the same numbers
//! and the same `Metrics` as a run with the full recorder attached.

use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, Phase, Request, RoutingMatrix, SimDuration,
    SimTime,
};
use ts_sim::{
    FaultKind, FaultScript, Hedge, Metrics, Quarantine, SimConfig, Simulation, TimedFault,
};
use ts_telemetry::{PressureTally, TraceLog, TraceSeries};
use ts_workload::{generator::generate, spec};

fn tp1_group(phase: Phase, gpu: u32, layers: usize) -> GroupSpec {
    GroupSpec::single_stage(phase, vec![GpuId(gpu)], layers).unwrap()
}

/// 8×A5000: four tp=1 prefill replicas feeding four tp=1 decode replicas.
fn split_plan() -> (ts_cluster::Cluster, DeploymentPlan) {
    let layers = ModelSpec::llama_7b().num_layers;
    let groups = (0..4)
        .map(|g| tp1_group(Phase::Prefill, g, layers))
        .chain((0..4).map(|g| tp1_group(Phase::Decode, 4 + g, layers)))
        .collect();
    let plan = DeploymentPlan::new(groups, RoutingMatrix::uniform(4, 4)).unwrap();
    (presets::a5000_cluster(8), plan)
}

fn requests(rate: f64, seed: u64) -> Vec<Request> {
    generate(&spec::conversation(rate), SimDuration::from_secs(20), seed)
}

fn crash_script() -> FaultScript {
    let at = SimTime::from_secs_f64;
    FaultScript::new(
        vec![
            TimedFault {
                at: at(3.0),
                kind: FaultKind::PrefillDown(1),
            },
            TimedFault {
                at: at(5.0),
                kind: FaultKind::DecodeDown(2),
            },
            TimedFault {
                at: at(9.0),
                kind: FaultKind::PrefillUp(1),
            },
            TimedFault {
                at: at(12.0),
                kind: FaultKind::Pause { until: at(13.0) },
            },
        ],
        SimDuration::from_millis(50),
    )
}

/// Prefill 0 turns into a deep straggler: hedges fire and straggler
/// quarantine takes it out of routing.
fn straggler_script() -> FaultScript {
    FaultScript::new(
        vec![TimedFault {
            at: SimTime::from_secs_f64(2.0),
            kind: FaultKind::PrefillSlow(0, 40.0),
        }],
        SimDuration::from_millis(100),
    )
}

/// One run's outputs: metrics, the tally and, when recorded, the log.
struct Run {
    metrics: Metrics,
    tally: PressureTally,
    log: Option<TraceLog>,
}

impl Run {
    fn end(&self) -> SimTime {
        SimTime::ZERO + self.metrics.horizon()
    }
}

fn run_split(cfg: SimConfig, reqs: &[Request], script: &FaultScript) -> Run {
    let (cluster, plan) = split_plan();
    let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
    let metrics = sim.run_with_faults(reqs, script).unwrap();
    Run {
        metrics,
        tally: sim.take_pressure().expect("the tally was on"),
        log: sim.take_trace(),
    }
}

fn run_colocated(cfg: SimConfig, reqs: &[Request], script: &FaultScript) -> Run {
    let layers = cfg.model.num_layers;
    let groups: Vec<GroupSpec> = (0..4)
        .map(|g| tp1_group(Phase::Prefill, g, layers))
        .collect();
    let cluster = presets::a5000_cluster(4);
    let mut sim = Simulation::colocated(&cluster, &groups, cfg).unwrap();
    let metrics = sim.run_with_faults(reqs, script).unwrap();
    Run {
        metrics,
        tally: sim.take_pressure().expect("the tally was on"),
        log: sim.take_trace(),
    }
}

/// Every replica's mean and peak of both signals, as bits, in the tally's
/// replica order.
fn tally_bits(tally: &PressureTally, end: SimTime) -> Vec<[u64; 4]> {
    tally
        .replicas()
        .into_iter()
        .map(|(role, i)| {
            let p = tally.replica(role, i).expect("listed replica");
            [
                p.queue_depth.time_weighted_mean(end).to_bits(),
                p.queue_depth.peak().to_bits(),
                p.batch_occupancy.time_weighted_mean(end).to_bits(),
                p.batch_occupancy.peak().to_bits(),
            ]
        })
        .collect()
}

/// The same numbers from the recorded log's series.
fn log_bits(series: &TraceSeries, end: SimTime) -> Vec<[u64; 4]> {
    series
        .replicas
        .values()
        .map(|r| {
            let (q, b) = (r.queue_depth.step(), r.batch_occupancy.step());
            [
                q.time_weighted_mean(end).to_bits(),
                q.peak().to_bits(),
                b.time_weighted_mean(end).to_bits(),
                b.peak().to_bits(),
            ]
        })
        .collect()
}

/// Runs `run` twice — recorder and tally together, then the tally alone —
/// and checks the tally against the log and the two runs against each
/// other. Returns the traced run for scenario-specific checks.
fn check(what: &str, run: impl Fn(SimConfig) -> Run, cfg: SimConfig) -> Run {
    let traced = run(cfg.clone().with_telemetry(true).with_pressure(true));
    let alone = run(cfg.with_pressure(true));
    let log = traced.log.as_ref().expect("the recorder was on");
    let end = traced.end();
    assert!(
        traced.tally.replicas().len() > 1,
        "{what}: the scenario must load several replicas"
    );
    let series = log.series();
    let replicas: Vec<_> = series.replicas.keys().copied().collect();
    assert_eq!(traced.tally.replicas(), replicas, "{what}: replicas");
    let bits = tally_bits(&traced.tally, end);
    let sampled = |k: usize| bits.iter().any(|b| f64::from_bits(b[k]) > 1.0);
    assert!(
        sampled(1) && sampled(3),
        "{what}: queues and batches must build past one"
    );
    assert_eq!(
        bits,
        log_bits(&series, end),
        "{what}: the tally must equal the log's series"
    );
    assert_eq!(alone.metrics, traced.metrics, "{what}: metrics");
    assert!(alone.log.is_none());
    assert_eq!(alone.tally.replicas(), traced.tally.replicas(), "{what}");
    assert_eq!(
        tally_bits(&alone.tally, end),
        tally_bits(&traced.tally, end),
        "{what}: a tally-only run must match the traced run"
    );
    traced
}

#[test]
fn split_engine_tally_matches_the_log() {
    let model = ModelSpec::llama_7b;
    let reqs = requests(6.0, 3);
    for coalescing in [true, false] {
        let cfg = SimConfig::new(model()).with_decode_coalescing(coalescing);
        let none = FaultScript::none();
        check(
            &format!("split, coalescing {coalescing}"),
            |c| run_split(c, &reqs, &none),
            cfg.clone(),
        );
        check(
            &format!("split crash, coalescing {coalescing}"),
            |c| run_split(c, &reqs, &crash_script()),
            cfg,
        );
    }
}

#[test]
fn straggler_with_hedging_tally_matches_the_log() {
    let reqs = requests(4.0, 9);
    let cfg = SimConfig::new(ModelSpec::llama_7b())
        .with_hedge(Hedge::after(SimDuration::from_millis(400)))
        .with_quarantine(Quarantine {
            threshold: 1.5,
            readmit_after: SimDuration::from_secs(2),
        });
    let run = check(
        "split straggler",
        |c| run_split(c, &reqs, &straggler_script()),
        cfg,
    );
    let recovery = run.metrics.recovery();
    assert!(recovery.hedges_launched > 0, "{recovery:?}");
    assert!(recovery.quarantines > 0, "{recovery:?}");
}

#[test]
fn colocated_engine_tally_matches_the_log() {
    let reqs = requests(4.0, 5);
    let cfg = SimConfig::new(ModelSpec::llama_7b());
    let crash = FaultScript::new(
        vec![
            TimedFault {
                at: SimTime::from_secs_f64(2.0),
                kind: FaultKind::PrefillDown(0),
            },
            TimedFault {
                at: SimTime::from_secs_f64(6.0),
                kind: FaultKind::PrefillUp(0),
            },
        ],
        SimDuration::from_millis(50),
    );
    for script in [FaultScript::none(), crash] {
        check(
            &format!("colocated, {} faults", script.faults.len()),
            |c| run_colocated(c, &reqs, &script),
            cfg.clone(),
        );
    }
}
