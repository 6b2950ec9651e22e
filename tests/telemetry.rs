//! Telemetry contract tests: tracing observes the simulation without
//! perturbing it, and what it records reconciles exactly with the metrics.
//!
//! Three properties are pinned here:
//! 1. **Bit-identity off↔on** — enabling telemetry changes no `Metrics`
//!    output, on the legacy KV path, under the flow-level fabric, under
//!    faults, and on the colocated engine.
//! 2. **Span reconciliation** — per-request landmarks derived from the
//!    event log (TTFT, E2E, KV queue wait / wire time / overhead) equal the
//!    corresponding `RequestRecord` fields exactly, and fault counters sum
//!    to the run's `RecoveryCounters`.
//! 3. **Well-formed spans** — each completed request's events are monotone
//!    in time, start with its arrival, end with its finish, and keep
//!    prefill start/end balanced and properly nested.

use thunderserve::prelude::*;
use thunderserve::sim::{FaultKind, FaultScript, Hedge, Quarantine, TimedFault, TraceLog};
use thunderserve::telemetry::TraceKind;
use thunderserve::workload::{generator::generate, spec};
use ts_cluster::presets;
use ts_common::{GpuId, GroupSpec, Phase, Request, RoutingMatrix, SimTime};

/// 4xA40 prefill + two 2x3090Ti decode replicas (the engine fault testbed).
fn testbed() -> (ts_cluster::Cluster, DeploymentPlan, SimConfig) {
    let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
    let model = ModelSpec::llama_13b();
    let group = |phase, ids: &[u32]| {
        GroupSpec::single_stage(
            phase,
            ids.iter().map(|&i| GpuId(i)).collect(),
            model.num_layers,
        )
        .unwrap()
    };
    let plan = DeploymentPlan::new(
        vec![
            group(Phase::Prefill, &[0, 1, 2, 3]),
            group(Phase::Decode, &[4, 5]),
            group(Phase::Decode, &[6, 7]),
        ],
        RoutingMatrix::uniform(1, 2),
    )
    .unwrap();
    (cluster, plan, SimConfig::new(model))
}

fn link_blip_script() -> FaultScript {
    let fault = |at_s: f64, kind| TimedFault {
        at: SimTime::from_secs_f64(at_s),
        kind,
    };
    FaultScript::new(
        vec![
            fault(
                10.0,
                FaultKind::LinkDown {
                    prefill: 0,
                    decode: 0,
                },
            ),
            fault(
                14.0,
                FaultKind::LinkUp {
                    prefill: 0,
                    decode: 0,
                },
            ),
        ],
        SimDuration::from_millis(100),
    )
}

fn run_traced(
    cfg: SimConfig,
    reqs: &[Request],
    script: &FaultScript,
) -> (Metrics, Option<TraceLog>) {
    let (cluster, plan, _) = testbed();
    let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
    let m = sim.run_with_faults(reqs, script).unwrap();
    (m, sim.take_trace())
}

#[test]
fn metrics_are_bit_identical_with_tracing_on() {
    let (_, _, cfg) = testbed();
    let reqs = generate(&spec::coding(1.5), SimDuration::from_secs(40), 51);
    let none = FaultScript::none();
    let blip = link_blip_script();
    for (label, cfg, script) in [
        ("legacy", cfg.clone(), &none),
        ("fabric", cfg.clone().with_network_contention(true), &none),
        ("legacy+fault", cfg.clone(), &blip),
        (
            "fabric+fault",
            cfg.clone().with_network_contention(true),
            &blip,
        ),
    ] {
        let (off, trace_off) = run_traced(cfg.clone(), &reqs, script);
        let (on, trace_on) = run_traced(cfg.with_telemetry(true), &reqs, script);
        assert!(trace_off.is_none(), "{label}: telemetry defaults off");
        assert!(trace_on.is_some(), "{label}: telemetry requested");
        assert_eq!(off, on, "{label}: tracing must not perturb metrics");
    }
}

#[test]
fn colocated_metrics_are_bit_identical_and_traced() {
    let cluster = presets::paper_inhouse_cluster();
    let model = ModelSpec::llama_30b();
    let group = |ids: [u32; 2]| {
        GroupSpec::single_stage(
            Phase::Prefill,
            ids.iter().map(|&i| GpuId(i)).collect(),
            model.num_layers,
        )
        .unwrap()
    };
    let groups = vec![group([0, 1]), group([2, 3])];
    let cfg = SimConfig::new(model);
    let reqs = generate(&spec::conversation(1.0), SimDuration::from_secs(40), 52);
    let run = |cfg: SimConfig| {
        let mut sim = Simulation::colocated(&cluster, &groups, cfg).unwrap();
        let m = sim.run(&reqs).unwrap();
        (m, sim.take_trace())
    };
    let (off, trace_off) = run(cfg.clone());
    let (on, trace_on) = run(cfg.with_telemetry(true));
    assert!(trace_off.is_none());
    let log = trace_on.expect("telemetry requested");
    assert_eq!(off, on, "tracing must not perturb colocated metrics");
    assert_eq!(
        log.completed_requests().len(),
        on.num_completed(),
        "every completion must be traced"
    );
    // Colocated replicas appear under their own role.
    assert!(log
        .series()
        .replicas
        .keys()
        .all(|&(role, _)| role == thunderserve::telemetry::Role::Colocated));
}

#[test]
fn spans_reconcile_exactly_with_request_records() {
    let (_, _, cfg) = testbed();
    let reqs = generate(&spec::fixed(1024, 32, 1.5), SimDuration::from_secs(40), 53);
    let blip = link_blip_script();
    for (label, cfg, script) in [
        (
            "plain",
            cfg.clone().with_telemetry(true),
            FaultScript::none(),
        ),
        (
            "fabric+fault",
            cfg.with_telemetry(true).with_network_contention(true),
            blip,
        ),
    ] {
        let (m, trace) = run_traced(cfg, &reqs, &script);
        let log = trace.expect("telemetry requested");
        assert_eq!(m.num_completed(), reqs.len(), "{label}");
        let mut retries = 0usize;
        for r in m.records() {
            let span = log
                .request_span(r.request.id)
                .unwrap_or_else(|| panic!("{label}: no span for {}", r.request.id));
            assert_eq!(span.arrived, r.request.arrival, "{label}");
            assert_eq!(span.ttft(), Some(r.ttft()), "{label}: {}", r.request.id);
            assert_eq!(span.e2e(), Some(r.e2e()), "{label}: {}", r.request.id);
            assert_eq!(
                span.kv_queue_wait(),
                r.kv_queue_wait,
                "{label}: {}",
                r.request.id
            );
            assert_eq!(
                span.kv_wire_time(),
                r.kv_wire_time,
                "{label}: {}",
                r.request.id
            );
            assert_eq!(span.kv_done, r.kv_done_at, "{label}: {}", r.request.id);
            retries += span.kv_retries as usize;
        }
        assert_eq!(
            retries,
            m.recovery().kv_transfer_retries,
            "{label}: span retries must sum to the recovery counter"
        );
        if label == "fabric+fault" {
            assert!(retries > 0, "the link blip must force retries");
        }
    }
}

/// Gray-failure mitigation events reconcile with the metrics and nest
/// inside the request spans they concern: every `HedgeLaunched` lands
/// between its request's arrival and finish (and sums to the recovery
/// counter), and `Quarantined`/`Readmitted` pair up per replica — while telemetry stays
/// a pure observer (bit-identical metrics off↔on) even with the whole
/// mitigation layer armed.
#[test]
fn gray_mitigation_events_nest_inside_request_spans() {
    // Two tp=2 prefill replicas so a stuck prefill has somewhere to hedge.
    let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
    let model = ModelSpec::llama_13b();
    let group = |phase, ids: &[u32]| {
        GroupSpec::single_stage(
            phase,
            ids.iter().map(|&i| GpuId(i)).collect(),
            model.num_layers,
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
    let cfg = SimConfig::new(model)
        .with_hedge(Hedge::after(SimDuration::from_millis(400)))
        .with_quarantine(Quarantine {
            threshold: 2.0,
            readmit_after: SimDuration::from_secs(4),
        });
    let reqs = generate(&spec::coding(1.5), SimDuration::from_secs(60), 55);
    let fault = |at_s: f64, kind| TimedFault {
        at: SimTime::from_secs_f64(at_s),
        kind,
    };
    // Prefill 0 stalls (hedging kicks in) and decode 0 drags (quarantine
    // trips, then the heal at t=30 lets the probe readmit it).
    let script = FaultScript::new(
        vec![
            fault(5.0, FaultKind::PrefillSlow(0, 40.0)),
            fault(5.0, FaultKind::DecodeSlow(0, 6.0)),
            fault(30.0, FaultKind::DecodeSlow(0, 1.0)),
        ],
        SimDuration::from_millis(500),
    );
    let run = |cfg: SimConfig| {
        let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
        let m = sim.run_with_faults(&reqs, &script).unwrap();
        (m, sim.take_trace())
    };
    let (off, trace_off) = run(cfg.clone());
    let (m, trace) = run(cfg.with_telemetry(true));
    assert!(trace_off.is_none());
    assert_eq!(off, m, "tracing must not perturb mitigated runs");
    let log = trace.expect("telemetry requested");

    // Hedge launches nest inside their request's span and sum to the
    // recovery counter.
    let mut hedges = 0usize;
    for r in m.records() {
        let span = log.request_span(r.request.id).expect("span exists");
        hedges += span.hedges as usize;
        let events = log.request_events(r.request.id);
        for e in &events {
            if let TraceKind::HedgeLaunched { .. } = e.kind {
                assert!(e.at >= r.request.arrival, "hedge before arrival");
                assert!(e.at <= r.finished_at, "hedge after finish");
            }
        }
    }
    assert!(
        m.recovery().hedges_launched > 0,
        "the stalled prefill must force hedges: {:?}",
        m.recovery()
    );
    assert_eq!(
        hedges,
        m.recovery().hedges_launched,
        "span hedges must sum to the recovery counter"
    );

    // Quarantine/readmission events reconcile with their counters, and no
    // replica is readmitted before it was ever quarantined.
    let mut quarantined = 0usize;
    let mut readmitted = 0usize;
    let mut out = std::collections::BTreeSet::new();
    for e in log.events() {
        match e.kind {
            TraceKind::Quarantined { role, replica } => {
                quarantined += 1;
                out.insert((role, replica));
            }
            TraceKind::Readmitted { role, replica } => {
                readmitted += 1;
                assert!(
                    out.contains(&(role, replica)),
                    "{role} replica {replica} readmitted without quarantine"
                );
            }
            _ => {}
        }
    }
    assert_eq!(quarantined, m.recovery().quarantines);
    assert_eq!(readmitted, m.recovery().readmissions);
    assert!(quarantined > 0, "the decode straggler must be quarantined");
    assert!(readmitted > 0, "the healed straggler must be readmitted");
}

#[test]
fn completed_request_spans_are_monotone_and_nested() {
    let (_, _, cfg) = testbed();
    let reqs = generate(&spec::coding(1.5), SimDuration::from_secs(40), 54);
    let (m, trace) = run_traced(cfg.with_telemetry(true), &reqs, &FaultScript::none());
    let log = trace.expect("telemetry requested");
    assert_eq!(m.num_completed(), reqs.len());
    for r in m.records() {
        let events = log.request_events(r.request.id);
        assert!(
            matches!(events.first().unwrap().kind, TraceKind::Arrived { .. }),
            "first event must be the arrival"
        );
        assert!(
            matches!(events.last().unwrap().kind, TraceKind::Finished { .. }),
            "last event must be the finish"
        );
        let mut prev = SimTime::ZERO;
        let mut open_prefills = 0i64;
        let mut first_tokens = 0usize;
        for e in &events {
            assert!(e.at >= prev, "events must be monotone in time");
            prev = e.at;
            match e.kind {
                TraceKind::PrefillStart { .. } => open_prefills += 1,
                TraceKind::PrefillEnd { .. } => {
                    open_prefills -= 1;
                    assert!(open_prefills >= 0, "prefill end without a start");
                }
                TraceKind::FirstToken { .. } => first_tokens += 1,
                TraceKind::KvDone { .. } => {
                    assert_eq!(open_prefills, 0, "KV delivered mid-prefill")
                }
                _ => {}
            }
        }
        assert_eq!(open_prefills, 0, "prefill spans must close");
        assert_eq!(first_tokens, 1, "exactly one first token per completion");
    }
}
