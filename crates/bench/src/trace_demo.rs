//! The shared telemetry demonstration scenario: a phase-split deployment on
//! the Appendix-H testbed serving under the flow-level fabric, with a
//! mid-flight link fault so the trace shows queueing, KV retries and
//! recovery — used by `reproduce --trace` and `reproduce --metrics`, and
//! exercised in CI.

use ts_cluster::presets;
use ts_common::SloSpec;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, Phase, RoutingMatrix, SimDuration, SimTime,
};
use ts_sim::{FaultKind, FaultScript, Metrics, SimConfig, Simulation, TimedFault, TraceLog};
use ts_telemetry::MetricsSnapshot;
use ts_workload::{generator::generate, spec};

/// Everything the demo run produces.
pub struct TraceDemo {
    /// The run's metrics (identical to an untraced run of the scenario).
    pub metrics: Metrics,
    /// The finalized event log.
    pub log: TraceLog,
    /// The run's metrics snapshot over one-second windows: exact latency
    /// summaries, window counts, pressure and SLO burn-rate signals,
    /// exportable as Prometheus text ([`ts_telemetry::render_prometheus`])
    /// or JSON ([`MetricsSnapshot::to_json`]).
    pub snapshot: MetricsSnapshot,
    /// Requests served.
    pub num_requests: usize,
}

/// The demo's nominal SLO, used by the snapshot's burn monitors.
pub fn demo_slo() -> SloSpec {
    SloSpec::new(
        SimDuration::from_secs(2),
        SimDuration::from_millis(100),
        SimDuration::from_secs(20),
    )
}

/// 4xA40 prefill + two 2x3090Ti decode replicas on a slow (5 Gbps) fabric,
/// so concurrent KV transfers genuinely contend and the link series moves.
fn testbed() -> (ts_cluster::Cluster, DeploymentPlan, SimConfig) {
    let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
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

/// Runs the demo scenario with telemetry on. `quick` trims the horizon for
/// CI; the fault still lands mid-run.
///
/// # Panics
/// Panics if the simulation rejects the (fixed, known-good) scenario.
pub fn run(quick: bool) -> TraceDemo {
    let (cluster, plan, cfg) = testbed();
    let horizon = SimDuration::from_secs(if quick { 20 } else { 60 });
    let fault_at = if quick { 6.0 } else { 18.0 };
    let reqs = generate(&spec::fixed(1024, 48, 2.0), horizon, 41);
    let script = FaultScript::new(
        vec![
            TimedFault {
                at: SimTime::from_secs_f64(fault_at),
                kind: FaultKind::LinkDown {
                    prefill: 0,
                    decode: 0,
                },
            },
            TimedFault {
                at: SimTime::from_secs_f64(fault_at + 3.0),
                kind: FaultKind::LinkUp {
                    prefill: 0,
                    decode: 0,
                },
            },
        ],
        SimDuration::from_millis(100),
    );
    let mut sim = Simulation::new(
        &cluster,
        &plan,
        cfg.with_network_contention(true)
            .with_telemetry(true)
            .with_pressure(true),
    )
    .expect("demo scenario must build");
    let metrics = sim
        .run_with_faults(&reqs, &script)
        .expect("demo scenario must run");
    let log = sim.take_trace().expect("telemetry was enabled");
    let tally = sim.take_pressure().expect("the tally was enabled");
    let snapshot = metrics.snapshot(&demo_slo(), &[], SimDuration::from_secs(1), &tally);
    TraceDemo {
        metrics,
        log,
        snapshot,
        num_requests: reqs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_telemetry::{Role, TraceKind};

    #[test]
    fn quick_demo_produces_a_meaningful_trace() {
        let demo = run(true);
        assert_eq!(demo.metrics.num_completed(), demo.num_requests);
        assert!(!demo.log.is_empty());
        // The link fault must leave its mark: retries in the counters and
        // retry events in the log.
        assert!(demo.metrics.recovery().kv_transfer_retries > 0);
        let retries = demo
            .log
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::KvRetry { .. }))
            .count();
        assert_eq!(retries, demo.metrics.recovery().kv_transfer_retries);
        // The fabric sampled link utilization.
        assert!(!demo.log.series().links.is_empty());
        // And the export round-trips through the validator.
        let json = ts_telemetry::chrome::export(&demo.log);
        let stats = ts_telemetry::validate_chrome_trace(&json).expect("valid Chrome trace");
        assert!(stats.events > 0);
        // The snapshot exports every family.
        let prom = ts_telemetry::render_prometheus(&demo.snapshot);
        ts_telemetry::prom::validate_export(&prom).expect("valid exposition");
    }

    /// The snapshot ties out with the run: totals equal `Metrics` and its
    /// `RecoveryCounters`, quantiles equal `stats::percentile` bit for bit
    /// and the windows sum to the totals.
    #[test]
    fn snapshot_ties_out_with_the_run() {
        let demo = run(true);
        let (m, s) = (&demo.metrics, &demo.snapshot);
        let t = s.totals;
        assert_eq!(t.arrived as usize, demo.num_requests);
        assert_eq!(t.finished as usize, m.num_completed());
        assert_eq!(t.dropped as usize, m.num_dropped());
        assert_eq!(t.rejected as usize, m.num_rejected());
        let slo = demo_slo();
        let misses = m
            .records()
            .iter()
            .filter(|r| r.ttft() > slo.ttft || r.e2e() > slo.e2e)
            .count();
        assert_eq!(t.slo_miss as usize, misses);
        assert_eq!(s.hedges as usize, m.recovery().hedges_launched);
        assert_eq!(s.requeues as usize, m.recovery().requeued_requests);

        let ttfts: Vec<_> = m.records().iter().map(|r| r.ttft()).collect();
        let e2es: Vec<_> = m.records().iter().map(|r| r.e2e()).collect();
        for (summary, exact) in [(&s.ttft, &ttfts), (&s.e2e, &e2es)] {
            assert_eq!(summary.count as usize, exact.len());
            assert_eq!(summary.sum, exact.iter().copied().sum());
            assert_eq!(
                summary.quantiles.len(),
                ts_telemetry::snapshot::QUANTILES.len()
            );
            for &(q, v) in &summary.quantiles {
                assert_eq!(Some(v), ts_common::stats::percentile(exact, q), "q={q}");
            }
        }

        let mut sum = ts_telemetry::WindowCounts::default();
        for (k, w) in s.windows.iter().enumerate() {
            assert_eq!(w.start, SimTime::ZERO + SimDuration::from_secs(k as u64));
            sum.arrived += w.arrived;
            sum.finished += w.finished;
            sum.dropped += w.dropped;
            sum.rejected += w.rejected;
            sum.slo_miss += w.slo_miss;
        }
        assert_eq!(sum, t);
        assert!(s.windows_closed() > 10, "{}", s.windows_closed());
        let roles: Vec<_> = s.pressure.iter().map(|p| p.role).collect();
        assert_eq!(roles, [Role::Prefill, Role::Decode]);
    }
}
