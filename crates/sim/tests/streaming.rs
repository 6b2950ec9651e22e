//! Integration tests for the streaming observability plane.
//!
//! Covers the two contracts the plane makes with the rest of the stack:
//!
//! 1. **Sketch parity** — the mergeable quantile sketches exposed through
//!    [`ts_sim::Metrics::latency_sketch`] / [`ts_sim::Metrics::itl_sketch`]
//!    agree with the exact nearest-rank percentiles on every existing
//!    metric site, within the sketch's configured relative-error bound.
//! 2. **Online == post-hoc** — the quantiles the [`StreamingPlane`]
//!    accumulates incrementally from driver events match the exact
//!    percentiles recomputed after the fact from the `TraceLog` spans.

use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, RoutingMatrix, SimDuration,
    SloKind, SloSpec, StageSpec,
};
use ts_sim::{SimConfig, Simulation};
use ts_telemetry::StreamConfig;
use ts_workload::{generator::generate, spec};

fn group(model: &ModelSpec, phase: Phase, ids: &[u32], tp: usize) -> GroupSpec {
    GroupSpec::new(
        phase,
        ParallelConfig::new(tp, 1).unwrap(),
        vec![StageSpec {
            gpus: ids.iter().map(|&i| GpuId(i)).collect(),
            layers: model.num_layers,
        }],
    )
    .unwrap()
}

/// Two tp=2 prefill replicas + two tp=2 decode replicas.
fn testbed() -> (ts_cluster::Cluster, DeploymentPlan, SimConfig) {
    let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
    let model = ModelSpec::llama_13b();
    let plan = DeploymentPlan::new(
        vec![
            group(&model, Phase::Prefill, &[0, 1], 2),
            group(&model, Phase::Prefill, &[2, 3], 2),
            group(&model, Phase::Decode, &[4, 5], 2),
            group(&model, Phase::Decode, &[6, 7], 2),
        ],
        RoutingMatrix::uniform(2, 2),
    )
    .unwrap();
    (cluster, plan, SimConfig::new(model))
}

/// `|sketch - exact| <= alpha * exact + slack`, where the slack absorbs the
/// microsecond quantization both values go through.
fn assert_within(sketch: SimDuration, exact: SimDuration, alpha: f64, what: &str) {
    let (s, e) = (sketch.as_secs_f64(), exact.as_secs_f64());
    let bound = alpha * e + 2e-6;
    assert!(
        (s - e).abs() <= bound,
        "{what}: sketch {s} vs exact {e} exceeds bound {bound}"
    );
}

/// Satellite: every approximate-tail metric site routed through the sketch
/// stays within the configured relative error of the exact nearest-rank
/// percentile, across accuracies and quantiles.
#[test]
fn sketch_parity_on_all_metric_sites() {
    let (cluster, plan, cfg) = testbed();
    let reqs = generate(&spec::coding(2.0), SimDuration::from_secs(40), 7);
    let m = Simulation::new(&cluster, &plan, cfg)
        .unwrap()
        .run(&reqs)
        .unwrap();
    assert!(
        m.num_completed() > 50,
        "workload too small to exercise tails"
    );

    for &alpha in &[0.01, 0.05] {
        for &q in &[0.5, 0.9, 0.95, 0.99, 1.0] {
            for kind in [SloKind::Ttft, SloKind::Tpot, SloKind::E2e] {
                let sk = m.latency_sketch(kind, alpha);
                assert_eq!(sk.count() as usize, m.num_completed());
                assert_within(
                    sk.quantile_duration(q).unwrap(),
                    m.latency_percentile(kind, q).unwrap(),
                    alpha,
                    &format!("{kind:?} q={q} alpha={alpha}"),
                );
            }
            let itl = m.itl_sketch(alpha);
            assert_within(
                itl.quantile_duration(q).unwrap(),
                m.itl_percentile(q).unwrap(),
                alpha,
                &format!("ITL q={q} alpha={alpha}"),
            );
        }
    }
}

/// Tentpole: the plane's incrementally-built TTFT/E2E sketches agree with
/// exact percentiles recomputed post-hoc from the trace spans, and its
/// counters tie out with the run's metrics.
#[test]
fn streaming_plane_matches_posthoc_trace() {
    let (cluster, plan, cfg) = testbed();
    let slo = SloSpec::new(
        SimDuration::from_millis(500),
        SimDuration::from_millis(50),
        SimDuration::from_secs(10),
    );
    let alpha = 0.01;
    let cfg = cfg
        .with_telemetry(true)
        .with_streaming(StreamConfig::new(slo).with_sketch_alpha(alpha));
    let reqs = generate(&spec::coding(2.0), SimDuration::from_secs(40), 11);
    let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
    let m = sim.run(&reqs).unwrap();
    let log = sim.take_trace().expect("telemetry was on");
    let plane = sim.take_streaming().expect("streaming was on");
    let snap = plane.snapshot();

    // Exact percentiles from the post-hoc spans, over the same populations
    // the plane inserts into its sketches online.
    let spans: Vec<_> = log
        .request_ids()
        .into_iter()
        .filter_map(|id| log.request_span(id))
        .collect();
    let mut ttfts: Vec<_> = spans.iter().filter_map(|s| s.ttft()).collect();
    let mut e2es: Vec<_> = spans.iter().filter_map(|s| s.e2e()).collect();
    ttfts.sort_unstable();
    e2es.sort_unstable();
    assert_eq!(snap.ttft.count() as usize, ttfts.len());
    assert_eq!(snap.e2e.count() as usize, e2es.len());
    assert_eq!(snap.totals.finished as usize, m.num_completed());
    assert_eq!(
        (snap.totals.dropped + snap.totals.rejected) as usize,
        m.num_dropped() + m.num_rejected()
    );

    for &q in &[0.5, 0.9, 0.99] {
        assert_within(
            snap.ttft.quantile_duration(q).unwrap(),
            ts_common::stats::percentile(&ttfts, q).unwrap(),
            alpha,
            &format!("online TTFT q={q}"),
        );
        assert_within(
            snap.e2e.quantile_duration(q).unwrap(),
            ts_common::stats::percentile(&e2es, q).unwrap(),
            alpha,
            &format!("online E2E q={q}"),
        );
    }

    // The pressure sketches saw traffic and the exporter round-trips.
    assert!(snap.queue_depth.count() > 0);
    assert!(snap.batch_occupancy.count() > 0);
    let text = ts_telemetry::render_prometheus(&snap);
    let stats = ts_telemetry::validate_exposition(&text).expect("valid exposition");
    assert_eq!(stats.histograms, 4);
}
