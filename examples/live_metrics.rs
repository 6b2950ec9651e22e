//! Live metrics from the streaming observability plane: serve a segment
//! whose prefill→decode link dies mid-flight, and read the whole story —
//! online latency quantiles, windowed counters, SLO burn-rate health — from
//! the plane's snapshot, without ever materializing a full event trace.
//!
//! ```text
//! cargo run --example live_metrics --release
//! ```
//!
//! Pass a path argument to additionally write the Prometheus text
//! exposition (e.g. `metrics.prom`) as a scrape endpoint would serve it.

use thunderserve::prelude::*;
use thunderserve::sim::{FaultKind, FaultScript, TimedFault};
use thunderserve::telemetry::{render_prometheus, validate_exposition, StreamConfig};
use thunderserve::workload::generator::generate;
use thunderserve::workload::spec;
use ts_common::{stats, GroupSpec, ParallelConfig, Phase, RoutingMatrix, SimTime, StageSpec};

fn main() -> thunderserve::Result<()> {
    // 4xA40 prefill + two 2x3090Ti decode replicas on a slow 5 Gbps fabric,
    // so the mid-run link fault genuinely backs traffic up.
    let cluster = thunderserve::cluster::presets::network_case_cluster(
        thunderserve::cluster::presets::ETH_5GBPS,
    );
    let model = ModelSpec::llama_13b();
    let group = |phase, ids: &[u32], tp: usize| {
        GroupSpec::new(
            phase,
            ParallelConfig::new(tp, 1).unwrap(),
            vec![StageSpec {
                gpus: ids.iter().map(|&i| GpuId(i)).collect(),
                layers: model.num_layers,
            }],
        )
        .unwrap()
    };
    let plan = DeploymentPlan::new(
        vec![
            group(Phase::Prefill, &[0, 1, 2, 3], 4),
            group(Phase::Decode, &[4, 5], 2),
            group(Phase::Decode, &[6, 7], 2),
        ],
        RoutingMatrix::uniform(1, 2),
    )?;

    // A tight SLO and a 3-second link outage: the burn-rate monitors have
    // something real to report.
    let slo = SloSpec::new(
        SimDuration::from_millis(800),
        SimDuration::from_millis(60),
        SimDuration::from_secs(30),
    );
    let requests = generate(&spec::fixed(1024, 48, 3.0), SimDuration::from_secs(40), 41);
    let script = FaultScript::new(
        vec![
            TimedFault {
                at: SimTime::from_secs_f64(10.0),
                kind: FaultKind::LinkDown {
                    prefill: 0,
                    decode: 0,
                },
            },
            TimedFault {
                at: SimTime::from_secs_f64(13.0),
                kind: FaultKind::LinkUp {
                    prefill: 0,
                    decode: 0,
                },
            },
        ],
        SimDuration::from_millis(100),
    );
    println!(
        "serving {} requests with a link blip at t=10s…\n",
        requests.len()
    );

    // The plane aggregates online as the engine emits events; no trace log
    // is kept (contrast with the `trace_request` example, which records
    // every event for post-hoc forensics).
    let stream_cfg = StreamConfig::new(slo).with_window(SimDuration::from_secs(5));
    let cfg = SimConfig::new(model)
        .with_network_contention(true)
        .with_streaming(stream_cfg);
    let mut sim = Simulation::new(&cluster, &plan, cfg)?;
    let metrics = sim.run_with_faults(&requests, &script)?;
    let snap = sim
        .take_streaming()
        .expect("streaming was enabled")
        .snapshot();

    // -- Counters: lifetime totals and the most recent closed window. ----
    let t = &snap.totals;
    println!(
        "totals: {} arrived, {} finished, {} dropped, {} rejected, {} SLO misses, \
         {} requeues ({} windows closed)",
        t.arrived, t.finished, t.dropped, t.rejected, t.slo_miss, t.requeues, snap.windows_closed,
    );
    if let Some(w) = &snap.last_window {
        println!(
            "last closed window (start {}): {} finished, {} SLO misses",
            w.start, w.finished, w.slo_miss
        );
    }

    // -- Online quantiles vs the engine's own exact records. -------------
    let exact_ttft: Vec<SimDuration> = metrics.records().iter().map(|r| r.ttft()).collect();
    let exact_e2e: Vec<SimDuration> = metrics.records().iter().map(|r| r.e2e()).collect();
    println!("\n{:>22} {:>12} {:>12}", "", "sketch", "exact");
    for (name, sketch, exact) in [
        ("ttft", &snap.ttft, &exact_ttft),
        ("e2e", &snap.e2e, &exact_e2e),
    ] {
        for q in [0.5, 0.99] {
            println!(
                "{:>18} p{:<3} {:>12} {:>12}",
                name,
                (q * 100.0) as u32,
                sketch
                    .quantile_duration(q)
                    .expect("non-empty sketch")
                    .to_string(),
                stats::percentile(exact, q)
                    .expect("non-empty records")
                    .to_string(),
            );
        }
    }
    println!(
        "{:>18} {:>16.1} jobs (EWMA {:.1})",
        "queue depth p99",
        snap.queue_depth.quantile(0.99).unwrap_or(0.0),
        snap.queue_depth_ewma.unwrap_or(0.0),
    );

    // -- SLO burn-rate health. -------------------------------------------
    println!();
    for h in &snap.health {
        let who = match h.tenant {
            None => "fleet".to_string(),
            Some(m) => format!("tenant {m}"),
        };
        println!(
            "health [{who}]: {:?} — fast burn {:.2}, slow burn {:.2} over {} requests",
            h.state, h.fast_burn, h.slow_burn, h.samples
        );
    }
    let worst = snap.health.iter().map(|h| h.state).max();
    let peak = snap.health.iter().map(|h| h.fast_burn).fold(0.0, f64::max);
    println!(
        "worst state {:?}, peak fast burn {peak:.2}",
        worst.expect("the fleet-wide signal is always present")
    );

    // -- Exporters: Prometheus text exposition and compact JSON. ---------
    let prom = render_prometheus(&snap);
    let stats = validate_exposition(&prom).expect("exposition must conform");
    println!(
        "\nPrometheus exposition: {} metric families, {} samples",
        stats.families, stats.samples
    );
    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &prom).expect("exposition file must be writable");
            println!("wrote exposition to {path}");
        }
        None => {
            for line in prom.lines().take(12) {
                println!("  {line}");
            }
            println!("  … (pass a path argument to write the full exposition)");
        }
    }
    println!("\ncompact JSON snapshot: {} bytes", snap.to_json().len());
    Ok(())
}
