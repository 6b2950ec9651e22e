//! Run metrics from the post-run snapshot: serve a segment whose
//! prefill→decode link dies mid-flight, and read the whole story — exact
//! latency quantiles, windowed counters, per-role pressure, SLO burn-rate
//! health — from `Metrics::snapshot`, without ever materializing a full
//! event trace.
//!
//! ```text
//! cargo run --example live_metrics --release
//! ```
//!
//! Pass a path argument to additionally write the Prometheus text
//! exposition (e.g. `metrics.prom`) as a scrape endpoint would serve it.
//! The example exits non-zero unless the exposition validates and carries
//! exactly the exporter's `FAMILIES`.

use thunderserve::prelude::*;
use thunderserve::sim::{FaultKind, FaultScript, TimedFault};
use thunderserve::telemetry::{prom::validate_export, render_prometheus};
use thunderserve::workload::generator::generate;
use thunderserve::workload::spec;
use ts_common::{GroupSpec, Phase, RoutingMatrix, SimTime};

fn main() -> thunderserve::Result<()> {
    // 4xA40 prefill + two 2x3090Ti decode replicas on a slow 5 Gbps fabric,
    // so the mid-run link fault genuinely backs traffic up.
    let cluster = thunderserve::cluster::presets::network_case_cluster(
        thunderserve::cluster::presets::ETH_5GBPS,
    );
    let model = ModelSpec::llama_13b();
    let group = |phase, ids: &[u32]| {
        GroupSpec::single_stage(
            phase,
            ids.iter().map(|&i| GpuId(i)).collect(),
            model.num_layers,
        )
    };
    let plan = DeploymentPlan::new(
        vec![
            group(Phase::Prefill, &[0, 1, 2, 3])?,
            group(Phase::Decode, &[4, 5])?,
            group(Phase::Decode, &[6, 7])?,
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

    // The pressure tally folds queue depth and batch occupancy as the
    // engine runs; everything else in the snapshot comes from the run's
    // records after it. No trace log is kept (contrast with the
    // `trace_request` example, which records every event for post-hoc
    // forensics).
    let cfg = SimConfig::new(model)
        .with_network_contention(true)
        .with_pressure(true);
    let mut sim = Simulation::new(&cluster, &plan, cfg)?;
    let metrics = sim.run_with_faults(&requests, &script)?;
    let tally = sim.take_pressure().expect("the tally was enabled");
    let snap = metrics.snapshot(&slo, &[], SimDuration::from_secs(5), &tally);

    // -- Counters: lifetime totals and the most recent closed window. ----
    let t = &snap.totals;
    println!(
        "totals: {} arrived, {} finished, {} dropped, {} rejected, {} SLO misses, \
         {} requeues ({} windows closed)",
        t.arrived,
        t.finished,
        t.dropped,
        t.rejected,
        t.slo_miss,
        snap.requeues,
        snap.windows_closed(),
    );
    if let Some(w) = snap.windows.iter().rev().nth(1) {
        println!(
            "last closed window (start {}): {} finished, {} SLO misses",
            w.start, w.finished, w.slo_miss
        );
    }

    // -- Exact latency quantiles. ----------------------------------------
    println!();
    for (name, summary) in [("ttft", &snap.ttft), ("e2e", &snap.e2e)] {
        for &(q, v) in &summary.quantiles {
            println!(
                "{:>18} p{:<3} {:>12}",
                name,
                (q * 100.0).round(),
                v.to_string()
            );
        }
    }
    for p in &snap.pressure {
        println!(
            "{:>18} queue depth mean {:.2} peak {} jobs, batch mean {:.2} peak {} seqs",
            p.role.to_string(),
            p.queue_depth.mean,
            p.queue_depth.peak,
            p.batch_occupancy.mean,
            p.batch_occupancy.peak,
        );
    }

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
    let stats = validate_export(&prom).unwrap_or_else(|e| {
        eprintln!("exposition failed validation: {e}");
        std::process::exit(1)
    });
    println!(
        "\nPrometheus exposition: {} metric families, {} samples",
        stats.families.len(),
        stats.samples
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
