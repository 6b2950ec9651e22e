//! Request-lifecycle tracing: serve a short segment with a mid-flight link
//! fault, then reconstruct the full event timeline of the worst-latency
//! request — queue wait, KV transfer retries, recovery — from the trace.
//!
//! ```text
//! cargo run --example trace_request --release
//! ```
//!
//! Pass a path argument to additionally export the whole run as Chrome
//! trace-event JSON, viewable at <https://ui.perfetto.dev>.

use thunderserve::prelude::*;
use thunderserve::sim::{FaultKind, FaultScript, TimedFault};
use thunderserve::telemetry::Role;
use thunderserve::workload::generator::generate;
use thunderserve::workload::spec;
use ts_common::{GroupSpec, Phase, RoutingMatrix, SimTime};

fn main() -> thunderserve::Result<()> {
    // 4xA40 prefill + two 2x3090Ti decode replicas on a slow 5 Gbps fabric:
    // KV transfers genuinely queue and contend.
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

    // A ~50-request segment; the prefill→decode-0 link dies mid-flight and
    // heals three seconds later, so some transfers retry with backoff.
    let requests = generate(&spec::fixed(1024, 48, 2.5), SimDuration::from_secs(20), 41);
    println!(
        "serving {} requests with a link blip at t=6s…",
        requests.len()
    );
    let script = FaultScript::new(
        vec![
            TimedFault {
                at: SimTime::from_secs_f64(6.0),
                kind: FaultKind::LinkDown {
                    prefill: 0,
                    decode: 0,
                },
            },
            TimedFault {
                at: SimTime::from_secs_f64(9.0),
                kind: FaultKind::LinkUp {
                    prefill: 0,
                    decode: 0,
                },
            },
        ],
        SimDuration::from_millis(100),
    );

    let cfg = SimConfig::new(model)
        .with_network_contention(true)
        .with_telemetry(true);
    let mut sim = Simulation::new(&cluster, &plan, cfg)?;
    let metrics = sim.run_with_faults(&requests, &script)?;
    let log = sim.take_trace().expect("telemetry was enabled");

    println!(
        "completed {}/{} requests, {} KV-transfer retries, {} trace events\n",
        metrics.num_completed(),
        requests.len(),
        metrics.recovery().kv_transfer_retries,
        log.len(),
    );

    // The request the fault hurt the most, with its complete journey.
    let worst = metrics
        .records()
        .iter()
        .max_by_key(|r| (r.e2e(), r.request.id))
        .expect("at least one request completed");
    let span = log.request_span(worst.request.id).expect("span exists");
    println!(
        "worst request {}: e2e {}, ttft {}, kv queue wait {}, kv wire time {}, \
         {} kv retries",
        worst.request.id,
        worst.e2e(),
        worst.ttft(),
        span.kv_queue_wait(),
        span.kv_wire_time(),
        span.kv_retries,
    );
    println!("{}", log.render_request_timeline(worst.request.id));

    // What the replicas and the fabric looked like meanwhile.
    let end = log.end();
    let series = log.series();
    for (&(role, replica), r) in &series.replicas {
        if role != Role::Decode {
            continue;
        }
        let batch = r.batch_occupancy.step();
        println!(
            "decode replica {replica}: mean batch occupancy {:.1}, peak {:.0}",
            batch.time_weighted_mean(end),
            batch.peak(),
        );
    }
    for (link, l) in &series.links {
        let util = l.utilization.step();
        if util.peak() > 0.0 {
            println!(
                "link {link} ({}, {:.0} MB/s): mean utilization {:.1}%, peak {:.1}%",
                l.kind,
                l.capacity_bps / 1e6,
                100.0 * util.time_weighted_mean(end),
                100.0 * util.peak(),
            );
        }
    }

    if let Some(path) = std::env::args().nth(1) {
        let json = thunderserve::telemetry::chrome::export(&log);
        thunderserve::telemetry::validate_chrome_trace(&json)
            .expect("exported trace must validate");
        std::fs::write(&path, &json).expect("trace file must be writable");
        println!("\nwrote Chrome trace to {path} — open in https://ui.perfetto.dev");
    }
    Ok(())
}
