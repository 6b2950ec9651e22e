//! Records flow-level KV-transfer contention numbers to `BENCH_net.json`,
//! seeding the repo's network-fabric perf trajectory.
//!
//! Drives `ts_net::FlowFabric` directly on the Appendix-H two-instance
//! cluster (4×A40 + 4×3090Ti over 5 Gbps): `n` KV transfers of a
//! 1024-token LLaMA-13B cache start simultaneously from the A40 node to
//! the 3090Ti node and the fabric is drained event by event, exactly as
//! the simulator does. Sweeps the concurrent-flow count against {4-bit,
//! fp16} wire precision.
//!
//! The `overload` section drives the fabric end to end, where thousands of
//! flows are in flight at once: the paper cloud serves LLaMA-30B coding
//! traffic on a plan scheduled for [`OVERLOAD_PLAN_RATE`], at that rate
//! (the control) and past it. Its figures are exact counts and simulated
//! times, so they pin the fabric's results bit for bit in the regime where
//! its cost grows with the backlog. Each arm's wall time goes to stderr.
//!
//! Everything recorded is simulated time — results are bit-reproducible,
//! no wall-clock noise. The sweep runs in milliseconds; the overload
//! section takes about 1.5 s on a 2-vCPU host.
//!
//! Usage: `cargo run --release -p ts-bench --bin bench_net [out.json]`

use std::time::Instant;

use thunderserve_core::orchestrate::sim_config;
use thunderserve_core::{Scheduler, SchedulerConfig};
use ts_bench::harness::base_slo_30b;
use ts_cluster::presets;
use ts_common::{GpuId, ModelSpec, SimDuration, SimTime};
use ts_kvcache::codec::{KvCodec, KvWirePrecision};
use ts_net::{FabricWork, FlowFabric};
use ts_sim::Simulation;
use ts_workload::generator::generate;
use ts_workload::spec as shapes;

const FLOW_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];
const TOKENS: u64 = 1024;

struct Arm {
    flows: usize,
    precision: &'static str,
    wire_bytes_per_flow: u64,
    mean_transfer_s: f64,
    max_transfer_s: f64,
}

/// Starts `n` simultaneous node-a → node-b flows and drains the fabric,
/// returning each flow's completion time and the fabric's work.
fn drain(n: usize, codec: &KvCodec) -> (Vec<SimTime>, FabricWork) {
    let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
    let mut fabric = FlowFabric::from_cluster(&cluster);
    let bytes = codec.wire_bytes(TOKENS) as f64;
    for i in 0..n {
        let from = GpuId((i % 4) as u32);
        let to = GpuId(4 + (i % 4) as u32);
        fabric.start(i as u64, from, to, bytes, SimTime::ZERO);
    }
    let mut done = vec![SimTime::ZERO; n];
    // Complete the earliest-due flow, exactly like the simulator's timer.
    while let Some((at, key)) = fabric.next_due() {
        fabric.complete_due(at);
        done[key as usize] = at;
    }
    (done, fabric.work())
}

fn measure(flows: usize, name: &'static str, precision: KvWirePrecision) -> Arm {
    let codec = KvCodec::new(ModelSpec::llama_13b(), precision);
    let (times, _) = drain(flows, &codec);
    let sum: f64 = times.iter().map(|t| t.as_secs_f64()).sum();
    let max = times.iter().map(|t| t.as_secs_f64()).fold(0.0f64, f64::max);
    Arm {
        flows,
        precision: name,
        wire_bytes_per_flow: codec.wire_bytes(TOKENS),
        mean_transfer_s: sum / flows as f64,
        max_transfer_s: max,
    }
}

/// The rate (req/s) the overload section's plan is scheduled for.
const OVERLOAD_PLAN_RATE: f64 = 3.0;
/// Offered rates (req/s) the overload section serves on that plan: the
/// control, then past the plan's rate.
const OVERLOAD_RATES: [f64; 2] = [3.0, 4.0];
/// Simulated traffic per overload arm.
const OVERLOAD_HORIZON_S: u64 = 3600;
/// Seed of the overload section's traffic.
const OVERLOAD_TRAFFIC_SEED: u64 = 1;

struct OverloadArm {
    rate: f64,
    sent: usize,
    completed: usize,
    dropped: usize,
    rejected: usize,
    events: u64,
    horizon_s: f64,
    joint_attainment: f64,
    fabric: FabricWork,
}

/// Schedules the paper cloud for [`OVERLOAD_PLAN_RATE`] with the fabric on
/// and serves one simulated hour at each of [`OVERLOAD_RATES`] on it.
fn overload() -> Vec<OverloadArm> {
    let cluster = presets::paper_cloud_cluster();
    let model = ModelSpec::llama_30b();
    let slo = base_slo_30b().scaled(8.0);
    let cfg = SchedulerConfig {
        seed: 42,
        num_threads: 1,
        network_contention: true,
        ..SchedulerConfig::default()
    };
    let plan = Scheduler::new(cfg.clone())
        .schedule(&cluster, &model, &shapes::coding(OVERLOAD_PLAN_RATE), &slo)
        .expect("the paper cloud schedules the coding plan")
        .plan;
    OVERLOAD_RATES
        .iter()
        .map(|&rate| {
            let reqs = generate(
                &shapes::coding(rate),
                SimDuration::from_secs(OVERLOAD_HORIZON_S),
                OVERLOAD_TRAFFIC_SEED,
            );
            let mut sim = Simulation::new(&cluster, &plan, sim_config(&model, &cfg))
                .expect("the scheduled plan simulates");
            let t0 = Instant::now();
            let m = sim.run(&reqs).expect("the overload run completes");
            eprintln!(
                "overload {rate:.1} req/s served in {:.3} s wall",
                t0.elapsed().as_secs_f64()
            );
            OverloadArm {
                rate,
                sent: reqs.len(),
                completed: m.num_completed(),
                dropped: m.num_dropped(),
                rejected: m.num_rejected(),
                events: sim.events_processed(),
                horizon_s: m.horizon().as_secs_f64(),
                joint_attainment: m.joint_attainment(&slo),
                fabric: sim
                    .fabric_work()
                    .expect("the overload plan runs on the fabric"),
            }
        })
        .collect()
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_net.json".to_string());

    let mut arms = Vec::new();
    for flows in FLOW_SWEEP {
        for (name, p) in [
            ("int4", KvWirePrecision::DEFAULT_COMPRESSED),
            ("fp16", KvWirePrecision::F16),
        ] {
            let arm = measure(flows, name, p);
            println!(
                "{:>2} flows  {}  {:>12} B/flow  mean {:>8.4}s  max {:>8.4}s",
                arm.flows,
                arm.precision,
                arm.wire_bytes_per_flow,
                arm.mean_transfer_s,
                arm.max_transfer_s
            );
            arms.push(arm);
        }
    }

    let overload = overload();
    for a in &overload {
        println!(
            "overload {:.1} req/s  sent {}  completed {}  events/req {:.4}  horizon {:.6}s  attainment {:.6}  cells {} (flat {})",
            a.rate,
            a.sent,
            a.completed,
            a.events as f64 / a.sent as f64,
            a.horizon_s,
            a.joint_attainment,
            a.fabric.class_cells,
            a.fabric.flat_cells
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"ts-net flow fabric: n simultaneous 1024-token LLaMA-13B KV transfers, A40 node -> 3090Ti node over 5 Gbps\",\n");
    json.push_str("  \"note\": \"simulated time (deterministic, no wall-clock). Mean transfer latency grows with concurrent-flow count under max-min sharing, and the fp16-vs-int4 gap widens with contention because every extra wire byte is paid at a shared rate.\",\n");
    json.push_str(&format!("  \"tokens_per_transfer\": {TOKENS},\n"));
    json.push_str("  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"flows\": {}, \"precision\": \"{}\", \"wire_bytes_per_flow\": {}, \"mean_transfer_s\": {:.6}, \"max_transfer_s\": {:.6}}}{}\n",
            a.flows,
            a.precision,
            a.wire_bytes_per_flow,
            a.mean_transfer_s,
            a.max_transfer_s,
            if i + 1 == arms.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"overload\": {\n");
    json.push_str("    \"setup\": \"paper cloud, LLaMA-30B, coding traffic over the flow fabric; plan scheduled for plan_rate_rps (seed 42, one thread); one simulated hour of seed-1 traffic per arm; joint attainment at 8x the base SLO\",\n");
    json.push_str(&format!(
        "    \"plan_rate_rps\": {OVERLOAD_PLAN_RATE:.1},\n"
    ));
    json.push_str("    \"arms\": [\n");
    for (i, a) in overload.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"rate_rps\": {:.1}, \"sent\": {}, \"completed\": {}, \"dropped\": {}, \"rejected\": {}, \"events\": {}, \"events_per_request\": {:.6}, \"horizon_s\": {:.6}, \"joint_attainment\": {:.6}, \"fabric_changes\": {}, \"fabric_flows_visited\": {}, \"fabric_rounds\": {}, \"fabric_class_cells\": {}, \"fabric_flat_cells\": {}}}{}\n",
            a.rate,
            a.sent,
            a.completed,
            a.dropped,
            a.rejected,
            a.events,
            a.events as f64 / a.sent as f64,
            a.horizon_s,
            a.joint_attainment,
            a.fabric.changes,
            a.fabric.flows_visited,
            a.fabric.rounds,
            a.fabric.class_cells,
            a.fabric.flat_cells,
            if i + 1 == overload.len() { "" } else { "," }
        ));
    }
    json.push_str("    ]\n  }\n}\n");

    // The two qualitative properties the fabric exists to model — latency
    // grows with contention, the fp16-vs-int4 gap widens — live in the
    // shared gate, so CI enforces them on the committed artifact too.
    match ts_bench::gate::check("BENCH_net", &json, true) {
        Ok(r) => println!("gate: {} checks held", r.checks),
        Err(e) => {
            eprintln!("gate: {e}");
            std::process::exit(1);
        }
    }
    std::fs::write(&out, json).expect("write benchmark output");
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 16-flow fp16 drain shares one path class: each of its 16 starts
    /// and 15 non-final completions takes one filling round over the
    /// class's 3 links, while the flat filler would have scanned all 7
    /// links of the two-node cluster against every flow in flight.
    #[test]
    fn sixteen_flow_drain_work_is_pinned() {
        let codec = KvCodec::new(ModelSpec::llama_13b(), KvWirePrecision::F16);
        let (_, work) = drain(16, &codec);
        assert_eq!(
            work,
            FabricWork {
                changes: 32,
                flows_visited: 256,
                rounds: 31,
                class_cells: 93,
                flat_cells: 1_792,
            }
        );
    }
}
