//! Network-contention ablation: flow-level fabric vs legacy serialization.
//!
//! The Appendix-H disaggregated layout (4×A40 prefill → 4×3090Ti decode)
//! runs on a 5 Gbps inter-instance link with
//! [`ts_sim::config::KvTransfer::Fabric`] on, sweeping the
//! arrival rate (which controls how many KV transfers overlap on the link)
//! against {4-bit, fp16} wire precision. Under max-min sharing the
//! per-transfer wire time stretches with the number of concurrent flows —
//! something the legacy per-sender serialization cannot express — and the
//! fp16-vs-4-bit gap widens as the link saturates, since every extra byte
//! is paid at a contended rate.
//!
//! `BENCH_net.json` ([`artifact()`]) records the same effect at the raw
//! fabric level: `n` simultaneous transfers of a 1024-token LLaMA-13B
//! cache, drained event by event as the simulator does. Its `overload`
//! section serves LLaMA-30B coding traffic on the paper cloud at and past
//! the rate its plan was scheduled for, with thousands of flows in flight.

use crate::artifact::{checked, Rule};
use crate::exps::network::disaggregated_plan;
use crate::harness::{self, base_slo_30b};
use crate::table::Table;
use thunderserve_core::orchestrate::sim_config;
use thunderserve_core::{Scheduler, SchedulerConfig};
use ts_cluster::presets;
use ts_common::{GpuId, ModelSpec, Request, SimDuration, SimTime, SloKind};
use ts_kvcache::codec::{KvCodec, KvWirePrecision};
use ts_net::{FabricWork, FlowFabric};
use ts_sim::config::SimConfig;
use ts_sim::metrics::Metrics;
use ts_sim::Simulation;
use ts_workload::generator::generate;

/// Arrival rates swept (req/s): each transfer is ~0.3 s (4-bit) to ~1.3 s
/// (fp16) at 5 Gbps, so the low rate barely overlaps and the high rate
/// keeps several flows on the link at once.
const RATES: [f64; 3] = [0.4, 1.0, 1.6];

/// Mean sender-side queue wait and wire time over requests that actually
/// transferred KV, in seconds.
pub fn mean_kv_times(m: &Metrics) -> (f64, f64) {
    let moved: Vec<_> = m
        .records()
        .iter()
        .filter(|r| r.kv_done_at.is_some())
        .collect();
    let n = moved.len().max(1) as f64;
    (
        moved
            .iter()
            .map(|r| r.kv_queue_wait.as_secs_f64())
            .sum::<f64>()
            / n,
        moved
            .iter()
            .map(|r| r.kv_wire_time.as_secs_f64())
            .sum::<f64>()
            / n,
    )
}

/// Builds one arm of the sweep: the simulation and its request trace.
fn setup(
    rate: f64,
    precision: KvWirePrecision,
    contention: bool,
    quick: bool,
) -> (Simulation, Vec<Request>) {
    let model = ModelSpec::llama_13b();
    let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
    let plan = disaggregated_plan(&model);
    let cfg = SimConfig::new(model)
        .with_kv_precision(precision)
        .with_network_contention(contention);
    let w = ts_workload::spec::fixed(1024, 32, rate);
    let sim = Simulation::new(&cluster, &plan, cfg).unwrap();
    (sim, harness::trace(&w, quick, 41))
}

/// Runs one arm of the sweep.
pub fn arm(rate: f64, precision: KvWirePrecision, contention: bool, quick: bool) -> Metrics {
    let (mut sim, reqs) = setup(rate, precision, contention, quick);
    sim.run(&reqs).unwrap()
}

/// Concurrent-flow counts of the raw fabric sweep.
const FLOW_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];
/// Tokens per transfer in the raw fabric sweep.
const TOKENS: u64 = 1024;
/// The rate (req/s) the overload section's plan is scheduled for.
const OVERLOAD_PLAN_RATE: f64 = 3.0;
/// Offered rates (req/s) the overload section serves on that plan: the
/// control, then past the plan's rate.
const OVERLOAD_RATES: [f64; 2] = [3.0, 4.0];

/// One raw fabric drain: `flows` simultaneous transfers at one precision.
#[derive(Debug, Clone, Copy)]
struct DrainArm {
    flows: usize,
    precision: &'static str,
    wire_bytes_per_flow: u64,
    mean_transfer_s: f64,
    max_transfer_s: f64,
}

/// One overload arm: one simulated hour at one offered rate.
#[derive(Debug, Clone, Copy)]
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

/// What `BENCH_net.json` records: the drain sweep by flow count then
/// precision, and the overload arms by offered rate.
#[derive(Debug, Clone)]
struct FabricReport {
    sweep: Vec<DrainArm>,
    overload: Vec<OverloadArm>,
}

/// Starts `flows` simultaneous A40-node → 3090Ti-node transfers over
/// 5 Gbps and drains the fabric, completing the earliest-due flow each
/// step exactly like the simulator's timer.
fn drain(flows: usize, precision: &'static str, wire: KvWirePrecision) -> (DrainArm, FabricWork) {
    let bytes = KvCodec::new(ModelSpec::llama_13b(), wire).wire_bytes(TOKENS);
    let mut fabric = FlowFabric::from_cluster(&presets::network_case_cluster(presets::ETH_5GBPS));
    for i in 0..flows {
        let (from, to) = (GpuId((i % 4) as u32), GpuId(4 + (i % 4) as u32));
        fabric.start(i as u64, from, to, bytes as f64, SimTime::ZERO);
    }
    let mut done = vec![0.0; flows];
    while let Some((at, key)) = fabric.next_due() {
        fabric.complete_due(at);
        done[key as usize] = at.as_secs_f64();
    }
    let arm = DrainArm {
        flows,
        precision,
        wire_bytes_per_flow: bytes,
        mean_transfer_s: done.iter().sum::<f64>() / flows as f64,
        max_transfer_s: done.iter().copied().fold(0.0, f64::max),
    };
    (arm, fabric.work())
}

/// Schedules the paper cloud for [`OVERLOAD_PLAN_RATE`] with the fabric on
/// (seed 42, one thread) and serves one simulated hour of seed-1 traffic
/// at each of [`OVERLOAD_RATES`] on it.
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
    let coding = ts_workload::spec::coding;
    let plan = Scheduler::new(cfg.clone())
        .schedule(&cluster, &model, &coding(OVERLOAD_PLAN_RATE), &slo)
        .expect("the paper cloud schedules the coding plan")
        .plan;
    OVERLOAD_RATES
        .iter()
        .map(|&rate| {
            let reqs = generate(&coding(rate), SimDuration::from_secs(3600), 1);
            let mut sim = Simulation::new(&cluster, &plan, sim_config(&model, &cfg))
                .expect("the scheduled plan simulates");
            let m = sim.run(&reqs).expect("the overload run completes");
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

/// The properties the fabric exists to model.
const RULES: &[Rule<FabricReport>] = &[
    Rule {
        name: "mean transfer time grows with the flow count at fixed precision",
        holds: |r| {
            r.sweep.iter().all(|a| {
                r.sweep.iter().all(|b| {
                    a.precision != b.precision
                        || a.flows >= b.flows
                        || a.mean_transfer_s < b.mean_transfer_s
                })
            })
        },
    },
    Rule {
        name: "the fp16-int4 gap widens from the fewest to the most flows",
        holds: |r| {
            let mean = |flows, precision| {
                r.sweep
                    .iter()
                    .find(|a| a.flows == flows && a.precision == precision)
                    .map(|a| a.mean_transfer_s)
            };
            let gap = |flows| Some(mean(flows, "fp16")? - mean(flows, "int4")?);
            let flows = r.sweep.iter().map(|a| a.flows);
            match (flows.clone().min().and_then(gap), flows.max().and_then(gap)) {
                (Some(narrow), Some(wide)) => wide > narrow,
                _ => false,
            }
        },
    },
    Rule {
        name: "every overload arm conserves requests",
        holds: |r| {
            r.overload
                .iter()
                .all(|a| a.completed + a.dropped + a.rejected == a.sent)
        },
    },
    Rule {
        name: "every overload arm scans at most the flat filler's cells",
        holds: |r| {
            r.overload
                .iter()
                .all(|a| a.fabric.class_cells <= a.fabric.flat_cells)
        },
    },
    Rule {
        name: "past the plan's rate, attainment is at most the control's",
        holds: |r| {
            let control = r
                .overload
                .iter()
                .filter(|a| a.rate <= OVERLOAD_PLAN_RATE)
                .map(|a| a.joint_attainment)
                .fold(f64::INFINITY, f64::min);
            r.overload
                .iter()
                .filter(|a| a.rate > OVERLOAD_PLAN_RATE)
                .all(|a| a.joint_attainment <= control)
        },
    },
];

fn render_json(r: &FabricReport) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"ts-net flow fabric: n simultaneous 1024-token LLaMA-13B KV transfers, A40 node -> 3090Ti node over 5 Gbps\",\n");
    json.push_str("  \"note\": \"simulated time (deterministic, no wall-clock). Mean transfer latency grows with concurrent-flow count under max-min sharing, and the fp16-vs-int4 gap widens with contention because every extra wire byte is paid at a shared rate.\",\n");
    json.push_str(&format!("  \"tokens_per_transfer\": {TOKENS},\n"));
    json.push_str("  \"arms\": [\n");
    for (i, a) in r.sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"flows\": {}, \"precision\": \"{}\", \"wire_bytes_per_flow\": {}, \"mean_transfer_s\": {:.6}, \"max_transfer_s\": {:.6}}}{}\n",
            a.flows,
            a.precision,
            a.wire_bytes_per_flow,
            a.mean_transfer_s,
            a.max_transfer_s,
            if i + 1 == r.sweep.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"overload\": {\n");
    json.push_str("    \"setup\": \"paper cloud, LLaMA-30B, coding traffic over the flow fabric; plan scheduled for plan_rate_rps (seed 42, one thread); one simulated hour of seed-1 traffic per arm; joint attainment at 8x the base SLO\",\n");
    json.push_str(&format!(
        "    \"plan_rate_rps\": {OVERLOAD_PLAN_RATE:.1},\n"
    ));
    json.push_str("    \"arms\": [\n");
    for (i, a) in r.overload.iter().enumerate() {
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
            if i + 1 == r.overload.len() { "" } else { "," }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    json
}

/// `BENCH_net.json`: the raw drain sweep (milliseconds) and the overload
/// section (about 1.5 s on a 2-vCPU host), checked against their rules.
///
/// # Errors
/// Returns the names of the rules the report breaks.
pub fn artifact() -> Result<String, String> {
    let sweep = FLOW_SWEEP
        .iter()
        .flat_map(|&flows| {
            [
                drain(flows, "int4", KvWirePrecision::DEFAULT_COMPRESSED).0,
                drain(flows, "fp16", KvWirePrecision::F16).0,
            ]
        })
        .collect();
    let report = FabricReport {
        sweep,
        overload: overload(),
    };
    checked(&report, RULES, render_json)
}

/// Runs the contention sweep.
pub fn run(quick: bool) -> String {
    let mut out = String::from(
        "Network contention: flow-level fabric, 4xA40 -> 4x3090Ti over 5 Gbps\n\
         (LLaMA-13B, 1024-token prompts; wire/queue means over transferred requests)\n\n",
    );
    let mut t = Table::new(vec![
        "rate (req/s)",
        "precision",
        "mean wire (ms)",
        "mean queue (ms)",
        "mean E2E (s)",
        "tokens/s",
    ]);
    for &rate in &RATES {
        for (name, p) in [
            ("4-bit", KvWirePrecision::DEFAULT_COMPRESSED),
            ("fp16", KvWirePrecision::F16),
        ] {
            let m = arm(rate, p, true, quick);
            let (queue, wire) = mean_kv_times(&m);
            t.row(vec![
                format!("{rate:.1}"),
                name.into(),
                format!("{:.1}", wire * 1e3),
                format!("{:.1}", queue * 1e3),
                format!("{:.2}", m.mean_latency(SloKind::E2e).unwrap().as_secs_f64()),
                format!("{:.0}", m.throughput_tokens()),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nWire time stretches with the arrival rate as concurrent flows split \
         the 5 Gbps link max-min fairly, and the fp16-vs-4-bit gap widens under \
         contention: every extra wire byte is paid at a shared, not dedicated, \
         rate. The legacy model keeps wire time load-independent and charges \
         waiting to the sender queue instead.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::failing;

    #[test]
    fn wire_time_grows_with_concurrent_load() {
        let (_, lo) = mean_kv_times(&arm(0.4, KvWirePrecision::DEFAULT_COMPRESSED, true, true));
        let (_, hi) = mean_kv_times(&arm(1.6, KvWirePrecision::DEFAULT_COMPRESSED, true, true));
        assert!(
            hi > lo,
            "contended wire time must grow with load: {hi} <= {lo}"
        );
    }

    #[test]
    fn precision_gap_widens_under_contention() {
        let wire = |rate, p| mean_kv_times(&arm(rate, p, true, true)).1;
        let gap_lo =
            wire(0.4, KvWirePrecision::F16) - wire(0.4, KvWirePrecision::DEFAULT_COMPRESSED);
        let gap_hi =
            wire(1.6, KvWirePrecision::F16) - wire(1.6, KvWirePrecision::DEFAULT_COMPRESSED);
        assert!(gap_lo > 0.0, "fp16 moves 4x the bytes: gap {gap_lo}");
        assert!(
            gap_hi > gap_lo,
            "the fp16-vs-4-bit gap must widen under contention: {gap_hi} <= {gap_lo}"
        );
    }

    /// Both 1.0 req/s arms end on a fabric completion estimate that a
    /// later fabric change superseded: the makespan is that estimate, not
    /// the last request's finish. Pinned bit-exactly.
    #[test]
    fn makespan_includes_superseded_fabric_estimates() {
        for (p, horizon_us, rps_bits) in [
            (
                KvWirePrecision::DEFAULT_COMPRESSED,
                239_634_097,
                0x3ff0_0641_187a_d4b6,
            ),
            (KvWirePrecision::F16, 393_648_940, 0x3fe3_8280_3d75_ee0f),
        ] {
            let m = arm(1.0, p, true, false);
            assert_eq!(m.horizon().as_micros(), horizon_us, "{p:?}");
            assert_eq!(m.throughput_rps().to_bits(), rps_bits, "{p:?}");
        }
    }

    /// The overloaded fp16 arm keeps many flows on the link at once; one
    /// fabric timer keeps it at about four events per request.
    #[test]
    fn overloaded_fabric_dispatches_a_pinned_event_count() {
        let (mut sim, reqs) = setup(1.6, KvWirePrecision::F16, true, false);
        sim.run(&reqs).unwrap();
        assert_eq!(reqs.len(), 386);
        assert_eq!(sim.events_processed(), 1_595);
    }

    /// The 16-flow fp16 drain shares one path class: each of its 16 starts
    /// and 15 non-final completions takes one filling round over the
    /// class's 3 links, while the flat filler would have scanned all 7
    /// links of the two-node cluster against every flow in flight.
    #[test]
    fn sixteen_flow_drain_work_is_pinned() {
        let (_, work) = drain(16, "fp16", KvWirePrecision::F16);
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

    fn fabric_report() -> FabricReport {
        let drained = |flows, precision, mean_transfer_s| DrainArm {
            flows,
            precision,
            wire_bytes_per_flow: 1,
            mean_transfer_s,
            max_transfer_s: mean_transfer_s,
        };
        let served = |rate, joint_attainment, class_cells| OverloadArm {
            rate,
            sent: 10,
            completed: 9,
            dropped: 1,
            rejected: 0,
            events: 42,
            horizon_s: 3600.5,
            joint_attainment,
            fabric: FabricWork {
                changes: 30,
                flows_visited: 60,
                rounds: 30,
                class_cells,
                flat_cells: 1200,
            },
        };
        FabricReport {
            sweep: vec![
                drained(1, "int4", 0.1),
                drained(1, "fp16", 0.4),
                drained(4, "int4", 0.3),
                drained(4, "fp16", 1.2),
            ],
            overload: vec![served(3.0, 0.5, 90), served(4.0, 0.01, 99)],
        }
    }

    #[test]
    fn fabric_rules_trip() {
        let ok = fabric_report();
        assert!(failing(&ok, RULES).is_empty());

        let mut flat = ok.clone();
        flat.sweep[2].mean_transfer_s = 0.1;
        assert_eq!(
            failing(&flat, RULES),
            ["mean transfer time grows with the flow count at fixed precision"]
        );

        let mut narrowing = ok.clone();
        narrowing.sweep[3].mean_transfer_s = 0.5;
        assert_eq!(
            failing(&narrowing, RULES),
            ["the fp16-int4 gap widens from the fewest to the most flows"]
        );
        let mut one_precision = ok.clone();
        one_precision.sweep.retain(|a| a.precision == "int4");
        assert_eq!(
            failing(&one_precision, RULES),
            ["the fp16-int4 gap widens from the fewest to the most flows"]
        );

        let mut leaky = ok.clone();
        leaky.overload[0].completed = 8;
        assert_eq!(
            failing(&leaky, RULES),
            ["every overload arm conserves requests"]
        );

        let mut wasteful = ok.clone();
        wasteful.overload[1].fabric.class_cells = 1201;
        assert_eq!(
            failing(&wasteful, RULES),
            ["every overload arm scans at most the flat filler's cells"]
        );

        let mut inverted = ok;
        inverted.overload[1].joint_attainment = 0.9;
        assert_eq!(
            failing(&inverted, RULES),
            ["past the plan's rate, attainment is at most the control's"]
        );
    }

    #[test]
    fn legacy_model_keeps_wire_time_load_independent() {
        // The counterpoint that motivates the fabric: under per-sender
        // serialization the wire time is a pure function of bytes and
        // bandwidth, so load moves *queue* time only.
        let wire =
            |rate| mean_kv_times(&arm(rate, KvWirePrecision::DEFAULT_COMPRESSED, false, true)).1;
        let lo = wire(0.4);
        let hi = wire(1.6);
        assert!(
            (hi - lo).abs() < 1e-4,
            "legacy wire time should not depend on load: {lo} vs {hi}"
        );
    }
}
