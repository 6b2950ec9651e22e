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
//! is paid at a contended rate. `bench_net` records the same sweep at the
//! raw fabric level in `BENCH_net.json`.

use crate::exps::network::disaggregated_plan;
use crate::harness::{self};
use crate::table::Table;
use ts_cluster::presets;
use ts_common::{ModelSpec, Request, SloKind};
use ts_kvcache::codec::KvWirePrecision;
use ts_sim::config::SimConfig;
use ts_sim::metrics::Metrics;
use ts_sim::Simulation;

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
