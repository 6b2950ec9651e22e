//! Table 8 / Figure 18: 16-bit vs 4-bit KV communication.
//!
//! Same setup as Table 5's high-bandwidth case (4×A40 prefill → 4×3090Ti
//! decode at 40 Gbps): compare per-request KV transfer time and end-to-end
//! throughput between fp16 and int4 wire precision, plus the Figure 18
//! LLaMA-7B microbenchmark on a 2×A5000 pair.

use crate::harness;
use crate::table::Table;
use ts_cluster::presets;
use ts_common::{ModelSpec, SloKind};
use ts_costmodel::replica::{kv_route, kv_transfer_time};
use ts_costmodel::{ModelParams, ReplicaCostModel};
use ts_kvcache::codec::KvWirePrecision;
use ts_sim::config::SimConfig;

use super::network::disaggregated_plan;

/// Runs the precision comparison.
pub fn run(quick: bool) -> String {
    let model = ModelSpec::llama_30b();
    let plan = disaggregated_plan(&model);
    let w = ts_workload::spec::fixed(1024, 64, 1.5);
    let reqs = harness::trace(&w, quick, 29);
    let params = ModelParams::default();

    let mut t = Table::new(vec![
        "link",
        "config",
        "KV comm / req",
        "mean E2E (s)",
        "tokens/s",
    ]);
    let mut kv16 = ts_common::SimDuration::ZERO;
    let mut kv4 = ts_common::SimDuration::ZERO;
    for &(bw_name, bw) in &[
        ("40 Gbps", presets::ETH_40GBPS),
        ("5 Gbps", presets::ETH_5GBPS),
    ] {
        let cluster = presets::network_case_cluster(bw);
        // Analytic per-request KV transfer times (Table 8's "KV Comm").
        let pf = ReplicaCostModel::new(&cluster, &model, &plan.groups[0], &params).unwrap();
        let dc = ReplicaCostModel::new(&cluster, &model, &plan.groups[1], &params).unwrap();
        let kv_time =
            |precision| kv_transfer_time(&model, kv_route(&cluster, &pf, &dc), 1024, precision);
        kv16 = kv_time(KvWirePrecision::F16);
        kv4 = kv_time(KvWirePrecision::DEFAULT_COMPRESSED);
        let m16 = harness::run_phase_split(
            &cluster,
            &plan,
            SimConfig::new(model.clone()).with_f16_kv(),
            &reqs,
        )
        .unwrap();
        let m4 = harness::run_phase_split(&cluster, &plan, SimConfig::new(model.clone()), &reqs)
            .unwrap();
        for (name, kv, m) in [("16-bit", kv16, &m16), ("4-bit", kv4, &m4)] {
            t.row(vec![
                bw_name.into(),
                name.into(),
                format!("{kv}"),
                format!("{:.2}", m.mean_latency(SloKind::E2e).unwrap().as_secs_f64()),
                format!("{:.0}", m.throughput_tokens()),
            ]);
        }
    }

    // Figure 18 microbench: LLaMA-7B on the 2xA5000 40 Gbps pair.
    let m7 = ModelSpec::llama_7b();
    let pair = presets::a5000_pair_40gbps();
    let mk = |phase, gpu: u32| {
        ts_common::GroupSpec::single_stage(phase, vec![ts_common::GpuId(gpu)], m7.num_layers)
            .unwrap()
    };
    let pair_plan = ts_common::DeploymentPlan::new(
        vec![
            mk(ts_common::Phase::Prefill, 0),
            mk(ts_common::Phase::Decode, 1),
        ],
        ts_common::RoutingMatrix::uniform(1, 1),
    )
    .unwrap();
    let w7 = ts_workload::spec::fixed(1024, 64, 1.0);
    let reqs7 = harness::trace(&w7, quick, 31);
    let p16 = harness::run_phase_split(
        &pair,
        &pair_plan,
        SimConfig::new(m7.clone()).with_f16_kv(),
        &reqs7,
    )
    .unwrap();
    let p4 =
        harness::run_phase_split(&pair, &pair_plan, SimConfig::new(m7.clone()), &reqs7).unwrap();

    // Figure 18's framing: KV comm as a fraction of the end-to-end cost of
    // one request on the A5000 pair.
    let pf7 = ReplicaCostModel::new(&pair, &m7, &pair_plan.groups[0], &params).unwrap();
    let dc7 = ReplicaCostModel::new(&pair, &m7, &pair_plan.groups[1], &params).unwrap();
    let kv7_time = |precision| {
        kv_transfer_time(&m7, kv_route(&pair, &pf7, &dc7), 1024, precision).as_secs_f64()
    };
    let kv7_16 = kv7_time(KvWirePrecision::F16);
    let kv7_4 = kv7_time(KvWirePrecision::DEFAULT_COMPRESSED);
    let exec7 = pf7.prefill_latency(1024, 1024).as_secs_f64()
        + 63.0 * dc7.decode_step_latency(8, 1056).as_secs_f64();
    format!(
        "Table 8: 16-bit vs 4-bit KV communication (LLaMA-30B, A40→3090Ti)\n{}\n\
         Figure 18 microbench (LLaMA-7B, 2xA5000 @40Gbps): fp16 E2E {:.2}s vs \
         int4 E2E {:.2}s; KV comm shrinks ~{:.1}x on the wire and drops from \
         {:.0}% to {:.0}% of the per-request execution cost (paper: 16-30% \
         down to 4-9%).\n",
        t.render(),
        p16.mean_latency(SloKind::E2e).unwrap().as_secs_f64(),
        p4.mean_latency(SloKind::E2e).unwrap().as_secs_f64(),
        kv16.as_secs_f64() / kv4.as_secs_f64(),
        100.0 * kv7_16 / (exec7 + kv7_16),
        100.0 * kv7_4 / (exec7 + kv7_4),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn four_bit_beats_sixteen_bit() {
        let out = super::run(true);
        assert!(out.contains("16-bit"));
        assert!(out.contains("4-bit"));
        assert!(out.contains("shrinks"));
    }
}
