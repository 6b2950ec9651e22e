//! Figure 6 (+ Figure 14): impact of the prefill:decode replica ratio on
//! throughput and SLO attainment.
//!
//! LLaMA-13B on homogeneous A5000 clusters of 8/12/16 GPUs, two GPUs per
//! replica; the prefill:decode ratio sweeps all splits with at least one
//! replica per phase, with fixed group construction and parallel
//! configuration (exactly the paper's setup for motivating lightweight
//! rescheduling).

use crate::harness;
use crate::table::Table;
use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, Phase, RoutingMatrix, SimDuration, SloSpec,
};
use ts_sim::config::SimConfig;
use ts_workload::spec;

/// Builds the fixed 2-GPU-per-replica plan with `p` prefill and `d` decode
/// replicas on an A5000 cluster.
pub fn ratio_plan(model: &ModelSpec, p: usize, d: usize) -> DeploymentPlan {
    let total = p + d;
    let group = |idx: usize, phase: Phase| {
        let gpus = vec![GpuId((idx * 2) as u32), GpuId((idx * 2 + 1) as u32)];
        GroupSpec::single_stage(phase, gpus, model.num_layers).unwrap()
    };
    let groups: Vec<GroupSpec> = (0..total)
        .map(|i| group(i, if i < p { Phase::Prefill } else { Phase::Decode }))
        .collect();
    DeploymentPlan::new(groups, RoutingMatrix::uniform(p, d)).unwrap()
}

/// The SLO used for the Figure 14 attainment panel.
fn slo_13b() -> SloSpec {
    SloSpec::new(
        SimDuration::from_secs(4),
        SimDuration::from_millis(150),
        SimDuration::from_secs(40),
    )
}

/// Sweeps the ratio for each cluster size and workload.
pub fn run(quick: bool) -> String {
    let model = ModelSpec::llama_13b();
    let sizes: &[usize] = if quick { &[8, 16] } else { &[8, 12, 16] };
    let mut out = String::from(
        "Figure 6 / Figure 14: throughput (tokens/s) and SLO attainment by \
         prefill:decode ratio\n(LLaMA-13B, A5000 clusters, 2 GPUs per replica)\n\n",
    );
    for &(wname, rate_per_replica) in &[("coding", 0.45f64), ("conversation", 0.40f64)] {
        for &n in sizes {
            let replicas = n / 2;
            let rate = rate_per_replica * replicas as f64;
            let w = if wname == "coding" {
                spec::coding(rate)
            } else {
                spec::conversation(rate)
            };
            let cluster = presets::a5000_cluster(n);
            let mut t = Table::new(vec!["ratio (p:d)", "tokens/s", "joint SLO att."]);
            let mut best: Option<(f64, String)> = None;
            for p in 1..replicas {
                let d = replicas - p;
                let plan = ratio_plan(&model, p, d);
                let reqs = harness::trace(&w, quick, 7);
                let m =
                    harness::run_phase_split(&cluster, &plan, SimConfig::new(model.clone()), &reqs)
                        .unwrap();
                let thpt = m.throughput_total_tokens();
                let att = m.joint_attainment(&slo_13b());
                let label = format!("{p}:{d}");
                t.row(vec![
                    label.clone(),
                    format!("{thpt:.0}"),
                    format!("{:.2}", att),
                ]);
                if best.as_ref().map(|(b, _)| thpt > *b).unwrap_or(true) {
                    best = Some((thpt, label));
                }
            }
            let (_, best_label) = best.unwrap();
            out.push_str(&format!(
                "{wname}, {n} GPUs ({replicas} replicas), rate {rate:.1} req/s — best ratio {best_label}\n{}\n",
                t.render()
            ));
        }
    }
    out.push_str(
        "Coding (long prompts, 13-token outputs) peaks at the most \
         prefill-heavy ratios; conversation's optimum shifts toward more \
         decode replicas at every cluster size (under our roofline decode is \
         cheaper than on the paper's testbed, so the absolute optima sit \
         more prefill-heavy than the paper's 3:5).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;
    use ts_sim::config::SimConfig;

    #[test]
    fn conversation_needs_more_decode_replicas_than_coding() {
        // Qualitative Figure 6 check on the 16-GPU cluster: the
        // throughput-maximizing ratio dedicates more decode replicas to the
        // conversation workload (long outputs) than to coding (13-token
        // outputs). Absolute optima differ from the paper's testbed; the
        // direction is the claim.
        let model = ModelSpec::llama_13b();
        let cluster = presets::a5000_cluster(16);
        let best_decode = |w: &ts_workload::WorkloadSpec| -> usize {
            let mut best = (0usize, f64::NEG_INFINITY);
            for p in 1..8 {
                let d = 8 - p;
                let plan = ratio_plan(&model, p, d);
                let reqs = harness::trace(w, true, 3);
                let thpt =
                    harness::run_phase_split(&cluster, &plan, SimConfig::new(model.clone()), &reqs)
                        .unwrap()
                        .throughput_tokens();
                if thpt > best.1 {
                    best = (d, thpt);
                }
            }
            best.0
        };
        let coding_d = best_decode(&spec::coding(4.4));
        let conv_d = best_decode(&spec::conversation(3.6));
        assert!(
            conv_d >= coding_d,
            "conversation best split should use >= decode replicas: conv {conv_d} vs coding {coding_d}"
        );
    }
}
