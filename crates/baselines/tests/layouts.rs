//! Golden pin for the baseline planners' layouts.
//!
//! vLLM, DistServe and HexGen each plan LLaMA-7B, 13B and 30B (fp16, plus
//! HexGen at int8) on the paper's cloud and in-house clusters, a 16-GPU
//! A5000 cloud, the 40 Gbps network case and the 40 Gbps A5000 pair (where
//! the larger models fit nowhere), and once more on the in-house box with
//! one GPU failed, so a node tiles with a leftover GPU, and on the network
//! case with one 3090Ti failed, so HexGen's two clusters merge into one. Every group is
//! rendered as its phase, TP, PP, GPU ids and stage layers (a planner error
//! as its message), and the text is compared against
//! `tests/golden_layouts.txt`.
//!
//! To re-bless after an *intentional* change:
//! `BLESS_GOLDEN=1 cargo test -p ts-baselines --test layouts` — and
//! justify the diff in the commit message.

use std::fmt::Write;
use ts_baselines::{DistServePlanner, HexGenPlanner, VllmPlanner};
use ts_cluster::{presets, Cluster};
use ts_common::{DType, GpuId, GroupSpec, ModelSpec, Result, SimDuration, SloSpec};
use ts_workload::spec;

fn slo() -> SloSpec {
    SloSpec::new(
        SimDuration::from_secs(3),
        SimDuration::from_millis(200),
        SimDuration::from_secs(40),
    )
}

fn render_groups(out: &mut String, groups: &[GroupSpec]) {
    for g in groups {
        let stages: Vec<String> = g
            .stages
            .iter()
            .map(|st| {
                let gpus: Vec<String> = st.gpus.iter().map(|gpu| gpu.0.to_string()).collect();
                format!("{}x{}", gpus.join(","), st.layers)
            })
            .collect();
        let _ = writeln!(
            out,
            "  {} tp={} pp={} stages={}",
            g.phase,
            g.parallel.tp(),
            g.parallel.pp(),
            stages.join("|")
        );
    }
}

fn render(out: &mut String, title: &str, groups: Result<Vec<GroupSpec>>) {
    let _ = writeln!(out, "== {title}");
    match groups {
        Ok(groups) => render_groups(out, &groups),
        Err(e) => {
            let _ = writeln!(out, "  error: {e}");
        }
    }
}

fn int8(mut m: ModelSpec) -> ModelSpec {
    m.dtype = DType::I8;
    m.name.push_str("-int8");
    m
}

fn run_matrix() -> String {
    let mut failed = presets::paper_inhouse_cluster();
    failed.deactivate_gpus(&[GpuId(0)]).unwrap();
    let mut network_failed = presets::network_case_cluster(presets::ETH_40GBPS);
    network_failed.deactivate_gpus(&[GpuId(7)]).unwrap();
    let clusters: Vec<(&str, Cluster)> = vec![
        ("cloud", presets::paper_cloud_cluster()),
        ("inhouse", presets::paper_inhouse_cluster()),
        ("a5000x16", presets::a5000_cluster(16)),
        (
            "network_40gbps",
            presets::network_case_cluster(presets::ETH_40GBPS),
        ),
        ("a5000_pair_40gbps", presets::a5000_pair_40gbps()),
        ("inhouse_gpu0_failed", failed),
        ("network_40gbps_gpu7_failed", network_failed),
    ];
    let models = [
        ModelSpec::llama_7b(),
        ModelSpec::llama_13b(),
        ModelSpec::llama_30b(),
    ];
    let workload = spec::coding(2.0);
    let mut out = String::new();
    for (name, cluster) in &clusters {
        for model in &models {
            let case = format!("{name} {}", model.name);
            render(
                &mut out,
                &format!("vllm {case}"),
                VllmPlanner::new().plan(cluster, model),
            );
            render(
                &mut out,
                &format!("distserve {case}"),
                DistServePlanner::new()
                    .plan(cluster, model, &workload, &slo())
                    .map(|p| p.groups),
            );
            render(
                &mut out,
                &format!("hexgen {case}"),
                HexGenPlanner::new().plan(cluster, model, &workload),
            );
        }
        for model in models.iter().cloned().map(int8) {
            render(
                &mut out,
                &format!("hexgen {name} {}", model.name),
                HexGenPlanner::new().plan(cluster, &model, &workload),
            );
        }
    }
    out
}

const GOLDEN: &str = include_str!("golden_layouts.txt");

#[test]
fn baseline_layouts_match_the_golden() {
    let got = run_matrix();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_layouts.txt"),
            &got,
        )
        .unwrap();
        return;
    }
    assert_eq!(got, GOLDEN, "baseline layouts diverged from the golden");
}
