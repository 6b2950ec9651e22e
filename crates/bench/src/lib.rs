//! # ts-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation, each regenerating the corresponding rows or series on the
//! simulated substrate. The `reproduce` binary prints them; integration
//! tests assert the qualitative shapes (who wins, directions of effects).
//!
//! Run everything:
//!
//! ```text
//! cargo run -p ts-bench --bin reproduce --release
//! cargo run -p ts-bench --bin reproduce --release -- --exp fig7 --quick
//! ```

pub mod artifact;
pub mod exps;
pub mod gate;
pub mod harness;
pub mod table;
pub mod trace_demo;

/// One reproducible experiment.
pub struct Experiment {
    /// Short id (`tab1`, `fig7`, ...), matching DESIGN.md's index.
    pub id: &'static str,
    /// Paper artifact and description.
    pub title: &'static str,
    /// Runs the experiment and returns its printed report. `quick` trims
    /// horizons/sweeps for CI.
    pub run: fn(quick: bool) -> String,
}

/// What `reproduce [--exp <id>] [--quick]` writes to stdout: every
/// experiment whose id is `exp` (all of them when `None`), in registry
/// order, each under a banner of its id and title. Empty when no id
/// matches. Simulated time only, so `report(None, true)` is byte for byte
/// the committed `REPRODUCE_quick.txt`.
pub fn report(exp: Option<&str>, quick: bool) -> String {
    const RULE: &str = "==================================================================";
    let mut out = String::new();
    for e in all_experiments() {
        if exp.is_some_and(|id| e.id != id) {
            continue;
        }
        let (id, title, body) = (e.id, e.title, (e.run)(quick));
        out.push_str(&format!("{RULE}\n[{id}] {title}\n{RULE}\n{body}\n\n"));
    }
    out
}

/// The full experiment registry in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "tab1",
            title: "Table 1: GPU specifications and pricing",
            run: exps::catalog::run,
        },
        Experiment {
            id: "fig1",
            title: "Figure 1: prefill/decode price per request (3090Ti vs A40)",
            run: exps::price::run,
        },
        Experiment {
            id: "fig2",
            title: "Figure 2: effect of batching on prefill and decode",
            run: exps::batching::run,
        },
        Experiment {
            id: "fig6",
            title: "Figure 6 (+ Fig 14): throughput & SLO vs prefill:decode ratio",
            run: exps::ratio::run,
        },
        Experiment {
            id: "fig7",
            title: "Figure 7: SLO attainment on the cloud vs HexGen-like",
            run: exps::cloud_slo::run,
        },
        Experiment {
            id: "fig8",
            title: "Figure 8: same-budget cloud vs in-house (DistServe/vLLM-like)",
            run: exps::budget_slo::run,
        },
        Experiment {
            id: "fig9",
            title: "Figure 9: relative throughput vs all baselines",
            run: exps::throughput::run,
        },
        Experiment {
            id: "tab3",
            title: "Table 3 (+ App. F): deployment plans discovered by the scheduler",
            run: exps::case_study::run,
        },
        Experiment {
            id: "fig10",
            title: "Figure 10: tabu-search convergence for 16/24/32 GPUs",
            run: exps::convergence::run,
        },
        Experiment {
            id: "fig11",
            title: "Figure 11 (+ Table 4): rescheduling after 4/32 GPUs fail",
            run: exps::failure::run,
        },
        Experiment {
            id: "abl1",
            title: "Extension: scheduler-component ablation (init / moves / tie-breaker)",
            run: exps::sched_ablation::run,
        },
        Experiment {
            id: "ext2",
            title: "Extension: GQA shrinks the KV transfer (slow-link phase splitting)",
            run: exps::gqa::run,
        },
        Experiment {
            id: "ext1",
            title: "Extension: workload robustness (bursty arrivals, mixed services)",
            run: exps::workload_robustness::run,
        },
        Experiment {
            id: "fig12",
            title: "Figure 12: ablation of KV compression and orchestration",
            run: exps::ablation::run,
        },
        Experiment {
            id: "tab2",
            title: "Tables 2/6/7 (proxy): KV quantization quality",
            run: exps::quant_quality::run,
        },
        Experiment {
            id: "tab5",
            title: "Table 5 (+ Figs 16-17, App. H): phase splitting vs network bandwidth",
            run: exps::network::run,
        },
        Experiment {
            id: "tab8",
            title: "Table 8 / Figure 18: 16-bit vs 4-bit KV communication",
            run: exps::comm_precision::run,
        },
        Experiment {
            id: "mm",
            title: "Extension: multi-model shared pool vs static partition",
            run: exps::mm::run,
        },
        Experiment {
            id: "auto",
            title: "Extension: coordinated autoscaling over a spot-priced elastic fleet",
            run: exps::autoscale::run,
        },
        Experiment {
            id: "netc",
            title: "Extension: KV-transfer contention under the flow-level fabric",
            run: exps::net_contention::run,
        },
        Experiment {
            id: "fig13",
            title: "Figure 13 (App. C): inter-connection bandwidth heatmaps",
            run: exps::bandwidth_matrix::run,
        },
        Experiment {
            id: "fig19",
            title: "Figure 19 (App. J): analytic estimator vs event simulation",
            run: exps::sim_accuracy::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(n >= 16);
    }
}
