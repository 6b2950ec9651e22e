//! Scheduler-component ablation (extension beyond the paper's figures).
//!
//! The paper motivates three design choices in §3.2 without isolating them:
//! the hierarchical-clustering seed, the four-move neighbourhood (vs the
//! flip-only move set lightweight rescheduling uses), and — in our
//! implementation — the hardware-affinity tie-breaker. This experiment runs
//! the tabu search with each component removed and compares the objective
//! reached under the same budget, averaged over seeds.

use crate::harness::base_slo_30b;
use crate::table::Table;
use thunderserve_core::{Scheduler, SchedulerConfig};
use ts_cluster::presets;
use ts_common::ModelSpec;

struct Variant {
    name: &'static str,
    flip_only: bool,
    random_init: bool,
    no_affinity: bool,
}

const VARIANTS: [Variant; 4] = [
    Variant {
        name: "full scheduler",
        flip_only: false,
        random_init: false,
        no_affinity: false,
    },
    Variant {
        name: "- clustering init (random seed partition)",
        flip_only: false,
        random_init: true,
        no_affinity: false,
    },
    Variant {
        name: "- split/merge/move (flip-only neighbourhood)",
        flip_only: true,
        random_init: false,
        no_affinity: false,
    },
    Variant {
        name: "- affinity tie-breaker",
        flip_only: false,
        random_init: false,
        no_affinity: true,
    },
];

/// Runs the ablation grid.
pub fn run(quick: bool) -> String {
    let cluster = presets::paper_cloud_cluster();
    let model = ModelSpec::llama_30b();
    // Stressed enough that the objective does not saturate at 1.0.
    let w = ts_workload::spec::coding(4.0);
    let slo = base_slo_30b().scaled(8.0);
    let seeds: &[u64] = if quick { &[1, 2] } else { &[1, 2, 3, 4, 5] };
    let steps = if quick { 30 } else { 80 };

    let mut t = Table::new(vec!["variant", "mean objective", "mean evaluations"]);
    let mut rows = Vec::new();
    for v in &VARIANTS {
        let mut score_sum = 0.0;
        let mut eval_sum = 0usize;
        for &seed in seeds {
            let mut cfg = SchedulerConfig::default();
            cfg.seed = seed;
            cfg.n_step = steps;
            cfg.flip_only_moves = v.flip_only;
            cfg.random_init = v.random_init;
            cfg.disable_affinity_tiebreak = v.no_affinity;
            let r = Scheduler::new(cfg)
                .schedule(&cluster, &model, &w, &slo)
                .expect("all variants should find some plan");
            score_sum += r.estimated_attainment;
            eval_sum += r.evaluations;
        }
        let n = seeds.len() as f64;
        rows.push((v.name, score_sum / n));
        t.row(vec![
            v.name.into(),
            format!("{:.3}", score_sum / n),
            format!("{:.0}", eval_sum as f64 / n),
        ]);
    }
    let full = rows[0].1;
    let worst =
        rows[1..].iter().cloned().fold(
            ("", f64::INFINITY),
            |acc, r| if r.1 < acc.1 { r } else { acc },
        );
    format!(
        "Scheduler-component ablation (coding @4 req/s, objective = estimated \
         joint SLO attainment, {} seeds):\n\n{}\nRemoving `{}` costs the most \
         (objective {:.3} vs {:.3} for the full scheduler).\n",
        seeds.len(),
        t.render(),
        worst.0,
        worst.1,
        full
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scheduler_is_never_worst() {
        let cluster = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let w = ts_workload::spec::coding(4.0);
        let slo = base_slo_30b().scaled(8.0);
        let score = |flip: bool, rand: bool| {
            let mut sum = 0.0;
            for seed in [1u64, 2] {
                let mut cfg = SchedulerConfig::default();
                cfg.seed = seed;
                cfg.n_step = 30;
                cfg.flip_only_moves = flip;
                cfg.random_init = rand;
                sum += Scheduler::new(cfg)
                    .schedule(&cluster, &model, &w, &slo)
                    .unwrap()
                    .estimated_attainment;
            }
            sum / 2.0
        };
        let full = score(false, false);
        let flip_only = score(true, false);
        let random_init = score(false, true);
        assert!(
            full >= flip_only - 0.05,
            "full {full} should not trail flip-only {flip_only}"
        );
        assert!(
            full >= random_init - 0.05,
            "full {full} should not trail random-init {random_init}"
        );
    }
}
