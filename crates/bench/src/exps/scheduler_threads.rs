//! `BENCH_scheduler.json`: the two-level scheduler's search counters on
//! three clusters, each at 1, 2, 4 and 8 threads.
//!
//! Every arm runs the full `schedule` with `SchedulerConfig::default()`
//! (N_step = 100, N_nghb = 10) and seed 1 on coding traffic at 2 req/s:
//! 8 GPUs (the network case study's nodes over 40 Gbps Ethernet) and 32
//! (the paper cloud) serve LLaMA-30B, 16 A5000s serve LLaMA-13B. The search
//! is bit-identical across thread counts, so every arm at one cluster size
//! must report the same counters and score. The walk's cache hit counts
//! are left out: they may vary with the thread count.
//!
//! The search's wall clock lives in the repository benchmark
//! (`paper_*`'s `setup_s`).

use crate::artifact::{checked, Rule};
use thunderserve_core::{Scheduler, SchedulerConfig};
use ts_cluster::presets;
use ts_common::{ModelSpec, SimDuration, SloSpec};
use ts_workload::spec;

const GPUS: [usize; 3] = [8, 16, 32];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One cluster size at one thread count.
#[derive(Debug, Clone, Copy)]
pub struct SearchArm {
    /// GPUs in the cluster.
    pub gpus: usize,
    /// `SchedulerConfig::num_threads`.
    pub threads: usize,
    /// Lower-level evaluations.
    pub evaluations: usize,
    /// Neighbours generated across all search steps.
    pub neighbors_generated: usize,
    /// The best plan's estimated SLO attainment.
    pub score: f64,
}

fn search(gpus: usize, threads: usize) -> SearchArm {
    let (cluster, model) = match gpus {
        8 => (
            presets::network_case_cluster(presets::ETH_40GBPS),
            ModelSpec::llama_30b(),
        ),
        16 => (presets::a5000_cluster(16), ModelSpec::llama_13b()),
        32 => (presets::paper_cloud_cluster(), ModelSpec::llama_30b()),
        _ => unreachable!("unknown cluster size"),
    };
    let slo = SloSpec::new(
        SimDuration::from_millis(400 * 8),
        SimDuration::from_millis(30 * 8),
        SimDuration::from_secs(48),
    );
    let mut cfg = SchedulerConfig::default();
    cfg.seed = 1;
    cfg.num_threads = threads;
    let r = Scheduler::new(cfg)
        .schedule(&cluster, &model, &spec::coding(2.0), &slo)
        .expect("every cluster schedules");
    SearchArm {
        gpus,
        threads,
        evaluations: r.evaluations,
        neighbors_generated: r.neighbors_generated,
        score: r.estimated_attainment,
    }
}

/// Every cluster size at every thread count.
pub fn measure() -> Vec<SearchArm> {
    GPUS.iter()
        .flat_map(|&gpus| THREADS.iter().map(move |&threads| search(gpus, threads)))
        .collect()
}

/// What parallel neighbourhood evaluation must keep.
const RULES: &[Rule<[SearchArm]>] = &[Rule {
    name: "every thread count at a cluster size gives the same counters and score",
    holds: |arms| {
        let key = |a: &SearchArm| (a.evaluations, a.neighbors_generated, a.score.to_bits());
        arms.iter().all(|a| {
            arms.iter()
                .filter(|b| b.gpus == a.gpus)
                .all(|b| key(b) == key(a))
        })
    },
}];

fn render_json(arms: &[SearchArm]) -> String {
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"two-level scheduler: full schedule, SchedulerConfig::default() (N_step=100, N_nghb=10), seed 1, coding traffic at 2 req/s\",\n");
    json.push_str("  \"note\": \"deterministic search counters, bit-identical across thread counts; the search's wall clock is the repository benchmark's setup_s.\",\n");
    json.push_str("  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"gpus\": {}, \"threads\": {}, \"evaluations\": {}, \"neighbors_generated\": {}, \"score\": {:.6}}}{}\n",
            a.gpus,
            a.threads,
            a.evaluations,
            a.neighbors_generated,
            a.score,
            if i + 1 == arms.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// `BENCH_scheduler.json`: every arm's counters, checked against the rule.
///
/// # Errors
/// Returns the name of the rule the counters break.
pub fn artifact() -> Result<String, String> {
    checked(measure().as_slice(), RULES, render_json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::failing;

    fn arm(gpus: usize, threads: usize, evaluations: usize, score: f64) -> SearchArm {
        SearchArm {
            gpus,
            threads,
            evaluations,
            neighbors_generated: evaluations + 600,
            score,
        }
    }

    #[test]
    fn thread_identity_rule_trips() {
        let rule = ["every thread count at a cluster size gives the same counters and score"];
        let ok = vec![
            arm(8, 1, 53, 0.281585),
            arm(8, 2, 53, 0.281585),
            arm(16, 1, 424, 0.987749),
        ];
        assert!(failing(ok.as_slice(), RULES).is_empty());

        let mut evaluations = ok.clone();
        evaluations[1].evaluations += 1;
        assert_eq!(failing(evaluations.as_slice(), RULES), rule);

        let mut neighbors = ok.clone();
        neighbors[0].neighbors_generated += 1;
        assert_eq!(failing(neighbors.as_slice(), RULES), rule);

        let mut score = ok;
        score[1].score = f64::from_bits(score[1].score.to_bits() + 1);
        assert_eq!(failing(score.as_slice(), RULES), rule);
    }
}
