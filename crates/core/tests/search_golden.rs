//! Golden pin for the scheduler's search outputs.
//!
//! A fixed matrix of searches — full scheduling on two clusters, its three
//! ablation switches, multi-model scheduling (two tenants and a one-entry
//! default catalog), lightweight rescheduling, both directions of fleet
//! rescheduling and the repository benchmark's two full-size searches —
//! is rendered to text and compared against
//! `tests/golden_search.txt`. Each arm pins its plan (`plan_io` text), its
//! score bits and, per search step, the filter counts and the winner's
//! score bits. Full-scheduling arms also pin the evaluation, neighbour and
//! group-cache counters and the trajectory. Wall-clock columns are left out.
//!
//! Each step row is split over two lines: `(step, generated, tabu, winner)`
//! on the first and `(cache_hits, duplicates, evaluated, infeasible)` on
//! the second, so a change in how the filters count shows apart from a
//! change in where the walk goes.
//!
//! To re-bless after an *intentional* change:
//! `BLESS_GOLDEN=1 cargo test -p thunderserve-core --test search_golden` —
//! and justify the diff in the commit message.

use std::fmt::Write;
use thunderserve_core::reschedule::{fleet_reschedule, FleetDelta};
use thunderserve_core::{lightweight_reschedule, ScheduleResult, Scheduler, SchedulerConfig};
use ts_cluster::{presets, Cluster};
use ts_common::{
    plan_io, DeploymentPlan, ModelId, ModelSpec, NodeId, ServedModel, SimDuration, SloSpec,
};
use ts_telemetry::SearchTrace;
use ts_workload::{spec, WorkloadSpec};

fn slo() -> SloSpec {
    SloSpec::new(
        SimDuration::from_secs(2),
        SimDuration::from_millis(200),
        SimDuration::from_secs(30),
    )
}

fn cfg(seed: u64) -> SchedulerConfig {
    let mut cfg = SchedulerConfig::fast();
    cfg.seed = seed;
    cfg.num_threads = 1;
    cfg
}

fn bits(v: f64) -> String {
    format!("{:#018x}", v.to_bits())
}

fn render_plan(out: &mut String, plan: &DeploymentPlan, score: f64) {
    out.push_str(&plan_io::to_text(plan));
    let _ = writeln!(out, "score={}", bits(score));
}

fn render_trace(out: &mut String, trace: &SearchTrace) {
    for s in &trace.steps {
        let winner = s.winner_score.map_or_else(|| "none".into(), bits);
        let _ = writeln!(
            out,
            "step={} generated={} tabu={} winner={winner}",
            s.step, s.generated, s.tabu_filtered
        );
        let _ = writeln!(
            out,
            "  cache_hits={} duplicates={} evaluated={} infeasible={}",
            s.cache_hits, s.duplicates, s.evaluated, s.infeasible
        );
    }
}

fn render_schedule(out: &mut String, r: &ScheduleResult) {
    render_plan(out, &r.plan, r.estimated_attainment);
    let _ = writeln!(
        out,
        "evaluations={} neighbors_generated={} group_cache_hits={} group_cache_misses={}",
        r.evaluations, r.neighbors_generated, r.group_cache_hits, r.group_cache_misses
    );
    let steps = &r.search_trace.steps;
    let trajectory: Vec<String> = steps.iter().map(|s| bits(s.best_score)).collect();
    let _ = writeln!(out, "trajectory={}", trajectory.join(","));
    render_trace(out, &r.search_trace);
}

/// The search matrix, rendered arm by arm.
fn run_matrix() -> String {
    let mut out = String::new();
    let schedule = |out: &mut String,
                    name: &str,
                    cluster: &Cluster,
                    model: &ModelSpec,
                    w: &WorkloadSpec,
                    cfg: SchedulerConfig| {
        let _ = writeln!(out, "[{name}]");
        let r = Scheduler::new(cfg)
            .schedule(cluster, model, w, &slo())
            .unwrap();
        render_schedule(out, &r);
    };
    let cloud = presets::paper_cloud_cluster();
    let a5000 = presets::a5000_cluster(8);
    let llama_30b = ModelSpec::llama_30b();
    let llama_13b = ModelSpec::llama_13b();
    schedule(
        &mut out,
        "schedule cloud llama-30b coding",
        &cloud,
        &llama_30b,
        &spec::coding(2.5),
        cfg(21),
    );
    schedule(
        &mut out,
        "schedule a5000x8 llama-13b conversation",
        &a5000,
        &llama_13b,
        &spec::conversation(2.0),
        cfg(3),
    );
    type Ablation = (&'static str, fn(&mut SchedulerConfig));
    let ablations: [Ablation; 3] = [
        ("flip_only_moves", |c| c.flip_only_moves = true),
        ("random_init", |c| c.random_init = true),
        ("disable_affinity_tiebreak", |c| {
            c.disable_affinity_tiebreak = true
        }),
    ];
    for (name, set) in ablations {
        let mut c = cfg(5);
        set(&mut c);
        schedule(
            &mut out,
            &format!("schedule a5000x8 llama-13b coding {name}"),
            &a5000,
            &llama_13b,
            &spec::coding(2.0),
            c,
        );
    }

    let multi = |out: &mut String,
                 name: &str,
                 cluster: &Cluster,
                 catalog: &[ServedModel],
                 workloads: &[WorkloadSpec],
                 cfg: SchedulerConfig| {
        let _ = writeln!(out, "[{name}]");
        let r = Scheduler::new(cfg)
            .schedule_multi(cluster, catalog, workloads)
            .unwrap();
        render_schedule(out, &r.schedule);
        for e in &r.per_model {
            let _ = writeln!(
                out,
                "model {} estimate={}",
                e.model,
                bits(e.estimated_attainment)
            );
        }
    };
    let two_tenants = [
        ServedModel::llama_7b_chat(ModelId(1), 0.6).unwrap(),
        ServedModel::llama_13b_chat(ModelId(2), 0.4).unwrap(),
    ];
    multi(
        &mut out,
        "schedule_multi a5000x12 two tenants",
        &presets::a5000_cluster(12),
        &two_tenants,
        &[spec::conversation(2.0), spec::coding(1.0)],
        cfg(7),
    );
    multi(
        &mut out,
        "schedule_multi a5000x8 default catalog",
        &a5000,
        &[ServedModel::single(llama_13b.clone(), slo())],
        &[spec::coding(2.0)],
        cfg(5),
    );

    // Lightweight rescheduling after a node loss, with the workload shifted.
    let plan = Scheduler::new(cfg(21))
        .schedule(&cloud, &llama_30b, &spec::coding(2.5), &slo())
        .unwrap()
        .plan;
    let mut failed = cloud.clone();
    failed.deactivate_node(NodeId(6)).unwrap();
    let r = lightweight_reschedule(
        &failed,
        &llama_30b,
        &plan,
        &spec::conversation(2.5),
        &slo(),
        &cfg(21),
    )
    .unwrap();
    let _ = writeln!(out, "[lightweight_reschedule cloud node loss conversation]");
    render_plan(&mut out, &r.plan, r.estimated_attainment);
    render_trace(&mut out, &r.search_trace);

    // Fleet rescheduling on the elastic pool: graft node 4, release node 3.
    let mut pool = presets::elastic_cloud_pool().cluster;
    for n in 4..pool.num_nodes() {
        pool.deactivate_node(NodeId(n as u32)).unwrap();
    }
    let plan = Scheduler::new(cfg(29))
        .schedule(&pool, &llama_30b, &spec::coding(2.0), &slo())
        .unwrap()
        .plan;
    let graft = FleetDelta {
        acquired: vec![NodeId(4)],
        released: vec![],
    };
    let release = FleetDelta {
        acquired: vec![],
        released: vec![NodeId(3)],
    };
    for (name, delta) in [("graft", graft), ("release", release)] {
        let mut fleet = pool.clone();
        for &n in &delta.acquired {
            fleet.activate_node(n).unwrap();
        }
        for &n in &delta.released {
            fleet.deactivate_node(n).unwrap();
        }
        let r = fleet_reschedule(
            &fleet,
            &llama_30b,
            &plan,
            &delta,
            &spec::coding(2.0),
            &slo(),
            &cfg(29),
            0.5,
        )
        .unwrap();
        let _ = writeln!(out, "[fleet_reschedule elastic {name}]");
        render_plan(&mut out, &r.plan, r.estimated_attainment);
        render_trace(&mut out, &r.search_trace);
    }

    // The repository benchmark's exact search: the paper's defaults
    // (100 steps of 10 neighbours) on one thread, seed 42, under the
    // benchmark's SLO. Coding plans for the flow fabric, conversation for
    // the serialized link.
    let bench_slo = SloSpec::new(
        SimDuration::from_millis(3200),
        SimDuration::from_millis(240),
        SimDuration::from_secs(48),
    );
    for (name, w, network_contention) in [
        ("coding", spec::coding(2.0), true),
        ("conversation", spec::conversation(2.0), false),
    ] {
        let cfg = SchedulerConfig {
            seed: 42,
            num_threads: 1,
            network_contention,
            ..SchedulerConfig::default()
        };
        let _ = writeln!(out, "[schedule cloud llama-30b {name} benchmark search]");
        let r = Scheduler::new(cfg)
            .schedule(&cloud, &llama_30b, &w, &bench_slo)
            .unwrap();
        render_schedule(&mut out, &r);
    }
    out
}

const GOLDEN: &str = include_str!("golden_search.txt");

#[test]
fn search_outputs_match_the_golden() {
    let got = run_matrix();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_search.txt"),
            &got,
        )
        .unwrap();
        return;
    }
    assert_eq!(
        got, GOLDEN,
        "scheduler search outputs diverged from the golden"
    );
}
