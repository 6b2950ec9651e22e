//! Parallel-vs-serial determinism of the two-level scheduler.
//!
//! The neighbourhood evaluation of the tabu walk — single-model and
//! multi-model scheduling, lightweight and fleet rescheduling — may run on
//! any number of worker threads; the contract is that the thread count is
//! invisible in every output: plans, scores, evaluation counts and the
//! search-trace rows (the convergence trajectory among them) must be
//! bit-identical to the serial path for the same seed.

use thunderserve_core::reschedule::{fleet_reschedule, FleetDelta};
use thunderserve_core::{lightweight_reschedule, Scheduler, SchedulerConfig};
use ts_cluster::presets;
use ts_common::{ModelId, ModelSpec, NodeId, ServedModel, SimDuration, SloSpec};
use ts_workload::spec;

fn slo() -> SloSpec {
    SloSpec::new(
        SimDuration::from_secs(2),
        SimDuration::from_millis(200),
        SimDuration::from_secs(30),
    )
}

fn cfg_with_threads(seed: u64, threads: usize) -> SchedulerConfig {
    let mut cfg = SchedulerConfig::fast();
    cfg.seed = seed;
    cfg.num_threads = threads;
    cfg
}

#[test]
fn schedule_is_bit_identical_across_thread_counts() {
    let cluster = presets::paper_cloud_cluster();
    let model = ModelSpec::llama_30b();
    let w = spec::coding(2.5);
    let s = slo();
    for seed in [1u64, 21, 77] {
        let baseline = Scheduler::new(cfg_with_threads(seed, 1))
            .schedule(&cluster, &model, &w, &s)
            .unwrap();
        for threads in [2usize, 4, 8] {
            let parallel = Scheduler::new(cfg_with_threads(seed, threads))
                .schedule(&cluster, &model, &w, &s)
                .unwrap();
            assert_eq!(
                baseline.plan, parallel.plan,
                "plan diverged at seed {seed}, {threads} threads"
            );
            assert_eq!(
                baseline.estimated_attainment.to_bits(),
                parallel.estimated_attainment.to_bits(),
                "score diverged at seed {seed}, {threads} threads"
            );
            assert_eq!(
                baseline.evaluations, parallel.evaluations,
                "evaluation count diverged at seed {seed}, {threads} threads"
            );
            assert_eq!(
                baseline.search_trace, parallel.search_trace,
                "search trace diverged at seed {seed}, {threads} threads"
            );
            assert_eq!(
                baseline.neighbors_generated, parallel.neighbors_generated,
                "neighbourhood size diverged at seed {seed}, {threads} threads"
            );
            // The shared parallel-configuration cache must be earning its
            // keep: repeat group constructions resolve without recomputing.
            let rate = parallel.group_cache_hits as f64
                / (parallel.group_cache_hits + parallel.group_cache_misses).max(1) as f64;
            assert!(
                rate > 0.0,
                "group cache never hit at seed {seed}, {threads} threads \
                 ({} hits / {} misses)",
                parallel.group_cache_hits,
                parallel.group_cache_misses
            );
        }
    }
}

#[test]
fn auto_thread_count_matches_serial() {
    let cluster = presets::a5000_cluster(8);
    let model = ModelSpec::llama_13b();
    let w = spec::conversation(2.0);
    let s = slo();
    let serial = Scheduler::new(cfg_with_threads(9, 1))
        .schedule(&cluster, &model, &w, &s)
        .unwrap();
    let auto = Scheduler::new(cfg_with_threads(9, 0))
        .schedule(&cluster, &model, &w, &s)
        .unwrap();
    assert_eq!(serial.plan, auto.plan);
    assert_eq!(
        serial.estimated_attainment.to_bits(),
        auto.estimated_attainment.to_bits()
    );
    assert_eq!(serial.evaluations, auto.evaluations);
}

#[test]
fn lightweight_reschedule_is_bit_identical_across_thread_counts() {
    let cluster = presets::paper_cloud_cluster();
    let model = ModelSpec::llama_30b();
    let w = spec::coding(2.5);
    let s = slo();
    let plan = Scheduler::new(cfg_with_threads(21, 1))
        .schedule(&cluster, &model, &w, &s)
        .unwrap()
        .plan;

    // Reschedule after losing a node, with the workload shifted.
    let mut failed = cluster.clone();
    failed.deactivate_node(NodeId(6)).unwrap();
    let shifted = spec::conversation(2.5);
    let baseline = lightweight_reschedule(
        &failed,
        &model,
        &plan,
        &shifted,
        &s,
        &cfg_with_threads(21, 1),
    )
    .unwrap();
    for threads in [2usize, 4, 8] {
        let parallel = lightweight_reschedule(
            &failed,
            &model,
            &plan,
            &shifted,
            &s,
            &cfg_with_threads(21, threads),
        )
        .unwrap();
        assert_eq!(
            baseline.plan, parallel.plan,
            "reschedule plan diverged with {threads} threads"
        );
        assert_eq!(
            baseline.estimated_attainment.to_bits(),
            parallel.estimated_attainment.to_bits(),
            "reschedule score diverged with {threads} threads"
        );
        assert!(parallel.reload_time.is_zero());
    }
}

#[test]
fn schedule_multi_is_bit_identical_across_thread_counts() {
    let cluster = presets::a5000_cluster(12);
    let catalog = [
        ServedModel::llama_7b_chat(ModelId(1), 0.6).unwrap(),
        ServedModel::llama_13b_chat(ModelId(2), 0.4).unwrap(),
    ];
    let workloads = [spec::conversation(2.0), spec::coding(1.0)];
    let run = |threads: usize| {
        Scheduler::new(cfg_with_threads(7, threads))
            .schedule_multi(&cluster, &catalog, &workloads)
            .unwrap()
    };
    let baseline = run(1);
    for threads in [2usize, 4, 8] {
        let parallel = run(threads);
        let (b, p) = (&baseline.schedule, &parallel.schedule);
        assert_eq!(b.plan, p.plan, "plan diverged with {threads} threads");
        assert_eq!(
            b.estimated_attainment.to_bits(),
            p.estimated_attainment.to_bits(),
            "score diverged with {threads} threads"
        );
        assert_eq!(b.evaluations, p.evaluations);
        assert_eq!(b.neighbors_generated, p.neighbors_generated);
        assert_eq!(
            b.search_trace, p.search_trace,
            "search trace diverged with {threads} threads"
        );
        for (x, y) in baseline.per_model.iter().zip(&parallel.per_model) {
            assert_eq!(x.model, y.model);
            assert_eq!(
                x.estimated_attainment.to_bits(),
                y.estimated_attainment.to_bits()
            );
        }
    }
}

#[test]
fn fleet_reschedule_is_bit_identical_across_thread_counts() {
    // A plan on four nodes of the elastic pool, then a fifth node grafted.
    let mut pool = presets::elastic_cloud_pool().cluster;
    for n in 4..pool.num_nodes() {
        pool.deactivate_node(NodeId(n as u32)).unwrap();
    }
    let model = ModelSpec::llama_30b();
    let w = spec::coding(2.0);
    let s = slo();
    let plan = Scheduler::new(cfg_with_threads(29, 1))
        .schedule(&pool, &model, &w, &s)
        .unwrap()
        .plan;
    pool.activate_node(NodeId(4)).unwrap();
    let delta = FleetDelta {
        acquired: vec![NodeId(4)],
        released: vec![],
    };
    let run = |threads: usize| {
        let cfg = cfg_with_threads(29, threads);
        fleet_reschedule(&pool, &model, &plan, &delta, &w, &s, &cfg, 0.5).unwrap()
    };
    let baseline = run(1);
    for threads in [2usize, 4, 8] {
        let parallel = run(threads);
        assert_eq!(
            baseline.plan, parallel.plan,
            "fleet plan diverged with {threads} threads"
        );
        assert_eq!(
            baseline.estimated_attainment.to_bits(),
            parallel.estimated_attainment.to_bits(),
            "fleet score diverged with {threads} threads"
        );
        assert_eq!(
            baseline.search_trace, parallel.search_trace,
            "fleet search trace diverged with {threads} threads"
        );
        assert!(parallel.reload_time.is_zero());
    }
}
