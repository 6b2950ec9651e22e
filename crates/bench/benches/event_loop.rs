//! Criterion microbenchmark for the shared event-loop hot path.
//!
//! Both engines are facades over `ts_sim::exec`'s single driver; this
//! drives the same ~10k-request trace through an 8-replica plan in each
//! topology (4 prefill + 4 decode disaggregated, and 8 colocated) so a
//! regression in the common event loop, router or batching core shows up
//! no matter which facade it enters through. `router_next` times one
//! routing decision on its own, at plan sizes from a paper cluster's to the
//! 1,024-cell fleet plan.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, RoutingMatrix, SimDuration,
    StageSpec,
};
use ts_sim::config::SimConfig;
use ts_sim::engine::Simulation;
use ts_sim::router::StrideRouter;
use ts_workload::{generator::generate, spec};

fn replica(phase: Phase, gpu: u32, layers: usize) -> GroupSpec {
    GroupSpec::new(
        phase,
        ParallelConfig::new(1, 1).unwrap(),
        vec![StageSpec {
            gpus: vec![GpuId(gpu)],
            layers,
        }],
    )
    .unwrap()
}

fn bench_event_loop(c: &mut Criterion) {
    let cluster = presets::paper_inhouse_cluster();
    let model = ModelSpec::llama_7b();
    let layers = model.num_layers;
    // ~10k requests: short fixed-shape traffic so the run is dominated by
    // event-loop bookkeeping, not simulated durations.
    let reqs = generate(&spec::fixed(256, 32, 50.0), SimDuration::from_secs(200), 1);
    let split_plan = DeploymentPlan::new(
        (0..4)
            .map(|g| replica(Phase::Prefill, g, layers))
            .chain((4..8).map(|g| replica(Phase::Decode, g, layers)))
            .collect(),
        RoutingMatrix::uniform(4, 4),
    )
    .unwrap();
    let colo_groups: Vec<GroupSpec> = (0..8).map(|g| replica(Phase::Prefill, g, layers)).collect();

    let mut group = c.benchmark_group("event_loop_10k_8rep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reqs.len() as u64));
    group.bench_function("split_4p4d", |b| {
        b.iter(|| {
            Simulation::new(&cluster, &split_plan, SimConfig::new(model.clone()))
                .unwrap()
                .run(&reqs)
                .unwrap()
        })
    });
    group.bench_function("colocated_8x", |b| {
        b.iter(|| {
            Simulation::colocated(&cluster, &colo_groups, SimConfig::new(model.clone()))
                .unwrap()
                .run(&reqs)
                .unwrap()
        })
    });
    group.finish();
}

/// Day-trace-scale arm: 100k requests through a 64-replica split plan —
/// the same shape as `bench_sim`'s 100k arm (paired routing, thin decode
/// batches), as a tracked criterion benchmark with requests/sec
/// throughput. Large enough that slab reuse, plan recycling and the
/// indexed queue's steady state all engage.
fn bench_event_loop_100k(c: &mut Criterion) {
    let cluster = presets::a5000_cluster(64);
    let model = ModelSpec::llama_7b();
    let layers = model.num_layers;
    let reqs = generate(&spec::fixed(256, 64, 40.0), SimDuration::from_secs(2500), 1);
    let half = 32usize;
    // Paired routing (prefill i feeds decode i) keeps this arm comparable
    // with the 100k arm of the committed `BENCH_sim.json`.
    let mut rates = vec![vec![0.0; half]; half];
    for (p, row) in rates.iter_mut().enumerate() {
        row[p] = 1.0 / half as f64;
    }
    let split_plan = DeploymentPlan::new(
        (0..half as u32)
            .map(|g| replica(Phase::Prefill, g, layers))
            .chain((0..half as u32).map(|g| replica(Phase::Decode, half as u32 + g, layers)))
            .collect(),
        RoutingMatrix::new(rates).unwrap(),
    )
    .unwrap();

    let mut group = c.benchmark_group("event_loop_100k_64rep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reqs.len() as u64));
    group.bench_function("split_32p32d", |b| {
        b.iter(|| {
            Simulation::new(&cluster, &split_plan, SimConfig::new(model.clone()))
                .unwrap()
                .run(&reqs)
                .unwrap()
        })
    });
    group.finish();
}

/// One routing decision as the driver makes it per arrival
/// (`num_enabled` then `next`) over a cyclic two-diagonal matrix: prefill
/// `i` feeds decodes `i` and `i + 1`, every cell carrying an equal share.
/// 1,024 cells is the `fleet_1m` plan of the repository benchmark.
fn bench_router_next(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_next");
    group.throughput(Throughput::Elements(1));
    for cells in [8usize, 512, 1024] {
        let n = cells / 2;
        let rates: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut row = vec![0.0; n];
                row[i] += 1.0 / cells as f64;
                row[(i + 1) % n] += 1.0 / cells as f64;
                row
            })
            .collect();
        let (mut router, _) = StrideRouter::from_matrix(&rates).unwrap();
        assert_eq!(router.num_enabled(), cells);
        group.bench_function(BenchmarkId::from_parameter(cells), |b| {
            b.iter(|| {
                assert!(router.num_enabled() > 0);
                black_box(router.next())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_loop,
    bench_event_loop_100k,
    bench_router_next
);
criterion_main!(benches);
