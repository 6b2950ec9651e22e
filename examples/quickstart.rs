//! Quickstart: schedule a phase-split deployment of LLaMA-30B on the
//! paper's 32-GPU heterogeneous cloud and simulate serving a coding
//! workload against it.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use std::time::Instant;
use thunderserve::prelude::*;

fn main() -> thunderserve::Result<()> {
    // 1. Describe the environment: the paper's heterogeneous cloud rig
    //    (2x 4xA6000, 2x 4xA5000, 1x 8xA40, 2x 4x3090Ti).
    let cluster = thunderserve::cluster::presets::paper_cloud_cluster();
    println!(
        "cluster: {} GPUs on {} nodes, ${:.2}/hour",
        cluster.num_gpus(),
        cluster.num_nodes(),
        cluster.price_per_hour()
    );

    // 2. Pick the model, workload and SLO. The catalog's LLaMA-30B coding
    //    preset bundles the model with the paper's long-form SLO (TTFT
    //    3200ms, TPOT 240ms, E2E 48s).
    let tenant = ServedModel::llama_30b_coding(ModelId(0), 1.0)?;
    let (model, slo) = (tenant.spec, tenant.slo);
    let workload = thunderserve::workload::spec::coding(2.5);

    // 3. Run the two-level scheduler (tabu search over group construction &
    //    phase designation; parallel-config deduction + orchestration below).
    let mut cfg = SchedulerConfig::default();
    cfg.seed = 7;
    let start = Instant::now();
    let result = Scheduler::new(cfg).schedule(&cluster, &model, &workload, &slo)?;
    let elapsed = start.elapsed().as_secs_f64();
    let (prefill, decode) = result.plan.phase_ratio();
    println!(
        "scheduled {prefill} prefill + {decode} decode replicas in {elapsed:.2}s \
         ({} lower-level evaluations, estimated attainment {:.3})",
        result.evaluations, result.estimated_attainment
    );
    for g in &result.plan.groups {
        let models: Vec<String> = g
            .gpus()
            .map(|id| cluster.gpu(id).model.to_string())
            .collect();
        println!(
            "  {:7} {} on [{}]",
            g.phase.to_string(),
            g.parallel,
            models.join(",")
        );
    }

    // 4. Serve a 3-minute Poisson trace on the discrete-event engine.
    let requests =
        thunderserve::workload::generator::generate(&workload, SimDuration::from_secs(180), 1);
    let mut sim = Simulation::new(&cluster, &result.plan, SimConfig::new(model))?;
    let metrics = sim.run(&requests)?;

    println!(
        "served {} requests: {:.1} req/s, {:.0} output tokens/s",
        metrics.num_completed(),
        metrics.throughput_rps(),
        metrics.throughput_tokens()
    );
    for kind in SloKind::ALL {
        println!(
            "  {kind}: p50 {} p99 {} attainment {:.1}%",
            metrics.latency_percentile(kind, 0.5).unwrap(),
            metrics.latency_percentile(kind, 0.99).unwrap(),
            100.0 * metrics.slo_attainment(&slo, kind)
        );
    }
    println!(
        "joint SLO attainment: {:.1}%",
        100.0 * metrics.joint_attainment(&slo)
    );
    Ok(())
}
