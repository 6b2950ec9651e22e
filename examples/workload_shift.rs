//! Workload-shift scenario: a cloud deployment tuned for the conversation
//! workload (decode-heavy) sees traffic turn into coding (long prompts,
//! 13-token outputs). The stale plan starves on prefill capacity; the
//! workload profiler flags the shift and lightweight rescheduling flips
//! phase designations without reloading any weights.
//!
//! ```text
//! cargo run --example workload_shift --release
//! ```

use std::time::Instant;
use thunderserve::prelude::*;
use thunderserve::runtime::service::{ReschedulePolicy, ServingRuntime};
use thunderserve::workload::generator::generate;
use thunderserve::workload::spec;

fn main() -> thunderserve::Result<()> {
    let cluster = thunderserve::cluster::presets::paper_cloud_cluster();
    // The catalog's LLaMA-30B coding preset bundles the model with the
    // paper's long-form SLO.
    let tenant = ServedModel::llama_30b_coding(ModelId(0), 1.0)?;
    let (model, slo) = (tenant.spec, tenant.slo);
    let mut cfg = SchedulerConfig::default();
    cfg.seed = 11;
    cfg.n_step = 50;

    let conversation = spec::conversation(2.0);
    let coding = spec::coding(3.0);

    let mut rt = ServingRuntime::new(cluster, model, slo, cfg);
    rt.deploy(&conversation)?;
    let (p, d) = rt.plan().unwrap().phase_ratio();
    println!("deployed for conversation: {p} prefill : {d} decode replicas");

    // Phase 1: conversation traffic; baseline the profiler on it.
    let seg1 = rt.serve_segment(&generate(&conversation, SimDuration::from_secs(120), 1))?;
    rt.rebaseline();
    println!(
        "conversation segment: joint attainment {:.1}%",
        100.0 * seg1.metrics.joint_attainment(&slo)
    );

    // Phase 2: traffic shifts to coding under the stale plan.
    let coding_trace = generate(&coding, SimDuration::from_secs(120), 2);
    let seg2 = rt.serve_segment(&coding_trace)?;
    println!(
        "coding under stale plan: joint attainment {:.1}% (profiler shift detected: {})",
        100.0 * seg2.metrics.joint_attainment(&slo),
        rt.shift_detected()
    );

    // Phase 3: lightweight rescheduling — flips phases + re-orchestrates,
    // zero parameter reload.
    let start = Instant::now();
    rt.reschedule(&coding, ReschedulePolicy::Lightweight)?;
    let search = start.elapsed().as_secs_f64();
    let (p2, d2) = rt.plan().unwrap().phase_ratio();
    let last = &rt.resched_log.last().unwrap().1;
    println!(
        "lightweight reschedule: now {p2} prefill : {d2} decode replicas \
         (search {search:.3}s, reload {})",
        last.reload_time
    );
    let seg3 = rt.serve_segment(&coding_trace)?;
    println!(
        "coding after lightweight reschedule: joint attainment {:.1}%",
        100.0 * seg3.metrics.joint_attainment(&slo)
    );
    Ok(())
}
