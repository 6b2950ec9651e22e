//! Shared experiment machinery: reference SLOs, plan builders and runners.

use thunderserve_core::{Scheduler, SchedulerConfig};
use ts_baselines::{DistServePlanner, HexGenPlanner, VllmPlanner};
use ts_cluster::Cluster;
use ts_common::{DeploymentPlan, GroupSpec, ModelSpec, Request, Result, SimDuration, SloSpec};
use ts_sim::config::SimConfig;
use ts_sim::engine::Simulation;
use ts_sim::metrics::Metrics;
use ts_workload::{generator::generate, WorkloadSpec};

/// The SLO-scale grid swept by the attainment experiments (multiples of the
/// reference single-device latency, as in the paper's Figure 7/8 x-axis).
pub const SLO_SCALES: &[f64] = &[
    1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0,
];

/// Base SLO anchored to A100 execution latency for LLaMA-30B (TTFT ≈ one
/// prefill of the mean prompt on an A100 TP=2 replica; TPOT ≈ one decode
/// step; E2E combines them for the mean output length).
pub fn base_slo_30b() -> SloSpec {
    SloSpec::new(
        SimDuration::from_millis(400),
        SimDuration::from_millis(30),
        SimDuration::from_secs(6),
    )
}

/// Standard simulated horizon per run.
pub fn horizon(quick: bool) -> SimDuration {
    if quick {
        SimDuration::from_secs(60)
    } else {
        SimDuration::from_secs(240)
    }
}

/// Schedules a ThunderServe plan with a seeded, fixed-budget search.
///
/// # Errors
/// Propagates scheduler failures.
pub fn thunderserve_plan(
    cluster: &Cluster,
    model: &ModelSpec,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    seed: u64,
    quick: bool,
) -> Result<DeploymentPlan> {
    let mut cfg = SchedulerConfig::default();
    cfg.seed = seed;
    cfg.n_step = if quick { 25 } else { 100 };
    Ok(Scheduler::new(cfg)
        .schedule(cluster, model, workload, slo)?
        .plan)
}

/// Runs the phase-split engine on a plan.
///
/// # Errors
/// Propagates simulation failures.
pub fn run_phase_split(
    cluster: &Cluster,
    plan: &DeploymentPlan,
    cfg: SimConfig,
    requests: &[Request],
) -> Result<Metrics> {
    Simulation::new(cluster, plan, cfg)?.run(requests)
}

/// Runs the colocated engine on a set of replicas.
///
/// # Errors
/// Propagates simulation failures.
pub fn run_colocated(
    cluster: &Cluster,
    groups: &[GroupSpec],
    cfg: SimConfig,
    requests: &[Request],
) -> Result<Metrics> {
    Simulation::colocated(cluster, groups, cfg)?.run(requests)
}

/// Generates the standard trace for a workload.
pub fn trace(workload: &WorkloadSpec, quick: bool, seed: u64) -> Vec<Request> {
    generate(workload, horizon(quick), seed)
}

/// End-to-end ThunderServe run: schedule + simulate.
///
/// # Errors
/// Propagates scheduler/simulator failures.
pub fn run_thunderserve(
    cluster: &Cluster,
    model: &ModelSpec,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    quick: bool,
    seed: u64,
) -> Result<Metrics> {
    let plan = thunderserve_plan(cluster, model, workload, slo, seed, quick)?;
    let cfg = SimConfig::new(model.clone());
    run_phase_split(cluster, &plan, cfg, &trace(workload, quick, seed))
}

/// End-to-end HexGen-like run (colocated heterogeneous).
///
/// # Errors
/// Propagates planner/simulator failures.
pub fn run_hexgen(
    cluster: &Cluster,
    model: &ModelSpec,
    workload: &WorkloadSpec,
    quick: bool,
    seed: u64,
) -> Result<Metrics> {
    let groups = HexGenPlanner::new().plan(cluster, model, workload)?;
    let cfg = SimConfig::new(model.clone());
    run_colocated(cluster, &groups, cfg, &trace(workload, quick, seed))
}

/// End-to-end vLLM-like run (colocated homogeneous).
///
/// # Errors
/// Propagates planner/simulator failures.
pub fn run_vllm(
    cluster: &Cluster,
    model: &ModelSpec,
    workload: &WorkloadSpec,
    quick: bool,
    seed: u64,
) -> Result<Metrics> {
    let groups = VllmPlanner::new().plan(cluster, model)?;
    let cfg = SimConfig::new(model.clone());
    run_colocated(cluster, &groups, cfg, &trace(workload, quick, seed))
}

/// End-to-end DistServe-like run (homogeneous phase split, fp16 KV).
///
/// # Errors
/// Propagates planner/simulator failures.
pub fn run_distserve(
    cluster: &Cluster,
    model: &ModelSpec,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    quick: bool,
    seed: u64,
) -> Result<Metrics> {
    let plan = DistServePlanner::new().plan(cluster, model, workload, slo)?;
    let cfg = SimConfig::new(model.clone()).with_f16_kv();
    run_phase_split(cluster, &plan, cfg, &trace(workload, quick, seed))
}

/// The minimum SLO scale reaching `goal` attainment for `kind`, rendered
/// for a report cell ("-" when unreachable on the grid).
pub fn min_scale_cell(
    metrics: &Metrics,
    base: &SloSpec,
    kind: ts_common::SloKind,
    goal: f64,
) -> String {
    metrics
        .min_scale_for(base, kind, goal, SLO_SCALES)
        .map(|s| format!("{s}x"))
        .unwrap_or_else(|| "-".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_workload::spec;

    #[test]
    fn thunderserve_end_to_end_smoke() {
        let cluster = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let m = run_thunderserve(
            &cluster,
            &model,
            &spec::coding(2.0),
            &base_slo_30b().scaled(8.0),
            true,
            1,
        )
        .unwrap();
        assert!(m.num_completed() > 0);
    }

    #[test]
    fn baselines_end_to_end_smoke() {
        let cloud = presets::paper_cloud_cluster();
        let inhouse = presets::paper_inhouse_cluster();
        let model = ModelSpec::llama_30b();
        let w = spec::coding(2.0);
        assert!(
            run_hexgen(&cloud, &model, &w, true, 2)
                .unwrap()
                .num_completed()
                > 0
        );
        assert!(
            run_vllm(&inhouse, &model, &w, true, 2)
                .unwrap()
                .num_completed()
                > 0
        );
        assert!(
            run_distserve(&inhouse, &model, &w, &base_slo_30b().scaled(8.0), true, 2)
                .unwrap()
                .num_completed()
                > 0
        );
    }
}
