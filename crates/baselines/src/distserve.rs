//! DistServe-like baseline: homogeneous phase splitting.
//!
//! DistServe disaggregates prefill and decode onto separate homogeneous
//! replicas within one node (KV caches cross NVLink) and picks the
//! prefill:decode ratio by simulation-guided search. Our planner does the
//! same on a homogeneous cluster: it tiles the GPUs into equal TP groups
//! (smallest degree that fits the model, the node tiling it shares with the
//! vLLM planner), sweeps every prefill:decode split with at least one
//! replica per phase, orchestrates each split, and keeps the split with the
//! best estimated attainment. The resulting plan runs on
//! `ts_sim::engine::Simulation` — the phase-split facade over the shared
//! execution core in `ts_sim::exec`.

use ts_cluster::Cluster;
use ts_common::{DeploymentPlan, Error, GroupSpec, ModelSpec, Phase, Result, SloSpec};
use ts_costmodel::{ModelParams, ReplicaCostModel};
use ts_sim::config::SimConfig;
use ts_sim::estimate::pair_estimates;
use ts_solver::transport::solve_orchestration;
use ts_workload::WorkloadSpec;

/// The DistServe-like planner. KV caches cross the wire uncompressed
/// (fp16), as DistServe ships them over NVLink.
#[derive(Debug, Clone, Default)]
pub struct DistServePlanner {
    /// Cost-model parameters.
    pub params: ModelParams,
}

impl DistServePlanner {
    /// Creates a planner with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans a phase-split deployment, sweeping the prefill:decode ratio.
    ///
    /// # Errors
    /// Returns [`Error::Infeasible`] if fewer than two replicas fit.
    pub fn plan(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        workload: &WorkloadSpec,
        slo: &SloSpec,
    ) -> Result<DeploymentPlan> {
        let units = crate::tile_nodes(cluster, model, &self.params);
        let k = units.len();
        if k < 2 {
            return Err(Error::Infeasible(format!(
                "DistServe needs >= 2 replicas, fits {k}"
            )));
        }

        let mut sim_cfg = SimConfig::new(model.clone()).with_f16_kv();
        sim_cfg.params = self.params;

        let mut best: Option<(f64, DeploymentPlan)> = None;
        for m in 1..k {
            // m prefill replicas, k-m decode replicas
            let groups = units
                .iter()
                .enumerate()
                .map(|(i, u)| {
                    let phase = if i < m { Phase::Prefill } else { Phase::Decode };
                    GroupSpec::single_stage(phase, u.clone(), model.num_layers)
                })
                .collect::<Result<Vec<_>>>()?;
            let prefill: Vec<ReplicaCostModel> = groups[..m]
                .iter()
                .map(|g| ReplicaCostModel::new(cluster, model, g, &self.params))
                .collect::<Result<_>>()?;
            let decode: Vec<ReplicaCostModel> = groups[m..]
                .iter()
                .map(|g| ReplicaCostModel::new(cluster, model, g, &self.params))
                .collect::<Result<_>>()?;
            let est = pair_estimates(cluster, &sim_cfg, &prefill, &decode, workload, slo);
            let Ok(orch) = solve_orchestration(&est.d, &est.row_cap, &est.col_cap) else {
                continue;
            };
            if orch.mass <= 0.0 {
                continue;
            }
            let scale = 1.0 / orch.mass;
            let rates: Vec<Vec<f64>> = orch
                .rates
                .iter()
                .map(|r| r.iter().map(|&v| v * scale).collect())
                .collect();
            let plan = DeploymentPlan::new(groups, ts_common::RoutingMatrix::new(rates)?)?;
            if best.as_ref().map(|(s, _)| orch.value > *s).unwrap_or(true) {
                best = Some((orch.value, plan));
            }
        }
        best.map(|(_, p)| p)
            .ok_or_else(|| Error::Infeasible("no feasible phase split found".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_common::SimDuration;
    use ts_workload::spec;

    fn slo() -> SloSpec {
        SloSpec::new(
            SimDuration::from_secs(3),
            SimDuration::from_millis(200),
            SimDuration::from_secs(40),
        )
    }

    #[test]
    fn splits_a100_box() {
        let cluster = presets::paper_inhouse_cluster();
        let model = ModelSpec::llama_30b();
        let plan = DistServePlanner::new()
            .plan(&cluster, &model, &spec::coding(2.0), &slo())
            .unwrap();
        let (p, d) = plan.phase_ratio();
        assert_eq!(p + d, 4, "8 A100s tile into 4 TP=2 replicas");
        assert!(p >= 1 && d >= 1);
    }

    #[test]
    fn coding_gets_more_prefill_than_conversation() {
        let cluster = presets::paper_inhouse_cluster();
        let model = ModelSpec::llama_30b();
        let planner = DistServePlanner::new();
        let coding = planner
            .plan(&cluster, &model, &spec::coding(4.0), &slo())
            .unwrap();
        let conv = planner
            .plan(&cluster, &model, &spec::conversation(4.0), &slo())
            .unwrap();
        assert!(
            coding.phase_ratio().0 >= conv.phase_ratio().0,
            "coding {:?} vs conversation {:?}",
            coding.phase_ratio(),
            conv.phase_ratio()
        );
    }

    #[test]
    fn infeasible_on_single_replica() {
        let cluster = presets::a5000_pair_40gbps();
        let model = ModelSpec::llama_30b();
        assert!(DistServePlanner::new()
            .plan(&cluster, &model, &spec::coding(1.0), &slo())
            .is_err());
    }
}
