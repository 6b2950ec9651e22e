//! vLLM-like baseline: colocated continuous batching.
//!
//! vLLM serves each model replica on a tensor-parallel GPU group within one
//! node and runs prefill and decode on the same replica with continuous
//! batching (PagedAttention provides the KV memory management, which our
//! simulator's admission logic models). The planner maximizes the replica
//! count: for each node it picks the smallest power-of-two TP degree whose
//! group can hold the weights with KV headroom, then tiles the node with
//! such groups — the node tiling it shares with the DistServe planner.
//!
//! The groups feed `ts_sim::Simulation::colocated`, which runs on the same
//! execution core as the phase-split topology — so the baseline also
//! supports mid-flight fault injection with identical recovery accounting
//! (exercised by the failure experiment's colocated arm).

use ts_cluster::Cluster;
use ts_common::{Error, GroupSpec, ModelSpec, Phase, Result};
use ts_costmodel::ModelParams;

/// The vLLM-like deployment planner.
#[derive(Debug, Clone, Default)]
pub struct VllmPlanner {
    /// Cost-model parameters used for memory feasibility.
    pub params: ModelParams,
}

impl VllmPlanner {
    /// Creates a planner with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans colocated replicas over the cluster's active GPUs. The groups'
    /// phase field is set to `Prefill` but ignored by the colocated engine.
    ///
    /// # Errors
    /// Returns [`Error::Infeasible`] if no node can host even one replica.
    pub fn plan(&self, cluster: &Cluster, model: &ModelSpec) -> Result<Vec<GroupSpec>> {
        let groups = crate::tile_nodes(cluster, model, &self.params)
            .into_iter()
            .map(|gpus| GroupSpec::single_stage(Phase::Prefill, gpus, model.num_layers))
            .collect::<Result<Vec<_>>>()?;
        if groups.is_empty() {
            return Err(Error::Infeasible("no node can host a vLLM replica".into()));
        }
        Ok(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_common::GpuId;

    #[test]
    fn a100_box_hosts_four_tp2_replicas_of_30b() {
        // §5.3: the in-house 8xA100 server hosts 4 replicas.
        let cluster = presets::paper_inhouse_cluster();
        let model = ModelSpec::llama_30b();
        let groups = VllmPlanner::new().plan(&cluster, &model).unwrap();
        assert_eq!(groups.len(), 4);
        for g in &groups {
            assert_eq!(g.parallel.tp(), 2);
            assert_eq!(g.parallel.pp(), 1);
        }
    }

    #[test]
    fn small_model_gets_one_replica_per_gpu() {
        let cluster = presets::paper_inhouse_cluster();
        let model = ModelSpec::llama_7b();
        let groups = VllmPlanner::new().plan(&cluster, &model).unwrap();
        assert_eq!(groups.len(), 8);
    }

    #[test]
    fn skips_failed_gpus() {
        let mut cluster = presets::paper_inhouse_cluster();
        cluster.deactivate_gpus(&[GpuId(0), GpuId(1)]).unwrap();
        let model = ModelSpec::llama_30b();
        let groups = VllmPlanner::new().plan(&cluster, &model).unwrap();
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn infeasible_on_tiny_cluster() {
        let cluster = presets::a5000_pair_40gbps(); // 2x24GB, separate nodes
        let model = ModelSpec::llama_30b();
        assert!(VllmPlanner::new().plan(&cluster, &model).is_err());
    }
}
