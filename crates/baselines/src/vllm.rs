//! vLLM-like baseline: colocated continuous batching.
//!
//! vLLM serves each model replica on a tensor-parallel GPU group within one
//! node and runs prefill and decode on the same replica with continuous
//! batching (PagedAttention provides the KV memory management, which our
//! simulator's admission logic models). The planner maximizes the replica
//! count: for each node it picks the smallest power-of-two TP degree whose
//! group can hold the weights, then tiles the node with such groups.
//!
//! The groups feed `ts_sim::Simulation::colocated`, which runs on the same
//! execution core as the phase-split topology — so the baseline also
//! supports mid-flight fault injection with identical recovery accounting
//! (exercised by the failure experiment's colocated arm).

use ts_cluster::Cluster;
use ts_common::{Error, GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, Result, StageSpec};
use ts_costmodel::{replica::memory_feasible_with_headroom, ModelParams};

/// Memory headroom factor: a replica must fit the weights plus ~25% of its
/// memory for KV cache to serve meaningful batches.
const KV_HEADROOM: f64 = 4.0 / 3.0;

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
        let mut groups = Vec::new();
        for node in cluster.nodes() {
            let gpus: Vec<GpuId> = node
                .gpus
                .iter()
                .copied()
                .filter(|&g| cluster.is_active(g))
                .collect();
            if gpus.is_empty() {
                continue;
            }
            // smallest power-of-two TP that fits
            let mut tp = 1usize;
            let fitting_tp = loop {
                if tp > gpus.len() {
                    break None;
                }
                if memory_feasible_with_headroom(
                    cluster,
                    model,
                    &gpus[..tp],
                    &self.params,
                    KV_HEADROOM,
                ) {
                    break Some(tp);
                }
                tp *= 2;
            };
            let Some(tp) = fitting_tp else { continue };
            for chunk in gpus.chunks(tp) {
                if chunk.len() < tp {
                    break; // leftover GPUs idle, as vLLM would leave them
                }
                groups.push(GroupSpec::new(
                    Phase::Prefill,
                    ParallelConfig::new(tp, 1)?,
                    vec![StageSpec {
                        gpus: chunk.to_vec(),
                        layers: model.num_layers,
                    }],
                )?);
            }
        }
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
