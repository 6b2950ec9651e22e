//! HexGen-like baseline: heterogeneous colocated serving.
//!
//! HexGen schedules generative inference over heterogeneous, decentralized
//! GPUs with asymmetric parallelism, but colocates prefill and decode on the
//! same replicas. Our planner reproduces that policy: groups come from
//! bandwidth-based hierarchical clustering into as many replicas as memory
//! allows, merged by the scheduler seed's `merge_infeasible` (down to one
//! group) until every group can host the model, and each group gets its
//! best parallel configuration from the same Algorithm-2 machinery
//! ThunderServe uses — minus the phase designation axis. The result feeds
//! the colocated engine, which shares the phase-split engine's execution
//! core — fault scripts and recovery metrics work identically on these
//! deployments.

use thunderserve_core::config::SchedulerConfig;
use thunderserve_core::parallel::deduce_parallel_config;
use thunderserve_core::tabu::merge_infeasible;
use ts_cluster::Cluster;
use ts_common::{Error, GroupSpec, ModelSpec, Phase, Result};
use ts_costmodel::replica::{replica_budget, usable_memory};
use ts_solver::clustering::cluster_by_bandwidth;
use ts_workload::WorkloadSpec;

/// The HexGen-like planner.
#[derive(Debug, Clone, Default)]
pub struct HexGenPlanner {
    /// Parallel-config deduction knobs (shared with the core scheduler).
    pub cfg: SchedulerConfig,
}

impl HexGenPlanner {
    /// Creates a planner with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans colocated heterogeneous replicas.
    ///
    /// # Errors
    /// Returns [`Error::Infeasible`] if not even one replica fits.
    pub fn plan(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        workload: &WorkloadSpec,
    ) -> Result<Vec<GroupSpec>> {
        let active = cluster.active_gpus();
        if active.is_empty() {
            return Err(Error::Infeasible("no active GPUs".into()));
        }
        let usable = usable_memory(cluster, &active, &self.cfg.params);
        let max_replicas = ((usable / replica_budget(model).max(1)) as usize).max(1);
        let k = max_replicas.min(active.len());
        let clusters = cluster_by_bandwidth(&cluster.bandwidth_matrix(), k)?
            .into_iter()
            .map(|idxs| idxs.into_iter().map(|x| active[x]).collect())
            .collect();
        // Colocated replicas need no second phase, so merging may go down
        // to one group.
        let clusters = merge_infeasible(cluster, model, &self.cfg, clusters, 1);

        let mut groups = Vec::with_capacity(clusters.len());
        for gpus in clusters {
            // HexGen optimizes serving throughput; score configs as decode
            // (throughput-optimal), which is the colocated steady state.
            let group =
                deduce_parallel_config(cluster, model, &gpus, Phase::Decode, workload, &self.cfg)?;
            groups.push(GroupSpec {
                phase: Phase::Prefill, // ignored by the colocated engine
                ..group
            });
        }
        if groups.is_empty() {
            return Err(Error::Infeasible("no feasible HexGen replica".into()));
        }
        Ok(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_workload::spec;

    #[test]
    fn plans_many_replicas_on_cloud() {
        let cluster = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let groups = HexGenPlanner::new()
            .plan(&cluster, &model, &spec::coding(4.0))
            .unwrap();
        assert!(groups.len() >= 4, "got {} replicas", groups.len());
        let total: usize = groups.iter().map(|g| g.num_gpus()).sum();
        assert!(total <= 32);
        // every group hosts the full model
        for g in &groups {
            assert_eq!(g.total_layers(), model.num_layers);
        }
    }

    #[test]
    fn groups_are_disjoint() {
        let cluster = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let groups = HexGenPlanner::new()
            .plan(&cluster, &model, &spec::conversation(4.0))
            .unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for g in &groups {
            for gpu in g.gpus() {
                assert!(seen.insert(gpu), "GPU {gpu} reused");
            }
        }
    }

    #[test]
    fn works_after_failures() {
        let mut cluster = presets::paper_cloud_cluster();
        cluster.deactivate_node(ts_common::NodeId(4)).unwrap(); // lose the A40 box
        let model = ModelSpec::llama_30b();
        let groups = HexGenPlanner::new()
            .plan(&cluster, &model, &spec::coding(4.0))
            .unwrap();
        for g in &groups {
            for gpu in g.gpus() {
                assert!(cluster.is_active(gpu));
            }
        }
    }
}
