//! # ts-baselines
//!
//! Reimplementations of the paper's baseline systems as *policies* over the
//! shared simulator, so every comparison runs on identical substrate. The
//! planners only produce groups or plans; both topologies then run on one
//! [`ts_sim::Simulation`] — [`ts_sim::Simulation::new`] for phase-split
//! plans, [`ts_sim::Simulation::colocated`] for colocated groups — reading
//! the same [`ts_sim::SimConfig`], which is validated once at construction
//! (so the prefill policy, mitigation knobs and observability mean the same
//! thing for ThunderServe and for every baseline):
//!
//! * [`vllm`] — a vLLM-like planner: colocated continuous batching on a
//!   homogeneous cluster, one replica per smallest TP group that fits the
//!   model, run with [`ts_sim::Simulation::colocated`];
//! * [`distserve`] — a DistServe-like planner: homogeneous phase splitting
//!   with an exhaustive sweep over the prefill:decode replica ratio,
//!   assuming fast intra-node interconnect for KV transfer;
//! * [`hexgen`] — a HexGen-like planner: heterogeneity-aware asymmetric
//!   parallelism (groups formed by bandwidth clustering, per-group parallel
//!   configs) but **colocated** phases — heterogeneous scheduling without
//!   phase splitting, which is exactly the axis ThunderServe adds.
//!
//! Every planner sizes a replica by the scheduler's rule,
//! [`ts_costmodel::replica`]'s usable memory and KV headroom. vLLM and
//! DistServe share one node tiling; HexGen's groups come from the
//! scheduler seed's [`merge_infeasible`](thunderserve_core::tabu::merge_infeasible).

pub mod distserve;
pub mod hexgen;
pub mod vllm;

pub use distserve::DistServePlanner;
pub use hexgen::HexGenPlanner;
pub use vllm::VllmPlanner;

use ts_cluster::Cluster;
use ts_common::{GpuId, ModelSpec};
use ts_costmodel::{replica::fits_with_kv_headroom, ModelParams};

/// Tiles each node's active GPUs into equal tensor-parallel units: the
/// smallest power-of-two TP whose GPUs fit the model with KV headroom, as
/// many units of it as the node holds, and the leftover GPUs left idle (as
/// vLLM would leave them). A node where no TP fits contributes nothing.
fn tile_nodes(cluster: &Cluster, model: &ModelSpec, params: &ModelParams) -> Vec<Vec<GpuId>> {
    let mut units = Vec::new();
    for node in cluster.nodes() {
        let gpus: Vec<GpuId> = node
            .gpus
            .iter()
            .copied()
            .filter(|&g| cluster.is_active(g))
            .collect();
        let fitting = std::iter::successors(Some(1usize), |tp| Some(tp * 2))
            .take_while(|&tp| tp <= gpus.len())
            .find(|&tp| fits_with_kv_headroom(cluster, model, &gpus[..tp], params));
        if let Some(tp) = fitting {
            units.extend(gpus.chunks_exact(tp).map(<[GpuId]>::to_vec));
        }
    }
    units
}
