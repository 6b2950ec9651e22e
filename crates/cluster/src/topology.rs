//! Cluster topology: nodes, GPUs and the inter-GPU network.
//!
//! The scheduler never talks to real hardware; it observes a [`Cluster`] —
//! a set of nodes (cloud instances), each holding GPUs of one or more
//! models, plus a pairwise bandwidth/latency model. Intra-node links model
//! PCIe (or NVLink for the in-house preset); inter-node links model cloud
//! ethernet, and may differ per node pair to reproduce the heterogeneous
//! heatmap of the paper's Figure 13.

use crate::catalog::{GpuModel, GpuSpec};
use ts_common::{Error, GpuId, NodeId, Result, SimDuration};

/// A single physical GPU placed on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gpu {
    /// Cluster-wide id (index into the cluster's GPU table).
    pub id: GpuId,
    /// Hosting node.
    pub node: NodeId,
    /// Catalog model.
    pub model: GpuModel,
}

impl Gpu {
    /// Hardware spec from the catalog.
    #[inline]
    pub fn spec(&self) -> GpuSpec {
        self.model.spec()
    }
}

/// A node (cloud instance) holding one or more GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node id (index into the cluster's node table).
    pub id: NodeId,
    /// Human-readable name, e.g. `"a40-0"`.
    pub name: String,
    /// GPUs hosted on this node.
    pub gpus: Vec<GpuId>,
    /// Intra-node GPU-to-GPU bandwidth in bytes/s (PCIe or NVLink).
    pub intra_bw: f64,
    /// Intra-node link latency (the alpha term).
    pub intra_latency: SimDuration,
}

/// Classification of the link between two GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Same GPU (no transfer needed).
    Loopback,
    /// Same node: PCIe/NVLink.
    IntraNode,
    /// Different nodes: ethernet.
    InterNode,
}

/// An immutable cluster description plus a mutable GPU-availability mask.
///
/// Built with [`ClusterBuilder`]; see [`crate::presets`] for the paper's
/// environments.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    gpus: Vec<Gpu>,
    nodes: Vec<Node>,
    /// node × node ethernet bandwidth (bytes/s); diagonal unused.
    inter_bw: Vec<Vec<f64>>,
    /// node × node ethernet latency; diagonal unused.
    inter_latency: Vec<Vec<SimDuration>>,
    /// Per-GPU availability (false once failed/preempted).
    active: Vec<bool>,
}

impl Cluster {
    /// Number of *active* GPUs.
    pub fn num_gpus(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Total number of GPUs ever provisioned (active or not).
    pub fn num_gpus_provisioned(&self) -> usize {
        self.gpus.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Ids of all active GPUs, ascending.
    pub fn active_gpus(&self) -> Vec<GpuId> {
        self.gpus
            .iter()
            .filter(|g| self.active[g.id.index()])
            .map(|g| g.id)
            .collect()
    }

    /// Whether the GPU is currently available.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn is_active(&self, id: GpuId) -> bool {
        self.active[id.index()]
    }

    /// Looks up a GPU.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn gpu(&self, id: GpuId) -> &Gpu {
        &self.gpus[id.index()]
    }

    /// Looks up a node.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Whether two GPUs share a node.
    #[inline]
    pub fn same_node(&self, a: GpuId, b: GpuId) -> bool {
        self.gpu(a).node == self.gpu(b).node
    }

    /// Classifies the link between two GPUs.
    pub fn link_class(&self, a: GpuId, b: GpuId) -> LinkClass {
        if a == b {
            LinkClass::Loopback
        } else if self.same_node(a, b) {
            LinkClass::IntraNode
        } else {
            LinkClass::InterNode
        }
    }

    /// Point-to-point bandwidth between two GPUs in bytes/s (the beta term of
    /// the alpha-beta model). Loopback links are effectively infinite.
    pub fn bandwidth(&self, a: GpuId, b: GpuId) -> f64 {
        match self.link_class(a, b) {
            LinkClass::Loopback => f64::INFINITY,
            LinkClass::IntraNode => self.node(self.gpu(a).node).intra_bw,
            LinkClass::InterNode => {
                self.inter_bw[self.gpu(a).node.index()][self.gpu(b).node.index()]
            }
        }
    }

    /// Point-to-point latency between two GPUs (the alpha term).
    pub fn latency(&self, a: GpuId, b: GpuId) -> SimDuration {
        match self.link_class(a, b) {
            LinkClass::Loopback => SimDuration::ZERO,
            LinkClass::IntraNode => self.node(self.gpu(a).node).intra_latency,
            LinkClass::InterNode => {
                self.inter_latency[self.gpu(a).node.index()][self.gpu(b).node.index()]
            }
        }
    }

    /// Node-level ethernet bandwidth between two distinct nodes in bytes/s —
    /// the capacity of the fabric link a flow-level network model contends
    /// on. Same-node queries return the node's intra-node bandwidth.
    pub fn inter_node_bandwidth(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            self.node(a).intra_bw
        } else {
            self.inter_bw[a.index()][b.index()]
        }
    }

    /// Node-level ethernet latency between two distinct nodes (the alpha
    /// term of the fabric link). Same-node queries return the intra-node
    /// latency.
    pub fn inter_node_latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        if a == b {
            self.node(a).intra_latency
        } else {
            self.inter_latency[a.index()][b.index()]
        }
    }

    /// The NIC capacity of a node in bytes/s: the fastest ethernet link the
    /// node terminates. Every flow entering or leaving the node shares this
    /// capacity, whatever fabric link it then takes. Single-node clusters
    /// have no NIC-crossing traffic and report `f64::INFINITY`.
    pub fn nic_bandwidth(&self, node: NodeId) -> f64 {
        let n = node.index();
        self.inter_bw[n]
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != n)
            .map(|(_, &bw)| bw)
            .fold(f64::INFINITY, |best, bw| {
                if best.is_infinite() {
                    bw
                } else {
                    best.max(bw)
                }
            })
    }

    /// Minimum pairwise bandwidth among a set of GPUs — the bottleneck link a
    /// tensor-parallel group would communicate over.
    ///
    /// Returns `f64::INFINITY` for groups of size < 2.
    pub fn bottleneck_bandwidth(&self, gpus: &[GpuId]) -> f64 {
        let mut min = f64::INFINITY;
        for (i, &a) in gpus.iter().enumerate() {
            for &b in &gpus[i + 1..] {
                min = min.min(self.bandwidth(a, b));
            }
        }
        min
    }

    /// Hourly rental price of all active GPUs in USD.
    pub fn price_per_hour(&self) -> f64 {
        self.active_gpus()
            .iter()
            .map(|&id| self.gpu(id).spec().price_per_hour)
            .sum()
    }

    /// Checks that every id names a GPU of this cluster.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] naming the first id out of range.
    pub fn check_gpus(&self, ids: impl IntoIterator<Item = GpuId>) -> Result<()> {
        match ids.into_iter().find(|id| id.index() >= self.gpus.len()) {
            Some(id) => Err(Error::InvalidConfig(format!("unknown GPU {id}"))),
            None => Ok(()),
        }
    }

    /// Marks GPUs as failed/preempted. Unknown ids are an error.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if any id is out of range.
    pub fn deactivate_gpus(&mut self, ids: &[GpuId]) -> Result<()> {
        self.check_gpus(ids.iter().copied())?;
        for &id in ids {
            self.active[id.index()] = false;
        }
        Ok(())
    }

    /// Marks a whole node as failed.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if the node id is out of range.
    pub fn deactivate_node(&mut self, node: NodeId) -> Result<()> {
        if node.index() >= self.nodes.len() {
            return Err(Error::InvalidConfig(format!("unknown node {node}")));
        }
        let gpus = self.nodes[node.index()].gpus.clone();
        self.deactivate_gpus(&gpus)
    }

    /// Re-activates a whole node (recovery from a heartbeat outage).
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if the node id is out of range.
    pub fn activate_node(&mut self, node: NodeId) -> Result<()> {
        if node.index() >= self.nodes.len() {
            return Err(Error::InvalidConfig(format!("unknown node {node}")));
        }
        let gpus = self.nodes[node.index()].gpus.clone();
        self.activate_gpus(&gpus)
    }

    /// Re-activates GPUs (elastic scale-up).
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if any id is out of range.
    pub fn activate_gpus(&mut self, ids: &[GpuId]) -> Result<()> {
        self.check_gpus(ids.iter().copied())?;
        for &id in ids {
            self.active[id.index()] = true;
        }
        Ok(())
    }

    /// Full pairwise bandwidth matrix over the active GPUs (ascending id
    /// order), suitable for rendering Figure 13's heatmap. Diagonal entries
    /// hold the GPU's own memory bandwidth, mirroring how NCCL loopback
    /// measurements appear in the paper's heatmaps.
    pub fn bandwidth_matrix(&self) -> Vec<Vec<f64>> {
        let ids = self.active_gpus();
        ids.iter()
            .map(|&a| {
                ids.iter()
                    .map(|&b| {
                        if a == b {
                            self.gpu(a).spec().mem_bandwidth
                        } else {
                            self.bandwidth(a, b)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Incremental [`Cluster`] constructor.
///
/// ```
/// use ts_cluster::{ClusterBuilder, GpuModel};
/// use ts_common::SimDuration;
///
/// let cluster = ClusterBuilder::new()
///     .default_inter_link(1.25e9, SimDuration::from_micros(200))
///     .node("a40-0", GpuModel::A40, 4)
///     .node("ti-0", GpuModel::Rtx3090Ti, 4)
///     .build()?;
/// assert_eq!(cluster.num_gpus(), 8);
/// # Ok::<(), ts_common::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    nodes: Vec<NodeDraft>,
    default_inter_bw: f64,
    default_inter_latency: SimDuration,
    overrides: Vec<(usize, usize, f64, SimDuration)>,
}

#[derive(Debug, Clone)]
struct NodeDraft {
    name: String,
    gpus: Vec<GpuModel>,
    intra_bw: f64,
    intra_latency: SimDuration,
}

/// Default intra-node PCIe bandwidth (≈ PCIe 4.0 x16 effective).
pub const DEFAULT_PCIE_BW: f64 = 16e9;
/// Default intra-node link latency.
pub const DEFAULT_PCIE_LATENCY: SimDuration = SimDuration::from_micros(10);
/// Default inter-node ethernet bandwidth (10 Gbps).
pub const DEFAULT_ETH_BW: f64 = 1.25e9;
/// Default inter-node link latency.
pub const DEFAULT_ETH_LATENCY: SimDuration = SimDuration::from_micros(200);

impl ClusterBuilder {
    /// Creates an empty builder with PCIe/ethernet defaults.
    pub fn new() -> Self {
        ClusterBuilder {
            nodes: Vec::new(),
            default_inter_bw: DEFAULT_ETH_BW,
            default_inter_latency: DEFAULT_ETH_LATENCY,
            overrides: Vec::new(),
        }
    }

    /// Sets the default inter-node link used for all node pairs without an
    /// explicit override.
    pub fn default_inter_link(mut self, bw: f64, latency: SimDuration) -> Self {
        self.default_inter_bw = bw;
        self.default_inter_latency = latency;
        self
    }

    /// Adds a node with `count` GPUs of a single model and default PCIe.
    pub fn node(self, name: &str, model: GpuModel, count: usize) -> Self {
        self.node_with_intra(name, model, count, DEFAULT_PCIE_BW, DEFAULT_PCIE_LATENCY)
    }

    /// Adds a node with an explicit intra-node link (e.g. NVLink).
    pub fn node_with_intra(
        mut self,
        name: &str,
        model: GpuModel,
        count: usize,
        intra_bw: f64,
        intra_latency: SimDuration,
    ) -> Self {
        self.nodes.push(NodeDraft {
            name: name.to_owned(),
            gpus: vec![model; count],
            intra_bw,
            intra_latency,
        });
        self
    }

    /// Overrides the link between two nodes (by insertion order index),
    /// e.g. to model a slow cross-datacenter hop.
    pub fn inter_link(mut self, a: usize, b: usize, bw: f64, latency: SimDuration) -> Self {
        self.overrides.push((a, b, bw, latency));
        self
    }

    /// Finalizes the cluster.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if no GPUs were added, a node is
    /// empty, a bandwidth is non-positive, or an override references an
    /// unknown node.
    pub fn build(self) -> Result<Cluster> {
        if self.nodes.is_empty() {
            return Err(Error::InvalidConfig("cluster has no nodes".into()));
        }
        let mut gpus = Vec::new();
        let mut nodes = Vec::new();
        for (ni, draft) in self.nodes.iter().enumerate() {
            if draft.gpus.is_empty() {
                return Err(Error::InvalidConfig(format!(
                    "node {} has no GPUs",
                    draft.name
                )));
            }
            if draft.intra_bw <= 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "node {} has non-positive intra bandwidth",
                    draft.name
                )));
            }
            let node_id = NodeId(ni as u32);
            let mut ids = Vec::new();
            for &model in &draft.gpus {
                let id = GpuId(gpus.len() as u32);
                gpus.push(Gpu {
                    id,
                    node: node_id,
                    model,
                });
                ids.push(id);
            }
            nodes.push(Node {
                id: node_id,
                name: draft.name.clone(),
                gpus: ids,
                intra_bw: draft.intra_bw,
                intra_latency: draft.intra_latency,
            });
        }
        let n = nodes.len();
        let mut inter_bw = vec![vec![self.default_inter_bw; n]; n];
        let mut inter_latency = vec![vec![self.default_inter_latency; n]; n];
        for (a, b, bw, lat) in self.overrides {
            if a >= n || b >= n {
                return Err(Error::InvalidConfig(format!(
                    "inter-link override references unknown node ({a}, {b})"
                )));
            }
            if bw <= 0.0 {
                return Err(Error::InvalidConfig("non-positive inter bandwidth".into()));
            }
            inter_bw[a][b] = bw;
            inter_bw[b][a] = bw;
            inter_latency[a][b] = lat;
            inter_latency[b][a] = lat;
        }
        let active = vec![true; gpus.len()];
        Ok(Cluster {
            gpus,
            nodes,
            inter_bw,
            inter_latency,
            active,
        })
    }
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl Cluster {
    /// Active GPUs grouped by catalog model, ascending ids within a model.
    pub(crate) fn gpus_by_model(&self) -> std::collections::BTreeMap<GpuModel, Vec<GpuId>> {
        let mut map = std::collections::BTreeMap::<GpuModel, Vec<GpuId>>::new();
        for id in self.active_gpus() {
            map.entry(self.gpu(id).model).or_default().push(id);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_cluster() -> Cluster {
        ClusterBuilder::new()
            .node("a", GpuModel::A40, 2)
            .node("b", GpuModel::Rtx3090Ti, 2)
            .inter_link(0, 1, 0.625e9, SimDuration::from_micros(300))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let c = two_node_cluster();
        assert_eq!(c.num_gpus(), 4);
        assert_eq!(c.gpu(GpuId(0)).node, NodeId(0));
        assert_eq!(c.gpu(GpuId(3)).node, NodeId(1));
        assert_eq!(c.gpu(GpuId(3)).model, GpuModel::Rtx3090Ti);
    }

    #[test]
    fn link_classification() {
        let c = two_node_cluster();
        assert_eq!(c.link_class(GpuId(0), GpuId(0)), LinkClass::Loopback);
        assert_eq!(c.link_class(GpuId(0), GpuId(1)), LinkClass::IntraNode);
        assert_eq!(c.link_class(GpuId(0), GpuId(2)), LinkClass::InterNode);
    }

    #[test]
    fn bandwidth_respects_overrides() {
        let c = two_node_cluster();
        assert_eq!(c.bandwidth(GpuId(0), GpuId(1)), DEFAULT_PCIE_BW);
        assert_eq!(c.bandwidth(GpuId(1), GpuId(2)), 0.625e9);
        assert_eq!(c.latency(GpuId(1), GpuId(2)), SimDuration::from_micros(300));
        assert!(c.bandwidth(GpuId(2), GpuId(2)).is_infinite());
    }

    #[test]
    fn bottleneck_is_slowest_pair() {
        let c = two_node_cluster();
        let all: Vec<GpuId> = c.active_gpus();
        assert_eq!(c.bottleneck_bandwidth(&all), 0.625e9);
        assert_eq!(c.bottleneck_bandwidth(&all[..2]), DEFAULT_PCIE_BW);
        assert!(c.bottleneck_bandwidth(&all[..1]).is_infinite());
    }

    #[test]
    fn deactivation_updates_everything() {
        let mut c = two_node_cluster();
        let price_before = c.price_per_hour();
        c.deactivate_node(NodeId(1)).unwrap();
        assert_eq!(c.num_gpus(), 2);
        assert!(!c.is_active(GpuId(2)));
        assert!(c.price_per_hour() < price_before);
        assert_eq!(c.active_gpus(), vec![GpuId(0), GpuId(1)]);
        c.activate_gpus(&[GpuId(2)]).unwrap();
        assert_eq!(c.num_gpus(), 3);
    }

    #[test]
    fn deactivate_unknown_gpu_is_atomic_error() {
        let mut c = two_node_cluster();
        assert!(c.deactivate_gpus(&[GpuId(0), GpuId(99)]).is_err());
        // atomic: GPU 0 must still be active
        assert!(c.is_active(GpuId(0)));
    }

    #[test]
    fn gpus_by_model_partitions_active_set() {
        let mut c = two_node_cluster();
        c.deactivate_gpus(&[GpuId(3)]).unwrap();
        let by = c.gpus_by_model();
        assert_eq!(by[&GpuModel::A40].len(), 2);
        assert_eq!(by[&GpuModel::Rtx3090Ti], vec![GpuId(2)]);
    }

    #[test]
    fn node_level_links_and_nic_capacity() {
        let c = two_node_cluster();
        assert_eq!(c.inter_node_bandwidth(NodeId(0), NodeId(1)), 0.625e9);
        assert_eq!(
            c.inter_node_bandwidth(NodeId(0), NodeId(0)),
            DEFAULT_PCIE_BW
        );
        assert_eq!(
            c.inter_node_latency(NodeId(0), NodeId(1)),
            SimDuration::from_micros(300)
        );
        // The NIC is the fastest link the node terminates (only one here).
        assert_eq!(c.nic_bandwidth(NodeId(0)), 0.625e9);
        let single = ClusterBuilder::new()
            .node("solo", GpuModel::A40, 2)
            .build()
            .unwrap();
        assert!(single.nic_bandwidth(NodeId(0)).is_infinite());
    }

    #[test]
    fn bandwidth_matrix_is_square_and_symmetric() {
        let c = two_node_cluster();
        let m = c.bandwidth_matrix();
        assert_eq!(m.len(), 4);
        for i in 0..4 {
            assert_eq!(m[i].len(), 4);
            for j in 0..4 {
                assert_eq!(m[i][j], m[j][i]);
            }
        }
    }

    #[test]
    fn empty_builder_errors() {
        assert!(ClusterBuilder::new().build().is_err());
    }
}
