//! The deployment-plan data model.
//!
//! A [`DeploymentPlan`] is the scheduler's output and the simulator/runtime's
//! input. It captures the four components of §3.1 of the paper:
//!
//! 1. **Group construction** — which GPUs form each model serving group;
//! 2. **Phase designation** — whether each group serves prefill or decode;
//! 3. **Parallel configuration** — the `(TP, PP)` layout, the per-stage GPU
//!    assignment and the (possibly non-uniform) pipeline layer partition;
//! 4. **Orchestration** — the routing matrix dispatching request flow across
//!    (prefill, decode) replica pairs.

use crate::ids::ModelId;
use crate::{Error, GpuId, ParallelConfig, Phase, Result};
use std::collections::BTreeSet;

/// One pipeline stage: the tensor-parallel set of GPUs executing a contiguous
/// slice of layers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StageSpec {
    /// GPUs sharding this stage's layers (length == TP degree).
    pub gpus: Vec<GpuId>,
    /// Number of transformer layers assigned to this stage.
    pub layers: usize,
}

/// One model serving group: a model replica with a designated phase.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupSpec {
    /// The phase this replica serves.
    pub phase: Phase,
    /// Parallel configuration summary.
    pub parallel: ParallelConfig,
    /// Pipeline stages in execution order. `stages.len() == parallel.pp()`
    /// and each stage holds `parallel.tp()` GPUs.
    pub stages: Vec<StageSpec>,
    /// The model this replica serves. [`ModelId`]`(0)` — the default — is
    /// the single-model identity, which [`crate::plan_io`] leaves implicit
    /// so plans written before multi-model support round-trip unchanged.
    pub model: ModelId,
}

impl GroupSpec {
    /// Creates a group and validates its internal consistency.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if the stage shape does not match the
    /// parallel configuration, a GPU appears twice, any stage has zero
    /// layers, or the layer count overflows `usize`.
    pub fn new(phase: Phase, parallel: ParallelConfig, stages: Vec<StageSpec>) -> Result<Self> {
        if stages.len() != parallel.pp() {
            return Err(Error::InvalidConfig(format!(
                "expected {} stages, got {}",
                parallel.pp(),
                stages.len()
            )));
        }
        let mut seen = BTreeSet::new();
        for (i, st) in stages.iter().enumerate() {
            if st.gpus.len() != parallel.tp() {
                return Err(Error::InvalidConfig(format!(
                    "stage {i} has {} GPUs, expected TP={}",
                    st.gpus.len(),
                    parallel.tp()
                )));
            }
            if st.layers == 0 {
                return Err(Error::InvalidConfig(format!("stage {i} has zero layers")));
            }
            for &g in &st.gpus {
                if !seen.insert(g) {
                    return Err(Error::InvalidConfig(format!("GPU {g} appears twice")));
                }
            }
        }
        if stages
            .iter()
            .try_fold(0usize, |sum, st| sum.checked_add(st.layers))
            .is_none()
        {
            return Err(Error::InvalidConfig("layer count overflows".into()));
        }
        Ok(GroupSpec {
            phase,
            parallel,
            stages,
            model: ModelId(0),
        })
    }

    /// The same group serving `model` (builder style; `new` defaults to the
    /// single-model identity `ModelId(0)`).
    pub fn with_model(mut self, model: ModelId) -> Self {
        self.model = model;
        self
    }

    /// All GPUs of the group, stage by stage.
    pub fn gpus(&self) -> impl Iterator<Item = GpuId> + '_ {
        self.stages.iter().flat_map(|s| s.gpus.iter().copied())
    }

    /// Number of GPUs in the group.
    #[inline]
    pub fn num_gpus(&self) -> usize {
        self.parallel.world_size()
    }

    /// Total layers across stages.
    #[inline]
    pub fn total_layers(&self) -> usize {
        self.stages.iter().map(|s| s.layers).sum()
    }
}

/// Routing fractions between prefill and decode replicas.
///
/// `rates[i][j]` is the fraction of the total incoming request stream that is
/// prefilled by prefill replica `i` and decoded by decode replica `j`; all
/// entries are non-negative and sum to 1.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingMatrix {
    rates: Vec<Vec<f64>>,
}

impl RoutingMatrix {
    /// Builds a routing matrix, validating shape and mass.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if the matrix is empty or ragged, any
    /// entry is negative/non-finite, or the entries do not sum to 1 (±1e-6).
    pub fn new(rates: Vec<Vec<f64>>) -> Result<Self> {
        if rates.is_empty() || rates[0].is_empty() {
            return Err(Error::InvalidConfig("empty routing matrix".into()));
        }
        let cols = rates[0].len();
        let mut total = 0.0;
        for row in &rates {
            if row.len() != cols {
                return Err(Error::InvalidConfig("ragged routing matrix".into()));
            }
            for &v in row {
                if !v.is_finite() || v < -1e-12 {
                    return Err(Error::InvalidConfig(format!("bad routing rate {v}")));
                }
                total += v;
            }
        }
        if (total - 1.0).abs() > 1e-6 {
            return Err(Error::InvalidConfig(format!(
                "routing rates sum to {total}, expected 1"
            )));
        }
        Ok(RoutingMatrix { rates })
    }

    /// Uniform routing over `m` prefill and `n` decode replicas.
    ///
    /// # Panics
    /// Panics if `m` or `n` is zero.
    pub fn uniform(m: usize, n: usize) -> Self {
        assert!(
            m > 0 && n > 0,
            "uniform routing needs at least one replica per phase"
        );
        let v = 1.0 / (m * n) as f64;
        RoutingMatrix {
            rates: vec![vec![v; n]; m],
        }
    }

    /// Number of prefill replicas (rows).
    #[inline]
    pub fn num_prefill(&self) -> usize {
        self.rates.len()
    }

    /// Number of decode replicas (columns).
    #[inline]
    pub fn num_decode(&self) -> usize {
        self.rates[0].len()
    }

    /// Routing fraction for the pair `(i, j)`.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of bounds.
    #[inline]
    pub fn rate(&self, i: usize, j: usize) -> f64 {
        self.rates[i][j]
    }

    /// Total fraction handled by prefill replica `i` (the paper's `X_i`).
    pub fn prefill_share(&self, i: usize) -> f64 {
        self.rates[i].iter().sum()
    }

    /// The raw matrix.
    pub fn rates(&self) -> &[Vec<f64>] {
        &self.rates
    }
}

/// Per-model orchestration inside a multi-model plan: one model's routing
/// over *its own* (prefill, decode) groups, plus its share of the aggregate
/// request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRouting {
    /// The model this routing belongs to.
    pub model: ModelId,
    /// Routing over the model's own replicas: row `i` / column `j` follow
    /// [`DeploymentPlan::prefill_indices_for`] /
    /// [`DeploymentPlan::decode_indices_for`] for this model.
    pub routing: RoutingMatrix,
    /// Fraction of the aggregate request stream addressed to this model
    /// (the tenant's traffic share); shares sum to 1 across the plan.
    pub share: f64,
}

/// A complete deployment plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    /// All model serving groups (both phases).
    pub groups: Vec<GroupSpec>,
    /// Orchestration across (prefill, decode) pairs. Row/column order follows
    /// [`DeploymentPlan::prefill_indices`] / [`DeploymentPlan::decode_indices`].
    ///
    /// For a multi-model plan this is the *aggregate* matrix: cell `(i, j)`
    /// is `share_m * routing_m[i_m][j_m]` when prefill group `i` and decode
    /// group `j` both belong to model `m`, and 0 across models — a
    /// block-diagonal layout (up to group interleaving) that still sums to 1,
    /// so every consumer of the aggregate view keeps working.
    pub routing: RoutingMatrix,
    /// Per-model routing for multi-model plans. Empty for single-model
    /// plans, which [`crate::plan_io`] therefore writes byte-identically to
    /// plans written before multi-model support.
    pub model_routing: Vec<ModelRouting>,
}

impl DeploymentPlan {
    /// Builds a plan, checking that routing dimensions match the phase
    /// designation and no GPU is used by two groups.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] on dimension mismatch or GPU reuse,
    /// and [`Error::Infeasible`] if either phase has no replicas.
    pub fn new(groups: Vec<GroupSpec>, routing: RoutingMatrix) -> Result<Self> {
        let m = groups.iter().filter(|g| g.phase == Phase::Prefill).count();
        let n = groups.iter().filter(|g| g.phase == Phase::Decode).count();
        if m == 0 || n == 0 {
            return Err(Error::Infeasible(format!(
                "plan needs both phases, got {m} prefill / {n} decode groups"
            )));
        }
        if routing.num_prefill() != m || routing.num_decode() != n {
            return Err(Error::InvalidConfig(format!(
                "routing is {}x{}, phases are {m}x{n}",
                routing.num_prefill(),
                routing.num_decode()
            )));
        }
        let mut seen = BTreeSet::new();
        for g in &groups {
            for gpu in g.gpus() {
                if !seen.insert(gpu) {
                    return Err(Error::InvalidConfig(format!(
                        "GPU {gpu} assigned to multiple groups"
                    )));
                }
            }
        }
        Ok(DeploymentPlan {
            groups,
            routing,
            model_routing: Vec::new(),
        })
    }

    /// Builds a multi-model plan from model-tagged groups and one
    /// [`ModelRouting`] per served model. The aggregate
    /// [`DeploymentPlan::routing`] is derived block-wise
    /// (`share_m * routing_m`, zero across models).
    ///
    /// A single entry for the default model `ModelId(0)` collapses to the
    /// legacy single-model representation (empty `model_routing`), so the
    /// one-model case stays bit- and byte-identical to [`DeploymentPlan::new`].
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] on GPU reuse, duplicate/unknown
    /// models, mismatched per-model routing dimensions, or shares not
    /// summing to 1 (±1e-6); [`Error::Infeasible`] if any model lacks a
    /// phase.
    pub fn new_multi(groups: Vec<GroupSpec>, per_model: Vec<ModelRouting>) -> Result<Self> {
        if per_model.is_empty() {
            return Err(Error::InvalidConfig("no model routing entries".into()));
        }
        if per_model.len() == 1 && per_model[0].model == ModelId(0) {
            let entry = per_model.into_iter().next().expect("one entry");
            if (entry.share - 1.0).abs() > 1e-6 {
                return Err(Error::InvalidConfig(format!(
                    "single-model share is {}, expected 1",
                    entry.share
                )));
            }
            if let Some(g) = groups.iter().find(|g| g.model != ModelId(0)) {
                return Err(Error::InvalidConfig(format!(
                    "group serves {} which has no routing entry",
                    g.model
                )));
            }
            return DeploymentPlan::new(groups, entry.routing);
        }
        let mut share_total = 0.0;
        let mut models = BTreeSet::new();
        for mr in &per_model {
            if !models.insert(mr.model) {
                return Err(Error::InvalidConfig(format!(
                    "duplicate routing entry for {}",
                    mr.model
                )));
            }
            if !mr.share.is_finite() || mr.share < 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "bad traffic share {} for {}",
                    mr.share, mr.model
                )));
            }
            share_total += mr.share;
        }
        if (share_total - 1.0).abs() > 1e-6 {
            return Err(Error::InvalidConfig(format!(
                "traffic shares sum to {share_total}, expected 1"
            )));
        }
        for g in &groups {
            if !models.contains(&g.model) {
                return Err(Error::InvalidConfig(format!(
                    "group serves {} which has no routing entry",
                    g.model
                )));
            }
        }
        // Per-model local (prefill, decode) orders within the global group
        // list, then the block-diagonal aggregate.
        let phase_indices = |phase: Phase, model: ModelId| -> Vec<usize> {
            groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.phase == phase && g.model == model)
                .map(|(i, _)| i)
                .collect()
        };
        let global_prefill: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.phase == Phase::Prefill)
            .map(|(i, _)| i)
            .collect();
        let global_decode: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.phase == Phase::Decode)
            .map(|(i, _)| i)
            .collect();
        let mut rates = vec![vec![0.0f64; global_decode.len().max(1)]; global_prefill.len().max(1)];
        for mr in &per_model {
            let pre = phase_indices(Phase::Prefill, mr.model);
            let dec = phase_indices(Phase::Decode, mr.model);
            if pre.is_empty() || dec.is_empty() {
                return Err(Error::Infeasible(format!(
                    "{} needs both phases, got {} prefill / {} decode groups",
                    mr.model,
                    pre.len(),
                    dec.len()
                )));
            }
            if mr.routing.num_prefill() != pre.len() || mr.routing.num_decode() != dec.len() {
                return Err(Error::InvalidConfig(format!(
                    "routing for {} is {}x{}, its phases are {}x{}",
                    mr.model,
                    mr.routing.num_prefill(),
                    mr.routing.num_decode(),
                    pre.len(),
                    dec.len()
                )));
            }
            for (li, &gi) in pre.iter().enumerate() {
                let row = global_prefill.iter().position(|&x| x == gi).expect("row");
                for (lj, &gj) in dec.iter().enumerate() {
                    let col = global_decode.iter().position(|&x| x == gj).expect("col");
                    rates[row][col] = mr.share * mr.routing.rate(li, lj);
                }
            }
        }
        let routing = RoutingMatrix::new(rates)?;
        let mut plan = DeploymentPlan::new(groups, routing)?;
        plan.model_routing = per_model;
        Ok(plan)
    }

    /// Whether this plan serves more than the single default model.
    pub fn is_multi_model(&self) -> bool {
        !self.model_routing.is_empty()
    }

    /// The served models: entries of `model_routing`, or the single-model
    /// identity `[ModelId(0)]` for a legacy plan.
    pub fn models(&self) -> Vec<ModelId> {
        if self.model_routing.is_empty() {
            vec![ModelId(0)]
        } else {
            self.model_routing.iter().map(|mr| mr.model).collect()
        }
    }

    /// The routing of `model` over its own groups: its `model_routing` entry,
    /// or the aggregate matrix for `ModelId(0)` on a legacy plan.
    pub fn routing_for(&self, model: ModelId) -> Option<&RoutingMatrix> {
        if self.model_routing.is_empty() {
            return (model == ModelId(0)).then_some(&self.routing);
        }
        self.model_routing
            .iter()
            .find(|mr| mr.model == model)
            .map(|mr| &mr.routing)
    }

    /// Indices (into `groups`) of `model`'s prefill replicas, in the row
    /// order of [`DeploymentPlan::routing_for`]`(model)`.
    pub fn prefill_indices_for(&self, model: ModelId) -> Vec<usize> {
        self.indices_of_model(Phase::Prefill, model)
    }

    /// Indices (into `groups`) of `model`'s decode replicas, in the column
    /// order of [`DeploymentPlan::routing_for`]`(model)`.
    pub fn decode_indices_for(&self, model: ModelId) -> Vec<usize> {
        self.indices_of_model(Phase::Decode, model)
    }

    fn indices_of_model(&self, phase: Phase, model: ModelId) -> Vec<usize> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.phase == phase && g.model == model)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices (into `groups`) of the prefill replicas, in routing-row order.
    pub fn prefill_indices(&self) -> Vec<usize> {
        self.indices_of(Phase::Prefill)
    }

    /// Indices (into `groups`) of the decode replicas, in routing-column order.
    pub fn decode_indices(&self) -> Vec<usize> {
        self.indices_of(Phase::Decode)
    }

    fn indices_of(&self, phase: Phase) -> Vec<usize> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.phase == phase)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total number of GPUs used by the plan.
    pub fn num_gpus(&self) -> usize {
        self.groups.iter().map(GroupSpec::num_gpus).sum()
    }

    /// The prefill-to-decode replica ratio, e.g. `(8, 4)` for Table 3's
    /// coding plan.
    pub fn phase_ratio(&self) -> (usize, usize) {
        (self.prefill_indices().len(), self.decode_indices().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(ids: &[u32], layers: usize) -> StageSpec {
        StageSpec {
            gpus: ids.iter().map(|&i| GpuId(i)).collect(),
            layers,
        }
    }

    fn group(phase: Phase, tp: usize, pp: usize, first_gpu: u32, layers: usize) -> GroupSpec {
        let stages = (0..pp)
            .map(|s| {
                let base = first_gpu + (s * tp) as u32;
                stage(&(base..base + tp as u32).collect::<Vec<_>>(), layers / pp)
            })
            .collect();
        GroupSpec::new(phase, ParallelConfig::new(tp, pp).unwrap(), stages).unwrap()
    }

    #[test]
    fn group_rejects_shape_mismatch() {
        let err = GroupSpec::new(
            Phase::Prefill,
            ParallelConfig::new(2, 1).unwrap(),
            vec![stage(&[0], 32)],
        );
        assert!(err.is_err());
    }

    #[test]
    fn group_rejects_duplicate_gpu() {
        let err = GroupSpec::new(
            Phase::Prefill,
            ParallelConfig::new(2, 1).unwrap(),
            vec![stage(&[0, 0], 32)],
        );
        assert!(err.is_err());
    }

    #[test]
    fn group_rejects_zero_layers() {
        let err = GroupSpec::new(
            Phase::Prefill,
            ParallelConfig::new(1, 1).unwrap(),
            vec![stage(&[0], 0)],
        );
        assert!(err.is_err());
    }

    #[test]
    fn routing_must_sum_to_one() {
        assert!(RoutingMatrix::new(vec![vec![0.5, 0.4]]).is_err());
        assert!(RoutingMatrix::new(vec![vec![0.5, 0.5]]).is_ok());
    }

    #[test]
    fn uniform_routing_shares() {
        let r = RoutingMatrix::uniform(2, 4);
        assert!((r.prefill_share(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn plan_requires_both_phases() {
        let groups = vec![group(Phase::Prefill, 1, 1, 0, 32)];
        let err = DeploymentPlan::new(groups, RoutingMatrix::uniform(1, 1));
        assert!(matches!(err, Err(Error::Infeasible(_))));
    }

    #[test]
    fn plan_detects_gpu_reuse() {
        let groups = vec![
            group(Phase::Prefill, 1, 1, 0, 32),
            group(Phase::Decode, 1, 1, 0, 32), // same GPU 0
        ];
        let err = DeploymentPlan::new(groups, RoutingMatrix::uniform(1, 1));
        assert!(err.is_err());
    }

    #[test]
    fn multi_model_plan_builds_block_diagonal_aggregate() {
        let groups = vec![
            group(Phase::Prefill, 1, 1, 0, 32).with_model(ModelId(1)),
            group(Phase::Decode, 1, 1, 1, 32).with_model(ModelId(1)),
            group(Phase::Prefill, 1, 1, 2, 48).with_model(ModelId(2)),
            group(Phase::Decode, 1, 1, 3, 48).with_model(ModelId(2)),
            group(Phase::Decode, 1, 1, 4, 48).with_model(ModelId(2)),
        ];
        let per_model = vec![
            ModelRouting {
                model: ModelId(1),
                routing: RoutingMatrix::uniform(1, 1),
                share: 0.25,
            },
            ModelRouting {
                model: ModelId(2),
                routing: RoutingMatrix::new(vec![vec![0.5, 0.5]]).unwrap(),
                share: 0.75,
            },
        ];
        let plan = DeploymentPlan::new_multi(groups, per_model).unwrap();
        assert!(plan.is_multi_model());
        assert_eq!(plan.models(), vec![ModelId(1), ModelId(2)]);
        assert_eq!(plan.prefill_indices_for(ModelId(1)), vec![0]);
        assert_eq!(plan.decode_indices_for(ModelId(2)), vec![3, 4]);
        // aggregate: rows = prefill groups [0, 2], cols = decode groups [1, 3, 4]
        assert!((plan.routing.rate(0, 0) - 0.25).abs() < 1e-12);
        assert_eq!(plan.routing.rate(0, 1), 0.0); // cross-model cell
        assert!((plan.routing.rate(1, 1) - 0.375).abs() < 1e-12);
        assert!((plan.routing.rate(1, 2) - 0.375).abs() < 1e-12);
        assert_eq!(plan.model_routing[1].share, 0.75);
        assert_eq!(
            plan.routing_for(ModelId(2)).unwrap().rate(0, 0),
            0.5,
            "per-model routing is over the model's own groups"
        );
    }

    #[test]
    fn single_default_model_collapses_to_legacy_plan() {
        let groups = vec![
            group(Phase::Prefill, 1, 1, 0, 32),
            group(Phase::Decode, 1, 1, 1, 32),
        ];
        let plan = DeploymentPlan::new_multi(
            groups.clone(),
            vec![ModelRouting {
                model: ModelId(0),
                routing: RoutingMatrix::uniform(1, 1),
                share: 1.0,
            }],
        )
        .unwrap();
        let legacy = DeploymentPlan::new(groups, RoutingMatrix::uniform(1, 1)).unwrap();
        assert_eq!(plan, legacy);
        assert!(!plan.is_multi_model());
        assert_eq!(plan.models(), vec![ModelId(0)]);
        assert_eq!(plan.routing_for(ModelId(0)).unwrap(), &plan.routing);
    }

    #[test]
    fn multi_model_plan_requires_both_phases_per_model() {
        let groups = vec![
            group(Phase::Prefill, 1, 1, 0, 32).with_model(ModelId(1)),
            group(Phase::Decode, 1, 1, 1, 32).with_model(ModelId(1)),
            group(Phase::Prefill, 1, 1, 2, 48).with_model(ModelId(2)),
        ];
        let mk = |m: u32, p: usize, d: usize, share| ModelRouting {
            model: ModelId(m),
            routing: RoutingMatrix::uniform(p.max(1), d.max(1)),
            share,
        };
        let err = DeploymentPlan::new_multi(groups, vec![mk(1, 1, 1, 0.5), mk(2, 1, 1, 0.5)]);
        assert!(matches!(err, Err(Error::Infeasible(_))));
    }

    #[test]
    fn multi_model_plan_validates_shares() {
        let groups = vec![
            group(Phase::Prefill, 1, 1, 0, 32).with_model(ModelId(1)),
            group(Phase::Decode, 1, 1, 1, 32).with_model(ModelId(1)),
            group(Phase::Prefill, 1, 1, 2, 48).with_model(ModelId(2)),
            group(Phase::Decode, 1, 1, 3, 48).with_model(ModelId(2)),
        ];
        let mk = |share_a: f64, share_b: f64| {
            vec![
                ModelRouting {
                    model: ModelId(1),
                    routing: RoutingMatrix::uniform(1, 1),
                    share: share_a,
                },
                ModelRouting {
                    model: ModelId(2),
                    routing: RoutingMatrix::uniform(1, 1),
                    share: share_b,
                },
            ]
        };
        assert!(DeploymentPlan::new_multi(groups.clone(), mk(0.6, 0.6)).is_err());
        assert!(DeploymentPlan::new_multi(groups, mk(0.6, 0.4)).is_ok());
    }

    #[test]
    fn plan_exposes_phase_indices() {
        let groups = vec![
            group(Phase::Decode, 1, 1, 0, 32),
            group(Phase::Prefill, 1, 1, 1, 32),
            group(Phase::Decode, 1, 1, 2, 32),
        ];
        let plan = DeploymentPlan::new(groups, RoutingMatrix::uniform(1, 2)).unwrap();
        assert_eq!(plan.prefill_indices(), vec![1]);
        assert_eq!(plan.decode_indices(), vec![0, 2]);
        assert_eq!(plan.phase_ratio(), (1, 2));
        assert_eq!(plan.num_gpus(), 3);
    }
}
