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

use crate::hash::FastHashSet;
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
        // A group listing one GPU cannot repeat it; larger ones are checked
        // stage by stage, so the first bad stage reports first.
        let listed = stages.iter().map(|s| s.gpus.len()).sum();
        let mut seen = (listed > 1).then(|| gpu_set(listed));
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
            if let Some(seen) = seen.as_mut() {
                for &g in &st.gpus {
                    if !seen.insert(g) {
                        return Err(Error::InvalidConfig(format!("GPU {g} appears twice")));
                    }
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

    /// A one-stage tensor-parallel group: TP = `gpus.len()`, PP = 1, and
    /// all `layers` on that stage.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if `gpus` is empty or lists a GPU
    /// twice, or `layers` is zero (the checks of [`GroupSpec::new`]).
    pub fn single_stage(phase: Phase, gpus: Vec<GpuId>, layers: usize) -> Result<Self> {
        let parallel = ParallelConfig::new(gpus.len(), 1)?;
        GroupSpec::new(phase, parallel, vec![StageSpec { gpus, layers }])
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

/// Each group's routing row (prefill) or column (decode): its rank among
/// the groups of its phase.
fn routing_slots(groups: &[GroupSpec]) -> Vec<usize> {
    let (mut rows, mut cols) = (0, 0);
    groups
        .iter()
        .map(|g| {
            let next = match g.phase {
                Phase::Prefill => &mut rows,
                Phase::Decode => &mut cols,
            };
            *next += 1;
            *next - 1
        })
        .collect()
}

/// An empty GPU set with room for `count` GPUs: one pass of inserts
/// checks them for reuse without growing it.
fn gpu_set(count: usize) -> FastHashSet<GpuId> {
    FastHashSet::with_capacity_and_hasher(count, Default::default())
}

/// Routing fractions between prefill and decode replicas.
///
/// `rates[i][j]` is the fraction of the total incoming request stream that is
/// prefilled by prefill replica `i` and decoded by decode replica `j`; all
/// entries are non-negative and sum to 1.
///
/// The matrix keeps its dense rows, which [`RoutingMatrix::rates`] and
/// [`RoutingMatrix::rate`] read, and its [`RoutingSupport`]: the cells that
/// are not `+0.0`, found in the one validation pass of
/// [`RoutingMatrix::new`]. Library code that walks the routed pairs reads
/// the support, so its cost follows the routed cells, not P × D.
#[derive(Debug, Clone)]
pub struct RoutingMatrix {
    rates: Vec<Vec<f64>>,
    support: RoutingSupport,
}

/// Equality is the dense rows' (`0.0 == -0.0`, as before the support
/// existed); the support is a function of them.
impl PartialEq for RoutingMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rates == other.rates
    }
}

/// The support of a routing matrix: every cell whose bits are not `+0.0`,
/// row by row and in column order within a row, stored CSR-style.
///
/// It holds `-0.0` and tiny negative cells as well as the routed ones, so:
///
/// * a sum over a row, a column or the whole matrix that starts at `+0.0`
///   and adds the support's cells in row-major order has the dense sum's
///   bits: the skipped cells are `+0.0`, and adding `+0.0` to such a sum
///   changes no bit;
/// * a dense matrix filled with `+0.0` and then written from the support
///   (scaled or not) has the bits of the same map applied to every cell.
#[derive(Debug, Clone)]
pub struct RoutingSupport {
    /// Row `i`'s cells are `cells[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<usize>,
    /// `(column, rate)` of each held cell, row-major.
    cells: Vec<(usize, f64)>,
}

impl RoutingSupport {
    fn with_rows(rows: usize) -> Self {
        let mut row_start = Vec::with_capacity(rows + 1);
        row_start.push(0);
        RoutingSupport {
            row_start,
            cells: Vec::new(),
        }
    }

    /// Appends the held cells of `row` as the next row and returns them.
    /// A chunk of `+0.0` cells, most of a sparse row, costs one
    /// branch-free OR of its bits.
    fn push_row(&mut self, row: &[f64]) -> &[(usize, f64)] {
        const CHUNK: usize = 8;
        let start = self.cells.len();
        for (c, chunk) in row.chunks(CHUNK).enumerate() {
            if chunk.iter().fold(0, |bits, v| bits | v.to_bits()) == 0 {
                continue;
            }
            for (k, &v) in chunk.iter().enumerate() {
                if v.to_bits() != 0 {
                    self.cells.push((c * CHUNK + k, v));
                }
            }
        }
        self.row_start.push(self.cells.len());
        &self.cells[start..]
    }

    /// The support of dense `rows`, which may be ragged; no value is
    /// checked.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let mut support = RoutingSupport::with_rows(rows.len());
        for row in rows {
            support.push_row(row);
        }
        support
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.row_start.len() - 1
    }

    /// Number of held cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Row `i`'s held cells as `(column, rate)`, in column order.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.cells[self.row_start[i]..self.row_start[i + 1]]
    }

    /// Every held cell as `(row, column, rate)`, in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.num_rows()).flat_map(move |i| self.row(i).iter().map(move |&(j, v)| (i, j, v)))
    }
}

impl RoutingMatrix {
    /// Builds a routing matrix, validating shape and mass, and records its
    /// support in the same pass.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if the matrix is empty or ragged, any
    /// entry is negative/non-finite, or the entries do not sum to 1 (±1e-6).
    /// The first bad row or cell in row-major order is the one reported.
    pub fn new(rates: Vec<Vec<f64>>) -> Result<Self> {
        if rates.is_empty() || rates[0].is_empty() {
            return Err(Error::InvalidConfig("empty routing matrix".into()));
        }
        let cols = rates[0].len();
        let mut support = RoutingSupport::with_rows(rates.len());
        for row in &rates {
            if row.len() != cols {
                return Err(Error::InvalidConfig("ragged routing matrix".into()));
            }
            // A +0.0 cell is valid, so the row's first bad cell is among
            // its held ones.
            let held = support.push_row(row);
            if let Some((_, v)) = held.iter().find(|(_, v)| !v.is_finite() || *v < -1e-12) {
                return Err(Error::InvalidConfig(format!("bad routing rate {v}")));
            }
        }
        // The dense sum over every cell in row-major order, bit for bit.
        let total = support.cells.iter().fold(0.0, |t, &(_, v)| t + v);
        if (total - 1.0).abs() > 1e-6 {
            return Err(Error::InvalidConfig(format!(
                "routing rates sum to {total}, expected 1"
            )));
        }
        Ok(RoutingMatrix { rates, support })
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
        let rates = vec![vec![v; n]; m];
        let support = RoutingSupport::from_rows(&rates);
        RoutingMatrix { rates, support }
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
    ///
    /// This is the dense row's `Iterator::sum`, which starts at `-0.0`: a
    /// row of `-0.0` cells sums to `-0.0`, and a `+0.0` cell turns a zero
    /// sum to `+0.0`. Over the support, a zero sum becomes `+0.0` when
    /// the row has a `+0.0` cell, i.e. holds fewer cells than the row.
    pub fn prefill_share(&self, i: usize) -> f64 {
        let row = self.support.row(i);
        let sum = row.iter().fold(-0.0, |s, &(_, v)| s + v);
        if sum == 0.0 && row.len() < self.num_decode() {
            0.0
        } else {
            sum
        }
    }

    /// The raw matrix.
    pub fn rates(&self) -> &[Vec<f64>] {
        &self.rates
    }

    /// The cells that are not `+0.0`; see [`RoutingSupport`].
    #[inline]
    pub fn support(&self) -> &RoutingSupport {
        &self.support
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
        let listed = groups.iter().flat_map(|g| &g.stages).map(|s| s.gpus.len());
        let mut seen = gpu_set(listed.sum());
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
        // list, each group's row or column in the aggregate, then the
        // block-diagonal aggregate.
        let phase_indices = |phase: Phase, model: ModelId| -> Vec<usize> {
            groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.phase == phase && g.model == model)
                .map(|(i, _)| i)
                .collect()
        };
        let slot = routing_slots(&groups);
        let rows = groups.iter().filter(|g| g.phase == Phase::Prefill).count();
        let cols = groups.len() - rows;
        let mut rates = vec![vec![0.0f64; cols.max(1)]; rows.max(1)];
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
            // A cell off the support is +0.0, and so is `share * +0.0`
            // for a finite, non-negative share: the zero fill holds it.
            for (li, &gi) in pre.iter().enumerate() {
                let row = &mut rates[slot[gi]];
                for &(lj, v) in mr.routing.support().row(li) {
                    row[slot[dec[lj]]] = mr.share * v;
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

    /// Each group's row (a prefill group) or column (a decode group) in the
    /// aggregate [`DeploymentPlan::routing`].
    pub fn routing_slots(&self) -> Vec<usize> {
        routing_slots(&self.groups)
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
    fn single_stage_matches_the_new_form() {
        let gpus = vec![GpuId(3), GpuId(1)];
        let got = GroupSpec::single_stage(Phase::Decode, gpus.clone(), 40).unwrap();
        let want = GroupSpec::new(
            Phase::Decode,
            ParallelConfig::new(2, 1).unwrap(),
            vec![StageSpec { gpus, layers: 40 }],
        )
        .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn single_stage_rejects_no_gpus_and_a_repeated_gpu() {
        let empty = GroupSpec::single_stage(Phase::Prefill, Vec::new(), 32);
        assert!(matches!(empty, Err(Error::InvalidConfig(_))));
        let repeated = GroupSpec::single_stage(Phase::Prefill, vec![GpuId(2), GpuId(2)], 32);
        assert!(matches!(repeated, Err(Error::InvalidConfig(_))));
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

/// The support against the dense matrix it replaced: every reader of the
/// support must give the bits the dense code gave, on seeded random
/// matrices and plans.
#[cfg(test)]
mod dense_oracle_tests {
    use super::*;
    use crate::plan_io;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The dense validation of [`RoutingMatrix::new`]: one loop over every
    /// cell, summing all of them.
    fn dense_check(rates: &[Vec<f64>]) -> Result<()> {
        if rates.is_empty() || rates[0].is_empty() {
            return Err(Error::InvalidConfig("empty routing matrix".into()));
        }
        let cols = rates[0].len();
        let mut total = 0.0;
        for row in rates {
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
        Ok(())
    }

    /// The dense aggregate of [`DeploymentPlan::new_multi`]: every cell of
    /// every model, placed by a position search.
    fn dense_aggregate(groups: &[GroupSpec], per_model: &[ModelRouting]) -> Vec<Vec<f64>> {
        let indices = |phase: Phase, model: Option<ModelId>| -> Vec<usize> {
            (0..groups.len())
                .filter(|&i| groups[i].phase == phase && model.is_none_or(|m| groups[i].model == m))
                .collect()
        };
        let (all_p, all_d) = (indices(Phase::Prefill, None), indices(Phase::Decode, None));
        let mut rates = vec![vec![0.0f64; all_d.len()]; all_p.len()];
        for mr in per_model {
            let pre = indices(Phase::Prefill, Some(mr.model));
            let dec = indices(Phase::Decode, Some(mr.model));
            for (li, &gi) in pre.iter().enumerate() {
                let row = all_p.iter().position(|&x| x == gi).unwrap();
                for (lj, &gj) in dec.iter().enumerate() {
                    let col = all_d.iter().position(|&x| x == gj).unwrap();
                    rates[row][col] = mr.share * mr.routing.rate(li, lj);
                }
            }
        }
        rates
    }

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// A random `p × d` routing matrix summing to 1. Its density runs from
    /// dense to a few cells; some rows and columns are unrouted; and some
    /// zero cells are `-0.0` or `-1e-13`, so a row can hold only zeros of
    /// either sign.
    fn random_rates(rng: &mut StdRng, p: usize, d: usize) -> Vec<Vec<f64>> {
        let density = [1.0, 0.5, 0.1, 0.02][rng.gen_range(0..4usize)];
        let dead_rows: Vec<bool> = (0..p).map(|_| rng.gen_bool(0.2)).collect();
        let dead_cols: Vec<bool> = (0..d).map(|_| rng.gen_bool(0.2)).collect();
        let mut rates = vec![vec![0.0f64; d]; p];
        for i in 0..p {
            for j in 0..d {
                if !dead_rows[i] && !dead_cols[j] && rng.gen_bool(density) {
                    rates[i][j] = rng.gen_range(0.01..1.0);
                }
            }
        }
        if rates.iter().flatten().all(|&v| v == 0.0) {
            let (i, j) = (rng.gen_range(0..p), rng.gen_range(0..d));
            rates[i][j] = 1.0;
        }
        let total: f64 = rates.iter().flatten().sum();
        let odd = [0.0, 0.05, 0.3][rng.gen_range(0..3usize)];
        for v in rates.iter_mut().flatten() {
            if *v != 0.0 {
                *v /= total;
            } else if rng.gen_bool(odd) {
                *v = if rng.gen_bool(0.5) { -0.0 } else { -1e-13 };
            }
        }
        rates
    }

    /// Mostly small sides, a few of them up to 64.
    fn side(rng: &mut StdRng) -> usize {
        if rng.gen_bool(0.7) {
            rng.gen_range(1..=6)
        } else {
            rng.gen_range(1..=64)
        }
    }

    fn one_gpu_group(phase: Phase, gpu: u32, model: ModelId) -> GroupSpec {
        GroupSpec::single_stage(phase, vec![GpuId(gpu)], 32)
            .unwrap()
            .with_model(model)
    }

    /// `plan` with its aggregate rows replaced by `rows`.
    fn with_rows(plan: &DeploymentPlan, rows: &[Vec<f64>]) -> DeploymentPlan {
        let mut oracle = plan.clone();
        oracle.routing = RoutingMatrix::new(rows.to_vec()).unwrap();
        oracle
    }

    /// `to_text`, `from_text` and `to_text` again, each against the oracle
    /// aggregate. A multi-model plan's reparsed aggregate is rederived
    /// from the rounded shares and rates, so only a single-model text
    /// reads back unchanged.
    fn check_text(plan: &DeploymentPlan, oracle_rows: &[Vec<f64>], case: usize) {
        let text = plan_io::to_text(plan);
        assert_eq!(
            text,
            plan_io::to_text(&with_rows(plan, oracle_rows)),
            "case {case}"
        );
        let back = plan_io::from_text(&text).unwrap();
        if back.is_multi_model() {
            let want = dense_aggregate(&back.groups, &back.model_routing);
            assert_eq!(bits(back.routing.rates()), bits(&want), "case {case}");
            let again = plan_io::to_text(&back);
            assert_eq!(
                again,
                plan_io::to_text(&with_rows(&back, &want)),
                "case {case}"
            );
        } else {
            assert_eq!(plan_io::to_text(&back), text, "case {case}");
        }
    }

    #[test]
    fn support_readers_match_the_dense_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5eed_5a11);
        let (mut neg_zero_rows, mut plus_zero_rows, mut unrouted) = (0, 0, 0);
        for case in 0..300 {
            let (p, d) = (side(&mut rng), side(&mut rng));
            let rates = random_rates(&mut rng, p, d);
            dense_check(&rates).unwrap();
            let m = RoutingMatrix::new(rates.clone()).unwrap();
            let held: Vec<(usize, usize, u64)> = (0..p)
                .flat_map(|i| (0..d).map(move |j| (i, j)))
                .filter(|&(i, j)| rates[i][j].to_bits() != 0)
                .map(|(i, j)| (i, j, rates[i][j].to_bits()))
                .collect();
            let support: Vec<(usize, usize, u64)> = m
                .support()
                .iter()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect();
            assert_eq!(support, held, "case {case}");
            for (i, row) in rates.iter().enumerate() {
                let dense: f64 = row.iter().sum();
                assert_eq!(
                    m.prefill_share(i).to_bits(),
                    dense.to_bits(),
                    "case {case} row {i}"
                );
                neg_zero_rows += usize::from(dense.to_bits() == (-0.0f64).to_bits());
                plus_zero_rows +=
                    usize::from(dense.to_bits() == 0 && row.iter().any(|v| v.to_bits() != 0));
                unrouted += usize::from(row.iter().all(|&v| v <= 0.0));
            }
            let groups: Vec<GroupSpec> = (0..p + d)
                .map(|g| {
                    let phase = if g < p { Phase::Prefill } else { Phase::Decode };
                    one_gpu_group(phase, g as u32, ModelId(0))
                })
                .collect();
            let plan = DeploymentPlan::new(groups, m).unwrap();
            check_text(&plan, &rates, case);
        }
        // The draws reach the zero-sign corners.
        assert!(neg_zero_rows > 0 && plus_zero_rows > 0 && unrouted > 100);
    }

    #[test]
    fn multi_model_aggregate_matches_the_dense_oracle() {
        let mut rng = StdRng::seed_from_u64(0x0a66_2e6a);
        for case in 0..200 {
            let models = rng.gen_range(1..=3u32);
            let mut groups = Vec::new();
            let mut per_model = Vec::new();
            let mut shares: Vec<f64> = (0..models).map(|_| rng.gen_range(0.1..1.0)).collect();
            let total: f64 = shares.iter().sum();
            shares.iter_mut().for_each(|s| *s /= total);
            for (k, &share) in shares.iter().enumerate() {
                let model = ModelId(k as u32 + 1);
                let (p, d) = (rng.gen_range(1..=12), rng.gen_range(1..=12));
                for g in 0..p + d {
                    let phase = if g < p { Phase::Prefill } else { Phase::Decode };
                    groups.push(one_gpu_group(phase, groups.len() as u32, model));
                }
                let routing = RoutingMatrix::new(random_rates(&mut rng, p, d)).unwrap();
                per_model.push(ModelRouting {
                    model,
                    routing,
                    share,
                });
            }
            groups.shuffle(&mut rng);
            let want = dense_aggregate(&groups, &per_model);
            let plan = DeploymentPlan::new_multi(groups, per_model).unwrap();
            assert_eq!(bits(plan.routing.rates()), bits(&want), "case {case}");
            check_text(&plan, &want, case);
        }
    }

    /// Bad matrices fail with the dense check's message, which names the
    /// first bad row or cell in row-major order.
    #[test]
    fn malformed_matrices_fail_like_the_dense_check() {
        let mut rng = StdRng::seed_from_u64(0xbad_ce11);
        let mut kinds = [0usize; 6];
        for case in 0..300 {
            let (p, d) = (side(&mut rng), side(&mut rng));
            let mut rates = random_rates(&mut rng, p, d);
            for _ in 0..rng.gen_range(1..=3) {
                let row = &mut rates[rng.gen_range(0..p)];
                let j = rng.gen_range(0..row.len());
                let kind = rng.gen_range(0..6usize);
                kinds[kind] += 1;
                match kind {
                    0 => row[j] = f64::NAN,
                    1 => row[j] = f64::INFINITY,
                    2 => row[j] = f64::NEG_INFINITY,
                    3 => row[j] = -rng.gen_range(1.1e-12..1.0f64),
                    4 if row.len() == 1 || rng.gen_bool(0.5) => row.push(0.0),
                    4 => drop(row.pop()),
                    _ => row[j] += [1.5e-6, 1e-3, 0.5][rng.gen_range(0..3usize)],
                }
            }
            let want = dense_check(&rates).map(|()| "ok".to_string());
            let got = RoutingMatrix::new(rates).map(|_| "ok".to_string());
            assert_eq!(
                got.map_err(|e| e.to_string()),
                want.map_err(|e| e.to_string()),
                "case {case}"
            );
        }
        assert!(kinds.iter().all(|&k| k > 30), "{kinds:?}");
        for empty in [vec![], vec![vec![]]] {
            assert_eq!(
                RoutingMatrix::new(empty.clone()).unwrap_err().to_string(),
                dense_check(&empty).unwrap_err().to_string()
            );
        }
    }
}
