//! Tabu-search candidates: group constructions with phase designations.
//!
//! A [`Candidate`] is a solution to the upper-level problem — a partition of
//! the available GPUs into serving groups, each designated prefill or
//! decode. The four neighbourhood moves of §3.2 (flip / split / merge /
//! move) operate on candidates; canonical hashing feeds the tabu list.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use ts_cluster::Cluster;
use ts_common::{GpuId, ModelId, Phase};

/// One serving group of a candidate solution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CandidateGroup {
    /// Member GPUs, kept sorted.
    pub gpus: Vec<GpuId>,
    /// Designated phase.
    pub phase: Phase,
    /// The served model this group is assigned to (`ModelId(0)` — the
    /// default — in single-model searches).
    pub model: ModelId,
}

impl CandidateGroup {
    /// Creates a group, sorting its GPUs. The group serves the default
    /// model; multi-model searches tag it with
    /// [`CandidateGroup::with_model`].
    pub fn new(mut gpus: Vec<GpuId>, phase: Phase) -> Self {
        gpus.sort_unstable();
        CandidateGroup {
            gpus,
            phase,
            model: ModelId(0),
        }
    }

    /// The same group assigned to `model` (builder style).
    pub fn with_model(mut self, model: ModelId) -> Self {
        self.model = model;
        self
    }

    /// Canonical `u64` identity of `(gpus, phase, model)`, used as the key
    /// of the scheduler's parallel-configuration cache (avoids cloning the
    /// GPU list into the map on every lookup). The model participates
    /// because the cached parallel configuration is deduced from the model's
    /// weights and layer count.
    pub fn group_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// An upper-level solution: a partition of the GPUs plus phase designations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The serving groups. Order is irrelevant; hashing canonicalizes.
    pub groups: Vec<CandidateGroup>,
}

impl Candidate {
    /// Creates a candidate from groups.
    pub fn new(groups: Vec<CandidateGroup>) -> Self {
        Candidate { groups }
    }

    /// Total GPUs across groups.
    pub fn num_gpus(&self) -> usize {
        self.groups.iter().map(|g| g.gpus.len()).sum()
    }

    /// Number of groups per phase `(prefill, decode)`.
    pub fn phase_counts(&self) -> (usize, usize) {
        let p = self
            .groups
            .iter()
            .filter(|g| g.phase == Phase::Prefill)
            .count();
        (p, self.groups.len() - p)
    }

    /// Whether both phases are represented.
    pub fn has_both_phases(&self) -> bool {
        let (p, d) = self.phase_counts();
        p > 0 && d > 0
    }

    /// Whether *every* listed model has both phases among its own groups —
    /// the multi-model feasibility gate (a tenant without a prefill or
    /// decode replica cannot serve at all).
    pub fn has_both_phases_for(&self, models: &[ModelId]) -> bool {
        models.iter().all(|&m| {
            let p = self
                .groups
                .iter()
                .any(|g| g.model == m && g.phase == Phase::Prefill);
            let d = self
                .groups
                .iter()
                .any(|g| g.model == m && g.phase == Phase::Decode);
            p && d
        })
    }

    /// Canonical hash (order-independent) for the tabu list. The sorted
    /// keys borrow each group's GPU list; a slice hashes the bytes of the
    /// `Vec` it borrows from.
    pub fn canonical_hash(&self) -> u64 {
        let mut keys: Vec<(&[GpuId], Phase, ModelId)> = self
            .groups
            .iter()
            .map(|g| (g.gpus.as_slice(), g.phase, g.model))
            .collect();
        keys.sort();
        let mut h = DefaultHasher::new();
        keys.hash(&mut h);
        h.finish()
    }

    /// Flips the phase of group `idx` (the "flipping phase designation"
    /// move).
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn flip(&self, idx: usize) -> Candidate {
        let mut c = self.clone();
        c.groups[idx].phase = c.groups[idx].phase.opposite();
        c
    }

    /// Splits group `idx` at ratio `r ∈ (0,1)`, assigning phases randomly
    /// (the "splitting a group into two" move). GPUs are ordered by
    /// (model, node) before the cut so each half stays as uniform as
    /// possible. Returns `None` if the group has fewer than 2 GPUs or the
    /// cut would be empty.
    pub fn split<R: Rng>(
        &self,
        cluster: &Cluster,
        idx: usize,
        r: f64,
        rng: &mut R,
    ) -> Option<Candidate> {
        let g = &self.groups[idx];
        if g.gpus.len() < 2 {
            return None;
        }
        let mut ordered = g.gpus.clone();
        ordered.sort_by_key(|&id| {
            let gpu = cluster.gpu(id);
            (gpu.model, gpu.node, id)
        });
        let cut = ((g.gpus.len() as f64) * r).floor() as usize;
        if cut == 0 || cut == g.gpus.len() {
            return None;
        }
        let (a, b) = ordered.split_at(cut);
        let model = g.model;
        let mut c = self.clone();
        c.groups[idx] = CandidateGroup::new(a.to_vec(), random_phase(rng)).with_model(model);
        c.groups
            .push(CandidateGroup::new(b.to_vec(), random_phase(rng)).with_model(model));
        Some(c)
    }

    /// Merges groups `a` and `b` (the "merging two groups into one" move).
    /// Returns `None` if `a == b` or the groups serve different models (a
    /// merged replica can only load one model's weights).
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    pub fn merge<R: Rng>(&self, a: usize, b: usize, rng: &mut R) -> Option<Candidate> {
        if a == b || self.groups[a].model != self.groups[b].model {
            return None;
        }
        let mut c = self.clone();
        let (lo, hi) = (a.min(b), a.max(b));
        let model = c.groups[lo].model;
        let removed = c.groups.remove(hi);
        let mut gpus = c.groups[lo].gpus.clone();
        gpus.extend(removed.gpus);
        c.groups[lo] = CandidateGroup::new(gpus, random_phase(rng)).with_model(model);
        Some(c)
    }

    /// Reassigns group `idx` to serve `model` (the multi-model
    /// "reassign-model" move: shifts a whole replica's capacity to another
    /// tenant). Returns `None` if the group already serves `model`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn reassign_model(&self, idx: usize, model: ModelId) -> Option<Candidate> {
        if self.groups[idx].model == model {
            return None;
        }
        let mut c = self.clone();
        c.groups[idx].model = model;
        Some(c)
    }

    /// Moves `m` GPUs of one (randomly chosen) model type from group `from`
    /// to group `to` (the "moving GPUs between groups" move). Returns `None`
    /// if impossible (same group, or `from` would become empty).
    pub fn move_gpus<R: Rng>(
        &self,
        cluster: &Cluster,
        from: usize,
        to: usize,
        rng: &mut R,
    ) -> Option<Candidate> {
        if from == to || self.groups[from].gpus.len() < 2 {
            return None;
        }
        let g = &self.groups[from];
        // pick a model type present in `from`
        let mut models: Vec<_> = g.gpus.iter().map(|&id| cluster.gpu(id).model).collect();
        models.sort_unstable();
        models.dedup();
        let model = *models.choose(rng)?;
        let of_type: Vec<GpuId> = g
            .gpus
            .iter()
            .copied()
            .filter(|&id| cluster.gpu(id).model == model)
            .collect();
        let max_move = of_type.len().min(g.gpus.len() - 1);
        if max_move == 0 {
            return None;
        }
        let m = rng.gen_range(1..=max_move);
        let moved: Vec<GpuId> = of_type[..m].to_vec();
        let mut c = self.clone();
        c.groups[from] = CandidateGroup::new(
            g.gpus
                .iter()
                .copied()
                .filter(|id| !moved.contains(id))
                .collect(),
            g.phase,
        )
        .with_model(g.model);
        let mut to_gpus = c.groups[to].gpus.clone();
        to_gpus.extend(moved);
        c.groups[to] =
            CandidateGroup::new(to_gpus, c.groups[to].phase).with_model(c.groups[to].model);
        Some(c)
    }
}

fn random_phase<R: Rng>(rng: &mut R) -> Phase {
    if rng.gen_bool(0.5) {
        Phase::Prefill
    } else {
        Phase::Decode
    }
}

#[cfg(test)]
impl Candidate {
    /// Checks the partition invariant: the groups exactly cover `expected`
    /// with no duplicates.
    fn is_partition_of(&self, expected: &[GpuId]) -> bool {
        let mut all: Vec<GpuId> = self
            .groups
            .iter()
            .flat_map(|g| g.gpus.iter().copied())
            .collect();
        all.sort_unstable();
        let mut exp = expected.to_vec();
        exp.sort_unstable();
        all == exp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::{ClusterBuilder, GpuModel};
    use ts_common::seeded_rng;

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .node("a", GpuModel::A40, 4)
            .node("b", GpuModel::Rtx3090Ti, 4)
            .build()
            .unwrap()
    }

    fn ids(v: &[u32]) -> Vec<GpuId> {
        v.iter().map(|&i| GpuId(i)).collect()
    }

    fn base() -> Candidate {
        Candidate::new(vec![
            CandidateGroup::new(ids(&[0, 1, 2, 3]), Phase::Prefill),
            CandidateGroup::new(ids(&[4, 5, 6, 7]), Phase::Decode),
        ])
    }

    #[test]
    fn hash_is_order_independent() {
        let a = base();
        let b = Candidate::new(vec![a.groups[1].clone(), a.groups[0].clone()]);
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        let c = a.flip(0);
        assert_ne!(a.canonical_hash(), c.canonical_hash());
    }

    #[test]
    fn hash_of_borrowed_keys_equals_hash_of_owned_keys() {
        let c = Candidate::new(vec![
            CandidateGroup::new(ids(&[4, 5]), Phase::Decode).with_model(ModelId(2)),
            CandidateGroup::new(ids(&[0, 1, 2, 3]), Phase::Prefill),
            CandidateGroup::new(ids(&[6, 7]), Phase::Prefill).with_model(ModelId(1)),
        ]);
        let mut owned: Vec<(Vec<GpuId>, Phase, ModelId)> = c
            .groups
            .iter()
            .map(|g| (g.gpus.clone(), g.phase, g.model))
            .collect();
        owned.sort();
        let mut h = DefaultHasher::new();
        owned.hash(&mut h);
        assert_eq!(c.canonical_hash(), h.finish());
    }

    #[test]
    fn group_hash_is_gpu_order_independent() {
        let a = CandidateGroup::new(ids(&[3, 1, 2]), Phase::Prefill);
        let b = CandidateGroup::new(ids(&[1, 2, 3]), Phase::Prefill);
        assert_eq!(a.group_hash(), b.group_hash());
        let c = CandidateGroup::new(ids(&[1, 2, 3]), Phase::Decode);
        assert_ne!(a.group_hash(), c.group_hash());
        let d = CandidateGroup::new(ids(&[1, 2]), Phase::Prefill);
        assert_ne!(a.group_hash(), d.group_hash());
    }

    #[test]
    fn flip_changes_one_phase() {
        let c = base().flip(1);
        assert_eq!(c.groups[1].phase, Phase::Prefill);
        assert_eq!(c.groups[0].phase, Phase::Prefill);
        assert!(!c.has_both_phases());
    }

    #[test]
    fn split_preserves_partition() {
        let cl = cluster();
        let mut rng = seeded_rng(1);
        let c = base().split(&cl, 0, 0.5, &mut rng).unwrap();
        assert_eq!(c.groups.len(), 3);
        assert!(c.is_partition_of(&ids(&[0, 1, 2, 3, 4, 5, 6, 7])));
        assert_eq!(c.groups[0].gpus.len(), 2);
    }

    #[test]
    fn split_rejects_degenerate_cuts() {
        let cl = cluster();
        let mut rng = seeded_rng(2);
        assert!(base().split(&cl, 0, 0.0, &mut rng).is_none());
        let single = Candidate::new(vec![
            CandidateGroup::new(ids(&[0]), Phase::Prefill),
            CandidateGroup::new(ids(&[1]), Phase::Decode),
        ]);
        assert!(single.split(&cl, 0, 0.5, &mut rng).is_none());
    }

    #[test]
    fn merge_preserves_partition() {
        let mut rng = seeded_rng(3);
        let c = base().merge(0, 1, &mut rng).unwrap();
        assert_eq!(c.groups.len(), 1);
        assert!(c.is_partition_of(&ids(&[0, 1, 2, 3, 4, 5, 6, 7])));
        assert!(base().merge(1, 1, &mut rng).is_none());
    }

    #[test]
    fn move_gpus_preserves_partition_and_type() {
        let cl = cluster();
        let mut rng = seeded_rng(4);
        let c = base().move_gpus(&cl, 0, 1, &mut rng).unwrap();
        assert!(c.is_partition_of(&ids(&[0, 1, 2, 3, 4, 5, 6, 7])));
        assert!(!c.groups[0].gpus.is_empty());
        assert!(c.groups[1].gpus.len() > 4);
        // moved GPUs are all A40 (group 0 is all-A40)
        for &id in &c.groups[1].gpus {
            let m = cl.gpu(id).model;
            assert!(m == GpuModel::A40 || m == GpuModel::Rtx3090Ti);
        }
    }

    #[test]
    fn phase_counts() {
        assert_eq!(base().phase_counts(), (1, 1));
        assert!(base().has_both_phases());
    }

    #[test]
    fn reassign_model_moves_a_replica_between_tenants() {
        let c = Candidate::new(vec![
            CandidateGroup::new(ids(&[0, 1]), Phase::Prefill).with_model(ModelId(1)),
            CandidateGroup::new(ids(&[2, 3]), Phase::Decode).with_model(ModelId(1)),
            CandidateGroup::new(ids(&[4, 5]), Phase::Prefill).with_model(ModelId(2)),
            CandidateGroup::new(ids(&[6, 7]), Phase::Decode).with_model(ModelId(2)),
        ]);
        let both = [ModelId(1), ModelId(2)];
        assert!(c.has_both_phases_for(&both));
        let moved = c.reassign_model(3, ModelId(1)).unwrap();
        assert!(!moved.has_both_phases_for(&both), "model 2 lost its decode");
        assert!(moved.is_partition_of(&ids(&[0, 1, 2, 3, 4, 5, 6, 7])));
        assert_ne!(moved.canonical_hash(), c.canonical_hash());
        assert!(c.reassign_model(3, ModelId(2)).is_none(), "no-op reassign");
    }

    #[test]
    fn merge_refuses_cross_model_groups() {
        let mut rng = seeded_rng(5);
        let c = Candidate::new(vec![
            CandidateGroup::new(ids(&[0, 1]), Phase::Prefill).with_model(ModelId(1)),
            CandidateGroup::new(ids(&[2, 3]), Phase::Decode).with_model(ModelId(2)),
        ]);
        assert!(c.merge(0, 1, &mut rng).is_none());
    }

    #[test]
    fn split_and_moves_preserve_model_tags() {
        let cl = cluster();
        let mut rng = seeded_rng(6);
        let c = Candidate::new(vec![
            CandidateGroup::new(ids(&[0, 1, 2, 3]), Phase::Prefill).with_model(ModelId(7)),
            CandidateGroup::new(ids(&[4, 5, 6, 7]), Phase::Decode).with_model(ModelId(8)),
        ]);
        let s = c.split(&cl, 0, 0.5, &mut rng).unwrap();
        assert!(s.groups[0].model == ModelId(7) && s.groups[2].model == ModelId(7));
        let m = c.move_gpus(&cl, 0, 1, &mut rng).unwrap();
        assert_eq!(m.groups[0].model, ModelId(7));
        assert_eq!(m.groups[1].model, ModelId(8));
        // group_hash distinguishes models on identical (gpus, phase)
        let a = CandidateGroup::new(ids(&[0, 1]), Phase::Prefill).with_model(ModelId(1));
        let b = CandidateGroup::new(ids(&[0, 1]), Phase::Prefill).with_model(ModelId(2));
        assert_ne!(a.group_hash(), b.group_hash());
    }
}
