//! Tabu search over group constructions and phase designations (§3.2,
//! Algorithm 1), and its flip-only restriction for lightweight
//! rescheduling (§3.4).
//!
//! One walk (`walk`) serves every search. What differs lives in a
//! `Space`: the seed, the moves, the key that identifies a solution, the
//! structural gate, the lower-level score and the packaging. There are three:
//!
//! * `SingleModel` — the paper's upper level: a hierarchical-clustering
//!   (or, under `random_init`, random) seed, the flip / split / merge /
//!   move operators, and the candidate's canonical hash as its key;
//! * `MultiModel` — one shared pool serving a catalog of models: a
//!   traffic-share span seed, a fifth "reassign-model" move, per-model
//!   transportation problems with traffic-share claims on the shared
//!   uplinks (the `link_share` of `orchestrate::score_costed`) and a
//!   share-weighted objective;
//! * `Flips` — lightweight and fleet rescheduling: frozen groups and
//!   parallel configurations, phase flips only, keyed by the phase vector.
//!
//! The objective `f(·)` is the estimated overall SLO attainment produced by
//! the lower level ([`mod@crate::orchestrate`]) plus the hardware-affinity
//! tie-breaker (§5.3) unless `disable_affinity_tiebreak` is set.
//!
//! # One step
//!
//! Lower-level evaluations are independent, so each step runs its cache
//! misses on up to [`SchedulerConfig::num_threads`] workers. Results are
//! **bit-identical to the serial path** for any thread count:
//!
//! 1. the whole neighbourhood is drawn from the seeded RNG *before* any
//!    evaluation, preserving the serial RNG stream (evaluations never
//!    consume randomness);
//! 2. each neighbour passes, in order, the tabu memory, the space's
//!    structural gate (a rejected neighbour is neither cached nor
//!    evaluated), the evaluation cache and intra-step dedup by key — only
//!    genuine misses are dispatched to a [`ts_common::with_worker_pool`]
//!    worker pool (spawned once for the whole walk), whose output is in
//!    input order regardless of scheduling;
//! 3. the step winner is reduced in neighbour-generation order with a
//!    strict `>`, exactly the serial first-maximum tie-break.
//!
//! Each candidate is scored once. A batch only scores its neighbours
//! (`Space::score`): the objective, plus what packaging needs (the
//! space's `Scored`). The score cache maps key → objective only; a step
//! keeps its batch's `Scored` values until its winner is chosen. Only a
//! step winner that beats the running best is packaged into a plan
//! (`Space::package`), from its own `Scored`, and only that plan is kept.
//! Packaging reads no cache, so the cache counters are those of the scores.
//!
//! # What a walk computes once
//!
//! A walk's `Caches` hold what does not change while it runs, each value a
//! function of its key alone, shared by every worker:
//!
//! * the group cache: each group's parallel configuration, the cost model
//!   that scored it and that model's estimator terms ([`ReplicaTerms`]);
//! * the KV-seconds cache, keyed by the (prefill, decode) group hashes;
//! * the stage-order memo of deduction, keyed by the bandwidth matrix's
//!   bits.
//!
//! The flip space's groups are frozen, so it builds their models, terms and
//! its whole KV-seconds matrix once instead.

use crate::candidate::{Candidate, CandidateGroup};
use crate::config::{SchedulerConfig, N_MEM};
use crate::orchestrate::{
    check_routing, cost_models, phase_affinity_of, score_costed, sim_config, AffinityScale,
    OrchestratedPlan, Scored,
};
use crate::parallel::{deduce_with_cost_model, StageOrders};
use crate::scheduler::ScheduleResult;
use rand::Rng;
use std::collections::{BTreeSet, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use ts_cluster::Cluster;
use ts_common::hash::{FastHashMap, FastHashSet};
use ts_common::rng::derive_seed;
use ts_common::{
    seeded_rng, validate_catalog, with_worker_pool, DeploymentPlan, Error, GpuId, GroupSpec,
    ModelId, ModelRouting, ModelSpec, Phase, Result, ServedModel, ShardedCache, SloSpec,
};
use ts_costmodel::replica::{
    fits_with_kv_headroom, memory_feasible, replica_budget, usable_memory,
};
use ts_costmodel::ReplicaCostModel;
use ts_sim::config::SimConfig;
use ts_sim::estimate::{kv_seconds, ReplicaTerms};
use ts_solver::clustering::cluster_by_bandwidth;
use ts_telemetry::{profile, SearchStep, SearchTrace};
use ts_workload::WorkloadSpec;

/// A group as the lower level reads it: its layout, the cost model that
/// scored it, that model's estimator terms, and its key in the KV-seconds
/// table (its [`CandidateGroup::group_hash`], or in the flip space its
/// index among the frozen groups).
struct Resolved {
    spec: GroupSpec,
    cost: ReplicaCostModel,
    terms: ReplicaTerms,
    kv_key: u64,
}

/// Groups resolved so far, keyed by [`CandidateGroup::group_hash`] (`None`:
/// the group has no feasible configuration). An entry sits behind one
/// `Arc`, so a hit clones a pointer.
type GroupCache = ShardedCache<u64, Option<Arc<Resolved>>>;

/// What one walk computes once and every worker reads. Each value is a
/// deterministic function of its key, so racing workers agree.
#[derive(Default)]
struct Caches {
    groups: GroupCache,
    /// KV seconds of a (prefill, decode) pair, keyed by their `kv_key`s.
    kv: ShardedCache<(u64, u64), f64>,
    stage_orders: StageOrders,
}

impl Caches {
    /// The cache entry of `g`, computing it with `resolve` on a miss.
    fn group(
        &self,
        g: &CandidateGroup,
        resolve: impl FnOnce() -> Option<Resolved>,
    ) -> Option<Arc<Resolved>> {
        self.groups.get_or_insert_with(g.group_hash(), || {
            let _g = profile::scope("tabu.deduce");
            resolve().map(Arc::new)
        })
    }

    /// The KV seconds of the pair (`p`, `d`), pricing it with `price` on a
    /// miss.
    fn kv_seconds(&self, p: &Resolved, d: &Resolved, price: impl FnOnce() -> f64) -> f64 {
        self.kv.get_or_insert_with((p.kv_key, d.kv_key), price)
    }
}

/// Deduces `g`'s parallel configuration under `model` and `workload`, with
/// the stage orders of `caches`, and resolves it.
fn deduce(
    cluster: &Cluster,
    model: &ModelSpec,
    workload: &WorkloadSpec,
    cfg: &SchedulerConfig,
    caches: &Caches,
    g: &CandidateGroup,
) -> Option<Resolved> {
    let (spec, cost) = deduce_with_cost_model(
        cluster,
        model,
        &g.gpus,
        g.phase,
        workload,
        cfg,
        &caches.stage_orders,
    )
    .ok()?;
    Some(Resolved {
        terms: ReplicaTerms::new(&cost, workload),
        spec,
        cost,
        kv_key: g.group_hash(),
    })
}

/// What a walk searches. Scoring takes `&self`, so the worker pool can
/// share the space for the whole walk.
trait Space: Sync {
    /// A solution.
    type Point: Clone + Send;
    /// A solution's identity for the tabu memory, the cache and dedup.
    type Key: Clone + Eq + Hash;
    /// What scoring leaves for packaging.
    type Scored: Send;

    /// The starting solution.
    fn seed(&self) -> Result<Self::Point>;

    /// One random neighbour of `x`, or `None` if the drawn move does not
    /// apply.
    fn neighbor<R: Rng>(&self, x: &Self::Point, rng: &mut R) -> Option<Self::Point>;

    /// The solution's key.
    fn key(&self, p: &Self::Point) -> Self::Key;

    /// The structural gate: cheap checks that rule a solution out before
    /// any evaluation.
    fn admissible(&self, p: &Self::Point) -> bool;

    /// Lower-level score of an admissible solution: its objective and what
    /// packaging needs, or `None` if it is infeasible. Builds no plan, but
    /// runs every check that packaging one could fail on.
    fn score(&self, p: &Self::Point, caches: &Caches) -> Option<(f64, Self::Scored)>;

    /// The plan of `p`, from what [`Space::score`] returned for it.
    ///
    /// # Errors
    /// Whatever building the plan refuses; scoring has run its checks.
    fn package(&self, p: &Self::Point, scored: Self::Scored) -> Result<OrchestratedPlan>;
}

/// The tabu walk: `steps` steps of `cfg.n_nghb` neighbours each, drawn
/// from an RNG seeded with `rng_seed`.
///
/// # Errors
/// Propagates the space's seed and packaging errors; returns
/// [`Error::Infeasible`] if no evaluated solution is feasible.
fn walk<S: Space>(
    space: &S,
    cfg: &SchedulerConfig,
    rng_seed: u64,
    steps: usize,
) -> Result<ScheduleResult> {
    let mut rng = seeded_rng(rng_seed);
    let caches = Caches::default();
    let mut x = space.seed()?;
    let mut best_score = f64::NEG_INFINITY;
    let mut best_plan: Option<OrchestratedPlan> = None;
    let mut evaluations = 0usize;
    // The walk's maps are only probed, never iterated, so their hasher
    // cannot reach an output.
    let mut eval_cache: FastHashMap<S::Key, Option<f64>> = FastHashMap::default();
    let mut tabu: VecDeque<S::Key> = VecDeque::new();
    // Mirrors `tabu` for O(1) membership tests.
    let mut tabu_set: FastHashSet<S::Key> = FastHashSet::default();
    let mut neighbors_generated = 0usize;
    let mut search_trace = SearchTrace {
        steps: Vec::with_capacity(steps),
    };

    if space.admissible(&x) {
        evaluations += 1;
        let scored = space.score(&x, &caches);
        eval_cache.insert(space.key(&x), scored.as_ref().map(|&(score, _)| score));
        if let Some((score, scored)) = scored {
            best_score = score;
            best_plan = Some(space.package(&x, scored)?);
        }
    }

    // One worker pool spans the whole walk: thread startup is paid once,
    // not once per step. Jobs are owned clones, because pool workers
    // outlive any one step.
    let eval = |p: &S::Point| space.score(p, &caches);
    with_worker_pool(cfg.num_threads, &eval, |run| -> Result<()> {
        for step in 0..steps {
            // Draw the whole neighbourhood up front so the RNG stream is
            // independent of evaluation order and cache state.
            let mut drawn: Vec<(S::Key, S::Point)> = {
                let _g = profile::scope("tabu.neighbors");
                (0..cfg.n_nghb)
                    .filter_map(|_| space.neighbor(&x, &mut rng))
                    .map(|p| (space.key(&p), p))
                    .collect()
            };
            neighbors_generated += drawn.len();

            // Every neighbour lands in exactly one column of the row;
            // unique, admissible, non-tabu cache misses form the batch.
            let mut row = SearchStep {
                step,
                generated: drawn.len(),
                ..SearchStep::default()
            };
            let mut batch_keys: Vec<S::Key> = Vec::new();
            let mut batch: Vec<S::Point> = Vec::new();
            let mut scheduled: FastHashSet<&S::Key> = FastHashSet::default();
            let gate = profile::scope("tabu.gate");
            for (k, p) in &drawn {
                if tabu_set.contains(k) {
                    row.tabu_filtered += 1;
                } else if !space.admissible(p) {
                    row.infeasible += 1;
                } else if eval_cache.contains_key(k) {
                    row.cache_hits += 1;
                } else if !scheduled.insert(k) {
                    row.duplicates += 1;
                } else {
                    batch_keys.push(k.clone());
                    batch.push(p.clone());
                }
            }
            drop(gate);
            row.evaluated = batch.len();

            // Score misses concurrently; output order == batch order. What
            // packaging needs is kept until the step's winner is known.
            let mut fresh: FastHashMap<S::Key, S::Scored> = FastHashMap::default();
            for (k, scored) in batch_keys.into_iter().zip(run(batch)) {
                evaluations += 1;
                let score = scored.map(|(score, scored)| {
                    fresh.insert(k.clone(), scored);
                    score
                });
                eval_cache.insert(k, score);
            }

            // Deterministic reduction: first strict maximum in generation
            // order, exactly the serial selection.
            let mut winner: Option<(f64, usize)> = None;
            for (i, (k, _)) in drawn.iter().enumerate() {
                if tabu_set.contains(k) {
                    continue;
                }
                let Some(Some(score)) = eval_cache.get(k) else {
                    continue;
                };
                if winner.map(|(s, _)| *score > s).unwrap_or(true) {
                    winner = Some((*score, i));
                }
            }
            if let Some((score, i)) = winner {
                let (k, p) = drawn.swap_remove(i);
                if score > best_score {
                    // Internal invariant: a score cached by an earlier
                    // step is at most that step's winner, and so at most
                    // the running best; a new best is from this batch.
                    let scored = fresh
                        .remove(&k)
                        .expect("a new best is scored in its own step's batch");
                    best_score = score;
                    best_plan = Some(space.package(&p, scored)?);
                }
                tabu.push_back(k.clone());
                tabu_set.insert(k);
                while tabu.len() > N_MEM {
                    if let Some(old) = tabu.pop_front() {
                        tabu_set.remove(&old);
                    }
                }
                x = p;
            }
            row.winner_score = winner.map(|(s, _)| s);
            row.best_score = best_score.max(0.0);
            search_trace.steps.push(row);
        }
        Ok(())
    })?;

    let best =
        best_plan.ok_or_else(|| Error::Infeasible("no feasible deployment plan found".into()))?;
    Ok(ScheduleResult {
        plan: best.plan,
        estimated_attainment: best.score,
        evaluations,
        neighbors_generated,
        group_cache_hits: caches.groups.hit_count(),
        group_cache_misses: caches.groups.miss_count(),
        pair_cache_hits: caches.kv.hit_count(),
        pair_cache_misses: caches.kv.miss_count(),
        stage_order_hits: caches.stage_orders.hit_count(),
        stage_order_misses: caches.stage_orders.miss_count(),
        search_trace,
    })
}

/// Runs Algorithm 1 for one model on the cluster's active GPUs.
///
/// # Errors
/// Returns [`Error::Infeasible`] if the cluster cannot host at least two
/// model replicas (phase splitting needs one per phase), or no feasible
/// deployment is found.
pub(crate) fn schedule(
    cluster: &Cluster,
    model: &ModelSpec,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    cfg: &SchedulerConfig,
) -> Result<ScheduleResult> {
    let space = SingleModel::new(cluster, model, workload, slo, cfg);
    walk(&space, cfg, cfg.seed, cfg.n_step)
}

/// Runs the multi-tenant upper level: one shared pool, `workloads[i]` the
/// arrival process of `models[i]`.
///
/// # Errors
/// Returns [`Error::InvalidConfig`] on a malformed catalog (see
/// [`validate_catalog`]) or a workload count that does not match it, and
/// [`Error::Infeasible`] if the pool cannot host two replicas of every
/// model or no feasible multi-model deployment is found.
pub(crate) fn schedule_multi(
    cluster: &Cluster,
    models: &[ServedModel],
    workloads: &[WorkloadSpec],
    cfg: &SchedulerConfig,
) -> Result<ScheduleResult> {
    validate_catalog(models)?;
    if models.len() != workloads.len() {
        return Err(Error::InvalidConfig(format!(
            "catalog has {} models but {} workloads were given",
            models.len(),
            workloads.len()
        )));
    }
    let space = MultiModel::new(cluster, models, workloads, cfg);
    walk(&space, cfg, cfg.seed, cfg.n_step)
}

/// Searches phase designations over frozen groups (lightweight
/// rescheduling): at most 40 steps, on an RNG stream of its own.
///
/// # Errors
/// Returns [`Error::Infeasible`] if no designation orchestrates.
pub(crate) fn reschedule_phases(
    cluster: &Cluster,
    model: &ModelSpec,
    groups: Vec<GroupSpec>,
    workload: &WorkloadSpec,
    slo: &SloSpec,
    cfg: &SchedulerConfig,
) -> Result<ScheduleResult> {
    let space = Flips::new(cluster, model, groups, workload, slo, cfg);
    walk(
        &space,
        cfg,
        derive_seed(cfg.seed, 0x11F7),
        cfg.n_step.min(40),
    )
}

/// The single-model upper level.
struct SingleModel<'a> {
    cluster: &'a Cluster,
    model: &'a ModelSpec,
    /// [`sim_config`] of the model, built once per walk.
    sim: SimConfig,
    /// The cluster's [`AffinityScale`], built once per walk.
    affinity: AffinityScale,
    workload: &'a WorkloadSpec,
    slo: &'a SloSpec,
    cfg: &'a SchedulerConfig,
}

impl<'a> SingleModel<'a> {
    fn new(
        cluster: &'a Cluster,
        model: &'a ModelSpec,
        workload: &'a WorkloadSpec,
        slo: &'a SloSpec,
        cfg: &'a SchedulerConfig,
    ) -> Self {
        SingleModel {
            cluster,
            model,
            sim: sim_config(model, cfg),
            affinity: AffinityScale::new(cluster),
            workload,
            slo,
            cfg,
        }
    }
}

impl Space for SingleModel<'_> {
    type Point = Candidate;
    type Key = u64;
    /// The resolved groups, in candidate order, and their orchestration.
    type Scored = (Vec<Arc<Resolved>>, Scored);

    /// Hierarchical clustering on the bandwidth matrix (a random
    /// contiguous partition under `random_init`) into as many groups as
    /// memory allows, memory-infeasible clusters merged, random phases.
    fn seed(&self) -> Result<Candidate> {
        let active = self.cluster.active_gpus();
        if active.is_empty() {
            return Err(Error::Infeasible("no active GPUs".into()));
        }
        let usable = usable_memory(self.cluster, &active, &self.cfg.params);
        let max_replicas = (usable / replica_budget(self.model).max(1)) as usize;
        if max_replicas < 2 {
            return Err(Error::Infeasible(format!(
                "cluster memory supports {max_replicas} replicas; phase splitting needs 2"
            )));
        }
        let k = max_replicas.min(active.len()).max(2);
        let clusters = if self.cfg.random_init {
            // Ablation: random contiguous partition instead of clustering.
            let mut rng = seeded_rng(derive_seed(self.cfg.seed, 0xBAD1));
            let mut order: Vec<usize> = (0..active.len()).collect();
            use rand::seq::SliceRandom;
            order.shuffle(&mut rng);
            order
                .chunks(active.len().div_ceil(k))
                .map(|c| c.to_vec())
                .collect()
        } else {
            cluster_by_bandwidth(&self.cluster.bandwidth_matrix(), k)?
        };
        let clusters = clusters
            .into_iter()
            .map(|idxs| idxs.into_iter().map(|x| active[x]).collect())
            .collect();
        let clusters = merge_infeasible(self.cluster, self.model, self.cfg, clusters, 2);
        let mut rng = seeded_rng(derive_seed(self.cfg.seed, 0xC0DE));
        let phases = designate(clusters.len(), &mut rng);
        Ok(Candidate::new(
            clusters
                .into_iter()
                .zip(phases)
                .map(|(gpus, phase)| CandidateGroup::new(gpus, phase))
                .collect(),
        ))
    }

    fn neighbor<R: Rng>(&self, x: &Candidate, rng: &mut R) -> Option<Candidate> {
        random_move(self.cluster, self.cfg, &[], x, rng)
    }

    fn key(&self, c: &Candidate) -> u64 {
        c.canonical_hash()
    }

    /// Both phases present, and every group able to hold one copy of the
    /// weights (early feasibility pruning, §3.2).
    fn admissible(&self, c: &Candidate) -> bool {
        c.has_both_phases()
            && c.groups
                .iter()
                .all(|g| memory_feasible(self.cluster, self.model, &g.gpus, &self.cfg.params))
    }

    fn score(&self, c: &Candidate, caches: &Caches) -> Option<(f64, Self::Scored)> {
        let entries = self.resolve(c, caches)?;
        let (score, scored) = self.single(caches).score(members(&entries))?;
        Some((score, (entries, scored)))
    }

    fn package(&self, _: &Candidate, (entries, scored): Self::Scored) -> Result<OrchestratedPlan> {
        package_members(members(&entries), &scored)
    }
}

impl SingleModel<'_> {
    /// Each group's cache entry, in candidate order, or `None` if a group
    /// has no feasible configuration.
    fn resolve(&self, c: &Candidate, caches: &Caches) -> Option<Vec<Arc<Resolved>>> {
        c.groups
            .iter()
            .map(|g| {
                caches.group(g, || {
                    deduce(self.cluster, self.model, self.workload, self.cfg, caches, g)
                })
            })
            .collect()
    }

    /// The single-model objective, pricing KV pairs through `caches`.
    fn single<'s>(
        &'s self,
        caches: &'s Caches,
    ) -> Single<'s, impl Fn(&Resolved, &Resolved) -> f64 + 's> {
        Single {
            cluster: self.cluster,
            affinity: self.affinity,
            workload: self.workload,
            slo: self.slo,
            cfg: self.cfg,
            kv: move |p: &Resolved, d: &Resolved| {
                caches.kv_seconds(p, d, || {
                    kv_seconds(self.cluster, &self.sim, &p.cost, &d.cost, self.workload)
                })
            },
        }
    }
}

/// Each resolved group under the phase it was resolved for.
fn members(entries: &[Arc<Resolved>]) -> impl Iterator<Item = (Phase, &Resolved)> + Clone {
    entries.iter().map(|e| (e.spec.phase, &**e))
}

/// The multi-tenant upper level. In addition to group construction and
/// phase designation it decides *which model* each group serves: the
/// "reassign-model" move shifts a replica between tenants, and
/// cross-model [`Candidate::move_gpus`] shifts raw capacity.
struct MultiModel<'a> {
    cluster: &'a Cluster,
    models: &'a [ServedModel],
    /// [`sim_config`] of each model, in catalog order, built once per walk.
    sims: Vec<SimConfig>,
    /// The cluster's [`AffinityScale`], built once per walk.
    affinity: AffinityScale,
    workloads: &'a [WorkloadSpec],
    cfg: &'a SchedulerConfig,
}

impl<'a> MultiModel<'a> {
    fn new(
        cluster: &'a Cluster,
        models: &'a [ServedModel],
        workloads: &'a [WorkloadSpec],
        cfg: &'a SchedulerConfig,
    ) -> Self {
        MultiModel {
            cluster,
            models,
            sims: models.iter().map(|m| sim_config(&m.spec, cfg)).collect(),
            affinity: AffinityScale::new(cluster),
            workloads,
            cfg,
        }
    }
}

impl MultiModel<'_> {
    /// KV seconds of a pair of one model's groups, priced under that
    /// model's `sim` and `workload` through `caches`.
    fn kv<'s>(
        &'s self,
        caches: &'s Caches,
        sim: &'s SimConfig,
        workload: &'s WorkloadSpec,
    ) -> impl Fn(&Resolved, &Resolved) -> f64 + 's {
        move |p: &Resolved, d: &Resolved| {
            caches.kv_seconds(p, d, || {
                kv_seconds(self.cluster, sim, &p.cost, &d.cost, workload)
            })
        }
    }

    /// The catalog entry and workload a group serves.
    fn served(&self, g: &CandidateGroup) -> Option<(&ServedModel, &WorkloadSpec)> {
        let i = self.models.iter().position(|m| m.id == g.model)?;
        Some((&self.models[i], &self.workloads[i]))
    }

    /// Each group's cache entry under the model it serves, in candidate
    /// order, or `None` if a group has no feasible configuration.
    fn resolve(&self, c: &Candidate, caches: &Caches) -> Option<Vec<Arc<Resolved>>> {
        c.groups
            .iter()
            .map(|g| {
                let (m, w) = self.served(g)?;
                // `group_hash` covers the model id, so one cache serves all
                // tenants without collisions, and so does the KV cache its
                // keys index.
                caches.group(g, || {
                    deduce(self.cluster, &m.spec, w, self.cfg, caches, g).map(|r| Resolved {
                        spec: r.spec.with_model(g.model),
                        ..r
                    })
                })
            })
            .collect()
    }

    /// One transportation problem per model, in catalog order, over that
    /// model's groups with a traffic-share claim on the shared uplinks.
    /// Returns the objective `Σ share_m · attainment_m` (plus the affinity
    /// tie-breaker, share-weighted alike) and each model's routing, after
    /// the checks [`DeploymentPlan::new_multi`] runs on them.
    fn score_models(
        &self,
        entries: &[Arc<Resolved>],
        caches: &Caches,
    ) -> Option<(f64, Vec<Scored>)> {
        let mut score = 0.0f64;
        let mut affinity = 0.0f64;
        let mut routed = Vec::with_capacity(self.models.len());
        for ((m, w), sim) in self.models.iter().zip(self.workloads).zip(&self.sims) {
            let members = entries.iter().filter(|e| e.spec.model == m.id);
            affinity += m.traffic_share
                * phase_affinity_of(
                    self.cluster,
                    self.affinity,
                    members.clone().map(|e| (e.spec.phase, &e.spec)),
                );
            let scored = score_costed(
                members.map(|e| (e.spec.phase, &e.cost, &e.terms, &**e)),
                self.kv(caches, sim, w),
                w,
                &m.slo,
                m.traffic_share,
            )
            .ok()?;
            score += m.traffic_share * scored.score();
            routed.push(scored);
        }
        // `new_multi` keeps a lone default-model entry's routing as it is;
        // otherwise it checks the shares and the aggregate routing, the
        // rows and columns grouped by model in catalog order.
        if !(self.models.len() == 1 && self.models[0].id == ModelId(0)) {
            if self
                .models
                .iter()
                .any(|m| !m.traffic_share.is_finite() || m.traffic_share < 0.0)
            {
                return None;
            }
            let aggregate = self
                .models
                .iter()
                .zip(&routed)
                .flat_map(|(m, r)| r.routing().map(move |v| m.traffic_share * v));
            check_routing(aggregate).ok()?;
        }
        Some((score + affinity_bonus(self.cfg, affinity), routed))
    }
}

impl Space for MultiModel<'_> {
    type Point = Candidate;
    type Key = u64;
    /// The resolved groups, in candidate order, and one orchestration per
    /// model, in catalog order.
    type Scored = (Vec<Arc<Resolved>>, Vec<Scored>);

    /// Contiguous GPU spans per model (traffic-share proportional, floored
    /// at two replicas' worth of memory each), each split into replica
    /// groups with memory-infeasible ones merged, random phases with both
    /// phases guaranteed *per model*.
    fn seed(&self) -> Result<Candidate> {
        let active = self.cluster.active_gpus();
        if active.is_empty() {
            return Err(Error::Infeasible("no active GPUs".into()));
        }
        let n = active.len();
        let usable = |gpus: &[GpuId]| usable_memory(self.cluster, gpus, &self.cfg.params);
        let avg = (usable(&active) / n as u64).max(1);
        let budgets: Vec<u64> = self
            .models
            .iter()
            .map(|m| replica_budget(&m.spec))
            .collect();
        // Every model needs one prefill and one decode replica; floor its
        // span at the GPUs that hold two copies of its weights (by average
        // GPU memory — the tabu moves correct local imbalances).
        let mins: Vec<usize> = budgets
            .iter()
            .map(|&b| (((2 * b).div_ceil(avg)) as usize).clamp(2, n))
            .collect();
        let need: usize = mins.iter().sum();
        if need > n {
            return Err(Error::Infeasible(format!(
                "pool has {n} active GPUs; hosting {} models with phase \
                 splitting needs at least {need}",
                self.models.len()
            )));
        }
        let mut counts = mins;
        // Largest-remainder distribution of the surplus by traffic share.
        for _ in need..n {
            let mut pick = 0usize;
            let mut best = f64::NEG_INFINITY;
            for (i, m) in self.models.iter().enumerate() {
                let deficit = m.traffic_share * n as f64 - counts[i] as f64;
                if deficit > best {
                    best = deficit;
                    pick = i;
                }
            }
            counts[pick] += 1;
        }

        let mut rng = seeded_rng(derive_seed(self.cfg.seed, 0xC0DE));
        let mut groups: Vec<CandidateGroup> = Vec::new();
        let mut offset = 0usize;
        for ((m, count), budget) in self.models.iter().zip(counts).zip(budgets) {
            let span = offset..offset + count;
            offset += count;
            let span_mem = usable(&active[span.clone()]);
            let k = ((span_mem / budget.max(1)) as usize).min(count).max(2);
            let clusters = active[span]
                .chunks(count.div_ceil(k))
                .map(|c| c.to_vec())
                .collect();
            let clusters = merge_infeasible(self.cluster, &m.spec, self.cfg, clusters, 2);
            let phases = designate(clusters.len(), &mut rng);
            groups.extend(
                clusters
                    .into_iter()
                    .zip(phases)
                    .map(|(gpus, phase)| CandidateGroup::new(gpus, phase).with_model(m.id)),
            );
        }
        Ok(Candidate::new(groups))
    }

    fn neighbor<R: Rng>(&self, x: &Candidate, rng: &mut R) -> Option<Candidate> {
        random_move(self.cluster, self.cfg, self.models, x, rng)
    }

    fn key(&self, c: &Candidate) -> u64 {
        c.canonical_hash()
    }

    /// Every tenant keeps at least one replica of each phase, and every
    /// group serves a catalog model whose weights it can hold.
    fn admissible(&self, c: &Candidate) -> bool {
        let ids: Vec<_> = self.models.iter().map(|m| m.id).collect();
        c.has_both_phases_for(&ids)
            && c.groups.iter().all(|g| {
                self.served(g).is_some_and(|(m, _)| {
                    memory_feasible(self.cluster, &m.spec, &g.gpus, &self.cfg.params)
                })
            })
    }

    /// Per-group parallel-config deduction under that group's model, then
    /// one transportation problem per model with a traffic-share claim on
    /// the shared uplinks (see `MultiModel::score_models`).
    fn score(&self, c: &Candidate, caches: &Caches) -> Option<(f64, Self::Scored)> {
        let entries = self.resolve(c, caches)?;
        let (score, routed) = self.score_models(&entries, caches)?;
        Some((score, (entries, routed)))
    }

    fn package(&self, _: &Candidate, (entries, routed): Self::Scored) -> Result<OrchestratedPlan> {
        let mut score = 0.0f64;
        let mut all_groups: Vec<GroupSpec> = Vec::new();
        let mut per_model: Vec<ModelRouting> = Vec::new();
        for (m, r) in self.models.iter().zip(routed) {
            let groups_m: Vec<GroupSpec> = entries
                .iter()
                .filter(|e| e.spec.model == m.id)
                .map(|e| e.spec.clone())
                .collect();
            let op = r.package(groups_m.clone())?;
            score += m.traffic_share * op.score;
            per_model.push(ModelRouting {
                model: m.id,
                routing: op.plan.routing,
                share: m.traffic_share,
            });
            all_groups.extend(groups_m);
        }
        let plan = {
            let _g = profile::scope("tabu.package");
            DeploymentPlan::new_multi(all_groups, per_model)?
        };
        Ok(OrchestratedPlan { plan, score })
    }
}

/// Lightweight rescheduling's space: the groups and their parallel
/// configurations are frozen; only phases flip. A point is the phase
/// vector, one entry per group.
struct Flips<'a> {
    cluster: &'a Cluster,
    /// The cluster's [`AffinityScale`], built once per walk.
    affinity: AffinityScale,
    groups: Vec<GroupSpec>,
    /// Each group resolved once, its `kv_key` its index: a phase flip
    /// leaves its cost model and terms as they are. `None` if any group
    /// cannot hold the model or two groups share a GPU; then no group is a
    /// member, and no designation orchestrates.
    resolved: Option<Vec<Resolved>>,
    /// `kv[i][j]`: the KV seconds from group `i` to group `j`, every
    /// ordered pair priced once.
    kv: Vec<Vec<f64>>,
    workload: &'a WorkloadSpec,
    slo: &'a SloSpec,
    cfg: &'a SchedulerConfig,
}

impl Space for Flips<'_> {
    // Orchestration is a deterministic function of the designation, since
    // the groups are frozen.
    type Point = Vec<Phase>;
    type Key = Vec<Phase>;
    type Scored = Scored;

    /// The given groups' phases, with both phases guaranteed.
    fn seed(&self) -> Result<Vec<Phase>> {
        let mut phases: Vec<Phase> = self.groups.iter().map(|g| g.phase).collect();
        ensure_both_phases(&mut phases);
        Ok(phases)
    }

    fn neighbor<R: Rng>(&self, x: &Vec<Phase>, rng: &mut R) -> Option<Vec<Phase>> {
        let idx = rng.gen_range(0..x.len());
        let mut n = x.clone();
        n[idx] = n[idx].opposite();
        Some(n)
    }

    fn key(&self, phases: &Vec<Phase>) -> Vec<Phase> {
        phases.clone()
    }

    fn admissible(&self, phases: &Vec<Phase>) -> bool {
        phases.contains(&Phase::Prefill) && phases.contains(&Phase::Decode)
    }

    fn score(&self, phases: &Vec<Phase>, _: &Caches) -> Option<(f64, Scored)> {
        self.single().score(self.members(phases))
    }

    fn package(&self, phases: &Vec<Phase>, scored: Scored) -> Result<OrchestratedPlan> {
        package_members(self.members(phases), &scored)
    }
}

impl<'a> Flips<'a> {
    fn new(
        cluster: &'a Cluster,
        model: &ModelSpec,
        groups: Vec<GroupSpec>,
        workload: &'a WorkloadSpec,
        slo: &'a SloSpec,
        cfg: &'a SchedulerConfig,
    ) -> Self {
        // A GPU in two groups fails every plan's packaging, whatever the
        // phases; so does a group that cannot hold the model.
        let mut seen = BTreeSet::new();
        let disjoint = groups
            .iter()
            .flat_map(GroupSpec::gpus)
            .all(|g| seen.insert(g));
        let sim = sim_config(model, cfg);
        let resolved: Option<Vec<Resolved>> = cost_models(cluster, model, &groups, cfg)
            .ok()
            .filter(|_| disjoint)
            .map(|costs| {
                groups
                    .iter()
                    .zip(costs)
                    .enumerate()
                    .map(|(i, (g, cost))| Resolved {
                        spec: g.clone(),
                        terms: ReplicaTerms::new(&cost, workload),
                        cost,
                        kv_key: i as u64,
                    })
                    .collect()
            });
        let kv = resolved.as_deref().map_or_else(Vec::new, |rs| {
            rs.iter()
                .map(|p| {
                    rs.iter()
                        .map(|d| kv_seconds(cluster, &sim, &p.cost, &d.cost, workload))
                        .collect()
                })
                .collect()
        });
        Flips {
            cluster,
            affinity: AffinityScale::new(cluster),
            groups,
            resolved,
            kv,
            workload,
            slo,
            cfg,
        }
    }

    /// Each frozen group under its phase in `phases`.
    fn members<'s>(
        &'s self,
        phases: &'s [Phase],
    ) -> impl Iterator<Item = (Phase, &'s Resolved)> + Clone {
        phases.iter().copied().zip(self.resolved.iter().flatten())
    }

    /// The single-model objective, reading KV pairs from the matrix.
    fn single(&self) -> Single<'_, impl Fn(&Resolved, &Resolved) -> f64 + '_> {
        Single {
            cluster: self.cluster,
            affinity: self.affinity,
            workload: self.workload,
            slo: self.slo,
            cfg: self.cfg,
            kv: |p: &Resolved, d: &Resolved| self.kv[p.kv_key as usize][d.kv_key as usize],
        }
    }
}

/// The single-model scoring rule, with `kv` giving a (prefill, decode)
/// pair's KV seconds: the scoring step, and the attainment plus the
/// hardware-affinity tie-breaker.
struct Single<'a, F> {
    cluster: &'a Cluster,
    affinity: AffinityScale,
    workload: &'a WorkloadSpec,
    slo: &'a SloSpec,
    cfg: &'a SchedulerConfig,
    kv: F,
}

impl<F: Fn(&Resolved, &Resolved) -> f64> Single<'_, F> {
    /// The objective over `members`, each group with the phase it serves,
    /// in group order.
    fn score<'g>(
        &self,
        members: impl Iterator<Item = (Phase, &'g Resolved)> + Clone,
    ) -> Option<(f64, Scored)> {
        let affinity = phase_affinity_of(
            self.cluster,
            self.affinity,
            members.clone().map(|(phase, r)| (phase, &r.spec)),
        );
        let members = members.map(|(phase, r)| (phase, &r.cost, &r.terms, r));
        let scored = score_costed(members, &self.kv, self.workload, self.slo, 1.0).ok()?;
        Some((scored.score() + affinity_bonus(self.cfg, affinity), scored))
    }
}

/// The plan over `members`, each group under its phase, routed as
/// `scored`, their [`Single::score`], routes them.
fn package_members<'g>(
    members: impl Iterator<Item = (Phase, &'g Resolved)>,
    scored: &Scored,
) -> Result<OrchestratedPlan> {
    let specs = members
        .map(|(phase, r)| GroupSpec {
            phase,
            ..r.spec.clone()
        })
        .collect();
    scored.package(specs)
}

/// The hardware-affinity tie-breaker (§5.3): negligible against any real
/// attainment difference, decisive on plateaus.
fn affinity_bonus(cfg: &SchedulerConfig, affinity: f64) -> f64 {
    if cfg.disable_affinity_tiebreak {
        0.0
    } else {
        1e-4 * affinity
    }
}

/// One random neighbour via the four §3.2 moves — flip, split, merge,
/// move — plus "reassign-model" when `models` lists a catalog; flip only
/// under the `flip_only_moves` ablation. Cross-model merges are refused by
/// [`Candidate::merge`] itself.
fn random_move<R: Rng>(
    cluster: &Cluster,
    cfg: &SchedulerConfig,
    models: &[ServedModel],
    x: &Candidate,
    rng: &mut R,
) -> Option<Candidate> {
    let n = x.groups.len();
    if cfg.flip_only_moves {
        return Some(x.flip(rng.gen_range(0..n)));
    }
    let moves: u8 = if models.is_empty() { 4 } else { 5 };
    match rng.gen_range(0..moves) {
        0 => Some(x.flip(rng.gen_range(0..n))),
        1 => {
            let idx = rng.gen_range(0..n);
            let r = rng.gen_range(0.2..0.8);
            x.split(cluster, idx, r, rng)
        }
        2 => {
            if n < 3 {
                // merging below 2 groups can never host both phases
                return None;
            }
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            x.merge(a, b, rng)
        }
        3 => {
            if n < 2 {
                return None;
            }
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            x.move_gpus(cluster, a, b, rng)
        }
        _ => {
            let gi = rng.gen_range(0..n);
            let m = models[rng.gen_range(0..models.len())].id;
            x.reassign_model(gi, m)
        }
    }
}

/// Merges each cluster that cannot hold `model` with KV headroom into its
/// successor, until all fit or only `min_groups` clusters remain: 2 for a
/// phase-split seed, 1 for colocated replicas (the HexGen baseline).
pub fn merge_infeasible(
    cluster: &Cluster,
    model: &ModelSpec,
    cfg: &SchedulerConfig,
    mut clusters: Vec<Vec<GpuId>>,
    min_groups: usize,
) -> Vec<Vec<GpuId>> {
    loop {
        let mut merged = false;
        let mut i = 0;
        while i < clusters.len() && clusters.len() > min_groups {
            if fits_with_kv_headroom(cluster, model, &clusters[i], &cfg.params) {
                i += 1;
            } else {
                let take = clusters.remove(i);
                let j = i % clusters.len();
                clusters[j].extend(take);
                merged = true;
            }
        }
        if !merged {
            return clusters;
        }
    }
}

/// A fair coin per group, with both phases guaranteed.
fn designate<R: Rng>(n: usize, rng: &mut R) -> Vec<Phase> {
    let mut phases: Vec<Phase> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.5) {
                Phase::Prefill
            } else {
                Phase::Decode
            }
        })
        .collect();
    ensure_both_phases(&mut phases);
    phases
}

/// Turns the last of all-prefill phases to decode, or the first of
/// all-decode phases to prefill.
fn ensure_both_phases(phases: &mut [Phase]) {
    if phases.iter().all(|&p| p == Phase::Prefill) {
        if let Some(last) = phases.last_mut() {
            *last = Phase::Decode;
        }
    } else if phases.iter().all(|&p| p == Phase::Decode) {
        phases[0] = Phase::Prefill;
    }
}

/// Whether both phases are represented among `groups`.
pub(crate) fn has_both_phases(groups: &[GroupSpec]) -> bool {
    groups.iter().any(|g| g.phase == Phase::Prefill)
        && groups.iter().any(|g| g.phase == Phase::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use ts_cluster::presets;
    use ts_common::{ModelId, ModelSpec, SimDuration};
    use ts_workload::spec;

    fn slo() -> SloSpec {
        SloSpec::new(
            SimDuration::from_secs(2),
            SimDuration::from_millis(200),
            SimDuration::from_secs(30),
        )
    }

    #[test]
    fn finds_feasible_plan_on_small_testbed() {
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let model = ModelSpec::llama_13b();
        let w = spec::coding(1.0);
        let s = slo();
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 1;
        let r = schedule(&cluster, &model, &w, &s, &cfg).unwrap();
        assert!(r.estimated_attainment > 0.0);
        assert!(r.plan.phase_ratio().0 >= 1);
        assert!(r.plan.phase_ratio().1 >= 1);
        assert_eq!(r.search_trace.steps.len(), cfg.n_step);
        assert!(r.evaluations > 0);
        assert!(r.neighbors_generated >= r.evaluations);
    }

    #[test]
    fn search_trace_reconciles_with_result_counters() {
        let cluster = presets::a5000_cluster(8);
        let model = ModelSpec::llama_13b();
        let w = spec::coding(2.0);
        let s = slo();
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 5;
        let traced = schedule(&cluster, &model, &w, &s, &cfg).unwrap();
        let tr = &traced.search_trace;
        assert_eq!(tr.steps.len(), cfg.n_step);
        assert_eq!(tr.total_generated(), traced.neighbors_generated);
        // Structural rejections are counted as `infeasible` and never reach
        // the pool, so the trace's evaluations are exactly the result's
        // (+1 is the initial candidate, evaluated before the first step).
        assert_eq!(tr.total_evaluated() + 1, traced.evaluations);
        assert!(tr.total_evaluated() > 0);
        for (i, row) in tr.steps.iter().enumerate() {
            assert_eq!(row.step, i);
            assert_eq!(
                row.tabu_filtered
                    + row.infeasible
                    + row.cache_hits
                    + row.duplicates
                    + row.evaluated,
                row.generated,
                "filter counts must partition the neighbourhood"
            );
        }
    }

    #[test]
    fn trajectory_is_monotone() {
        let cluster = presets::a5000_cluster(8);
        let model = ModelSpec::llama_13b();
        let w = spec::conversation(2.0);
        let s = slo();
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 3;
        let r = schedule(&cluster, &model, &w, &s, &cfg).unwrap();
        for w in r.search_trace.steps.windows(2) {
            assert!(w[1].best_score >= w[0].best_score);
        }
    }

    #[test]
    fn infeasible_when_memory_too_small_for_two_replicas() {
        // Two A5000 (48GB total) cannot host two LLaMA-30B replicas.
        let cluster = presets::a5000_pair_40gbps();
        let model = ModelSpec::llama_30b();
        let w = spec::coding(1.0);
        let s = slo();
        let cfg = SchedulerConfig::fast();
        assert!(matches!(
            schedule(&cluster, &model, &w, &s, &cfg),
            Err(Error::Infeasible(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let cluster = presets::a5000_cluster(8);
        let model = ModelSpec::llama_13b();
        let w = spec::coding(2.0);
        let s = slo();
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 5;
        let r1 = schedule(&cluster, &model, &w, &s, &cfg).unwrap();
        let r2 = schedule(&cluster, &model, &w, &s, &cfg).unwrap();
        assert_eq!(r1.plan, r2.plan);
        assert_eq!(r1.estimated_attainment, r2.estimated_attainment);
    }

    fn two_tenants() -> Vec<ServedModel> {
        vec![
            ServedModel::llama_7b_chat(ModelId(1), 0.6).unwrap(),
            ServedModel::llama_13b_chat(ModelId(2), 0.4).unwrap(),
        ]
    }

    #[test]
    fn multi_search_places_both_tenants_with_both_phases() {
        let cluster = presets::a5000_cluster(12);
        let models = two_tenants();
        let workloads = vec![spec::conversation(2.0), spec::coding(1.0)];
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 7;
        let r = schedule_multi(&cluster, &models, &workloads, &cfg).unwrap();
        let plan = &r.plan;
        assert!(plan.is_multi_model());
        assert_eq!(plan.models(), vec![ModelId(1), ModelId(2)]);
        for id in [ModelId(1), ModelId(2)] {
            assert!(
                !plan.prefill_indices_for(id).is_empty() && !plan.decode_indices_for(id).is_empty(),
                "every tenant keeps both phases"
            );
            let routing = plan.routing_for(id).expect("per-model routing");
            assert_eq!(routing.rates().len(), plan.prefill_indices_for(id).len());
        }
        assert!(r.estimated_attainment > 0.0 && r.estimated_attainment <= 1.0 + 1e-9);
        assert!(r.evaluations > 0);
    }

    #[test]
    fn multi_search_is_deterministic() {
        let cluster = presets::a5000_cluster(12);
        let models = two_tenants();
        let workloads = vec![spec::conversation(2.0), spec::coding(1.0)];
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 9;
        let r1 = schedule_multi(&cluster, &models, &workloads, &cfg).unwrap();
        let r2 = schedule_multi(&cluster, &models, &workloads, &cfg).unwrap();
        assert_eq!(r1.plan, r2.plan);
        assert_eq!(r1.estimated_attainment, r2.estimated_attainment);
    }

    #[test]
    fn multi_search_rejects_malformed_catalogs() {
        let cluster = presets::a5000_cluster(8);
        let cfg = SchedulerConfig::fast();
        let w = vec![spec::coding(1.0)];
        // Shares not summing to 1.
        let short = vec![ServedModel::llama_7b_chat(ModelId(1), 0.5).unwrap()];
        assert!(matches!(
            schedule_multi(&cluster, &short, &w, &cfg),
            Err(Error::InvalidConfig(_))
        ));
        // Catalog/workload length mismatch.
        let models = two_tenants();
        assert!(matches!(
            schedule_multi(&cluster, &models, &w, &cfg),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn multi_search_infeasible_when_pool_too_small_for_all_tenants() {
        // Two A5000s cannot host two replicas each of 7B and 13B.
        let cluster = presets::a5000_pair_40gbps();
        let models = two_tenants();
        let workloads = vec![spec::conversation(1.0), spec::coding(1.0)];
        let cfg = SchedulerConfig::fast();
        assert!(matches!(
            schedule_multi(&cluster, &models, &workloads, &cfg),
            Err(Error::Infeasible(_))
        ));
    }

    /// Scores admissible points of a seeded walk through `space` and
    /// packages every feasible one: each packages with `Ok`. Returns how
    /// many points were feasible and how many were not.
    fn check_every_score_packages<S: Space>(space: &S, seed: u64) -> (usize, usize) {
        let caches = Caches::default();
        let mut rng = seeded_rng(seed);
        let mut x = space.seed().unwrap();
        let (mut feasible, mut infeasible) = (0, 0);
        for _ in 0..60 {
            let Some(p) = space.neighbor(&x, &mut rng) else {
                continue;
            };
            if space.admissible(&p) {
                if let Some((score, scored)) = space.score(&p, &caches) {
                    if let Err(e) = space.package(&p, scored) {
                        panic!("a point scored {score} does not package: {e}");
                    }
                    feasible += 1;
                    x = p;
                } else {
                    infeasible += 1;
                }
            }
        }
        (feasible, infeasible)
    }

    /// The paper cloud after node 6 is lost, and the groups of `cfg`'s
    /// plan for `model` on the whole cloud that survive it.
    fn lose_node_6(
        model: &ModelSpec,
        w: &WorkloadSpec,
        s: &SloSpec,
        cfg: &SchedulerConfig,
    ) -> (Cluster, Vec<GroupSpec>) {
        let mut lost = presets::paper_cloud_cluster();
        let plan = schedule(&lost, model, w, s, cfg).unwrap().plan;
        lost.deactivate_node(ts_common::NodeId(6)).unwrap();
        let surviving = plan
            .groups
            .into_iter()
            .filter(|g| g.gpus().all(|id| lost.is_active(id)))
            .collect();
        (lost, surviving)
    }

    #[test]
    fn every_score_packages_in_every_space() {
        let cfg = SchedulerConfig::fast();
        let s = slo();

        let cloud = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let w = spec::coding(2.0);
        let single = SingleModel::new(&cloud, &model, &w, &s, &cfg);
        let (ok, none) = check_every_score_packages(&single, 11);
        assert!(ok > 10 && none > 0, "{ok} feasible, {none} infeasible");

        let pool = presets::a5000_cluster(12);
        let models = two_tenants();
        let workloads = vec![spec::conversation(2.0), spec::coding(1.0)];
        let multi = MultiModel::new(&pool, &models, &workloads, &cfg);
        let (ok, _) = check_every_score_packages(&multi, 12);
        assert!(ok > 10, "{ok} feasible multi-model points");

        let w = spec::coding(2.5);
        let (lost, surviving) = lose_node_6(&model, &w, &s, &cfg);
        let flips = Flips::new(&lost, &model, surviving, &w, &s, &cfg);
        let (ok, _) = check_every_score_packages(&flips, 13);
        assert!(ok > 10, "{ok} feasible phase vectors");
    }

    /// A space that counts its inner space's `score` and `package` calls.
    struct Counting<S> {
        inner: S,
        scores: AtomicUsize,
        packages: AtomicUsize,
    }

    impl<S: Space> Space for Counting<S> {
        type Point = S::Point;
        type Key = S::Key;
        type Scored = S::Scored;

        fn seed(&self) -> Result<S::Point> {
            self.inner.seed()
        }

        fn neighbor<R: Rng>(&self, x: &S::Point, rng: &mut R) -> Option<S::Point> {
            self.inner.neighbor(x, rng)
        }

        fn key(&self, p: &S::Point) -> S::Key {
            self.inner.key(p)
        }

        fn admissible(&self, p: &S::Point) -> bool {
            self.inner.admissible(p)
        }

        fn score(&self, p: &S::Point, caches: &Caches) -> Option<(f64, S::Scored)> {
            self.scores.fetch_add(1, Ordering::Relaxed);
            self.inner.score(p, caches)
        }

        fn package(&self, p: &S::Point, scored: S::Scored) -> Result<OrchestratedPlan> {
            self.packages.fetch_add(1, Ordering::Relaxed);
            self.inner.package(p, scored)
        }
    }

    /// Walks `inner` for `steps` steps on 1 and 4 threads: `score` runs
    /// once per evaluation, and `package` once per strict rise of the best
    /// score, a feasible seed counting as one. The rises are read off the
    /// trace's step winners, which every thread count repeats. Returns the
    /// rises.
    fn check_scores_once<S: Space>(inner: S, cfg: &SchedulerConfig, steps: usize) -> usize {
        let seed = inner.seed().unwrap();
        let seed_score = inner
            .admissible(&seed)
            .then(|| inner.score(&seed, &Caches::default()))
            .flatten()
            .map(|(score, _)| score);
        let space = Counting {
            inner,
            scores: AtomicUsize::new(0),
            packages: AtomicUsize::new(0),
        };
        let mut rises = 0;
        for threads in [1, 4] {
            space.scores.store(0, Ordering::Relaxed);
            space.packages.store(0, Ordering::Relaxed);
            let cfg = SchedulerConfig {
                num_threads: threads,
                ..cfg.clone()
            };
            let r = walk(&space, &cfg, cfg.seed, steps).unwrap();
            let mut best = seed_score.unwrap_or(f64::NEG_INFINITY);
            rises = usize::from(seed_score.is_some());
            for s in r
                .search_trace
                .steps
                .iter()
                .filter_map(|row| row.winner_score)
            {
                if s > best {
                    best = s;
                    rises += 1;
                }
            }
            assert_eq!(space.scores.load(Ordering::Relaxed), r.evaluations);
            assert_eq!(
                space.packages.load(Ordering::Relaxed),
                rises,
                "{threads} threads"
            );
        }
        rises
    }

    #[test]
    fn each_candidate_is_scored_once_and_only_new_bests_are_packaged() {
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 21;
        let s = slo();

        let cloud = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let w = spec::coding(2.0);
        let single = SingleModel::new(&cloud, &model, &w, &s, &cfg);
        let rises = check_scores_once(single, &cfg, cfg.n_step);
        assert!(rises > 1, "{rises} new bests");

        let pool = presets::a5000_cluster(12);
        let models = two_tenants();
        let workloads = vec![spec::conversation(2.0), spec::coding(1.0)];
        let multi = MultiModel::new(&pool, &models, &workloads, &cfg);
        let rises = check_scores_once(multi, &cfg, cfg.n_step);
        assert!(rises > 1, "{rises} new multi-model bests");

        let w = spec::coding(2.5);
        let (lost, surviving) = lose_node_6(&model, &w, &s, &cfg);
        let flips = Flips::new(&lost, &model, surviving, &w, &s, &cfg);
        let rises = check_scores_once(flips, &cfg, 40);
        assert!(rises >= 1, "{rises} new phase-vector bests");
    }

    /// `d`, `row_cap`, `col_cap` and `kv_seconds`, as bits.
    fn estimate_bits(e: &ts_sim::estimate::PairEstimates) -> Vec<Vec<u64>> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        e.d.iter()
            .chain(&e.kv_seconds)
            .map(|r| bits(r))
            .chain([bits(&e.row_cap), bits(&e.col_cap)])
            .collect()
    }

    /// The estimates of `groups` under `model` with nothing cached: each
    /// group deduced afresh, its cost model built afresh, and
    /// `pair_estimates` over them, prefill rows and decode columns in group
    /// order. Also returns the deduced layouts.
    fn fresh_estimates(
        cluster: &Cluster,
        model: &ModelSpec,
        groups: &[&CandidateGroup],
        w: &WorkloadSpec,
        s: &SloSpec,
        cfg: &SchedulerConfig,
    ) -> (Vec<GroupSpec>, ts_sim::estimate::PairEstimates) {
        let specs: Vec<GroupSpec> = groups
            .iter()
            .map(|g| {
                crate::parallel::deduce_parallel_config(cluster, model, &g.gpus, g.phase, w, cfg)
                    .unwrap()
            })
            .collect();
        let costs = |phase: Phase| -> Vec<ReplicaCostModel> {
            specs
                .iter()
                .filter(|g| g.phase == phase)
                .map(|g| ReplicaCostModel::new(cluster, model, g, &cfg.params).unwrap())
                .collect()
        };
        let est = ts_sim::estimate::pair_estimates(
            cluster,
            &sim_config(model, cfg),
            &costs(Phase::Prefill),
            &costs(Phase::Decode),
            w,
            s,
        );
        (specs, est)
    }

    /// The estimate inputs each space computes once per walk (group terms,
    /// pair KV seconds, stage orders; the flip space's matrix) give the
    /// bits `pair_estimates` gives with nothing cached, over random
    /// paper-cloud walks in all three spaces under both KV precisions.
    #[test]
    fn cached_estimates_match_on_the_fly_pair_estimates() {
        use crate::orchestrate::estimates;
        use ts_kvcache::codec::KvWirePrecision;
        let cloud = presets::paper_cloud_cluster();
        let s = slo();
        let model = ModelSpec::llama_30b();
        let tenants = vec![
            ServedModel::llama_7b_chat(ModelId(1), 0.6).unwrap(),
            ServedModel::llama_13b_chat(ModelId(2), 0.4).unwrap(),
        ];
        let (mut single_points, mut multi_points, mut flip_points) = (0, 0, 0);
        for (k, precision) in [KvWirePrecision::F16, KvWirePrecision::DEFAULT_COMPRESSED]
            .into_iter()
            .enumerate()
        {
            let mut cfg = SchedulerConfig::fast();
            cfg.kv_precision = precision;
            for (i, w) in [spec::coding(2.0), spec::conversation(3.5)]
                .iter()
                .enumerate()
            {
                let seed = 40 + (2 * k + i) as u64;
                // Single model: one walk's caches, shared by every point.
                let space = SingleModel::new(&cloud, &model, w, &s, &cfg);
                let caches = Caches::default();
                let mut rng = seeded_rng(seed);
                let mut x = space.seed().unwrap();
                for _ in 0..40 {
                    let Some(p) = space.neighbor(&x, &mut rng) else {
                        continue;
                    };
                    if !space.admissible(&p) {
                        continue;
                    }
                    let Some(entries) = space.resolve(&p, &caches) else {
                        continue;
                    };
                    let members = members(&entries).map(|(phase, r)| (phase, &r.cost, &r.terms, r));
                    let single = space.single(&caches);
                    let cached = estimates(members, &single.kv, w, &s).unwrap();
                    let groups: Vec<&CandidateGroup> = p.groups.iter().collect();
                    let (specs, fresh) = fresh_estimates(&cloud, &model, &groups, w, &s, &cfg);
                    let cached_specs: Vec<GroupSpec> =
                        entries.iter().map(|e| e.spec.clone()).collect();
                    assert_eq!(cached_specs, specs, "layouts, seed {seed}");
                    assert_eq!(estimate_bits(&cached), estimate_bits(&fresh), "seed {seed}");
                    single_points += 1;
                    x = p;
                }
                assert!(caches.kv.hit_count() > 0 && caches.stage_orders.hit_count() > 0);

                // Frozen groups: the last point's, every designation drawn.
                let frozen: Vec<GroupSpec> = space
                    .resolve(&x, &caches)
                    .unwrap()
                    .iter()
                    .map(|e| e.spec.clone())
                    .collect();
                let flips = Flips::new(&cloud, &model, frozen.clone(), w, &s, &cfg);
                let mut phases = flips.seed().unwrap();
                for _ in 0..10 {
                    phases = flips.neighbor(&phases, &mut rng).unwrap();
                    if !flips.admissible(&phases) {
                        continue;
                    }
                    let single = flips.single();
                    let members = flips
                        .members(&phases)
                        .map(|(phase, r)| (phase, &r.cost, &r.terms, r));
                    let cached = estimates(members, &single.kv, w, &s).unwrap();
                    let sim = sim_config(&model, &cfg);
                    let costs = |phase: Phase| -> Vec<ReplicaCostModel> {
                        frozen
                            .iter()
                            .zip(&phases)
                            .filter(|(_, &p)| p == phase)
                            .map(|(g, _)| {
                                ReplicaCostModel::new(&cloud, &model, g, &cfg.params).unwrap()
                            })
                            .collect()
                    };
                    let fresh = ts_sim::estimate::pair_estimates(
                        &cloud,
                        &sim,
                        &costs(Phase::Prefill),
                        &costs(Phase::Decode),
                        w,
                        &s,
                    );
                    assert_eq!(
                        estimate_bits(&cached),
                        estimate_bits(&fresh),
                        "flips, seed {seed}"
                    );
                    flip_points += 1;
                }
            }

            // Two tenants on the paper cloud: each model's groups alone.
            let workloads = vec![spec::conversation(2.0), spec::coding(1.0)];
            let space = MultiModel::new(&cloud, &tenants, &workloads, &cfg);
            let caches = Caches::default();
            let mut rng = seeded_rng(60 + k as u64);
            let mut x = space.seed().unwrap();
            for _ in 0..40 {
                let Some(p) = space.neighbor(&x, &mut rng) else {
                    continue;
                };
                if !space.admissible(&p) {
                    continue;
                }
                let Some(entries) = space.resolve(&p, &caches) else {
                    continue;
                };
                for ((m, w), sim) in tenants.iter().zip(&workloads).zip(&space.sims) {
                    let members = entries
                        .iter()
                        .filter(|e| e.spec.model == m.id)
                        .map(|e| (e.spec.phase, &e.cost, &e.terms, &**e));
                    let kv = space.kv(&caches, sim, w);
                    let cached = estimates(members, kv, w, &m.slo).unwrap();
                    let groups: Vec<&CandidateGroup> =
                        p.groups.iter().filter(|g| g.model == m.id).collect();
                    let (_, fresh) = fresh_estimates(&cloud, &m.spec, &groups, w, &m.slo, &cfg);
                    assert_eq!(
                        estimate_bits(&cached),
                        estimate_bits(&fresh),
                        "model {:?}",
                        m.id
                    );
                }
                multi_points += 1;
                x = p;
            }
            assert!(caches.kv.hit_count() > 0);
        }
        assert!(
            single_points > 60 && multi_points > 20 && flip_points > 20,
            "{single_points} single, {multi_points} multi, {flip_points} flip points"
        );
    }

    /// The walk's KV-seconds cache and stage-order memo, counted on one
    /// fixed one-thread search; lightweight rescheduling reads its
    /// precomputed matrix and deduces nothing, so it counts neither.
    #[test]
    fn walk_cache_counters_are_pinned() {
        let cloud = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let w = spec::coding(2.5);
        let s = slo();
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 21;
        cfg.num_threads = 1;
        let r = schedule(&cloud, &model, &w, &s, &cfg).unwrap();
        let counts = |r: &ScheduleResult| {
            [
                r.pair_cache_hits,
                r.pair_cache_misses,
                r.stage_order_hits,
                r.stage_order_misses,
            ]
        };
        // Pair lookups: 296 hits and 128 pairs priced. Stage orders: 54
        // hits and 20 DPs solved.
        assert_eq!(counts(&r), [296, 128, 54, 20]);
        let again = schedule(&cloud, &model, &w, &s, &cfg).unwrap();
        assert_eq!(counts(&again), counts(&r));

        let mut lost = cloud.clone();
        lost.deactivate_node(ts_common::NodeId(6)).unwrap();
        let surviving = r
            .plan
            .groups
            .into_iter()
            .filter(|g| g.gpus().all(|id| lost.is_active(id)))
            .collect();
        let flips = reschedule_phases(&lost, &model, surviving, &w, &s, &cfg).unwrap();
        assert_eq!(counts(&flips), [0, 0, 0, 0]);
    }

    #[test]
    fn plan_uses_only_active_gpus() {
        let mut cluster = presets::a5000_cluster(12);
        cluster.deactivate_node(ts_common::NodeId(2)).unwrap();
        let model = ModelSpec::llama_13b();
        let w = spec::coding(1.0);
        let s = slo();
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 2;
        let r = schedule(&cluster, &model, &w, &s, &cfg).unwrap();
        for g in &r.plan.groups {
            for gpu in g.gpus() {
                assert!(cluster.is_active(gpu), "plan uses failed GPU {gpu}");
            }
        }
    }
}
