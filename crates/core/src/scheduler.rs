//! The top-level scheduler facade.

use crate::config::SchedulerConfig;
use crate::orchestrate::sim_config;
use crate::tabu;
use ts_cluster::Cluster;
use ts_common::{DeploymentPlan, Error, ModelId, ModelSpec, Result, ServedModel, SloSpec};
use ts_sim::estimate::estimate_attainment;
use ts_workload::WorkloadSpec;

/// Output of a tabu search: the best plan it found, that plan's score, the
/// walk's work counters and its per-step rows. Equal inputs give equal
/// results for every thread count, except the cache counters: concurrent
/// misses on one key each count, so those are exact for one thread only.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The deployment plan to instantiate.
    pub plan: DeploymentPlan,
    /// Estimated overall SLO attainment of the plan.
    pub estimated_attainment: f64,
    /// Lower-level evaluations performed: the seed and every cache miss
    /// that passed the structural gate.
    pub evaluations: usize,
    /// Total neighbours generated across all search steps.
    pub neighbors_generated: usize,
    /// Hits of the shared parallel-configuration cache.
    pub group_cache_hits: u64,
    /// Misses of the shared parallel-configuration cache.
    pub group_cache_misses: u64,
    /// Hits of the walk's KV-seconds cache of (prefill, decode) pairs. The
    /// flip space precomputes its pairs, so it counts none.
    pub pair_cache_hits: u64,
    /// Misses of the KV-seconds cache: the pairs priced.
    pub pair_cache_misses: u64,
    /// Hits of the walk's stage-order memo of deduction.
    pub stage_order_hits: u64,
    /// Misses of the stage-order memo: the stage-order DPs solved.
    pub stage_order_misses: u64,
    /// The walk's per-step rows, with the convergence trajectory
    /// (Figure 10) in their best scores.
    pub search_trace: ts_telemetry::SearchTrace,
}

/// Per-model attainment estimate inside a multi-model schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelEstimate {
    /// The served model.
    pub model: ModelId,
    /// Estimated joint SLO attainment for this model's traffic, under its
    /// own [`ts_common::SloSpec`].
    pub estimated_attainment: f64,
}

/// Output of a multi-model scheduling run: the shared-pool plan plus the
/// per-tenant attainment estimates behind its weighted objective.
#[derive(Debug, Clone)]
pub struct MultiScheduleResult {
    /// The shared scheduling output (plan, search trace, counters). For a
    /// one-entry default-model catalog this is byte-identical to what
    /// [`Scheduler::schedule`] returns.
    pub schedule: ScheduleResult,
    /// One estimate per catalog entry, in catalog order.
    pub per_model: Vec<ModelEstimate>,
}

/// The ThunderServe scheduler: wraps the two-level optimization behind a
/// single call.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    cfg: SchedulerConfig,
}

impl Scheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(cfg: SchedulerConfig) -> Self {
        Scheduler { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Produces a deployment plan for `model` on the cluster's active GPUs
    /// under the given workload and SLO.
    ///
    /// Neighbourhood evaluation runs on [`SchedulerConfig::num_threads`]
    /// workers; the result is bit-identical for every thread setting, so the
    /// knob trades wall-clock time only.
    ///
    /// # Errors
    /// Returns [`ts_common::Error::Infeasible`] if no feasible phase-split
    /// deployment exists (e.g. memory for fewer than two replicas).
    pub fn schedule(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        workload: &WorkloadSpec,
        slo: &SloSpec,
    ) -> Result<ScheduleResult> {
        tabu::schedule(cluster, model, workload, slo, &self.cfg)
    }

    /// Produces one deployment plan serving every model in `models` on the
    /// same shared GPU pool. `workloads[i]` is the arrival process of
    /// `models[i]`.
    ///
    /// A one-entry catalog with the default [`ModelId`]`(0)` delegates to
    /// [`Scheduler::schedule`] — the single-model path is the exact special
    /// case, plan and counters byte-identical. Otherwise the multi-tenant
    /// tabu search runs: the upper level also decides which model each group
    /// serves, and the lower level solves one transportation problem per
    /// model with traffic-share claims on the shared uplinks.
    ///
    /// # Errors
    /// Returns [`ts_common::Error::InvalidConfig`] on a malformed catalog
    /// (empty, duplicate ids, shares not summing to 1, length mismatch with
    /// `workloads`), and [`ts_common::Error::Infeasible`] when the pool
    /// cannot host two replicas of every model.
    pub fn schedule_multi(
        &self,
        cluster: &Cluster,
        models: &[ServedModel],
        workloads: &[WorkloadSpec],
    ) -> Result<MultiScheduleResult> {
        if models.len() == 1 && models[0].id == ModelId(0) {
            if workloads.len() != 1 {
                return Err(Error::InvalidConfig(format!(
                    "catalog has 1 model but {} workloads were given",
                    workloads.len()
                )));
            }
            let m = &models[0];
            let schedule = self.schedule(cluster, &m.spec, &workloads[0], &m.slo)?;
            let per_model = vec![ModelEstimate {
                model: m.id,
                estimated_attainment: schedule.estimated_attainment,
            }];
            return Ok(MultiScheduleResult {
                schedule,
                per_model,
            });
        }

        let schedule = tabu::schedule_multi(cluster, models, workloads, &self.cfg)?;
        let plan = &schedule.plan;
        // Per-tenant estimates: each model's slice of the shared plan is a
        // self-contained single-model plan (its groups, its routing), priced
        // under its own spec, workload and SLO.
        let mut per_model = Vec::with_capacity(models.len());
        for (m, w) in models.iter().zip(workloads) {
            let mut idxs = plan.prefill_indices_for(m.id);
            idxs.extend(plan.decode_indices_for(m.id));
            let groups: Vec<_> = idxs.into_iter().map(|gi| plan.groups[gi].clone()).collect();
            let routing = plan
                .routing_for(m.id)
                .ok_or_else(|| {
                    Error::Infeasible(format!("plan has no routing for model {}", m.id))
                })?
                .clone();
            let sub = DeploymentPlan::new(groups, routing)?;
            let sc = sim_config(&m.spec, &self.cfg);
            let est = estimate_attainment(cluster, &sub, &sc, w, &m.slo)?;
            per_model.push(ModelEstimate {
                model: m.id,
                estimated_attainment: est.overall,
            });
        }
        Ok(MultiScheduleResult {
            schedule,
            per_model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_common::{Phase, SimDuration};
    use ts_workload::spec;

    fn slo() -> SloSpec {
        // Calibrated to LLaMA-30B on cloud-class GPUs (the paper scales SLOs
        // to multiples of reference execution latency).
        SloSpec::new(
            SimDuration::from_secs(5),
            SimDuration::from_millis(300),
            SimDuration::from_secs(60),
        )
    }

    #[test]
    fn schedule_multi_single_default_model_delegates_to_schedule() {
        let cluster = presets::a5000_cluster(8);
        let model = ModelSpec::llama_13b();
        let w = spec::coding(2.0);
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 5;
        let s = Scheduler::new(cfg);
        let single = s.schedule(&cluster, &model, &w, &slo()).unwrap();
        let catalog = vec![ServedModel::single(model.clone(), slo())];
        let multi = s
            .schedule_multi(&cluster, &catalog, std::slice::from_ref(&w))
            .unwrap();
        assert_eq!(single.plan, multi.schedule.plan);
        assert_eq!(
            single.estimated_attainment,
            multi.schedule.estimated_attainment
        );
        assert_eq!(single.evaluations, multi.schedule.evaluations);
        assert!(!multi.schedule.plan.is_multi_model());
        assert_eq!(
            multi.per_model,
            vec![ModelEstimate {
                model: ModelId(0),
                estimated_attainment: single.estimated_attainment,
            }]
        );
    }

    #[test]
    fn schedule_multi_places_two_tenants_on_one_pool() {
        let cluster = presets::a5000_cluster(12);
        let catalog = vec![
            ServedModel::llama_7b_chat(ModelId(1), 0.6).unwrap(),
            ServedModel::llama_13b_chat(ModelId(2), 0.4).unwrap(),
        ];
        let workloads = vec![spec::conversation(2.0), spec::coding(1.0)];
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 7;
        let s = Scheduler::new(cfg);
        let r = s.schedule_multi(&cluster, &catalog, &workloads).unwrap();
        assert!(r.schedule.plan.is_multi_model());
        assert_eq!(r.per_model.len(), 2);
        for (est, m) in r.per_model.iter().zip(&catalog) {
            assert_eq!(est.model, m.id);
            assert!(
                (0.0..=1.0).contains(&est.estimated_attainment),
                "attainment {} for {}",
                est.estimated_attainment,
                est.model
            );
        }
        // The share-weighted per-model estimates bound the search objective
        // from above: the objective counts unserved mass as missed, while
        // the per-model estimate prices the (rescaled) routed traffic.
        let weighted: f64 = r
            .per_model
            .iter()
            .zip(&catalog)
            .map(|(e, m)| m.traffic_share * e.estimated_attainment)
            .sum();
        assert!(
            weighted + 1e-6 >= r.schedule.estimated_attainment,
            "weighted {} vs objective {}",
            weighted,
            r.schedule.estimated_attainment
        );
    }

    #[test]
    fn coding_workload_prefers_prefill_replicas() {
        // The paper's Table 3 shape: the coding workload (long prompts,
        // short outputs) gets at least as many prefill as decode replicas;
        // conversation skews toward decode.
        let cluster = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let mut cfg = SchedulerConfig::default();
        cfg.n_step = 60;
        cfg.seed = 11;
        let s = Scheduler::new(cfg);
        let coding = s
            .schedule(&cluster, &model, &spec::coding(3.0), &slo())
            .unwrap();
        let conv = s
            .schedule(&cluster, &model, &spec::conversation(3.0), &slo())
            .unwrap();
        let (cp, cd) = coding.plan.phase_ratio();
        let (vp, vd) = conv.plan.phase_ratio();
        assert!(cp > cd, "coding should have more prefill groups: {cp}:{cd}");
        let coding_ratio = cp as f64 / cd as f64;
        let conv_ratio = vp as f64 / vd as f64;
        assert!(
            coding_ratio >= conv_ratio,
            "coding prefill:decode ratio {cp}:{cd} should be >= conversation {vp}:{vd}"
        );
    }

    #[test]
    fn cloud_plan_hosts_many_replicas() {
        // §5.3: the 32-GPU cloud rig hosts far more replicas than the 4 the
        // A100 box can.
        let cluster = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let mut cfg = SchedulerConfig::default();
        cfg.n_step = 60;
        cfg.seed = 13;
        let s = Scheduler::new(cfg);
        let r = s
            .schedule(&cluster, &model, &spec::coding(3.0), &slo())
            .unwrap();
        assert!(
            r.plan.groups.len() >= 6,
            "expected many replicas, got {}",
            r.plan.groups.len()
        );
        assert!(r.plan.num_gpus() <= 32);
    }

    #[test]
    fn prefill_groups_favor_compute_decode_groups_favor_bandwidth() {
        // §5.3: A40s (compute-rich) should mostly prefill; 3090Ti
        // (bandwidth-rich) should mostly decode.
        let cluster = presets::paper_cloud_cluster();
        let model = ModelSpec::llama_30b();
        let mut cfg = SchedulerConfig::default();
        cfg.n_step = 60;
        cfg.seed = 17;
        let s = Scheduler::new(cfg);
        let r = s
            .schedule(&cluster, &model, &spec::coding(3.0), &slo())
            .unwrap();
        let mut a40_prefill = 0usize;
        let mut a40_total = 0usize;
        for g in &r.plan.groups {
            for gpu in g.gpus() {
                if cluster.gpu(gpu).model == ts_cluster::GpuModel::A40 {
                    a40_total += 1;
                    if g.phase == Phase::Prefill {
                        a40_prefill += 1;
                    }
                }
            }
        }
        assert!(a40_total > 0);
        assert!(
            a40_prefill * 2 >= a40_total,
            "most A40s should prefill: {a40_prefill}/{a40_total}"
        );
    }
}
