//! Extension: multi-model serving on one shared GPU pool vs static
//! partitioning.
//!
//! Two tenants rent capacity on the same 12×A5000 pool: a light LLaMA-7B
//! conversation service (60% traffic share) and a heavier LLaMA-13B coding
//! service (40% share), each with its own SLO. The partitioned baseline
//! carves the pool by contract share — 8 GPUs for the 7B tenant, 4 for the
//! 13B tenant — and schedules each tenant alone inside its partition. The
//! shared arm runs [`thunderserve_core::Scheduler::schedule_multi`] on the
//! whole pool, letting the two-level search trade GPUs between tenants.
//!
//! The asymmetry is the point: the 13B coding tenant is compute-hungry and
//! starves inside its 4-GPU contract slice, while the 7B tenant strands
//! capacity it cannot use. Sharing the pool moves the stranded GPUs to the
//! tenant that needs them, so share-weighted joint SLO attainment must not
//! drop — at the same (or lower) $/hr, since both arms draw from the same
//! 12 GPUs. [`artifact()`] checks those properties on the full-mode report
//! and renders it as `BENCH_mm.json`.

use crate::artifact::{checked, Rule};
use crate::table::{pct, Table};
use thunderserve_core::{Scheduler, SchedulerConfig};
use ts_cluster::{presets, Cluster};
use ts_common::{DeploymentPlan, GpuId, ModelId, Request, ServedModel, SimDuration};
use ts_sim::config::SimConfig;
use ts_sim::engine::Simulation;
use ts_workload::{generator::generate_multi_tenant, spec, WorkloadSpec};

/// Measured outcome of one tenant under one arm.
#[derive(Debug, Clone, Copy)]
pub struct TenantOutcome {
    /// The served model.
    pub model: ModelId,
    /// Joint SLO attainment of this tenant's traffic under its own SLO.
    pub attainment: f64,
    /// Requests this tenant submitted.
    pub submitted: usize,
    /// Requests that completed.
    pub completed: usize,
}

/// One arm (shared pool or static partition) of the comparison.
#[derive(Debug, Clone)]
pub struct MmArm {
    /// `"shared"` or `"partitioned"`.
    pub name: &'static str,
    /// Per-tenant outcomes, catalog order.
    pub tenants: Vec<TenantOutcome>,
    /// Traffic-share-weighted joint attainment across tenants.
    pub weighted_attainment: f64,
    /// Hourly price of the GPUs the arm's plan(s) actually occupy.
    pub cost_per_hour: f64,
}

/// Both arms of the shared-pool vs partitioned comparison.
#[derive(Debug, Clone)]
pub struct MmReport {
    /// The shared-pool arm.
    pub shared: MmArm,
    /// The statically partitioned arm.
    pub partitioned: MmArm,
}

fn catalog() -> Vec<ServedModel> {
    // Catalog presets scaled to what A5000s can actually deliver: the 13B
    // coding tenant's default TTFT bound is unreachable for long prompts on
    // this GPU class, which would flatten every allocation to attainment 0
    // and leave the search nothing to optimize.
    let m7 = ServedModel::llama_7b_chat(ModelId(1), 0.6).expect("valid share");
    let m13 = ServedModel::llama_13b_chat(ModelId(2), 0.4).expect("valid share");
    vec![
        ServedModel::new(m7.id, m7.spec, m7.slo.scaled(2.0), 0.6).expect("valid tenant"),
        ServedModel::new(m13.id, m13.spec, m13.slo.scaled(3.0), 0.4).expect("valid tenant"),
    ]
}

fn workloads(quick: bool) -> Vec<WorkloadSpec> {
    // Light conversation traffic for the 7B tenant; coding traffic heavy
    // enough that the 13B tenant saturates a 4-GPU partition.
    let scale = if quick { 0.75 } else { 1.0 };
    vec![spec::conversation(0.8 * scale), spec::coding(1.2 * scale)]
}

fn plan_cost(cluster: &Cluster, plan: &DeploymentPlan) -> f64 {
    plan.groups
        .iter()
        .flat_map(|g| g.gpus())
        .map(|id| cluster.gpu(id).spec().price_per_hour)
        .sum()
}

fn tenant_requests(quick: bool) -> Vec<Request> {
    let horizon = SimDuration::from_secs(if quick { 30 } else { 90 });
    let ws = workloads(quick);
    generate_multi_tenant(
        &[(ModelId(1), ws[0].clone()), (ModelId(2), ws[1].clone())],
        horizon,
        11,
    )
}

fn scheduler() -> Scheduler {
    // More steps than `fast()`: the multi-tenant neighbourhood also mutates
    // group-to-model assignment, so a 12-step budget rarely escapes its
    // initial partition of the pool.
    let mut cfg = SchedulerConfig::fast();
    cfg.n_step = 40;
    cfg.n_nghb = 10;
    cfg.seed = 23;
    Scheduler::new(cfg)
}

/// Runs the shared-pool arm: one `schedule_multi` plan, one simulation of
/// the merged two-tenant trace, per-tenant attainment from the tagged views.
pub fn measure_shared(quick: bool) -> MmArm {
    let cluster = presets::a5000_cluster(12);
    let models = catalog();
    let r = scheduler()
        .schedule_multi(&cluster, &models, &workloads(quick))
        .expect("shared pool must be schedulable");
    let plan = r.schedule.plan;
    let reqs = tenant_requests(quick);
    let cfg = SimConfig::new(models[0].spec.clone()).with_catalog(models.clone());
    let metrics = Simulation::new(&cluster, &plan, cfg)
        .expect("shared plan must instantiate")
        .run(&reqs)
        .expect("shared run must succeed");
    let mut tenants = Vec::new();
    let mut weighted = 0.0;
    for m in &models {
        let view = metrics.for_model(m.id);
        let att = view.joint_attainment(&m.slo);
        weighted += m.traffic_share * att;
        tenants.push(TenantOutcome {
            model: m.id,
            attainment: att,
            submitted: reqs.iter().filter(|r| r.model == m.id).count(),
            completed: view.num_completed(),
        });
    }
    MmArm {
        name: "shared",
        tenants,
        weighted_attainment: weighted,
        cost_per_hour: plan_cost(&cluster, &plan),
    }
}

/// Runs the partitioned arm: the pool is carved by contract share (8 GPUs
/// for the 60% tenant, 4 for the 40% tenant), each tenant scheduled and
/// simulated alone inside its slice.
pub fn measure_partitioned(quick: bool) -> MmArm {
    let models = catalog();
    let ws = workloads(quick);
    let all_reqs = tenant_requests(quick);
    // Contract slices: tenant 1 gets nodes 0-1 (GPUs 0..8), tenant 2 node 2.
    let slices: [Vec<GpuId>; 2] = [(8..12).map(GpuId).collect(), (0..8).map(GpuId).collect()];
    let mut tenants = Vec::new();
    let mut weighted = 0.0;
    let mut cost = 0.0;
    for ((m, w), off_slice) in models.iter().zip(&ws).zip(&slices) {
        let mut cluster = presets::a5000_cluster(12);
        cluster
            .deactivate_gpus(off_slice)
            .expect("slice ids are valid");
        let r = scheduler()
            .schedule(&cluster, &m.spec, w, &m.slo)
            .expect("partition must be schedulable");
        let reqs: Vec<Request> = all_reqs
            .iter()
            .filter(|r| r.model == m.id)
            .cloned()
            .collect();
        let metrics = Simulation::new(&cluster, &r.plan, SimConfig::new(m.spec.clone()))
            .expect("partition plan must instantiate")
            .run(&reqs)
            .expect("partition run must succeed");
        let att = metrics.joint_attainment(&m.slo);
        weighted += m.traffic_share * att;
        cost += plan_cost(&cluster, &r.plan);
        tenants.push(TenantOutcome {
            model: m.id,
            attainment: att,
            submitted: reqs.len(),
            completed: metrics.num_completed(),
        });
    }
    MmArm {
        name: "partitioned",
        tenants,
        weighted_attainment: weighted,
        cost_per_hour: cost,
    }
}

/// Runs both arms.
pub fn measure(quick: bool) -> MmReport {
    MmReport {
        shared: measure_shared(quick),
        partitioned: measure_partitioned(quick),
    }
}

/// The properties the shared pool exists for.
const RULES: &[Rule<MmReport>] = &[
    Rule {
        name: "the shared pool attains at least the partition's weighted attainment",
        holds: |r| r.shared.weighted_attainment >= r.partitioned.weighted_attainment,
    },
    Rule {
        name: "the shared pool costs at most the partition",
        holds: |r| r.shared.cost_per_hour <= r.partitioned.cost_per_hour,
    },
    Rule {
        name: "every tenant submits and completes work in both arms",
        holds: |r| {
            [&r.shared, &r.partitioned]
                .iter()
                .flat_map(|a| &a.tenants)
                .all(|t| t.submitted > 0 && t.completed > 0)
        },
    },
];

fn render_json(r: &MmReport) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"multi-model serving: two tenants (LLaMA-7B conversation at 60% share, LLaMA-13B coding at 40%) on one 12xA5000 pool, shared schedule_multi plan vs contract-share static partition (8+4 GPUs)\",\n");
    json.push_str("  \"note\": \"simulated time (deterministic). attainment = joint SLO attainment under each tenant's own SLO; weighted = traffic-share-weighted across tenants; cost = hourly price of the GPUs each arm's plan(s) occupy. The 13B coding tenant starves in its 4-GPU slice while the 7B tenant strands capacity; sharing moves the stranded GPUs across the tenant boundary.\",\n");
    json.push_str("  \"arms\": [\n");
    let arms = [&r.partitioned, &r.shared];
    for (i, a) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"arm\": \"{}\", \"weighted_attainment\": {:.6}, \"cost_per_hour\": {:.3}, \"tenants\": [\n",
            a.name, a.weighted_attainment, a.cost_per_hour
        ));
        for (j, t) in a.tenants.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"model\": \"{}\", \"attainment\": {:.6}, \"completed\": {}, \"submitted\": {}}}{}\n",
                t.model,
                t.attainment,
                t.completed,
                t.submitted,
                if j + 1 == a.tenants.len() { "" } else { "," }
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == arms.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// `BENCH_mm.json`: both arms in full mode, checked against their rules.
///
/// # Errors
/// Returns the names of the rules the report breaks.
pub fn artifact() -> Result<String, String> {
    checked(&measure(false), RULES, render_json)
}

/// Renders the comparison for the `reproduce` registry.
pub fn run(quick: bool) -> String {
    let r = measure(quick);
    let mut t = Table::new(vec![
        "arm",
        "7B chat att.",
        "13B coding att.",
        "weighted",
        "$/hr",
    ]);
    for arm in [&r.partitioned, &r.shared] {
        t.row(vec![
            arm.name.into(),
            pct(arm.tenants[0].attainment),
            pct(arm.tenants[1].attainment),
            pct(arm.weighted_attainment),
            format!("${:.2}", arm.cost_per_hour),
        ]);
    }
    format!(
        "Extension: two tenants on one 12xA5000 pool, shared vs contract-share partition\n{}\n\
         Sharing the pool lifts weighted attainment {} -> {} at {} the price.\n",
        t.render(),
        pct(r.partitioned.weighted_attainment),
        pct(r.shared.weighted_attainment),
        if r.shared.cost_per_hour <= r.partitioned.cost_per_hour {
            "at most"
        } else {
            "above"
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::failing;

    #[test]
    fn report_compares_both_arms() {
        let out = run(true);
        assert!(out.contains("shared"));
        assert!(out.contains("partitioned"));
        assert!(out.contains("weighted"));
    }

    fn arm(name: &'static str, weighted_attainment: f64, cost_per_hour: f64) -> MmArm {
        let tenant = |id| TenantOutcome {
            model: ModelId(id),
            attainment: weighted_attainment,
            submitted: 10,
            completed: 9,
        };
        MmArm {
            name,
            tenants: vec![tenant(1), tenant(2)],
            weighted_attainment,
            cost_per_hour,
        }
    }

    #[test]
    fn shared_pool_rules_trip() {
        let ok = MmReport {
            shared: arm("shared", 0.68, 2.676),
            partitioned: arm("partitioned", 0.5, 2.676),
        };
        assert!(failing(&ok, RULES).is_empty());

        let mut loses = ok.clone();
        loses.shared.weighted_attainment = 0.49;
        assert_eq!(
            failing(&loses, RULES),
            ["the shared pool attains at least the partition's weighted attainment"]
        );

        let mut dearer = ok.clone();
        dearer.shared.cost_per_hour = 2.7;
        assert_eq!(
            failing(&dearer, RULES),
            ["the shared pool costs at most the partition"]
        );

        let mut starved = ok.clone();
        starved.partitioned.tenants[1].completed = 0;
        assert_eq!(
            failing(&starved, RULES),
            ["every tenant submits and completes work in both arms"]
        );
        let mut idle = ok;
        idle.shared.tenants[0].submitted = 0;
        assert_eq!(
            failing(&idle, RULES),
            ["every tenant submits and completes work in both arms"]
        );
    }
}
