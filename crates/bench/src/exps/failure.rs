//! Figure 11 + Table 4: rescheduling when 4 of 32 GPUs go offline.
//!
//! The runtime deploys on the full cloud, a 3090Ti instance (4 GPUs hosting
//! decode capacity) fails, and we compare the three policies: no
//! rescheduling, lightweight rescheduling, and full rescheduling (which
//! pays a parameter-reload blackout).
//!
//! `BENCH_fault.json` ([`artifact()`]) records a straggler sweep on the
//! gray-failure testbed: one replica runs 2–8× slow, with hedging and
//! quarantine off and on. Mitigation must cut the tail the slowed role
//! inflates: p99 TTFT for prefill, p99 E2E for decode.

use crate::artifact::{checked, Rule};
use crate::harness::base_slo_30b;
use crate::table::Table;
use thunderserve_core::SchedulerConfig;
use ts_baselines::VllmPlanner;
use ts_cluster::availability::{ClusterEvent, EventKind};
use ts_cluster::presets;
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, Phase, RoutingMatrix, SimDuration, SimTime,
    SloKind, SloSpec,
};
use ts_runtime::service::{ReschedulePolicy, ServingRuntime};
use ts_sim::config::{Hedge, Quarantine, SimConfig};
use ts_sim::engine::Simulation;
use ts_sim::fault::{FaultKind, FaultScript, TimedFault};
use ts_sim::metrics::Metrics;
use ts_workload::{generator::generate, spec};

/// Picks a 4-GPU node to fail: prefer the node carrying the most prefill
/// GPUs whose loss still leaves both phases alive. (The paper removes 4 of
/// 32 GPUs; under our cost model prefill is the binding resource for the
/// coding workload, so losing prefill capacity is the stressful case.)
fn pick_failed_node(cluster: &ts_cluster::Cluster, plan: &ts_common::DeploymentPlan) -> Vec<GpuId> {
    use ts_common::Phase;
    let mut best: Option<(usize, Vec<GpuId>)> = None;
    for node in cluster.nodes() {
        let dead: std::collections::BTreeSet<GpuId> = node.gpus.iter().copied().collect();
        let mut prefill = 0usize;
        let mut decode = 0usize;
        let mut prefill_gpus_lost = 0usize;
        for g in &plan.groups {
            let alive = g.gpus().all(|id| !dead.contains(&id));
            if alive {
                match g.phase {
                    Phase::Prefill => prefill += 1,
                    Phase::Decode => decode += 1,
                }
            } else if g.phase == Phase::Prefill {
                prefill_gpus_lost += g.num_gpus();
            }
        }
        // only 4-GPU nodes, matching the paper's "4 of 32 GPUs offline"
        if node.gpus.len() <= 4
            && prefill >= 1
            && decode >= 1
            && best
                .as_ref()
                .map(|(s, _)| prefill_gpus_lost > *s)
                .unwrap_or(true)
        {
            best = Some((prefill_gpus_lost, node.gpus.clone()));
        }
    }
    best.map(|(_, g)| g)
        .expect("some node failure must keep both phases")
}

/// Picks the GPUs to fail for the mid-flight arm: up to 4 GPUs of the
/// prefill replica carrying the largest routing share (the busiest one, so
/// requests are actually in flight there when it dies). Losing any GPU
/// kills the whole replica; the other prefill replicas and all decode
/// replicas survive.
fn pick_busiest_prefill_gpus(plan: &ts_common::DeploymentPlan) -> Vec<GpuId> {
    let prefill_idx = plan.prefill_indices();
    assert!(prefill_idx.len() >= 2, "need a surviving prefill replica");
    let busiest = (0..prefill_idx.len())
        .max_by(|&a, &b| {
            plan.routing
                .prefill_share(a)
                .total_cmp(&plan.routing.prefill_share(b))
        })
        .unwrap();
    plan.groups[prefill_idx[busiest]].gpus().take(4).collect()
}

fn attainments(quick: bool, policy: ReschedulePolicy, slo: &SloSpec) -> (f64, f64, f64) {
    let model = ModelSpec::llama_30b();
    let mut cfg = SchedulerConfig::default();
    cfg.seed = 42;
    cfg.n_step = if quick { 25 } else { 80 };
    let w = spec::coding(3.0);
    let mut rt = ServingRuntime::new(presets::paper_cloud_cluster(), model, *slo, cfg);
    rt.deploy(&w).unwrap();
    let horizon = crate::harness::horizon(quick);
    let before = rt
        .serve_segment(&generate(&w, horizon, 1))
        .unwrap()
        .metrics
        .joint_attainment(slo);
    // 4 of 32 GPUs go offline: a node carrying decode capacity whose loss
    // keeps the service alive (the paper removes two decode replicas).
    let failed = pick_failed_node(rt.cluster(), rt.plan().unwrap());
    rt.handle_failure(&failed, &w, policy).unwrap();
    let after = rt.serve_segment(&generate(&w, horizon, 2)).unwrap();
    let reload = rt
        .resched_log
        .last()
        .map_or(0.0, |(_, o)| o.reload_time.as_secs_f64());
    (before, after.metrics.joint_attainment(slo), reload)
}

/// One mid-flight arm: the node fails *during* the segment (halfway through
/// the trace) and the engine recovers — or doesn't — while requests are in
/// flight. Returns (attainment, lost = dropped + rejected, requeued
/// requests, re-prefilled tokens, max time-to-recover in seconds).
fn mid_flight(
    quick: bool,
    policy: ReschedulePolicy,
    slo: &SloSpec,
) -> (f64, usize, usize, u64, f64) {
    let model = ModelSpec::llama_30b();
    let mut cfg = SchedulerConfig::default();
    cfg.seed = 42;
    cfg.n_step = if quick { 25 } else { 80 };
    // Lower rate than the between-segment arm: the mid-flight router only
    // masks the dead replica and renormalizes (no rebalanced plan), so the
    // survivors need the headroom to absorb its routing share.
    let w = spec::coding(1.0);
    let mut rt = ServingRuntime::new(presets::paper_cloud_cluster(), model, *slo, cfg);
    rt.deploy(&w).unwrap();
    let horizon = crate::harness::horizon(quick);
    let failed = pick_busiest_prefill_gpus(rt.plan().unwrap());
    let events = vec![ClusterEvent::new(
        SimTime::ZERO + SimDuration::from_secs_f64(horizon.as_secs_f64() / 2.0),
        EventKind::GpusDown(failed),
    )];
    let rep = rt
        .serve_segment_with_faults(
            &generate(&w, horizon, 3),
            &events,
            policy,
            &w,
            SimDuration::from_secs(2),
        )
        .unwrap();
    let m = &rep.metrics;
    (
        m.joint_attainment(slo),
        m.num_dropped() + m.num_rejected(),
        m.recovery().requeued_requests,
        m.recovery().reprefilled_tokens,
        m.recovery()
            .max_time_to_recover()
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0),
    )
}

/// The colocated-baseline arm: the same mid-flight replica death applied to
/// a vLLM-like colocated deployment on the in-house cluster. The shared
/// execution core gives the colocated engine the identical fault layer, so
/// the recovery counters are directly comparable with the phase-split arms.
/// Returns (attainment, lost = dropped + rejected, requeued, re-prefilled
/// tokens, max time-to-recover in seconds).
fn colocated_mid_flight(
    quick: bool,
    recover: bool,
    slo: &SloSpec,
) -> (f64, usize, usize, u64, f64) {
    let model = ModelSpec::llama_30b();
    let cluster = presets::paper_inhouse_cluster();
    let groups = VllmPlanner::new()
        .plan(&cluster, &model)
        .expect("vLLM planner must fit the in-house cluster");
    assert!(groups.len() >= 2, "need a surviving colocated replica");
    let horizon = crate::harness::horizon(quick);
    // Decode-heavy traffic (the paper's conversation workload) at a rate
    // that keeps every replica mid-decode: the dying replica holds live KV.
    let reqs = generate(&spec::conversation(2.0), horizon, 3);
    // Replica 0 dies halfway through the segment; both phases die with it
    // (colocated), so queued prefills *and* in-flight decodes are lost.
    let script = FaultScript::new(
        vec![TimedFault {
            at: SimTime::ZERO + SimDuration::from_secs_f64(horizon.as_secs_f64() / 2.0),
            kind: FaultKind::DecodeDown(0),
        }],
        SimDuration::from_secs(2),
    );
    let script = if recover {
        script
    } else {
        script.without_recovery()
    };
    let m = Simulation::colocated(&cluster, &groups, SimConfig::new(model))
        .expect("colocated deployment must be feasible")
        .run_with_faults(&reqs, &script)
        .expect("colocated fault run must succeed");
    (
        m.joint_attainment(slo),
        m.num_dropped() + m.num_rejected(),
        m.recovery().requeued_requests,
        m.recovery().reprefilled_tokens,
        m.recovery()
            .max_time_to_recover()
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0),
    )
}

/// Serves `seed`'s coding traffic at 1.5 req/s for `horizon` on the
/// gray-failure testbed, with `fault` injected: the Appendix-H cluster at
/// 40 Gbps, two tp=2 LLaMA-13B prefill replicas feeding two tp=2 decode
/// replicas. `quarantine` turns mitigation on: it, plus hedged re-dispatch
/// after 400 ms. Returns the run's metrics and the number of requests sent.
fn serve_straggler(
    fault: TimedFault,
    horizon: SimDuration,
    seed: u64,
    quarantine: Option<Quarantine>,
) -> (Metrics, usize) {
    let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
    let model = ModelSpec::llama_13b();
    let group = |phase, ids: &[u32]| {
        GroupSpec::single_stage(
            phase,
            ids.iter().map(|&i| GpuId(i)).collect(),
            model.num_layers,
        )
        .unwrap()
    };
    let plan = DeploymentPlan::new(
        vec![
            group(Phase::Prefill, &[0, 1]),
            group(Phase::Prefill, &[2, 3]),
            group(Phase::Decode, &[4, 5]),
            group(Phase::Decode, &[6, 7]),
        ],
        RoutingMatrix::uniform(2, 2),
    )
    .unwrap();
    let mut cfg = SimConfig::new(model);
    if let Some(q) = quarantine {
        cfg = cfg
            .with_quarantine(q)
            .with_hedge(Hedge::after(SimDuration::from_millis(400)));
    }
    let reqs = generate(&spec::coding(1.5), horizon, seed);
    let script = FaultScript::new(vec![fault], SimDuration::from_millis(500));
    let m = Simulation::new(&cluster, &plan, cfg)
        .expect("straggler testbed must be feasible")
        .run_with_faults(&reqs, &script)
        .expect("straggler run must succeed");
    (m, reqs.len())
}

/// The gray-failure arm: one decode replica runs 6x slow mid-segment — it
/// still heartbeats, so crash-stop rescheduling never triggers and the
/// damage is pure latency. Compares no mitigation against straggler
/// quarantine + hedged re-dispatch. Returns (attainment, p99 TTFT s,
/// p99 E2E s, quarantines, hedges launched).
fn straggler_arm(quick: bool, mitigate: bool, slo: &SloSpec) -> (f64, f64, f64, usize, usize) {
    let horizon = crate::harness::horizon(quick);
    let fault = TimedFault {
        at: SimTime::ZERO + SimDuration::from_secs_f64(horizon.as_secs_f64() / 2.0),
        kind: FaultKind::DecodeSlow(0, 6.0),
    };
    let (m, _) = serve_straggler(fault, horizon, 5, mitigate.then(|| Quarantine::at(1.5)));
    let p99 = |kind| {
        m.latency_percentile(kind, 0.99)
            .map_or(0.0, |d| d.as_secs_f64())
    };
    (
        m.joint_attainment(slo),
        p99(SloKind::Ttft),
        p99(SloKind::E2e),
        m.recovery().quarantines,
        m.recovery().hedges_launched,
    )
}

/// Slowdowns the straggler sweep applies to one replica.
const SLOWDOWNS: [f64; 3] = [2.0, 4.0, 8.0];

/// One arm of the straggler sweep.
#[derive(Debug, Clone, Copy)]
struct StragglerOutcome {
    p99_ttft_s: f64,
    p99_e2e_s: f64,
    sent: usize,
    completed: usize,
    dropped: usize,
    rejected: usize,
    hedges: usize,
    quarantines: usize,
}

impl StragglerOutcome {
    /// The tail a straggler in `role` inflates, and the count of the
    /// mechanism that answers it: hedges rescue prefill TTFT, quarantine
    /// rescues decode E2E.
    fn tail_and_mitigations(&self, role: Phase) -> (f64, usize) {
        match role {
            Phase::Prefill => (self.p99_ttft_s, self.hedges),
            Phase::Decode => (self.p99_e2e_s, self.quarantines),
        }
    }
}

/// One slowed role at one slowdown, with mitigation off and on.
#[derive(Debug, Clone, Copy)]
struct StragglerCase {
    role: Phase,
    slowdown: f64,
    off: StragglerOutcome,
    on: StragglerOutcome,
}

/// One arm: the slowed replica runs `slowdown`× slow from t=5 s through
/// 120 s of seed-7 traffic; mitigation readmits a quarantined replica
/// after 60 s.
fn straggler_outcome(role: Phase, slowdown: f64, mitigated: bool) -> StragglerOutcome {
    let kind = match role {
        Phase::Prefill => FaultKind::PrefillSlow(0, slowdown),
        Phase::Decode => FaultKind::DecodeSlow(0, slowdown),
    };
    let fault = TimedFault {
        at: SimTime::from_secs_f64(5.0),
        kind,
    };
    let quarantine = mitigated.then_some(Quarantine {
        threshold: 1.5,
        readmit_after: SimDuration::from_secs(60),
    });
    let (m, sent) = serve_straggler(fault, SimDuration::from_secs(120), 7, quarantine);
    let p99 = |kind| {
        m.latency_percentile(kind, 0.99)
            .expect("completions exist")
            .as_secs_f64()
    };
    StragglerOutcome {
        p99_ttft_s: p99(SloKind::Ttft),
        p99_e2e_s: p99(SloKind::E2e),
        sent,
        completed: m.num_completed(),
        dropped: m.num_dropped(),
        rejected: m.num_rejected(),
        hedges: m.recovery().hedges_launched,
        quarantines: m.recovery().quarantines,
    }
}

/// The properties the straggler sweep exists for.
const RULES: &[Rule<[StragglerCase]>] = &[
    Rule {
        name: "mitigation cuts p99 TTFT (prefill) or p99 E2E (decode) at every slowdown",
        holds: |cases| {
            cases
                .iter()
                .all(|c| c.on.tail_and_mitigations(c.role).0 < c.off.tail_and_mitigations(c.role).0)
        },
    },
    Rule {
        name: "every mitigated arm hedges (prefill) or quarantines (decode) at least once",
        holds: |cases| {
            cases
                .iter()
                .all(|c| c.on.tail_and_mitigations(c.role).1 >= 1)
        },
    },
    Rule {
        name: "every arm conserves requests",
        holds: |cases| {
            cases
                .iter()
                .flat_map(|c| [c.off, c.on])
                .all(|o| o.completed + o.dropped + o.rejected == o.sent)
        },
    },
];

fn render_json(cases: &[StragglerCase]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"gray-failure straggler sweep: one replica runs factor-x slow from t=5s on the Appendix-H testbed (2x tp2 prefill -> 2x tp2 decode, LLaMA-13B, coding workload at 1.5 req/s)\",\n");
    json.push_str("  \"note\": \"simulated time (deterministic, no wall-clock). Mitigation = hedged re-dispatch (400ms timeout) + straggler quarantine (EWMA threshold 1.5). A prefill straggler inflates p99 TTFT, which hedging recovers; a decode straggler inflates p99 E2E, which quarantine recovers. shed_rate counts dropped + rejected over submitted.\",\n");
    json.push_str("  \"arms\": [\n");
    let arms: Vec<_> = cases
        .iter()
        .flat_map(|c| [(c, false, c.off), (c, true, c.on)])
        .collect();
    for (i, (c, mitigated, a)) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"role\": \"{}\", \"slowdown\": {}, \"mitigated\": {}, \"p99_ttft_s\": {:.6}, \"p99_e2e_s\": {:.6}, \"shed_rate\": {:.6}, \"hedges\": {}, \"quarantines\": {}}}{}\n",
            c.role,
            c.slowdown,
            mitigated,
            a.p99_ttft_s,
            a.p99_e2e_s,
            (a.dropped + a.rejected) as f64 / a.sent as f64,
            a.hedges,
            a.quarantines,
            if i + 1 == arms.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// `BENCH_fault.json`: the straggler sweep, prefill then decode, each at
/// every slowdown with mitigation off and on, checked against its rules.
///
/// # Errors
/// Returns the names of the rules the sweep breaks.
pub fn artifact() -> Result<String, String> {
    let cases: Vec<StragglerCase> = [Phase::Prefill, Phase::Decode]
        .into_iter()
        .flat_map(|role| SLOWDOWNS.map(|slowdown| (role, slowdown)))
        .map(|(role, slowdown)| StragglerCase {
            role,
            slowdown,
            off: straggler_outcome(role, slowdown, false),
            on: straggler_outcome(role, slowdown, true),
        })
        .collect();
    checked(cases.as_slice(), RULES, render_json)
}

/// Runs the failure experiment across policies.
pub fn run(quick: bool) -> String {
    let slo = base_slo_30b().scaled(8.0);
    let mut t = Table::new(vec![
        "policy",
        "SLO att. before",
        "SLO att. after",
        "reload blackout (s)",
    ]);
    let mut results = Vec::new();
    for (name, policy) in [
        ("no rescheduling", ReschedulePolicy::None),
        ("lightweight", ReschedulePolicy::Lightweight),
        ("full", ReschedulePolicy::Full),
    ] {
        let (before, after, reload) = attainments(quick, policy, &slo);
        t.row(vec![
            name.into(),
            format!("{before:.3}"),
            format!("{after:.3}"),
            format!("{reload:.1}"),
        ]);
        results.push((name, before, after, reload));
    }
    let mut t2 = Table::new(vec![
        "policy (mid-flight)",
        "SLO att.",
        "lost reqs",
        "requeued",
        "re-prefilled toks",
        "time-to-recover (s)",
    ]);
    for (name, policy) in [
        ("no rescheduling", ReschedulePolicy::None),
        ("lightweight", ReschedulePolicy::Lightweight),
        ("full", ReschedulePolicy::Full),
    ] {
        let (att, lost, requeued, reprefill, ttr) = mid_flight(quick, policy, &slo);
        t2.row(vec![
            name.into(),
            format!("{att:.3}"),
            format!("{lost}"),
            format!("{requeued}"),
            format!("{reprefill}"),
            format!("{ttr:.1}"),
        ]);
    }
    let mut t3 = Table::new(vec![
        "vLLM baseline (mid-flight)",
        "SLO att.",
        "lost reqs",
        "requeued",
        "re-prefilled toks",
        "time-to-recover (s)",
    ]);
    for (name, recover) in [("no recovery", false), ("recovery", true)] {
        let (att, lost, requeued, reprefill, ttr) = colocated_mid_flight(quick, recover, &slo);
        t3.row(vec![
            name.into(),
            format!("{att:.3}"),
            format!("{lost}"),
            format!("{requeued}"),
            format!("{reprefill}"),
            format!("{ttr:.1}"),
        ]);
    }
    let mut t4 = Table::new(vec![
        "gray failure (decode 6x slow)",
        "SLO att.",
        "p99 TTFT (s)",
        "p99 E2E (s)",
        "quarantines",
        "hedges",
    ]);
    for (name, mitigate) in [("no mitigation", false), ("quarantine+hedging", true)] {
        let (att, ttft, e2e, quarantines, hedges) = straggler_arm(quick, mitigate, &slo);
        t4.row(vec![
            name.into(),
            format!("{att:.3}"),
            format!("{ttft:.2}"),
            format!("{e2e:.2}"),
            format!("{quarantines}"),
            format!("{hedges}"),
        ]);
    }
    format!(
        "Figure 11 / Table 4: 4 of 32 GPUs offline (coding workload)\n\n{}\n\
         Lightweight rescheduling matches full rescheduling's post-recovery \
         attainment with zero reload blackout (the paper's Table 4 reports \
         13s vs 157s total adjustment cost); the blackout makes the full \
         arm's first post-failure segment collapse.\n\n\
         Mid-flight arm: 4 GPUs hosting the busiest prefill replica fail \
         halfway through the segment, while requests are in flight.\n\n{}\n\
         Without rescheduling the requests on the dead replicas are lost; \
         lightweight recovery re-routes and re-prefills them onto survivors \
         with no service pause, while full rescheduling stalls the whole \
         service for the weight reload before recovering.\n\n\
         Colocated baseline arm: one vLLM-like replica (both phases) dies \
         mid-segment on the in-house cluster.\n\n{}\n\
         The colocated engine shares the phase-split engine's fault layer, \
         so the same recovery machinery re-prefills the dead replica's \
         sequences on survivors — losing a colocated replica forfeits both \
         its queued prefills and its decode KV at once.\n\n\
         Gray-failure arm: one decode replica degrades to 6x iteration time \
         mid-segment without dying — no heartbeat fires, so crash-stop \
         rescheduling never engages.\n\n{}\n\
         Straggler quarantine routes new work away from the degraded \
         replica and hedged re-dispatch rescues the requests already stuck \
         behind it, recovering the latency tail that pure liveness-based \
         recovery cannot see.\n",
        t.render(),
        t2.render(),
        t3.render(),
        t4.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::failing;

    #[test]
    fn lightweight_matches_full_without_blackout() {
        let slo = base_slo_30b().scaled(8.0);
        let (_, after_none, r_none) = attainments(true, ReschedulePolicy::None, &slo);
        let (_, after_light, r_light) = attainments(true, ReschedulePolicy::Lightweight, &slo);
        let (_, after_full, r_full) = attainments(true, ReschedulePolicy::Full, &slo);
        assert_eq!(r_none, 0.0);
        assert_eq!(r_light, 0.0, "lightweight must not reload");
        assert!(
            r_full > 5.0,
            "full rescheduling should pay a reload blackout"
        );
        assert!(
            after_light >= after_none - 0.02,
            "lightweight {after_light} should not trail no-reschedule {after_none}"
        );
        assert!(
            after_light >= after_full - 0.1,
            "lightweight {after_light} should be close to full {after_full}"
        );
    }

    #[test]
    fn mid_flight_lightweight_recovers_where_none_degrades() {
        let slo = base_slo_30b().scaled(8.0);
        let (att_none, lost_none, requeued_none, reprefill_none, _) =
            mid_flight(true, ReschedulePolicy::None, &slo);
        let (att_light, lost_light, requeued_light, _, ttr_light) =
            mid_flight(true, ReschedulePolicy::Lightweight, &slo);
        assert!(lost_none > 0, "no recovery must lose in-flight requests");
        assert_eq!(requeued_none, 0, "no recovery never requeues");
        assert_eq!(reprefill_none, 0, "no recovery never re-prefills");
        assert_eq!(lost_light, 0, "lightweight recovery completes everything");
        assert!(
            requeued_light > 0,
            "recovery re-routes lost work to survivors"
        );
        assert!(ttr_light > 0.0, "recovery time should be recorded");
        assert!(
            att_light > att_none,
            "lightweight mid-flight {att_light} must beat none {att_none}"
        );
    }

    #[test]
    fn straggler_mitigation_recovers_the_tail() {
        let slo = base_slo_30b().scaled(8.0);
        let (att_off, _, e2e_off, q_off, h_off) = straggler_arm(true, false, &slo);
        let (att_on, _, e2e_on, q_on, h_on) = straggler_arm(true, true, &slo);
        assert_eq!(q_off, 0, "no detector configured");
        assert_eq!(h_off, 0, "no hedging configured");
        assert!(q_on > 0, "the degraded replica must be quarantined");
        assert!(h_on > 0, "stuck requests must be hedged");
        assert!(
            e2e_on < e2e_off,
            "mitigation must cut the p99 E2E tail: {e2e_on} >= {e2e_off}"
        );
        assert!(
            att_on >= att_off,
            "mitigation must not hurt attainment: {att_on} < {att_off}"
        );
    }

    fn outcome(
        p99_ttft_s: f64,
        p99_e2e_s: f64,
        hedges: usize,
        quarantines: usize,
    ) -> StragglerOutcome {
        StragglerOutcome {
            p99_ttft_s,
            p99_e2e_s,
            sent: 10,
            completed: 9,
            dropped: 1,
            rejected: 0,
            hedges,
            quarantines,
        }
    }

    #[test]
    fn straggler_sweep_rules_trip() {
        let ok = vec![
            StragglerCase {
                role: Phase::Prefill,
                slowdown: 8.0,
                off: outcome(20.0, 25.0, 0, 0),
                on: outcome(3.0, 30.0, 7, 0),
            },
            StragglerCase {
                role: Phase::Decode,
                slowdown: 8.0,
                off: outcome(1.0, 25.0, 0, 0),
                on: outcome(2.0, 6.0, 0, 1),
            },
        ];
        assert!(failing(ok.as_slice(), RULES).is_empty());

        // The prefill case is judged on TTFT, the decode case on E2E.
        let mut slower = ok.clone();
        slower[0].on.p99_ttft_s = 30.0;
        assert_eq!(
            failing(slower.as_slice(), RULES),
            ["mitigation cuts p99 TTFT (prefill) or p99 E2E (decode) at every slowdown"]
        );
        let mut slower = ok.clone();
        slower[1].on.p99_e2e_s = 25.0;
        assert_eq!(
            failing(slower.as_slice(), RULES),
            ["mitigation cuts p99 TTFT (prefill) or p99 E2E (decode) at every slowdown"]
        );

        let mut inert = ok.clone();
        inert[0].on.hedges = 0;
        inert[0].on.quarantines = 3;
        assert_eq!(
            failing(inert.as_slice(), RULES),
            ["every mitigated arm hedges (prefill) or quarantines (decode) at least once"]
        );
        let mut inert = ok.clone();
        inert[1].on.quarantines = 0;
        assert_eq!(
            failing(inert.as_slice(), RULES),
            ["every mitigated arm hedges (prefill) or quarantines (decode) at least once"]
        );

        let mut leaky = ok;
        leaky[1].off.dropped = 0;
        assert_eq!(
            failing(leaky.as_slice(), RULES),
            ["every arm conserves requests"]
        );
    }

    #[test]
    fn colocated_baseline_recovers_in_flight_work() {
        let slo = base_slo_30b().scaled(8.0);
        let (att_none, lost_none, requeued_none, reprefill_none, _) =
            colocated_mid_flight(true, false, &slo);
        let (att_rec, lost_rec, _, reprefill_rec, ttr_rec) = colocated_mid_flight(true, true, &slo);
        assert!(
            lost_none > 0,
            "an unrecovered replica death must lose requests"
        );
        assert_eq!(requeued_none, 0);
        assert_eq!(reprefill_none, 0);
        assert!(
            lost_rec < lost_none,
            "recovery must save in-flight work: {lost_rec} vs {lost_none}"
        );
        assert!(
            reprefill_rec > 0,
            "losing a colocated replica loses decode KV that must be re-prefilled"
        );
        assert!(ttr_rec > 0.0, "recovery time should be recorded");
        assert!(
            att_rec >= att_none,
            "recovery should not hurt attainment: {att_rec} vs {att_none}"
        );
    }
}
