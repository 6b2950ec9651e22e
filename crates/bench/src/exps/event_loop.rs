//! `BENCH_sim.json`: the simulator's event-loop work counters on
//! request-count × replica grids.
//!
//! Each arm builds a homogeneous A5000 phase-split deployment (half
//! prefill, half decode, tp=1 per replica, prefill `i` feeding decode `i`)
//! and serves a fixed 256/64-token Poisson trace (seed `0x5151`) of exactly
//! the arm's request count. Every arm records the events the default
//! (coalesced) loop dispatches. The two small arms also run the per-step
//! path (decode coalescing off) with the trace recorder attached, and
//! record its event count and the trace's length.
//!
//! The figures run in simulated time, so they reproduce byte for byte. The
//! loop's wall clock lives in the repository benchmark (`fleet_1m`'s
//! `serve_wall_s` serves the 1M × 1,024 arm's shape), and `bench_obs`
//! times the recorder on [`ARMS`]' two small arms.

use crate::artifact::{checked, Rule};
use ts_cluster::{presets, Cluster};
use ts_common::{
    DeploymentPlan, GpuId, GroupSpec, ModelSpec, Phase, Request, RoutingMatrix, SimDuration,
};
use ts_sim::{SimConfig, Simulation};
use ts_workload::{generator::generate, spec};

/// One request-count × replica grid point.
pub struct Arm {
    /// Requests in the arm's trace.
    pub requests: usize,
    /// Replicas, half prefill and half decode.
    pub replicas: usize,
    /// Poisson arrival rate in requests per simulated second.
    pub rate: f64,
}

/// ~1.25 requests/s per decode replica: a lightly loaded day-trace shape
/// (thin decode batches), the regime the autoscaling sweeps live in. Only
/// the first [`PER_STEP_ARMS`] run the per-step path.
pub const ARMS: &[Arm] = &[
    Arm {
        requests: 10_000,
        replicas: 8,
        rate: 5.0,
    },
    Arm {
        requests: 100_000,
        replicas: 64,
        rate: 40.0,
    },
    Arm {
        requests: 1_000_000,
        replicas: 1024,
        rate: 640.0,
    },
];

/// How many of [`ARMS`], from the first, also run the per-step path.
pub const PER_STEP_ARMS: usize = 2;

/// Everything one arm serves.
pub struct Setup {
    /// `replicas` A5000s.
    pub cluster: Cluster,
    /// The paired phase-split plan.
    pub plan: DeploymentPlan,
    /// LLaMA-7B.
    pub model: ModelSpec,
    /// The arm's trace.
    pub requests: Vec<Request>,
}

/// The arm's cluster, plan, model and trace.
pub fn setup(arm: &Arm) -> Setup {
    let model = ModelSpec::llama_7b();
    Setup {
        cluster: presets::a5000_cluster(arm.replicas),
        plan: paired_plan(arm.replicas, model.num_layers),
        model,
        requests: trace(arm),
    }
}

fn paired_plan(replicas: usize, layers: usize) -> DeploymentPlan {
    let replica =
        |phase, gpu: u32| GroupSpec::single_stage(phase, vec![GpuId(gpu)], layers).unwrap();
    let half = replicas / 2;
    let groups = (0..half)
        .map(|g| replica(Phase::Prefill, g as u32))
        .chain((0..half).map(|g| replica(Phase::Decode, (half + g) as u32)))
        .collect();
    // Paired routing (prefill i feeds decode i), as the KV-transfer-aware
    // orchestration produces at scale.
    let mut rates = vec![vec![0.0; half]; half];
    for (p, row) in rates.iter_mut().enumerate() {
        row[p] = 1.0 / half as f64;
    }
    DeploymentPlan::new(groups, RoutingMatrix::new(rates).unwrap()).unwrap()
}

fn trace(arm: &Arm) -> Vec<Request> {
    // Over-generate, then truncate to the exact request count.
    let horizon = SimDuration::from_secs_f64(1.25 * arm.requests as f64 / arm.rate);
    let mut reqs = generate(&spec::fixed(256, 64, arm.rate), horizon, 0x5151);
    assert!(
        reqs.len() >= arm.requests,
        "horizon too short: {} < {}",
        reqs.len(),
        arm.requests
    );
    reqs.truncate(arm.requests);
    reqs
}

/// The per-step path's counters on one arm.
#[derive(Debug, Clone, Copy)]
pub struct PerStep {
    /// Events dispatched with decode coalescing off: one per decode step.
    pub events: u64,
    /// Events the trace recorder kept on the same run.
    pub trace_events: usize,
}

/// One arm's counters.
#[derive(Debug, Clone, Copy)]
pub struct ArmCounters {
    /// Requests sent.
    pub requests: usize,
    /// Replicas.
    pub replicas: usize,
    /// Requests completed on the coalesced path.
    pub completed: usize,
    /// Events the coalesced path dispatched.
    pub events_processed: u64,
    /// The per-step path's counters, on the small arms only.
    pub per_step: Option<PerStep>,
}

/// Serves one arm on the coalesced path and, if `per_step`, on the
/// per-step path with the recorder attached.
fn measure_arm(arm: &Arm, per_step: bool) -> ArmCounters {
    let s = setup(arm);
    let mut sim = Simulation::new(&s.cluster, &s.plan, SimConfig::new(s.model.clone())).unwrap();
    let m = sim.run(&s.requests).unwrap();
    let per_step = per_step.then(|| {
        let cfg = SimConfig::new(s.model.clone())
            .with_decode_coalescing(false)
            .with_telemetry(true);
        let mut sim = Simulation::new(&s.cluster, &s.plan, cfg).unwrap();
        sim.run(&s.requests).unwrap();
        PerStep {
            events: sim.events_processed(),
            trace_events: sim.take_trace().map_or(0, |log| log.len()),
        }
    });
    ArmCounters {
        requests: s.requests.len(),
        replicas: arm.replicas,
        completed: m.num_completed(),
        events_processed: sim.events_processed(),
        per_step,
    }
}

/// Counters of every arm in [`ARMS`].
pub fn measure() -> Vec<ArmCounters> {
    ARMS.iter()
        .enumerate()
        .map(|(i, arm)| measure_arm(arm, i < PER_STEP_ARMS))
        .collect()
}

/// What the event loop must keep on every arm.
const RULES: &[Rule<[ArmCounters]>] = &[
    Rule {
        name: "every arm conserves its requests and loses none",
        holds: |arms| arms.iter().all(|a| a.completed == a.requests),
    },
    Rule {
        name: "coalescing dispatches fewer events than the per-step path",
        holds: |arms| {
            arms.iter()
                .all(|a| a.per_step.is_none_or(|p| a.events_processed < p.events))
        },
    },
    Rule {
        name: "the recorder records events",
        holds: |arms| {
            arms.iter()
                .all(|a| a.per_step.is_none_or(|p| p.trace_events > 0))
        },
    },
];

fn render_json(arms: &[ArmCounters]) -> String {
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"simulator event loop: LLaMA-7B on n A5000 replicas, half prefill and half decode, prefill i feeding decode i; a fixed 256/64-token Poisson trace (seed 0x5151) of exactly the arm's requests\",\n");
    json.push_str("  \"note\": \"simulated time (deterministic, no wall-clock). events_processed is the default (coalesced) loop's dispatch count; per_step_events is the per-step path's (decode coalescing off) and trace_events the trace recorder's length on that run, on the two small arms. The loop's wall clock is the repository benchmark's fleet_1m serve_wall_s.\",\n");
    json.push_str("  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"requests\": {}, \"replicas\": {}, \"completed\": {}, \"events_processed\": {}",
            a.requests, a.replicas, a.completed, a.events_processed
        ));
        if let Some(p) = a.per_step {
            json.push_str(&format!(
                ", \"per_step_events\": {}, \"trace_events\": {}",
                p.events, p.trace_events
            ));
        }
        json.push_str(if i + 1 == arms.len() { "}\n" } else { "},\n" });
    }
    json.push_str("  ]\n}\n");
    json
}

/// `BENCH_sim.json`: every arm's counters, checked against their rules.
///
/// # Errors
/// Returns the names of the rules the counters break.
pub fn artifact() -> Result<String, String> {
    checked(measure().as_slice(), RULES, render_json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::failing;

    fn ok() -> Vec<ArmCounters> {
        vec![
            ArmCounters {
                requests: 10_000,
                replicas: 8,
                completed: 10_000,
                events_processed: 42_590,
                per_step: Some(PerStep {
                    events: 341_108,
                    trace_events: 139_901,
                }),
            },
            ArmCounters {
                requests: 1_000_000,
                replicas: 1024,
                completed: 1_000_000,
                events_processed: 3_998_853,
                per_step: None,
            },
        ]
    }

    #[test]
    fn event_loop_rules_trip() {
        assert!(failing(ok().as_slice(), RULES).is_empty());

        let mut lossy = ok();
        lossy[1].completed -= 1;
        assert_eq!(
            failing(lossy.as_slice(), RULES),
            ["every arm conserves its requests and loses none"]
        );

        let mut uncoalesced = ok();
        uncoalesced[0].events_processed = 341_108;
        assert_eq!(
            failing(uncoalesced.as_slice(), RULES),
            ["coalescing dispatches fewer events than the per-step path"]
        );

        let mut silent = ok();
        silent[0].per_step.as_mut().unwrap().trace_events = 0;
        assert_eq!(
            failing(silent.as_slice(), RULES),
            ["the recorder records events"]
        );
    }
}
