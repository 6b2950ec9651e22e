//! Agreement sweep for the crash-detection rule.
//!
//! The rule: a `PrefillDown`/`DecodeDown` fault at `t` is detected at
//! `t + detection_delay` if its replica is still down then, with faults
//! applied in `(at, index)` order — the order the engine's event queue pops
//! them in. [`rule`] is a test-local copy of it, applied to the fault script
//! [`FaultScript::from_cluster_events`] projects from a seeded availability
//! script. The sweep checks the engine's own detections against it, serves
//! each script once per [`ReschedulePolicy`] and checks what the runtime did:
//!
//! * [`Simulation::detections`] lists exactly the rule's detections;
//! * for a segment with no fleet delta and no GPU-level event, the runtime
//!   reschedules exactly when the rule detects something;
//! * when the rule detects nothing, Full's segment metrics equal
//!   Lightweight's: Full pauses the service only at a detection.
//!
//! Each check that fails is recorded as a disagreement class — the script
//! family and the check — and the sweep asserts that it found none.

use std::collections::BTreeSet;

use thunderserve_core::config::SchedulerConfig;
use ts_cluster::availability::{ClusterEvent, EventKind};
use ts_cluster::{presets, Cluster};
use ts_common::{
    derive_seed, DeploymentPlan, GpuId, ModelSpec, NodeId, SimDuration, SimTime, SloSpec,
};
use ts_runtime::{ReschedulePolicy, ServingRuntime};
use ts_sim::fault::{FaultKind, FaultScript};
use ts_sim::metrics::Metrics;
use ts_sim::{SimConfig, Simulation};
use ts_workload::{generator::generate, spec};

/// The detection rule over a fault script: the detection times, with the
/// index of the fault each one detects.
fn rule(script: &FaultScript) -> Vec<(SimTime, usize)> {
    let replica = |kind: FaultKind| match kind {
        FaultKind::PrefillDown(i) | FaultKind::PrefillUp(i) => Some((true, i)),
        FaultKind::DecodeDown(j) | FaultKind::DecodeUp(j) => Some((false, j)),
        _ => None,
    };
    let mut detections = Vec::new();
    for (i, f) in script.faults.iter().enumerate() {
        if !matches!(f.kind, FaultKind::PrefillDown(_) | FaultKind::DecodeDown(_)) {
            continue;
        }
        let at = f.at + script.detection_delay;
        let mut down = false;
        for (j, g) in script.faults.iter().enumerate() {
            if (g.at, j) > (at, i) {
                break;
            }
            if replica(g.kind) == replica(f.kind) {
                down = matches!(g.kind, FaultKind::PrefillDown(_) | FaultKind::DecodeDown(_));
            }
        }
        if down {
            detections.push((at, i));
        }
    }
    detections
}

/// What a sweep check found wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Check {
    /// The engine's detections differ from the rule's.
    EngineDetections,
    /// The runtime rescheduled although the rule detects nothing.
    RescheduleWithoutDetection,
    /// The rule detects a fault but the runtime did not reschedule.
    DetectionWithoutReschedule,
    /// Full's metrics differ from Lightweight's with nothing detected.
    PauseWithoutDetection,
}

/// The script families of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Family {
    /// A replica host is down for less than the timeout.
    ShortBlip,
    /// A replica host comes back exactly one timeout after it went down.
    BlipAtTimeout,
    /// A replica host comes back after its detection.
    LongBlip,
    /// A replica host goes down for good.
    Lost,
    /// Down, up and down again within one timeout; the second outage lasts.
    DownUpDown,
    /// Down, up and down again within one timeout; the second outage is
    /// shorter than the timeout but lasts past the first fault's detection
    /// time.
    DownUpDownHealed,
    /// A replica host goes down and is reclaimed before its detection.
    ScaleDownOfSilentNode,
    /// A node outside the fleet is reclaimed.
    ScaleDownOfParkedNode,
    /// An in-fleet node that hosts no replica goes down for good.
    HostlessLost,
    /// A replica's GPUs fail for good.
    GpusDown,
    /// A replica's GPUs fail for less than the timeout.
    GpusBlip,
}

const FAMILIES: [Family; 11] = [
    Family::ShortBlip,
    Family::BlipAtTimeout,
    Family::LongBlip,
    Family::Lost,
    Family::DownUpDown,
    Family::DownUpDownHealed,
    Family::ScaleDownOfSilentNode,
    Family::ScaleDownOfParkedNode,
    Family::HostlessLost,
    Family::GpusDown,
    Family::GpusBlip,
];

const POLICIES: [ReschedulePolicy; 3] = [
    ReschedulePolicy::None,
    ReschedulePolicy::Lightweight,
    ReschedulePolicy::Full,
];

fn slo() -> SloSpec {
    SloSpec::new(
        SimDuration::from_secs(5),
        SimDuration::from_millis(300),
        SimDuration::from_secs(60),
    )
}

/// The paper's cloud, every node in the fleet, with a plan deployed.
fn paper_runtime() -> ServingRuntime {
    let mut cfg = SchedulerConfig::fast();
    cfg.seed = 9;
    let mut rt = ServingRuntime::new(
        presets::paper_cloud_cluster(),
        ModelSpec::llama_30b(),
        slo(),
        cfg,
    );
    rt.deploy(&spec::coding(2.0)).unwrap();
    rt
}

/// The elastic pool serving on its base and first two spot nodes, with the
/// other four nodes parked outside the fleet. Three GPUs of node 0 have
/// failed and taken its one replica with them: the node stays in the fleet
/// but hosts no replica.
fn elastic_runtime() -> ServingRuntime {
    let mut cluster = presets::elastic_cloud_pool().cluster;
    for n in 4..8 {
        cluster.deactivate_node(NodeId(n)).unwrap();
    }
    let failed = cluster.node(NodeId(0)).gpus[1..].to_vec();
    let mut cfg = SchedulerConfig::fast();
    cfg.seed = 41;
    let mut rt = ServingRuntime::new(cluster, ModelSpec::llama_30b(), slo(), cfg);
    let w = spec::coding(2.0);
    rt.deploy(&w).unwrap();
    rt.handle_failure(&failed, &w, ReschedulePolicy::Lightweight)
        .unwrap();
    rt
}

/// The nodes of a plan's fleet, sorted into the roles the families need.
struct Roles {
    /// Nodes that host a replica while both phases keep a replica off them.
    victims: Vec<NodeId>,
    /// In-fleet nodes that host no replica.
    hostless: Vec<NodeId>,
    /// Nodes outside the fleet.
    parked: Vec<NodeId>,
    /// Each replica's GPUs, for replicas whose phase has another replica.
    replica_gpus: Vec<Vec<GpuId>>,
}

fn roles(cluster: &Cluster, plan: &DeploymentPlan) -> Roles {
    let nodes_of = |gi: usize| -> BTreeSet<NodeId> {
        plan.groups[gi]
            .gpus()
            .map(|g| cluster.gpu(g).node)
            .collect()
    };
    let prefills: Vec<_> = plan.prefill_indices().into_iter().map(nodes_of).collect();
    let decodes: Vec<_> = plan.decode_indices().into_iter().map(nodes_of).collect();
    let mut roles = Roles {
        victims: Vec::new(),
        hostless: Vec::new(),
        parked: Vec::new(),
        replica_gpus: Vec::new(),
    };
    for n in cluster.nodes().iter().map(|n| n.id) {
        let in_fleet = cluster.node(n).gpus.iter().any(|&g| cluster.is_active(g));
        let hosts = prefills.iter().chain(&decodes).any(|s| s.contains(&n));
        if !in_fleet {
            roles.parked.push(n);
        } else if !hosts {
            roles.hostless.push(n);
        } else if prefills.iter().any(|s| !s.contains(&n))
            && decodes.iter().any(|s| !s.contains(&n))
        {
            roles.victims.push(n);
        }
    }
    for phase in [plan.prefill_indices(), plan.decode_indices()] {
        if phase.len() > 1 {
            for gi in phase {
                roles.replica_gpus.push(plan.groups[gi].gpus().collect());
            }
        }
    }
    roles
}

/// Draws from a seeded stream.
struct Draw {
    seed: u64,
    stream: u64,
}

impl Draw {
    fn next(&mut self) -> u64 {
        self.stream += 1;
        derive_seed(self.seed, self.stream)
    }

    /// A fraction of `d` strictly between `lo` and `hi` (in percent).
    fn part(&mut self, d: SimDuration, lo: u64, hi: u64) -> SimDuration {
        let pct = lo + 1 + self.next() % (hi - lo - 1);
        SimDuration::from_micros(d.as_micros() * pct / 100)
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> Option<T> {
        (!xs.is_empty()).then(|| xs[(self.next() % xs.len() as u64) as usize].clone())
    }
}

/// One availability script of `family`, or `None` when the plan has no node
/// in the role the family needs. Also reports whether the script changes
/// the fleet or fails GPUs directly, which trigger a reschedule on their
/// own.
fn script(
    family: Family,
    roles: &Roles,
    timeout: SimDuration,
    draw: &mut Draw,
) -> Option<(Vec<ClusterEvent>, bool)> {
    use EventKind::*;
    let t0 = SimTime::ZERO + SimDuration::from_secs(5 + draw.next() % 15);
    let ev = |at: SimTime, kind: EventKind| ClusterEvent::new(at, kind);
    let events = match family {
        Family::ShortBlip => {
            let n = draw.pick(&roles.victims)?;
            vec![
                ev(t0, NodeDown(n)),
                ev(t0 + draw.part(timeout, 5, 95), NodeUp(n)),
            ]
        }
        Family::BlipAtTimeout => {
            let n = draw.pick(&roles.victims)?;
            vec![ev(t0, NodeDown(n)), ev(t0 + timeout, NodeUp(n))]
        }
        Family::LongBlip => {
            let n = draw.pick(&roles.victims)?;
            let back = timeout + draw.part(timeout, 5, 200);
            vec![ev(t0, NodeDown(n)), ev(t0 + back, NodeUp(n))]
        }
        Family::Lost => vec![ev(t0, NodeDown(draw.pick(&roles.victims)?))],
        Family::DownUpDown | Family::DownUpDownHealed => {
            let n = draw.pick(&roles.victims)?;
            let up = t0 + draw.part(timeout, 5, 45);
            let again = t0 + draw.part(timeout, 55, 95);
            let mut events = vec![
                ev(t0, NodeDown(n)),
                ev(up, NodeUp(n)),
                ev(again, NodeDown(n)),
            ];
            if family == Family::DownUpDownHealed {
                // Back after the first fault's detection time, before the
                // second's.
                let second = again.saturating_since(t0);
                events.push(ev(t0 + timeout + draw.part(second, 5, 95), NodeUp(n)));
            }
            events
        }
        Family::ScaleDownOfSilentNode => {
            let n = draw.pick(&roles.victims)?;
            let reclaim = t0 + draw.part(timeout, 5, 95);
            return Some((vec![ev(t0, NodeDown(n)), ev(reclaim, ScaleDown(n))], true));
        }
        Family::ScaleDownOfParkedNode => vec![ev(t0, ScaleDown(draw.pick(&roles.parked)?))],
        Family::HostlessLost => vec![ev(t0, NodeDown(draw.pick(&roles.hostless)?))],
        Family::GpusDown => {
            let gpus = draw.pick(&roles.replica_gpus)?;
            return Some((vec![ev(t0, GpusDown(gpus))], true));
        }
        Family::GpusBlip => {
            let gpus = draw.pick(&roles.replica_gpus)?;
            let back = t0 + draw.part(timeout, 5, 95);
            return Some((
                vec![ev(t0, GpusDown(gpus.clone())), ev(back, GpusUp(gpus))],
                true,
            ));
        }
    };
    Some((events, false))
}

/// Serves one 30 s segment of coding traffic under `policy` with `events`
/// striking mid-flight. Returns the segment's metrics and whether the
/// runtime rescheduled afterwards.
fn serve(
    mk: fn() -> ServingRuntime,
    events: &[ClusterEvent],
    policy: ReschedulePolicy,
    timeout: SimDuration,
    seed: u64,
) -> (Metrics, bool) {
    let w = spec::coding(2.0);
    let mut rt = mk();
    let before = rt.resched_log.len();
    let reqs = generate(&w, SimDuration::from_secs(30), seed);
    let rep = rt
        .serve_segment_with_faults(&reqs, events, policy, &w, timeout)
        .unwrap();
    (rep.metrics, rt.resched_log.len() > before)
}

/// Runs the sweep over one plan and returns the disagreement classes found,
/// with the number of scripts served per family.
fn sweep(mk: fn() -> ServingRuntime, sweep_seed: u64) -> (BTreeSet<(Family, Check)>, Vec<usize>) {
    let base = mk();
    let roles = roles(base.cluster(), base.plan().unwrap());
    let engine = Simulation::new(
        base.cluster(),
        base.plan().unwrap(),
        SimConfig::new(ModelSpec::llama_30b()),
    )
    .unwrap();
    let timeouts = [
        SimDuration::from_millis(500),
        SimDuration::from_secs(1),
        SimDuration::from_secs(2),
    ];
    let mut found = BTreeSet::new();
    let mut served = vec![0; FAMILIES.len()];
    for (fi, &family) in FAMILIES.iter().enumerate() {
        for (ti, &timeout) in timeouts.iter().enumerate() {
            let mut draw = Draw {
                seed: derive_seed(sweep_seed, (fi * timeouts.len() + ti) as u64),
                stream: 0,
            };
            let Some((events, triggers)) = script(family, &roles, timeout, &mut draw) else {
                continue;
            };
            served[fi] += 1;
            let script = FaultScript::from_cluster_events(
                base.cluster(),
                base.plan().unwrap(),
                &events,
                timeout,
            );
            let detections = rule(&script);
            let engine_detections: Vec<(SimTime, usize)> = engine
                .detections(&script)
                .unwrap()
                .iter()
                .map(|d| (d.at, d.fault))
                .collect();
            if engine_detections != detections {
                found.insert((family, Check::EngineDetections));
            }
            let detected = !detections.is_empty();
            let seed = draw.next() % 1000;
            let mut runs = Vec::new();
            for policy in POLICIES {
                let (metrics, rescheduled) = serve(mk, &events, policy, timeout, seed);
                if !triggers && rescheduled != detected {
                    found.insert((
                        family,
                        if detected {
                            Check::DetectionWithoutReschedule
                        } else {
                            Check::RescheduleWithoutDetection
                        },
                    ));
                }
                runs.push(metrics);
            }
            if !detected && runs[1] != runs[2] {
                found.insert((family, Check::PauseWithoutDetection));
            }
        }
    }
    (found, served)
}

#[test]
fn detection_rule_orders_faults_as_the_queue_pops_them() {
    use ts_sim::fault::TimedFault;
    let at = |s: f64| SimTime::from_secs_f64(s);
    let down = |s, i| TimedFault {
        at: at(s),
        kind: FaultKind::DecodeDown(i),
    };
    let up = |s, i| TimedFault {
        at: at(s),
        kind: FaultKind::DecodeUp(i),
    };
    let delay = SimDuration::from_secs(1);
    // A heal at exactly the detection time pops after the detection.
    let s = FaultScript::new(vec![down(1.0, 0), up(2.0, 0)], delay);
    assert_eq!(rule(&s), vec![(at(2.0), 0)]);
    // A heal before it is seen; a second outage of the same replica is.
    let s = FaultScript::new(vec![down(1.0, 0), up(1.5, 0), down(1.8, 0)], delay);
    assert_eq!(rule(&s), vec![(at(2.0), 0), (at(2.8), 2)]);
    // Other replicas do not count.
    let s = FaultScript::new(vec![down(1.0, 0), up(1.5, 1)], delay);
    assert_eq!(rule(&s), vec![(at(2.0), 0)]);
    // With no delay, a heal at the fault's own time that follows it in the
    // script pops after the detection; one that precedes it does not count.
    let s = FaultScript::new(vec![down(1.0, 0), up(1.0, 0)], SimDuration::ZERO);
    assert_eq!(rule(&s), vec![(at(1.0), 0)]);
}

#[test]
fn paper_cloud_runtime_agrees_with_the_detection_rule() {
    let (found, served) = sweep(paper_runtime, 1);
    // Every node of the paper cloud is in the fleet and hosts a replica.
    for (family, n) in FAMILIES.iter().zip(&served) {
        let expect = match family {
            Family::ScaleDownOfParkedNode | Family::HostlessLost => 0,
            _ => 3,
        };
        assert_eq!(*n, expect, "{family:?}");
    }
    assert_eq!(found, BTreeSet::new());
}

#[test]
fn elastic_pool_runtime_agrees_with_the_detection_rule() {
    let (found, served) = sweep(elastic_runtime, 2);
    for (family, n) in FAMILIES.iter().zip(&served) {
        assert_eq!(*n, 3, "{family:?}");
    }
    assert_eq!(found, BTreeSet::new());
}
