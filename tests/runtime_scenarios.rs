//! Integration tests combining the runtime components the way an operator
//! would: the engine's heartbeat-timeout detections drive failure handling,
//! availability scripts replay through mid-flight segments, and replayed
//! traces run through the CLI-visible paths.

use thunderserve::cluster::availability::{ClusterEvent, EventKind};
use thunderserve::prelude::*;
use thunderserve::runtime::service::{ReschedulePolicy, ServingRuntime};
use thunderserve::workload::generator::generate;
use thunderserve::workload::spec;

fn slo() -> SloSpec {
    // The catalog's LLaMA-30B coding preset is the paper's long-form SLO.
    ServedModel::llama_30b_coding(ModelId(0), 1.0).unwrap().slo
}

/// A node goes silent mid-segment → the engine's heartbeat timeout detects
/// it (`Simulation::detections`) → lightweight reschedule off that node →
/// the next segment serves on the survivors with no blackout.
#[test]
fn heartbeat_timeout_drives_failure_handling() {
    let cluster = thunderserve::cluster::presets::paper_cloud_cluster();
    let mut cfg = SchedulerConfig::fast();
    cfg.seed = 41;
    let mut rt = ServingRuntime::new(cluster, ModelSpec::llama_30b(), slo(), cfg);
    let w = spec::coding(2.0);
    rt.deploy(&w).unwrap();

    // The node hosting the last decode replica stops answering 20 s in.
    let plan = rt.plan().unwrap();
    let last_decode = *plan.decode_indices().last().unwrap();
    let gpu = plan.groups[last_decode].gpus().next().unwrap();
    let dead = rt.cluster().gpu(gpu).node;
    let events = [ClusterEvent::new(
        SimTime::from_secs_f64(20.0),
        EventKind::NodeDown(dead),
    )];
    let reqs = generate(&w, SimDuration::from_secs(60), 2);
    let rep = rt
        .serve_segment_with_faults(
            &reqs,
            &events,
            ReschedulePolicy::Lightweight,
            &w,
            SimDuration::from_secs(1),
        )
        .unwrap();
    let m = &rep.metrics;
    assert_eq!(
        m.num_completed() + m.num_dropped() + m.num_rejected(),
        reqs.len()
    );

    // The detection triggered one lightweight reschedule off the dead node.
    let policies: Vec<ReschedulePolicy> = rt.resched_log.iter().map(|(p, _)| *p).collect();
    assert_eq!(policies, vec![ReschedulePolicy::Lightweight]);
    for g in &rt.plan().unwrap().groups {
        for gpu in g.gpus() {
            assert_ne!(rt.cluster().gpu(gpu).node, dead);
        }
    }

    // Serving continues on the survivors: a flip-only reschedule moves no
    // weights, so the next segment pays no blackout.
    let rep = rt
        .serve_segment(&generate(&w, SimDuration::from_secs(60), 1))
        .unwrap();
    assert!(rep.blackout.is_zero());
    assert!(rep.metrics.num_completed() > 0);
}

/// Serializes requests to the workload trace format that
/// [`thunderserve::workload::trace::from_csv`] parses.
fn to_csv(requests: &[Request]) -> String {
    let mut out = String::from("# arrival_s,prompt_tokens,output_tokens\n");
    for r in requests {
        out.push_str(&format!(
            "{:.6},{},{}\n",
            r.arrival.as_secs_f64(),
            r.prompt_len,
            r.output_len
        ));
    }
    out
}

/// Trace round trip through the workload trace format feeds the engine the
/// same requests.
#[test]
fn trace_replay_matches_generated_run() {
    use thunderserve::workload::trace::from_csv;
    let cluster = thunderserve::cluster::presets::network_case_cluster(
        thunderserve::cluster::presets::ETH_40GBPS,
    );
    let model = ModelSpec::llama_13b();
    let mut cfg = SchedulerConfig::fast();
    cfg.seed = 43;
    let w = spec::coding(1.5);
    let plan = Scheduler::new(cfg)
        .schedule(&cluster, &model, &w, &slo())
        .unwrap()
        .plan;
    let reqs = generate(&w, SimDuration::from_secs(45), 11);
    let replayed = from_csv(&to_csv(&reqs)).unwrap();
    let m1 = Simulation::new(&cluster, &plan, SimConfig::new(model.clone()))
        .unwrap()
        .run(&reqs)
        .unwrap();
    let m2 = Simulation::new(&cluster, &plan, SimConfig::new(model))
        .unwrap()
        .run(&replayed)
        .unwrap();
    assert_eq!(m1.num_completed(), m2.num_completed());
    // throughputs agree to the trace format's microsecond precision
    assert!((m1.throughput_tokens() - m2.throughput_tokens()).abs() < 0.5);
}

/// Planning for a blended workload serves a mixed stream at least as well as
/// planning for the wrong single component.
#[test]
fn blended_planning_handles_mixtures() {
    use thunderserve::workload::generator::generate_mixture;
    let cluster = thunderserve::cluster::presets::paper_cloud_cluster();
    let model = ModelSpec::llama_30b();
    let rate = 2.4;
    let coding = spec::coding(rate / 2.0);
    let conv = spec::conversation(rate / 2.0);
    let blended = spec::blend(&[(coding.clone(), 1.0), (conv.clone(), 1.0)]);
    let mix_trace = generate_mixture(&[coding, conv], SimDuration::from_secs(120), 13);

    let run = |workload: &thunderserve::workload::WorkloadSpec, seed: u64| {
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = seed;
        let plan = Scheduler::new(cfg)
            .schedule(&cluster, &model, workload, &slo())
            .unwrap()
            .plan;
        Simulation::new(&cluster, &plan, SimConfig::new(model.clone()))
            .unwrap()
            .run(&mix_trace)
            .unwrap()
            .joint_attainment(&slo())
    };
    let planned_for_blend = run(&blended, 3);
    let planned_for_coding_only = run(&spec::coding(rate), 3);
    assert!(
        planned_for_blend >= planned_for_coding_only - 0.1,
        "blend-planned {planned_for_blend} vs coding-planned {planned_for_coding_only}"
    );
}

/// Replays a sorted availability script — node down, node back up, then a
/// GPU-level failure — through mid-flight serving segments. After every
/// event the runtime's plan must only reference GPUs that are active in its
/// cluster view.
#[test]
fn availability_script_replay_keeps_plan_on_active_gpus() {
    use thunderserve::cluster::availability::sort_script;
    use thunderserve::common::NodeId;

    let cluster = thunderserve::cluster::presets::paper_cloud_cluster();
    let mut cfg = SchedulerConfig::fast();
    cfg.seed = 47;
    let mut rt = ServingRuntime::new(cluster, ModelSpec::llama_30b(), slo(), cfg);
    let w = spec::coding(1.0);
    rt.deploy(&w).unwrap();

    // A script over one absolute timeline, deliberately out of order; each
    // 30s serving segment replays the events that fall inside it.
    let mut script = vec![
        ClusterEvent::new(SimTime::from_secs_f64(40.0), EventKind::NodeUp(NodeId(6))),
        ClusterEvent::new(SimTime::from_secs_f64(15.0), EventKind::NodeDown(NodeId(6))),
        ClusterEvent::new(
            SimTime::from_secs_f64(72.0),
            EventKind::GpusDown(vec![GpuId(0)]),
        ),
    ];
    sort_script(&mut script);
    assert!(script.windows(2).all(|w| w[0].at <= w[1].at));
    let seg_len = SimDuration::from_secs(30);
    let gpus_all_active = |rt: &ServingRuntime| {
        rt.plan()
            .unwrap()
            .groups
            .iter()
            .flat_map(|g| g.gpus().collect::<Vec<_>>())
            .all(|g| rt.cluster().is_active(g))
    };
    for seg in 0..3usize {
        let start = SimTime::ZERO + seg_len * seg as u64;
        let events: Vec<ClusterEvent> = script
            .iter()
            .filter(|e| e.at >= start && e.at < start + seg_len)
            .map(|e| {
                ClusterEvent::new(SimTime::ZERO + e.at.saturating_since(start), e.kind.clone())
            })
            .collect();
        assert_eq!(events.len(), 1, "one event per segment");
        let reqs = generate(&w, seg_len, 50 + seg as u64);
        let rep = rt
            .serve_segment_with_faults(
                &reqs,
                &events,
                ReschedulePolicy::Lightweight,
                &w,
                SimDuration::from_secs(2),
            )
            .unwrap();
        let m = &rep.metrics;
        assert_eq!(
            m.num_completed() + m.num_dropped() + m.num_rejected(),
            reqs.len(),
            "segment {seg}: conservation"
        );
        assert!(
            gpus_all_active(&rt),
            "segment {seg}: plan references an inactive GPU"
        );
    }
    // Net effect: node 6 is back, GPU 0 is out.
    assert!(rt
        .cluster()
        .node(NodeId(6))
        .gpus
        .iter()
        .all(|g| rt.cluster().is_active(*g)));
    assert!(!rt.cluster().is_active(GpuId(0)));
}
