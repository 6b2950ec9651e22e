//! Tests of the colocated topology, built with
//! [`crate::Simulation::colocated`].

use crate::config::SimConfig;
use crate::Simulation;
use ts_common::GroupSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_common::{GpuId, ModelSpec, ParallelConfig, Phase, SimDuration, SloKind, StageSpec};
    use ts_workload::{generator::generate, spec};

    fn group(gpus: &[u32], tp: usize, pp: usize, layers: usize) -> GroupSpec {
        let per = layers / pp;
        let stages = (0..pp)
            .map(|s| StageSpec {
                gpus: gpus[s * tp..(s + 1) * tp]
                    .iter()
                    .map(|&g| GpuId(g))
                    .collect(),
                layers: if s + 1 == pp {
                    layers - per * (pp - 1)
                } else {
                    per
                },
            })
            .collect();
        GroupSpec::new(Phase::Prefill, ParallelConfig::new(tp, pp).unwrap(), stages).unwrap()
    }

    #[test]
    fn completes_all_requests() {
        let cluster = presets::paper_inhouse_cluster();
        let model = ModelSpec::llama_30b();
        let groups = vec![
            group(&[0, 1], 2, 1, model.num_layers),
            group(&[2, 3], 2, 1, model.num_layers),
            group(&[4, 5], 2, 1, model.num_layers),
            group(&[6, 7], 2, 1, model.num_layers),
        ];
        let mut sim = Simulation::colocated(&cluster, &groups, SimConfig::new(model)).unwrap();
        let reqs = generate(&spec::coding(1.0), SimDuration::from_secs(60), 1);
        let m = sim.run(&reqs).unwrap();
        assert_eq!(m.num_completed(), reqs.len());
    }

    #[test]
    fn prefill_interferes_with_decode() {
        // With colocation, adding prefill-heavy load must inflate TPOT: the
        // interference phase splitting removes.
        let cluster = presets::paper_inhouse_cluster();
        let model = ModelSpec::llama_30b();
        let groups = vec![group(&[0, 1], 2, 1, model.num_layers)];
        let cfg = SimConfig::new(model);
        // Light load: few long-decode requests.
        let light = generate(&spec::fixed(256, 64, 0.05), SimDuration::from_secs(120), 2);
        let m_light = Simulation::colocated(&cluster, &groups, cfg.clone())
            .unwrap()
            .run(&light)
            .unwrap();
        // Same decode load + heavy prefill traffic.
        let mut mixed = light.clone();
        let noise = generate(&spec::fixed(3500, 2, 1.2), SimDuration::from_secs(120), 3);
        let base = mixed.len() as u64;
        mixed.extend(noise.into_iter().map(|r| ts_common::Request {
            id: ts_common::RequestId(base + r.id.0),
            ..r
        }));
        mixed.sort_by_key(|r| r.arrival);
        let m_mixed = Simulation::colocated(&cluster, &groups, cfg)
            .unwrap()
            .run(&mixed)
            .unwrap();
        let tpot_light = m_light.mean_latency(SloKind::Tpot).unwrap();
        // mean TPOT over only the long-decode requests in the mixed run
        let tpots: Vec<_> = m_mixed
            .records()
            .iter()
            .filter(|r| r.request.output_len == 64)
            .map(|r| r.tpot())
            .collect();
        let tpot_mixed = tpots.iter().copied().sum::<ts_common::SimDuration>() / tpots.len() as u64;
        assert!(
            tpot_mixed > tpot_light,
            "interference should inflate TPOT: {tpot_mixed} vs {tpot_light}"
        );
    }

    #[test]
    fn deterministic() {
        let cluster = presets::paper_inhouse_cluster();
        let model = ModelSpec::llama_30b();
        let groups = vec![group(&[0, 1, 2, 3], 2, 2, model.num_layers)];
        let cfg = SimConfig::new(model);
        let reqs = generate(&spec::conversation(0.5), SimDuration::from_secs(40), 4);
        let a = Simulation::colocated(&cluster, &groups, cfg.clone())
            .unwrap()
            .run(&reqs)
            .unwrap();
        let b = Simulation::colocated(&cluster, &groups, cfg)
            .unwrap()
            .run(&reqs)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_groups_rejected() {
        let cluster = presets::paper_inhouse_cluster();
        let model = ModelSpec::llama_30b();
        assert!(Simulation::colocated(&cluster, &[], SimConfig::new(model)).is_err());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultScript, TimedFault};
    use ts_cluster::presets;
    use ts_common::{GpuId, ModelSpec, Phase, SimDuration, SimTime};
    use ts_workload::{generator::generate, spec};

    fn two_replicas(model: &ModelSpec) -> (ts_cluster::Cluster, Vec<GroupSpec>) {
        let cluster = presets::paper_inhouse_cluster();
        let group = |ids: [u32; 2]| {
            GroupSpec::single_stage(
                Phase::Prefill,
                ids.iter().map(|&i| GpuId(i)).collect(),
                model.num_layers,
            )
            .unwrap()
        };
        (cluster, vec![group([0, 1]), group([2, 3])])
    }

    fn fault(at_s: f64, kind: FaultKind) -> TimedFault {
        TimedFault {
            at: SimTime::from_secs_f64(at_s),
            kind,
        }
    }

    #[test]
    fn empty_script_matches_plain_run() {
        let model = ModelSpec::llama_30b();
        let (cluster, groups) = two_replicas(&model);
        let cfg = SimConfig::new(model);
        let reqs = generate(&spec::coding(0.8), SimDuration::from_secs(40), 31);
        let plain = Simulation::colocated(&cluster, &groups, cfg.clone())
            .unwrap()
            .run(&reqs)
            .unwrap();
        let scripted = Simulation::colocated(&cluster, &groups, cfg)
            .unwrap()
            .run_with_faults(&reqs, &FaultScript::none())
            .unwrap();
        assert_eq!(plain, scripted);
    }

    #[test]
    fn replica_death_mid_run_recovers_on_survivor() {
        // The colocated analogue of the phase-split failover test: one of
        // two vLLM-style replicas dies mid-decode and the survivor absorbs
        // its re-prefilled sequences, with the same RecoveryCounters
        // semantics as the disaggregated engine.
        let model = ModelSpec::llama_30b();
        let (cluster, groups) = two_replicas(&model);
        let cfg = SimConfig::new(model);
        let reqs = generate(&spec::fixed(512, 192, 1.5), SimDuration::from_secs(60), 32);
        let script = FaultScript::new(
            vec![fault(20.0, FaultKind::DecodeDown(0))],
            SimDuration::from_millis(500),
        );
        let run = || {
            Simulation::colocated(&cluster, &groups, cfg.clone())
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap()
        };
        let m = run();
        assert!(
            m.recovery().reprefilled_tokens > 0,
            "expected lost KV to be re-prefilled: {:?}",
            m.recovery()
        );
        assert_eq!(
            m.num_completed() + m.num_dropped() + m.num_rejected(),
            reqs.len()
        );
        assert_eq!(
            m.num_completed(),
            reqs.len(),
            "survivor should absorb all work"
        );
        assert!(m.recovery().max_time_to_recover().is_some());
        // Every post-fault completion ran on the survivor.
        for r in m.records() {
            if r.finished_at > SimTime::from_secs_f64(21.0) {
                assert_eq!(r.decode_replica, 1, "dead replica served a request");
            }
        }
        assert_eq!(m, run());
    }

    #[test]
    fn recovery_beats_no_recovery() {
        let model = ModelSpec::llama_30b();
        let (cluster, groups) = two_replicas(&model);
        let cfg = SimConfig::new(model);
        let reqs = generate(&spec::fixed(512, 192, 1.5), SimDuration::from_secs(60), 33);
        let script = FaultScript::new(
            vec![fault(20.0, FaultKind::PrefillDown(0))],
            SimDuration::from_millis(500),
        );
        let with = Simulation::colocated(&cluster, &groups, cfg.clone())
            .unwrap()
            .run_with_faults(&reqs, &script)
            .unwrap();
        let without = Simulation::colocated(&cluster, &groups, cfg)
            .unwrap()
            .run_with_faults(&reqs, &script.clone().without_recovery())
            .unwrap();
        assert!(
            without.num_dropped() > 0,
            "no-recovery should lose requests"
        );
        assert!(with.num_completed() > without.num_completed());
        assert_eq!(
            without.num_completed() + without.num_dropped() + without.num_rejected(),
            reqs.len()
        );
    }

    #[test]
    fn blip_restores_service() {
        let model = ModelSpec::llama_30b();
        let (cluster, groups) = two_replicas(&model);
        let cfg = SimConfig::new(model);
        let reqs = generate(&spec::fixed(512, 96, 1.5), SimDuration::from_secs(60), 34);
        let script = FaultScript::new(
            vec![
                fault(15.0, FaultKind::DecodeDown(0)),
                fault(25.0, FaultKind::DecodeUp(0)),
            ],
            SimDuration::from_secs_f64(2.0),
        );
        let m = Simulation::colocated(&cluster, &groups, cfg)
            .unwrap()
            .run_with_faults(&reqs, &script)
            .unwrap();
        assert_eq!(m.num_completed(), reqs.len(), "{:?}", m.recovery());
        assert!(m.recovery().any());
    }

    #[test]
    fn either_phase_heals_the_replica_before_detection() {
        // A colocated replica is both phases: a `DecodeUp` heals the
        // replica a `PrefillDown` took down, so that loss is never detected.
        let model = ModelSpec::llama_30b();
        let (cluster, groups) = two_replicas(&model);
        let script = FaultScript::new(
            vec![
                fault(1.0, FaultKind::PrefillDown(0)),
                fault(1.5, FaultKind::DecodeUp(0)),
                fault(3.0, FaultKind::DecodeDown(1)),
            ],
            SimDuration::from_secs(1),
        );
        let sim = Simulation::colocated(&cluster, &groups, SimConfig::new(model)).unwrap();
        let detections = sim.detections(&script).unwrap();
        assert_eq!(detections.iter().map(|d| d.fault).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn link_faults_are_rejected() {
        // Colocated replicas have no inter-replica KV fabric to fault.
        let model = ModelSpec::llama_30b();
        let (cluster, groups) = two_replicas(&model);
        let script = FaultScript::new(
            vec![fault(
                1.0,
                FaultKind::LinkDown {
                    prefill: 0,
                    decode: 1,
                },
            )],
            SimDuration::ZERO,
        );
        let err = Simulation::colocated(&cluster, &groups, SimConfig::new(model))
            .unwrap()
            .run_with_faults(&[], &script);
        assert!(err.is_err());
    }

    #[test]
    fn out_of_range_fault_is_rejected() {
        let model = ModelSpec::llama_30b();
        let (cluster, groups) = two_replicas(&model);
        let script = FaultScript::new(
            vec![fault(1.0, FaultKind::DecodeDown(7))],
            SimDuration::ZERO,
        );
        let err = Simulation::colocated(&cluster, &groups, SimConfig::new(model))
            .unwrap()
            .run_with_faults(&[], &script);
        assert!(err.is_err());
    }
}
