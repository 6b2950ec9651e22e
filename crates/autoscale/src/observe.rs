//! Distilling a served segment into the controller's inputs.

use ts_common::{NodeId, SimTime, SloSpec};
use ts_sim::metrics::Metrics;
use ts_telemetry::{PressureTally, Role};

/// What the control loop sees after one serving segment: a handful of
/// scalars derived from the segment's [`Metrics`] and [`PressureTally`],
/// plus the spot preemption warnings currently outstanding.
///
/// The runtime serves the phase-split engine, where only prefill replicas
/// sample queue depth and only decode replicas sample batch occupancy: the
/// queue signal is the prefill pool's and the duty signal the decode
/// pool's.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentObservation {
    /// Joint SLO attainment of the segment.
    pub attainment: f64,
    /// Time-weighted mean queue depth per prefill replica.
    pub prefill_queue: f64,
    /// Mean batch-occupancy *duty* over decode replicas: time-weighted
    /// mean over peak, averaged across them. 1.0 means every replica ran
    /// at its own segment peak the whole time; near 0 means the pool idled.
    pub decode_duty: f64,
    /// Nodes with an announced spot reclaim the controller has not yet
    /// drained, paired with the announced reclaim time.
    pub warned: Vec<(NodeId, SimTime)>,
}

/// Builds the controller's observation of one served segment.
///
/// `pressure` is the segment's per-replica tally; a pool with no replica
/// in it reads 0. `warned` carries the preemption warnings
/// outstanding at the segment boundary (node, announced reclaim time); the
/// caller tracks them across segments because a warning observed in
/// segment *i* is acted on at the *i*+1 boundary.
pub fn observe_segment(
    metrics: &Metrics,
    pressure: &PressureTally,
    slo: &SloSpec,
    warned: Vec<(NodeId, SimTime)>,
) -> SegmentObservation {
    let end = SimTime::ZERO + metrics.horizon();
    SegmentObservation {
        attainment: metrics.joint_attainment(slo),
        prefill_queue: pressure.role_mean(Role::Prefill, |p| p.queue_depth.time_weighted_mean(end)),
        decode_duty: pressure.role_mean(Role::Decode, |p| p.batch_occupancy.duty(end)),
        warned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_common::{
        DeploymentPlan, GpuId, GroupSpec, ModelSpec, Phase, RoutingMatrix, SimDuration,
    };
    use ts_sim::{SimConfig, Simulation};
    use ts_telemetry::TraceKind;
    use ts_workload::{generator::generate, spec};

    fn slo() -> SloSpec {
        SloSpec::new(
            SimDuration::from_secs(5),
            SimDuration::from_millis(300),
            SimDuration::from_secs(60),
        )
    }

    #[test]
    fn duty_normalizes_by_peak() {
        // Decode 0 sits at 8 for half the window, then at 0: mean 4, peak
        // 8, duty 0.5.
        let mut t = PressureTally::new();
        let occupancy = |active| TraceKind::BatchOccupancy {
            role: Role::Decode,
            replica: 0,
            active,
        };
        t.observe(SimTime::ZERO, &occupancy(8));
        t.observe(SimTime::from_micros(500_000), &occupancy(0));
        let metrics = Metrics::new(Vec::new(), 0, SimDuration::from_secs(1));
        let obs = observe_segment(&metrics, &t, &slo(), Vec::new());
        assert_eq!(obs.decode_duty, 0.5);
        assert_eq!(obs.prefill_queue, 0.0);
    }

    #[test]
    fn observation_without_trace_uses_attainment_only() {
        let metrics = Metrics::new(Vec::new(), 0, SimDuration::from_secs(1));
        let obs = observe_segment(
            &metrics,
            &PressureTally::new(),
            &slo(),
            vec![(NodeId(3), SimTime::ZERO)],
        );
        assert_eq!(obs.prefill_queue, 0.0);
        assert_eq!(obs.decode_duty, 0.0);
        assert_eq!(obs.warned, vec![(NodeId(3), SimTime::ZERO)]);
    }

    /// The phase-split engine samples queue depth on prefill replicas and
    /// batch occupancy on decode replicas only, so a decode queue or a
    /// prefill duty would be 0 however loaded the run: the observation
    /// reads only the other two.
    #[test]
    fn split_engine_measures_prefill_queue_and_decode_duty_only() {
        let model = ModelSpec::llama_13b();
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let group = |phase, ids: [u32; 2]| {
            GroupSpec::single_stage(
                phase,
                ids.iter().map(|&i| GpuId(i)).collect(),
                model.num_layers,
            )
            .unwrap()
        };
        let plan = DeploymentPlan::new(
            vec![
                group(Phase::Prefill, [0, 1]),
                group(Phase::Prefill, [2, 3]),
                group(Phase::Decode, [4, 5]),
                group(Phase::Decode, [6, 7]),
            ],
            RoutingMatrix::uniform(2, 2),
        )
        .unwrap();
        let cfg = SimConfig::new(model).with_pressure(true);
        let reqs = generate(&spec::coding(4.0), SimDuration::from_secs(30), 5);
        let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
        let metrics = sim.run(&reqs).unwrap();
        let tally = sim.take_pressure().expect("the tally was on");
        assert_eq!(tally.replicas().len(), 4, "every replica is registered");
        let obs = observe_segment(&metrics, &tally, &slo(), Vec::new());
        assert!(obs.prefill_queue > 0.0, "{obs:?}");
        assert!(obs.decode_duty > 0.0, "{obs:?}");
        let end = SimTime::ZERO + metrics.horizon();
        let decode_queue = tally.role_mean(Role::Decode, |p| p.queue_depth.time_weighted_mean(end));
        assert_eq!(decode_queue, 0.0);
        assert_eq!(
            tally.role_mean(Role::Prefill, |p| p.batch_occupancy.duty(end)),
            0.0
        );
    }
}
