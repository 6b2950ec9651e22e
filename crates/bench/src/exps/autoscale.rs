//! Extension: coordinated prefill/decode autoscaling over a spot-priced
//! elastic fleet vs an oracle-provisioned static fleet.
//!
//! A 24-hour diurnal conversation trace (morning ramp into a midday peak, an
//! early-afternoon flash crowd, a spot reclaim wave mid-ramp) is sliced
//! into hourly segments and served two ways over the same
//! [`elastic_cloud_pool`]:
//!
//! * **autoscale** — [`ts_autoscale::run_elastic`]: the fleet starts as the
//!   two on-demand base nodes; the controller acquires and releases
//!   spot nodes at segment boundaries from observed attainment, queue
//!   depth and occupancy, drains warned nodes ahead of their reclaim, and
//!   hands every fleet edit to the lightweight (no weight reload)
//!   rescheduler. Each segment is billed at the fleet's actual spot/
//!   on-demand composition.
//! * **static** — [`ts_autoscale::run_static`]: the whole 32-GPU pool held
//!   on-demand all day. On-demand capacity is not preempted, so the
//!   reclaim wave does not apply; this is the oracle peak-provisioned
//!   quality ceiling and cost ceiling.
//!
//! The claim measured here: the autoscaler stays within a few points of the
//! oracle's request-weighted SLO attainment at a materially lower dollar
//! total, bit-reproducibly. [`artifact()`] checks it on the full-mode day
//! and renders the day as `BENCH_autoscale.json`.

use crate::artifact::{checked, Rule};
use crate::table::{pct, Table};
use thunderserve_core::SchedulerConfig;
use ts_autoscale::{run_elastic, run_static, AutoscaleConfig, AutoscaleTrajectory, Segment};
use ts_cluster::availability::{ClusterEvent, EventKind};
use ts_cluster::presets::elastic_cloud_pool;
use ts_common::{ModelSpec, NodeId, Request, SimDuration, SimTime, SloSpec};
use ts_telemetry::{ScaleKind, TraceKind};
use ts_workload::generator::{diurnal_phases, generate_phased, with_flash_crowd};
use ts_workload::spec;

/// Both arms of the comparison, as full trajectories.
#[derive(Debug, Clone)]
pub struct AutoscaleReport {
    /// The coordinated autoscaler over base + spot capacity.
    pub elastic: AutoscaleTrajectory,
    /// The oracle static fleet: the whole pool, on-demand, all day.
    pub static_fleet: AutoscaleTrajectory,
}

fn model() -> ModelSpec {
    ModelSpec::llama_30b()
}

fn slo() -> SloSpec {
    SloSpec::new(
        SimDuration::from_secs(5),
        SimDuration::from_millis(300),
        SimDuration::from_secs(60),
    )
}

fn sched() -> SchedulerConfig {
    // More tabu budget than `fast()`: the static arm plans the whole
    // 32-GPU heterogeneous pool, where a 12-step search routinely stalls
    // in a poor initial grouping.
    let mut c = SchedulerConfig::fast();
    c.n_step = 40;
    c.n_nghb = 10;
    c.seed = 47;
    c
}

/// The controller policy under test.
pub fn autoscale_cfg(quick: bool) -> AutoscaleConfig {
    AutoscaleConfig {
        attainment_floor: 0.97,
        attainment_ceiling: 0.98,
        queue_depth_high: 1.0,
        occupancy_low: 0.20,
        // Warnings are announced a segment ahead and reclaims land 900 s
        // (full) / 9 s (quick) into the following segment, so this lead
        // covers them: the boundary drain beats the provider to the node.
        warning_lead_time: SimDuration::from_secs(if quick { 120 } else { 1200 }),
        // Quick mode compresses the day into 90 s segments: a full-replan
        // weight-reload blackout would eat a whole segment there, so fleet
        // edits always take the graft path, and bigger steps compensate for
        // having six boundaries instead of twenty-four.
        max_acquire_per_step: if quick { 4 } else { 2 },
        full_replan_fraction: if quick { 1.0 } else { 0.5 },
    }
}

/// The trace: hourly segments of a diurnal day (trough at midnight, peak at
/// noon), a flash crowd at 13:00, and a staggered spot reclaim wave taking
/// the two cheapest spot nodes at 11:00 and 12:00 — each warned one
/// segment ahead. `--quick` compresses the same shape to six 90 s segments.
pub fn segments(quick: bool) -> Vec<Segment> {
    let (n, window, base_rate, flash_seg, flash_mult) = if quick {
        (6usize, SimDuration::from_secs(90), 2.0, 4usize, 1.5)
    } else {
        (24usize, SimDuration::from_secs(3600), 1.2, 13usize, 2.0)
    };
    let horizon = window.mul_f64(n as f64);
    let phases = with_flash_crowd(
        &diurnal_phases(
            &spec::conversation(base_rate),
            horizon,
            horizon,
            0.65,
            window,
        ),
        window.mul_f64(flash_seg as f64),
        window,
        flash_mult,
    );
    assert_eq!(phases.len(), n, "flash crowd must stay segment-aligned");

    // Reclaim wave, segment-relative times: node 6 warned in segment W,
    // reclaimed early in W+1; node 7 one segment later.
    let wave_seg = if quick { 2usize } else { 10usize };
    let warn_at = SimTime::ZERO + window.mul_f64(if quick { 0.1 } else { 0.5 });
    let kill_at = SimTime::ZERO + window.mul_f64(if quick { 0.1 } else { 0.25 });
    let events = |i: usize| -> Vec<ClusterEvent> {
        let mut evs = Vec::new();
        if i == wave_seg {
            evs.push(ClusterEvent::new(
                warn_at,
                EventKind::PreemptionWarning(NodeId(6)),
            ));
        }
        if i == wave_seg + 1 {
            evs.push(ClusterEvent::new(kill_at, EventKind::ScaleDown(NodeId(6))));
            if !quick {
                evs.push(ClusterEvent::new(
                    warn_at,
                    EventKind::PreemptionWarning(NodeId(7)),
                ));
            }
        }
        if !quick && i == wave_seg + 2 {
            evs.push(ClusterEvent::new(kill_at, EventKind::ScaleDown(NodeId(7))));
        }
        evs
    };

    let all = generate_phased(&phases, 1009);
    let mut out = Vec::with_capacity(n);
    let mut start = SimTime::ZERO;
    for (i, ph) in phases.iter().enumerate() {
        let end = start + window;
        let requests: Vec<Request> = all
            .iter()
            .filter(|r| r.arrival >= start && r.arrival < end)
            .map(|r| {
                let mut q = *r;
                q.arrival = SimTime::ZERO + r.arrival.saturating_since(start);
                q
            })
            .collect();
        out.push(Segment {
            requests,
            window,
            workload: ph.spec.clone(),
            events: events(i),
        });
        start = end;
    }
    out
}

/// Runs the autoscaled arm.
pub fn measure_elastic(quick: bool) -> AutoscaleTrajectory {
    run_elastic(
        &elastic_cloud_pool(),
        &model(),
        &slo(),
        &sched(),
        &autoscale_cfg(quick),
        &segments(quick),
    )
    .expect("elastic trajectory must serve")
}

/// Runs the oracle static arm.
pub fn measure_static(quick: bool) -> AutoscaleTrajectory {
    run_static(
        &elastic_cloud_pool(),
        &model(),
        &slo(),
        &sched(),
        &segments(quick),
    )
    .expect("static trajectory must serve")
}

/// Runs both arms.
pub fn measure(quick: bool) -> AutoscaleReport {
    AutoscaleReport {
        elastic: measure_elastic(quick),
        static_fleet: measure_static(quick),
    }
}

/// Count of one action kind in a trajectory's scale log.
pub fn action_count(t: &AutoscaleTrajectory, k: ScaleKind) -> usize {
    t.scale_log
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ScaleAction { kind, .. } if kind == k))
        .count()
}

/// How far (in attainment points) the autoscaler may trail the oracle
/// static fleet on the committed 24-hour trace.
const AUTOSCALE_GAP_BOUND: f64 = 0.05;

/// Minimum cost saving the elastic fleet must deliver over the all-on-demand
/// static fleet, as a fraction of the static cost.
const AUTOSCALE_MIN_SAVING: f64 = 0.2;

/// What `BENCH_autoscale.json` records: both arms of the full day, plus a
/// second elastic run for the reproducibility rule.
#[derive(Debug, Clone)]
struct DayRecord {
    report: AutoscaleReport,
    elastic_rerun: AutoscaleTrajectory,
}

/// The autoscaler's claim: within the gap bound of the oracle at the
/// minimum saving, every request and dollar accounted, bit-reproducibly.
const RULES: &[Rule<DayRecord>] = &[
    Rule {
        name: "the autoscaler saves at least AUTOSCALE_MIN_SAVING of the static bill",
        holds: |d| {
            d.report.elastic.total_cost()
                <= (1.0 - AUTOSCALE_MIN_SAVING) * d.report.static_fleet.total_cost()
        },
    },
    Rule {
        name: "the autoscaler trails the static oracle's attainment by at most AUTOSCALE_GAP_BOUND",
        holds: |d| {
            d.report.static_fleet.mean_attainment() - d.report.elastic.mean_attainment()
                <= AUTOSCALE_GAP_BOUND
        },
    },
    Rule {
        name: "every segment conserves requests",
        holds: |d| {
            [&d.report.static_fleet, &d.report.elastic]
                .iter()
                .flat_map(|a| &a.records)
                .all(|r| r.completed + r.dropped + r.rejected == r.submitted)
        },
    },
    Rule {
        name: "each ledger has one entry per segment, summing exactly to the total",
        holds: |d| {
            [&d.report.static_fleet, &d.report.elastic].iter().all(|a| {
                let entries = &a.ledger.entries;
                entries.len() == a.records.len()
                    && entries
                        .iter()
                        .zip(&a.records)
                        .all(|(e, r)| e.segment == r.segment)
                    && entries.iter().map(|e| e.cost).sum::<f64>() == a.total_cost()
            })
        },
    },
    Rule {
        name: "a second elastic run equals the first",
        holds: |d| d.elastic_rerun == d.report.elastic,
    },
];

fn render_json(d: &DayRecord) -> String {
    let r = &d.report;
    let gap = r.static_fleet.mean_attainment() - r.elastic.mean_attainment();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"coordinated prefill/decode autoscaling over the spot-priced elastic cloud pool (2 on-demand base nodes + 6 spot nodes, 32 GPUs): 24-hour diurnal conversation day with a 13:00 flash crowd and a staggered spot reclaim wave, autoscaler vs oracle static on-demand fleet\",\n");
    json.push_str("  \"note\": \"simulated time (deterministic; the elastic trajectory is asserted bit-reproducible). attainment = request-weighted joint SLO attainment across segments; cost = sum of per-segment fleet burn (base nodes on-demand, spot nodes at spot rates; the static arm prices the whole pool on-demand). Fleet edits go through the lightweight rescheduler: no weight reloads on acquire/release/drain, warned nodes are drained before the provider reclaims them.\",\n");
    json.push_str(&format!(
        "  \"gap_points\": {:.3},\n  \"saving_fraction\": {:.6},\n",
        100.0 * gap,
        1.0 - r.elastic.total_cost() / r.static_fleet.total_cost()
    ));
    json.push_str("  \"arms\": [\n");
    let arms = [("static", &r.static_fleet), ("autoscale", &r.elastic)];
    for (i, (name, a)) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"arm\": \"{}\", \"attainment\": {:.6}, \"completed\": {}, \"total_cost\": {:.4}, \
             \"mean_rate_per_hour\": {:.4}, \"acquires\": {}, \"releases\": {}, \"drains\": {}, \
             \"phase_flips\": {}, \"segments\": [\n",
            name,
            a.mean_attainment(),
            a.completed(),
            a.total_cost(),
            a.mean_rate_per_hour(),
            action_count(a, ScaleKind::Acquire),
            action_count(a, ScaleKind::Release),
            action_count(a, ScaleKind::Drain),
            action_count(a, ScaleKind::PhaseFlip),
        ));
        for (j, s) in a.records.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"segment\": {}, \"submitted\": {}, \"completed\": {}, \"attainment\": {:.6}, \
                 \"fleet_gpus\": {}, \"rate_per_hour\": {:.4}, \"cost\": {:.6}}}{}\n",
                s.segment,
                s.submitted,
                s.completed,
                s.attainment,
                s.fleet_gpus,
                s.rate_per_hour,
                a.ledger.entries[j].cost,
                if j + 1 == a.records.len() { "" } else { "," }
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

/// `BENCH_autoscale.json`: the full 24-hour day, both arms, checked against
/// its rules. The elastic arm runs twice for the reproducibility rule.
///
/// # Errors
/// Returns the names of the rules the day breaks.
pub fn artifact() -> Result<String, String> {
    let day = DayRecord {
        report: measure(false),
        elastic_rerun: measure_elastic(false),
    };
    checked(&day, RULES, render_json)
}

/// Renders the comparison for the `reproduce` registry.
pub fn run(quick: bool) -> String {
    let r = measure(quick);
    let submitted: usize = r.elastic.records.iter().map(|x| x.submitted).sum();
    let mut t = Table::new(vec![
        "arm",
        "attainment",
        "completed",
        "mean $/hr",
        "total $",
        "acq/rel/drain",
    ]);
    for (name, arm) in [("static", &r.static_fleet), ("autoscale", &r.elastic)] {
        t.row(vec![
            name.into(),
            pct(arm.mean_attainment()),
            format!("{}/{}", arm.completed(), submitted),
            format!("${:.2}", arm.mean_rate_per_hour()),
            format!("${:.2}", arm.total_cost()),
            format!(
                "{}/{}/{}",
                action_count(arm, ScaleKind::Acquire),
                action_count(arm, ScaleKind::Release),
                action_count(arm, ScaleKind::Drain)
            ),
        ]);
    }
    format!(
        "Extension: diurnal day (flash crowd + spot reclaim wave) on the elastic cloud pool\n{}\n\
         Autoscaling gives up {:.1} points of SLO attainment and saves {} of the oracle static fleet's bill.\n",
        t.render(),
        100.0 * (r.static_fleet.mean_attainment() - r.elastic.mean_attainment()),
        pct(1.0 - r.elastic.total_cost() / r.static_fleet.total_cost()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::failing;

    #[test]
    fn report_compares_both_arms() {
        let out = run(true);
        assert!(out.contains("autoscale"));
        assert!(out.contains("static"));
        assert!(out.contains("acq/rel/drain"));
    }

    fn trajectory(attainment: f64, rate_per_hour: f64) -> AutoscaleTrajectory {
        let mut ledger = ts_autoscale::CostLedger::new();
        let records = (0..2)
            .map(|segment| {
                let hour = SimDuration::from_secs(3600);
                ledger.charge_at_rate(segment, rate_per_hour, vec![NodeId(0)], 4, hour);
                ts_autoscale::SegmentRecord {
                    segment,
                    submitted: 10,
                    completed: 9,
                    dropped: 1,
                    rejected: 0,
                    attainment,
                    fleet_gpus: 4,
                    prefill_groups: 1,
                    decode_groups: 1,
                    rate_per_hour,
                    blackout: SimDuration::ZERO,
                }
            })
            .collect();
        AutoscaleTrajectory {
            records,
            ledger,
            scale_log: Vec::new(),
        }
    }

    #[test]
    fn day_rules_trip() {
        let elastic = trajectory(0.97, 7.0);
        let ok = DayRecord {
            report: AutoscaleReport {
                elastic: elastic.clone(),
                static_fleet: trajectory(1.0, 10.0),
            },
            elastic_rerun: elastic,
        };
        assert!(failing(&ok, RULES).is_empty());

        let mut dear = ok.clone();
        dear.report.static_fleet = trajectory(1.0, 8.5);
        assert_eq!(
            failing(&dear, RULES),
            ["the autoscaler saves at least AUTOSCALE_MIN_SAVING of the static bill"]
        );

        let mut behind = ok.clone();
        behind.report.static_fleet.records[0].attainment = 1.0 + 2.0 * AUTOSCALE_GAP_BOUND;
        assert_eq!(failing(&behind, RULES), ["the autoscaler trails the static oracle's attainment by at most AUTOSCALE_GAP_BOUND"]);

        let mut leaky = ok.clone();
        leaky.report.static_fleet.records[1].rejected = 1;
        assert_eq!(failing(&leaky, RULES), ["every segment conserves requests"]);

        let mut overbilled = ok.clone();
        let ledger = &mut overbilled.report.static_fleet.ledger;
        ledger.charge_at_rate(2, 10.0, vec![NodeId(0)], 4, SimDuration::from_secs(3600));
        assert_eq!(
            failing(&overbilled, RULES),
            ["each ledger has one entry per segment, summing exactly to the total"]
        );
        let mut misfiled = ok.clone();
        misfiled.report.static_fleet.ledger.entries[1].segment = 0;
        assert_eq!(
            failing(&misfiled, RULES),
            ["each ledger has one entry per segment, summing exactly to the total"]
        );

        let mut drifted = ok;
        drifted.elastic_rerun.records[1].completed = 8;
        drifted.elastic_rerun.records[1].dropped = 2;
        assert_eq!(
            failing(&drifted, RULES),
            ["a second elastic run equals the first"]
        );
    }

    #[test]
    fn trace_is_segment_aligned_in_both_modes() {
        for quick in [true, false] {
            let segs = segments(quick);
            assert_eq!(segs.len(), if quick { 6 } else { 24 });
            let warned = segs
                .iter()
                .flat_map(|s| &s.events)
                .filter(|e| matches!(e.kind, EventKind::PreemptionWarning(_)))
                .count();
            let reclaimed = segs
                .iter()
                .flat_map(|s| &s.events)
                .filter(|e| matches!(e.kind, EventKind::ScaleDown(_)))
                .count();
            assert_eq!(warned, reclaimed, "every reclaim is announced");
            for s in &segs {
                assert!(s
                    .requests
                    .iter()
                    .all(|r| r.arrival < SimTime::ZERO + s.window && r.arrival >= SimTime::ZERO));
            }
        }
    }
}
