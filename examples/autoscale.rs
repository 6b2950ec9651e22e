//! Coordinated prefill/decode autoscaling over a spot-priced elastic fleet.
//!
//! A diurnal day — overnight trough, morning ramp into a midday peak, a
//! flash crowd, and a spot reclaim wave — is compressed into six 90-second
//! segments and served on the elastic cloud pool two ways:
//!
//! * **autoscale** — the fleet starts as the two on-demand base nodes; at
//!   each segment boundary the controller reads attainment, queue depth and
//!   occupancy, acquires the cheapest spot nodes under pressure, releases
//!   the most expensive held node when cold, and drains warned nodes before
//!   the provider reclaims them. Every fleet edit goes through the
//!   lightweight rescheduler (no weight reload).
//! * **static** — the whole 32-GPU pool held on-demand all day: the oracle
//!   peak-provisioned quality ceiling, and its cost ceiling.
//!
//! ```text
//! cargo run --example autoscale --release
//! ```

use thunderserve::autoscale::{run_elastic, run_static, AutoscaleConfig, Segment};
use thunderserve::cluster::availability::{ClusterEvent, EventKind};
use thunderserve::cluster::presets::elastic_cloud_pool;
use thunderserve::common::{ModelSpec, NodeId, Request, SimDuration, SimTime, SloSpec};
use thunderserve::scheduler::SchedulerConfig;
use thunderserve::telemetry::{ScaleKind, TraceKind};
use thunderserve::workload::generator::{diurnal_phases, generate_phased, with_flash_crowd};
use thunderserve::workload::spec;

/// Six 90-second segments tracing one diurnal period: a flash crowd doubles
/// segment 4, and the cheapest spot node (node 6, 4xA5000) is warned early
/// in segment 2 and reclaimed early in segment 3.
fn segments() -> Vec<Segment> {
    let window = SimDuration::from_secs(90);
    let horizon = window.mul_f64(6.0);
    let phases = with_flash_crowd(
        &diurnal_phases(&spec::conversation(2.0), horizon, horizon, 0.65, window),
        window.mul_f64(4.0),
        window,
        1.5,
    );
    let all = generate_phased(&phases, 1009);
    let mut out = Vec::new();
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
        let mut events = Vec::new();
        if i == 2 {
            events.push(ClusterEvent::new(
                SimTime::ZERO + SimDuration::from_secs(9),
                EventKind::PreemptionWarning(NodeId(6)),
            ));
        }
        if i == 3 {
            events.push(ClusterEvent::new(
                SimTime::ZERO + SimDuration::from_secs(9),
                EventKind::ScaleDown(NodeId(6)),
            ));
        }
        out.push(Segment {
            requests,
            window,
            workload: ph.spec.clone(),
            events,
        });
        start = end;
    }
    out
}

fn main() -> thunderserve::Result<()> {
    let pool = elastic_cloud_pool();
    let model = ModelSpec::llama_30b();
    let slo = SloSpec::new(
        SimDuration::from_secs(5),
        SimDuration::from_millis(300),
        SimDuration::from_secs(60),
    );
    let mut sched = SchedulerConfig::fast();
    sched.n_step = 40;
    sched.n_nghb = 10;
    sched.seed = 47;
    let cfg = AutoscaleConfig {
        attainment_floor: 0.97,
        attainment_ceiling: 0.98,
        queue_depth_high: 1.0,
        occupancy_low: 0.20,
        warning_lead_time: SimDuration::from_secs(120),
        max_acquire_per_step: 4,
        // 90s segments cannot absorb a full-replan weight-reload blackout,
        // so fleet edits always take the graft path.
        full_replan_fraction: 1.0,
    };

    let segs = segments();
    println!(
        "elastic pool: {} base + {} spot nodes, ${:.2}/hr fully on-demand\n",
        pool.base.len(),
        pool.spot.len(),
        pool.static_price_per_hour()
    );

    let elastic = run_elastic(&pool, &model, &slo, &sched, &cfg, &segs)?;
    let static_fleet = run_static(&pool, &model, &slo, &sched, &segs)?;

    for (name, arm) in [("static", &static_fleet), ("autoscale", &elastic)] {
        println!("{name}:");
        for rec in &arm.records {
            println!(
                "  seg {}  att {:.3}  {:>4} reqs  {:>2} gpus ({}p:{}d)  ${:.2}/hr",
                rec.segment,
                rec.attainment,
                rec.submitted,
                rec.fleet_gpus,
                rec.prefill_groups,
                rec.decode_groups,
                rec.rate_per_hour,
            );
        }
        let count = |k: ScaleKind| {
            arm.scale_log
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::ScaleAction { kind, .. } if kind == k))
                .count()
        };
        println!(
            "  attainment {:.3} | total ${:.2} | acquire {} release {} drain {} flip {}\n",
            arm.mean_attainment(),
            arm.total_cost(),
            count(ScaleKind::Acquire),
            count(ScaleKind::Release),
            count(ScaleKind::Drain),
            count(ScaleKind::PhaseFlip),
        );
    }

    println!(
        "Autoscaling gives up {:.1} points of attainment and cuts the bill by \
         {:.0}%: the fleet rides the diurnal curve instead of paying for the \
         peak all day, and the warned spot node is drained before the \
         provider takes it. `reproduce --artifact BENCH_autoscale` runs the \
         full 24-hour version and checks the gap, the saving, ledger \
         consistency and bit-reproducibility.",
        100.0 * (static_fleet.mean_attainment() - elastic.mean_attainment()),
        100.0 * (1.0 - elastic.total_cost() / static_fleet.total_cost()),
    );
    Ok(())
}
