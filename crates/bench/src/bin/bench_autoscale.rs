//! Records the elastic-autoscaling numbers to `BENCH_autoscale.json`.
//!
//! A 24-hour diurnal conversation day (morning ramp, 13:00 flash crowd, staggered
//! spot reclaim wave at 11:00/12:00) is served on the elastic cloud pool two
//! ways: the coordinated prefill/decode autoscaler over base + spot
//! capacity, and the oracle static fleet holding the whole pool on-demand.
//! Everything is simulated time, bit-reproducible.
//!
//! The properties this subsystem exists for are checked before the JSON is
//! written; they decide whether a deliberate re-record is acceptable:
//!
//! * the autoscaler stays within 5 points of the oracle's request-weighted
//!   SLO attainment,
//! * at a total bill at most 80% of the static fleet's,
//! * the cost ledger is internally consistent (per-segment entries sum to
//!   the trajectory total, exactly),
//! * every segment conserves requests (completed + dropped + rejected =
//!   submitted), and
//! * the elastic trajectory is bit-reproducible: a second run compares
//!   equal, record for record, dollar for dollar.
//!
//! CI runs this (about a second) and `cmp`s the output with the committed
//! artifact, so any change to the autoscale trajectory fails the build.
//!
//! Usage: `cargo run --release -p ts-bench --bin bench_autoscale [out.json]`

use ts_bench::exps::autoscale;
use ts_telemetry::ScaleKind;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_autoscale.json".to_string());

    let r = autoscale::measure(false);
    for (name, arm) in [("static", &r.static_fleet), ("autoscale", &r.elastic)] {
        println!(
            "{:>9}  attainment {:.3}  completed {:>6}  mean ${:>5.2}/hr  total ${:>7.2}  \
             acquire {} release {} drain {} flip {}",
            name,
            arm.mean_attainment(),
            arm.completed(),
            arm.mean_rate_per_hour(),
            arm.total_cost(),
            autoscale::action_count(arm, ScaleKind::Acquire),
            autoscale::action_count(arm, ScaleKind::Release),
            autoscale::action_count(arm, ScaleKind::Drain),
            autoscale::action_count(arm, ScaleKind::PhaseFlip),
        );
        for rec in &arm.records {
            println!(
                "{:>9}    seg {:>2}  att {:.3}  {:>5} reqs  {:>2} gpus ({}p:{}d)  ${:>5.2}/hr  blackout {:.1}s",
                name,
                rec.segment,
                rec.attainment,
                rec.submitted,
                rec.fleet_gpus,
                rec.prefill_groups,
                rec.decode_groups,
                rec.rate_per_hour,
                rec.blackout.as_secs_f64()
            );
            assert_eq!(
                rec.completed + rec.dropped + rec.rejected,
                rec.submitted,
                "{name}: segment {} must conserve requests",
                rec.segment
            );
        }
        let sum: f64 = arm.ledger.entries.iter().map(|e| e.cost).sum();
        assert_eq!(
            sum,
            arm.total_cost(),
            "{name}: ledger entries must sum to the total"
        );
        assert_eq!(arm.ledger.entries.len(), arm.records.len());
    }

    let gap = r.static_fleet.mean_attainment() - r.elastic.mean_attainment();
    let again = autoscale::measure_elastic(false);
    assert_eq!(
        r.elastic, again,
        "elastic trajectory must be bit-reproducible at a fixed seed"
    );
    println!(
        "gap {:.3} points, saving {:.1}%, trajectory bit-reproducible",
        100.0 * gap,
        100.0 * (1.0 - r.elastic.total_cost() / r.static_fleet.total_cost())
    );

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
            autoscale::action_count(a, ScaleKind::Acquire),
            autoscale::action_count(a, ScaleKind::Release),
            autoscale::action_count(a, ScaleKind::Drain),
            autoscale::action_count(a, ScaleKind::PhaseFlip),
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

    // The headline claims — ≥20% cost saving, attainment within the gap
    // bound of the oracle static fleet — live in the shared gate, which
    // also checks the committed artifact.
    match ts_bench::gate::check("BENCH_autoscale", &json, true) {
        Ok(rep) => println!("gate: {} checks held", rep.checks),
        Err(e) => {
            eprintln!("gate: {e}");
            std::process::exit(1);
        }
    }
    std::fs::write(&out, json).expect("write benchmark output");
    println!("wrote {out}");
}
