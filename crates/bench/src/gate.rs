//! Qualitative checks over the `BENCH_*.json` artifacts.
//!
//! Every bench binary runs [`check`] on the JSON it just wrote, and the
//! `committed_artifacts` test runs it over every committed artifact. The
//! checks are the rule for a deliberate re-record: a fresh artifact that
//! still shows the property its benchmark exists for may replace the
//! committed one.
//!
//! They are not how CI pins behaviour. The simulated-time artifacts
//! (`BENCH_net`, `BENCH_fault`, `BENCH_mm`, `BENCH_autoscale`) are
//! deterministic, so CI regenerates each in full mode and `cmp`s it with
//! the committed file. Wall-clock figures (events/sec, evals/sec, recorder
//! overhead) move with the machine, so they are guarded here by *floors*,
//! strict for the committed full-mode runs and lax for quick runs.

/// Trace-recorder overhead budget on the committed (full-mode) event-loop
/// arm at 100k requests and up: wall-clock with the recorder attached,
/// finalization included, may exceed the plain run by at most this
/// fraction. Three full runs on a 2-vCPU host measured 0.67, 0.90 and
/// 1.07; the budget leaves room for a noisier host.
pub const TRACE_OVERHEAD_BUDGET: f64 = 1.5;

/// Lax overhead budget applied to quick-mode runs on untrusted machines
/// (CI runners) and to the small smoke arms, where runs last tens of
/// milliseconds and timer noise dominates the ratio.
pub const TRACE_OVERHEAD_BUDGET_QUICK: f64 = 3.0;

/// Arm size (requests) at which the strict overhead budget applies: below
/// this, runs are too short for a trustworthy wall-clock ratio.
pub const TRACE_STRICT_ARM_REQUESTS: f64 = 100_000.0;

/// How far (in attainment points) the autoscaler may trail the oracle
/// static fleet on the committed 24-hour trace.
pub const AUTOSCALE_GAP_BOUND: f64 = 0.05;

/// Minimum cost saving the elastic fleet must deliver over the all-on-demand
/// static fleet, as a fraction of the static cost.
pub const AUTOSCALE_MIN_SAVING: f64 = 0.2;

/// The workspace JSON parser, re-exported under its historical path.
pub use ts_common::json;

use json::Value;

/// Outcome of a structural check.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Artifact stem, e.g. `BENCH_sim`.
    pub file: String,
    /// Structural invariants verified.
    pub checks: usize,
}

/// A tiny helper collecting named invariant checks.
struct Checker {
    file: String,
    checks: usize,
}

impl Checker {
    fn require(&mut self, ok: bool, what: &str) -> Result<(), String> {
        self.checks += 1;
        if ok {
            Ok(())
        } else {
            Err(format!("{}: {}", self.file, what))
        }
    }
}

fn arms<'a>(root: &'a Value, c: &mut Checker) -> Result<&'a [Value], String> {
    let arms = root
        .get("arms")
        .and_then(Value::as_array)
        .unwrap_or_default();
    c.require(!arms.is_empty(), "no arms recorded")?;
    Ok(arms)
}

fn finite_positive(v: Option<f64>) -> bool {
    v.is_some_and(|x| x.is_finite() && x > 0.0)
}

fn fraction(v: Option<f64>) -> bool {
    v.is_some_and(|x| (0.0..=1.0).contains(&x))
}

/// Structurally validates one artifact and enforces its committed floors.
///
/// `strict` applies the full-mode floors (committed artifacts are produced
/// by full runs); quick CI reruns on weaker machines pass `strict = false`
/// to get the lax wall-clock floors while keeping every deterministic
/// invariant.
///
/// # Errors
/// Returns `file: problem` on the first violated invariant or parse error.
pub fn check(stem: &str, text: &str, strict: bool) -> Result<GateReport, String> {
    let root = json::parse(text).map_err(|e| format!("{stem}: {e}"))?;
    let mut c = Checker {
        file: stem.to_string(),
        checks: 0,
    };
    c.require(root.as_object().is_some(), "top level must be an object")?;
    match stem {
        "BENCH_sim" => check_sim(&root, &mut c, strict)?,
        "BENCH_scheduler" => check_scheduler(&root, &mut c)?,
        "BENCH_net" => check_net(&root, &mut c)?,
        "BENCH_fault" => check_fault(&root, &mut c)?,
        "BENCH_mm" => check_mm(&root, &mut c)?,
        "BENCH_autoscale" => check_autoscale(&root, &mut c)?,
        "BENCH_obs" => check_obs(&root, &mut c, strict)?,
        _ => {}
    }
    Ok(GateReport {
        file: stem.to_string(),
        checks: c.checks,
    })
}

fn check_sim(root: &Value, c: &mut Checker, strict: bool) -> Result<(), String> {
    for arm in arms(root, c)? {
        let label = format!(
            "{}x{}",
            arm.num("requests").unwrap_or(0.0),
            arm.num("replicas").unwrap_or(0.0)
        );
        c.require(
            finite_positive(arm.num("wall_clock_s")),
            &format!("{label}: wall_clock_s must be positive"),
        )?;
        c.require(
            finite_positive(arm.num("events_per_sec")),
            &format!("{label}: events_per_sec must be positive"),
        )?;
        if let Some(speedup) = arm.num("speedup_events_per_sec") {
            // The floor that used to be an ad-hoc assert in bench_sim:
            // parity with the pre-refactor loop always, 5x on the 100k arm
            // for committed (full-mode) artifacts.
            c.require(
                speedup >= 1.0,
                &format!("{label}: {speedup:.2}x below the pre-refactor parity floor"),
            )?;
            if strict && arm.num("requests") == Some(100_000.0) {
                c.require(
                    speedup >= 5.0,
                    &format!("{label}: {speedup:.2}x below the committed 5x floor"),
                )?;
            }
        }
    }
    Ok(())
}

fn check_scheduler(root: &Value, c: &mut Checker) -> Result<(), String> {
    let arms = arms(root, c)?;
    for arm in arms {
        c.require(
            finite_positive(arm.num("median_s")),
            "median_s must be positive",
        )?;
        c.require(
            finite_positive(arm.num("evals_per_s")),
            "evals_per_s must be positive",
        )?;
    }
    // The search is bit-identical across thread counts: every arm on the
    // same GPU count must report the same evaluation count and score.
    for w in arms.windows(2) {
        if w[0].num("gpus") == w[1].num("gpus") {
            c.require(
                w[0].num("evaluations") == w[1].num("evaluations")
                    && w[0].num("score") == w[1].num("score"),
                "search must be bit-identical across thread counts",
            )?;
        }
    }
    Ok(())
}

fn check_net(root: &Value, c: &mut Checker) -> Result<(), String> {
    let arms = arms(root, c)?;
    for arm in arms {
        c.require(
            finite_positive(arm.num("mean_transfer_s")),
            "mean_transfer_s must be positive",
        )?;
        c.require(
            arm.num("max_transfer_s") >= arm.num("mean_transfer_s"),
            "max transfer below mean",
        )?;
    }
    // Under max-min sharing, mean latency must grow with flow count (same
    // precision), and the fp16-vs-int4 gap must widen with contention —
    // every extra wire byte is paid at a shared rate.
    for a in arms {
        for b in arms {
            let same_precision = a.get("precision") == b.get("precision");
            if same_precision && a.num("flows") < b.num("flows") {
                c.require(
                    a.num("mean_transfer_s") < b.num("mean_transfer_s"),
                    "mean transfer latency must grow as contention rises",
                )?;
            }
        }
    }
    let mean_at = |flows: f64, precision: &str| {
        arms.iter()
            .find(|a| {
                a.num("flows") == Some(flows)
                    && a.get("precision").and_then(Value::as_str) == Some(precision)
            })
            .and_then(|a| a.num("mean_transfer_s"))
    };
    let flow_counts: Vec<f64> = arms.iter().filter_map(|a| a.num("flows")).collect();
    let (lo, hi) = flow_counts
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &f| {
            (lo.min(f), hi.max(f))
        });
    let gap = |flows: f64| match (mean_at(flows, "fp16"), mean_at(flows, "int4")) {
        (Some(fp16), Some(int4)) => Some(fp16 - int4),
        _ => None,
    };
    if let (Some(widest), Some(narrowest)) = (gap(hi), gap(lo)) {
        if hi > lo {
            c.require(
                widest > narrowest,
                "the fp16-vs-int4 gap must widen under contention",
            )?;
        }
    }
    check_net_overload(root, c)
}

/// The `overload` section of `BENCH_net`: every arm conserves requests and
/// records finite figures, and serving past the plan's rate attains no
/// more than the control at it.
fn check_net_overload(root: &Value, c: &mut Checker) -> Result<(), String> {
    let overload = root.get("overload");
    let plan_rate = overload.and_then(|o| o.num("plan_rate_rps"));
    c.require(
        finite_positive(plan_rate),
        "overload: plan_rate_rps must be positive",
    )?;
    let arms = overload
        .and_then(|o| o.get("arms"))
        .and_then(Value::as_array)
        .unwrap_or_default();
    c.require(!arms.is_empty(), "overload: no arms recorded")?;
    for arm in arms {
        let label = format!("overload {} req/s", arm.num("rate_rps").unwrap_or(0.0));
        let count = |key: &str| arm.num(key).unwrap_or(f64::NAN);
        let sent = count("sent");
        c.require(
            sent > 0.0 && count("completed") + count("dropped") + count("rejected") == sent,
            &format!("{label}: completed + dropped + rejected must equal sent"),
        )?;
        c.require(
            finite_positive(arm.num("events")),
            &format!("{label}: events must be positive"),
        )?;
        c.require(
            finite_positive(arm.num("events_per_request")) && finite_positive(arm.num("horizon_s")),
            &format!("{label}: events_per_request and horizon_s must be finite and positive"),
        )?;
        c.require(
            fraction(arm.num("joint_attainment")),
            &format!("{label}: joint_attainment must be a fraction"),
        )?;
        c.require(
            finite_positive(arm.num("fabric_changes"))
                && count("fabric_class_cells") <= count("fabric_flat_cells"),
            &format!("{label}: the fabric must record its work, class cells within flat cells"),
        )?;
    }
    let attainment = |past: bool| {
        arms.iter()
            .filter(|a| {
                a.num("rate_rps")
                    .zip(plan_rate)
                    .is_some_and(|(r, p)| (r > p) == past)
            })
            .filter_map(|a| a.num("joint_attainment"))
            .collect::<Vec<_>>()
    };
    let control = attainment(false).into_iter().fold(f64::INFINITY, f64::min);
    for past in attainment(true) {
        c.require(
            past <= control,
            "overload: serving past the plan's rate must not attain more than the control",
        )?;
    }
    Ok(())
}

fn check_fault(root: &Value, c: &mut Checker) -> Result<(), String> {
    let arms = arms(root, c)?;
    for arm in arms {
        c.require(
            finite_positive(arm.num("p99_ttft_s")) && finite_positive(arm.num("p99_e2e_s")),
            "p99 latencies must be positive",
        )?;
        c.require(
            fraction(arm.num("shed_rate")),
            "shed_rate must be a fraction",
        )?;
    }
    // Mitigation must recover the role-relevant tail at every committed
    // slowdown — hedging rescues prefill TTFT, quarantine rescues decode
    // E2E — and the mechanism must actually have fired.
    for role in ["prefill", "decode"] {
        let (key, counter) = if role == "prefill" {
            ("p99_ttft_s", "hedges")
        } else {
            ("p99_e2e_s", "quarantines")
        };
        let slowdowns: Vec<f64> = arms
            .iter()
            .filter(|a| a.get("role").and_then(Value::as_str) == Some(role))
            .filter_map(|a| a.num("slowdown"))
            .collect();
        for &slowdown in &slowdowns {
            let at = |mitigated: bool| {
                arms.iter().find(|a| {
                    a.get("role").and_then(Value::as_str) == Some(role)
                        && a.num("slowdown") == Some(slowdown)
                        && a.get("mitigated").and_then(Value::as_bool) == Some(mitigated)
                })
            };
            let (Some(off), Some(on)) = (at(false), at(true)) else {
                continue;
            };
            c.require(
                on.num(key) < off.num(key),
                &format!("{role} mitigation must cut {key} at slowdown {slowdown}x"),
            )?;
            c.require(
                on.num(counter).unwrap_or(0.0) >= 1.0,
                &format!("{role} mitigation at slowdown {slowdown}x must record {counter}"),
            )?;
        }
    }
    Ok(())
}

fn check_mm(root: &Value, c: &mut Checker) -> Result<(), String> {
    let arms = arms(root, c)?;
    let weighted = |name: &str| {
        arms.iter()
            .find(|a| a.get("arm").and_then(Value::as_str) == Some(name))
            .and_then(|a| a.num("weighted_attainment"))
    };
    for arm in arms {
        c.require(
            fraction(arm.num("weighted_attainment")),
            "weighted_attainment must be a fraction",
        )?;
        c.require(
            finite_positive(arm.num("cost_per_hour")),
            "cost_per_hour must be positive",
        )?;
    }
    if let (Some(shared), Some(part)) = (weighted("shared"), weighted("partitioned")) {
        c.require(
            shared >= part,
            "shared plan must not lose to the static partition",
        )?;
    }
    let cost = |name: &str| {
        arms.iter()
            .find(|a| a.get("arm").and_then(Value::as_str) == Some(name))
            .and_then(|a| a.num("cost_per_hour"))
    };
    if let (Some(shared), Some(part)) = (cost("shared"), cost("partitioned")) {
        c.require(
            shared <= part,
            "shared pool must not cost more than the partition",
        )?;
    }
    Ok(())
}

fn check_autoscale(root: &Value, c: &mut Checker) -> Result<(), String> {
    c.require(
        fraction(root.num("saving_fraction")),
        "saving_fraction must be a fraction",
    )?;
    let arms = arms(root, c)?;
    let of = |name: &str, key: &str| {
        arms.iter()
            .find(|a| a.get("arm").and_then(Value::as_str) == Some(name))
            .and_then(|a| a.num(key))
    };
    for arm in arms {
        c.require(
            fraction(arm.num("attainment")),
            "attainment must be a fraction",
        )?;
        for seg in arm
            .get("segments")
            .and_then(Value::as_array)
            .unwrap_or_default()
        {
            c.require(
                seg.num("completed") <= seg.num("submitted"),
                "segment completed beyond submitted",
            )?;
        }
    }
    c.require(
        of("autoscale", "total_cost").is_some() && of("static", "total_cost").is_some(),
        "both the autoscale and static arms must be present",
    )?;
    if let (Some(elastic), Some(stat)) = (of("autoscale", "total_cost"), of("static", "total_cost"))
    {
        c.require(
            elastic <= (1.0 - AUTOSCALE_MIN_SAVING) * stat,
            &format!(
                "autoscaler must save at least {:.0}%",
                AUTOSCALE_MIN_SAVING * 100.0
            ),
        )?;
    }
    if let (Some(elastic), Some(stat)) = (of("autoscale", "attainment"), of("static", "attainment"))
    {
        c.require(
            stat - elastic <= AUTOSCALE_GAP_BOUND,
            &format!(
                "autoscaler must stay within {AUTOSCALE_GAP_BOUND} attainment of the static oracle"
            ),
        )?;
    }
    Ok(())
}

fn check_obs(root: &Value, c: &mut Checker, strict: bool) -> Result<(), String> {
    for arm in arms(root, c)? {
        // The committed budget is enforced on the big (100k-request)
        // arm, whose half-second runs give the ratio a stable denominator;
        // smoke arms and quick-mode CI runs get the lax budget.
        let big = arm.num("requests").unwrap_or(0.0) >= TRACE_STRICT_ARM_REQUESTS;
        let budget = if strict && big {
            TRACE_OVERHEAD_BUDGET
        } else {
            TRACE_OVERHEAD_BUDGET_QUICK
        };
        c.require(
            finite_positive(arm.num("wall_off_s")) && finite_positive(arm.num("wall_on_s")),
            "wall clocks must be positive",
        )?;
        c.require(
            finite_positive(arm.num("trace_events")),
            "the recorder must have recorded events",
        )?;
        let overhead = arm.num("overhead_fraction").unwrap_or(f64::INFINITY);
        c.require(
            overhead <= budget,
            &format!("recorder overhead {overhead:.4} exceeds the {budget:.2} budget"),
        )?;
    }
    if let Some(p) = root.get("profiler") {
        c.require(
            finite_positive(p.num("chrome_slices")),
            "profiler must export at least one slice",
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_floors_trip() {
        let ok = r#"{"arms": [{"requests": 100000, "replicas": 64,
            "wall_clock_s": 0.2, "events_per_sec": 1e6,
            "speedup_events_per_sec": 6.0}]}"#;
        check("BENCH_sim", ok, true).unwrap();
        let slow = ok.replace("6.0", "4.0");
        assert!(check("BENCH_sim", &slow, true).is_err(), "5x floor");
        check("BENCH_sim", &slow, false).unwrap();
        let broken = ok.replace("6.0", "0.5");
        assert!(check("BENCH_sim", &broken, false).is_err(), "parity floor");
    }

    #[test]
    fn scheduler_thread_identity_trips() {
        let ok = r#"{"arms": [
            {"gpus": 8, "threads": 1, "median_s": 0.0013, "evaluations": 53,
             "evals_per_s": 40664.29, "score": 0.281585},
            {"gpus": 8, "threads": 2, "median_s": 0.0030, "evaluations": 53,
             "evals_per_s": 17724.00, "score": 0.281585},
            {"gpus": 16, "threads": 1, "median_s": 0.0200, "evaluations": 80,
             "evals_per_s": 4000.00, "score": 0.5}]}"#;
        check("BENCH_scheduler", ok, true).unwrap();
        let evals = ok.replacen("\"evaluations\": 53", "\"evaluations\": 54", 1);
        assert!(
            check("BENCH_scheduler", &evals, true).is_err(),
            "evaluations differ between thread arms"
        );
        let score = ok.replacen("0.281585", "0.281586", 1);
        assert!(
            check("BENCH_scheduler", &score, true).is_err(),
            "score differs between thread arms"
        );
    }

    #[test]
    fn mm_shared_pool_rules_trip() {
        let ok = r#"{"arms": [
            {"arm": "partitioned", "weighted_attainment": 0.5, "cost_per_hour": 2.676},
            {"arm": "shared", "weighted_attainment": 0.68, "cost_per_hour": 2.676}]}"#;
        check("BENCH_mm", ok, true).unwrap();
        let loses = ok.replace("0.68", "0.49");
        assert!(
            check("BENCH_mm", &loses, true).is_err(),
            "shared attains less"
        );
        let dearer = ok.replace(
            "0.68, \"cost_per_hour\": 2.676",
            "0.68, \"cost_per_hour\": 2.7",
        );
        assert!(
            check("BENCH_mm", &dearer, true).is_err(),
            "shared costs more"
        );
    }

    #[test]
    fn autoscale_saving_and_gap_trip() {
        let ok = r#"{"saving_fraction": 0.3, "arms": [
            {"arm": "static", "attainment": 1.0, "total_cost": 100.0,
             "segments": [{"submitted": 10, "completed": 10}]},
            {"arm": "autoscale", "attainment": 0.97, "total_cost": 70.0,
             "segments": [{"submitted": 10, "completed": 10}]}]}"#;
        check("BENCH_autoscale", ok, true).unwrap();
        let no_static = ok.replace("\"static\"", "\"oracle\"");
        assert!(
            check("BENCH_autoscale", &no_static, true).is_err(),
            "static arm required"
        );
        let small_saving = ok.replace("70.0", "85.0");
        assert!(
            check("BENCH_autoscale", &small_saving, true).is_err(),
            "saving under AUTOSCALE_MIN_SAVING"
        );
        let gap = ok.replace("0.97", "0.9");
        assert!(
            check("BENCH_autoscale", &gap, true).is_err(),
            "attainment gap over AUTOSCALE_GAP_BOUND"
        );
    }

    #[test]
    fn obs_overhead_budget_trips() {
        let mk = |ov: f64| {
            format!(
                r#"{{"arms": [{{"requests": 100000, "wall_off_s": 1.0, "wall_on_s": {},
                   "trace_events": 100, "overhead_fraction": {ov}}}],
                   "profiler": {{"chrome_slices": 3}}}}"#,
                1.0 + ov
            )
        };
        let (budget, lax) = (TRACE_OVERHEAD_BUDGET, TRACE_OVERHEAD_BUDGET_QUICK);
        // Over the committed budget, within the lax one.
        let over = (budget + lax) / 2.0;
        check("BENCH_obs", &mk(budget / 2.0), true).unwrap();
        assert!(check("BENCH_obs", &mk(over), true).is_err());
        check("BENCH_obs", &mk(over), false).unwrap();
        assert!(check("BENCH_obs", &mk(lax * 1.5), false).is_err());
        // Smoke arms (below the strict-arm size) get the lax budget even
        // in strict mode.
        check("BENCH_obs", &mk(over).replace("100000", "10000"), true).unwrap();
        let silent = mk(budget / 2.0).replace("\"trace_events\": 100", "\"trace_events\": 0");
        assert!(check("BENCH_obs", &silent, true).is_err());
    }

    #[test]
    fn fault_recovery_invariant_trips() {
        let ok = r#"{"arms": [
            {"role": "prefill", "slowdown": 8, "mitigated": false,
             "p99_ttft_s": 20.0, "p99_e2e_s": 25.0, "shed_rate": 0.0, "hedges": 0},
            {"role": "prefill", "slowdown": 8, "mitigated": true,
             "p99_ttft_s": 3.0, "p99_e2e_s": 6.0, "shed_rate": 0.0, "hedges": 7}]}"#;
        check("BENCH_fault", ok, true).unwrap();
        let inverted = ok.replace("\"p99_ttft_s\": 3.0", "\"p99_ttft_s\": 30.0");
        assert!(check("BENCH_fault", &inverted, true).is_err());
        // The mechanism must actually have fired on the mitigated arm.
        let inert = ok.replace("\"hedges\": 7", "\"hedges\": 0");
        assert!(check("BENCH_fault", &inert, true).is_err());
    }

    #[test]
    fn net_overload_rules_trip() {
        let ok = r#"{"arms": [
            {"flows": 1, "precision": "int4", "mean_transfer_s": 0.4, "max_transfer_s": 0.4}],
            "overload": {"plan_rate_rps": 3.0, "arms": [
            {"rate_rps": 3.0, "sent": 10, "completed": 9, "dropped": 1, "rejected": 0,
             "events": 42, "events_per_request": 4.2, "horizon_s": 3600.5,
             "joint_attainment": 0.5, "fabric_changes": 30,
             "fabric_class_cells": 90, "fabric_flat_cells": 1200},
            {"rate_rps": 4.0, "sent": 12, "completed": 12, "dropped": 0, "rejected": 0,
             "events": 50, "events_per_request": 4.166667, "horizon_s": 6500.0,
             "joint_attainment": 0.01, "fabric_changes": 36,
             "fabric_class_cells": 99, "fabric_flat_cells": 2000}]}}"#;
        check("BENCH_net", ok, true).unwrap();
        let leaky = ok.replace("\"completed\": 9", "\"completed\": 8");
        assert!(check("BENCH_net", &leaky, true).is_err(), "conservation");
        let unbounded = ok.replace("6500.0", "1e999");
        assert!(
            check("BENCH_net", &unbounded, true).is_err(),
            "finite horizon"
        );
        let inverted = ok.replace("0.01,", "0.9,");
        assert!(
            check("BENCH_net", &inverted, true).is_err(),
            "overload attains less"
        );
        let missing = ok
            .split(",\n            \"overload\"")
            .next()
            .unwrap()
            .to_string()
            + "}";
        assert!(
            check("BENCH_net", &missing, true).is_err(),
            "section required"
        );
    }
}
