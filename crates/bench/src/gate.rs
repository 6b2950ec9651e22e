//! Checks over the wall-clock `BENCH_*.json` artifacts.
//!
//! `bench_sim`, `bench_scheduler` and `bench_obs` run [`check`] on the JSON
//! they just wrote, and the `committed_artifacts` test runs it over the
//! three committed files. Their wall-clock figures (events/sec, evals/sec,
//! recorder overhead) move with the machine, so CI cannot pin their bytes:
//! they are guarded here by *floors*, strict for the committed full-mode
//! runs and lax for quick runs.
//!
//! The simulated-time artifacts (`BENCH_autoscale`, `BENCH_fault`,
//! `BENCH_mm`, `BENCH_net`) are not checked here: they reproduce byte for
//! byte, and [`crate::artifact`] checks their typed reports against named
//! rules before rendering them.

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

/// Structurally validates one artifact and enforces its committed floors.
///
/// `strict` applies the full-mode floors (committed artifacts are produced
/// by full runs); quick CI reruns on weaker machines pass `strict = false`
/// to get the lax wall-clock floors while keeping every deterministic
/// invariant.
///
/// # Errors
/// Returns `file: problem` on the first violated invariant, on a parse
/// error, or for a stem with no checks here.
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
        "BENCH_obs" => check_obs(&root, &mut c, strict)?,
        _ => return Err(format!("{stem}: no checks for this artifact")),
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
    fn an_unknown_stem_is_an_error() {
        let ok = r#"{"arms": [{"requests": 10, "replicas": 2,
            "wall_clock_s": 0.2, "events_per_sec": 1e6}]}"#;
        check("BENCH_sim", ok, true).unwrap();
        let err = check("BENCH_simm", ok, true).unwrap_err();
        assert!(err.contains("BENCH_simm"), "{err}");
        assert!(
            check("BENCH_net", ok, true).is_err(),
            "not a wall-clock stem"
        );
    }
}
