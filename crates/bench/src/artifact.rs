//! The committed simulated-time artifacts: `BENCH_autoscale`, `BENCH_fault`,
//! `BENCH_mm`, `BENCH_net`, `BENCH_scheduler` and `BENCH_sim`.
//!
//! Each entry measures its experiment's typed report, checks it against
//! named `Rule`s and renders the committed JSON byte for byte; CI and the
//! `committed_artifacts` test compare the bytes. The rules are the bar for
//! a deliberate re-record. `reproduce --artifact <stem>` runs one entry.

use crate::exps::{autoscale, event_loop, failure, mm, net_contention, scheduler_threads};

/// A named qualitative rule over a typed report.
pub(crate) struct Rule<R: ?Sized> {
    /// What the rule asserts; a failure reports it.
    pub(crate) name: &'static str,
    /// Whether the report satisfies the rule.
    pub(crate) holds: fn(&R) -> bool,
}

/// The names of the rules `report` breaks, in order.
pub(crate) fn failing<R: ?Sized>(report: &R, rules: &[Rule<R>]) -> Vec<&'static str> {
    rules
        .iter()
        .filter(|r| !(r.holds)(report))
        .map(|r| r.name)
        .collect()
}

/// Renders `report` if it satisfies every rule.
///
/// # Errors
/// Returns the broken rules' names, joined by `"; "`.
pub(crate) fn checked<R: ?Sized>(
    report: &R,
    rules: &[Rule<R>],
    render: fn(&R) -> String,
) -> Result<String, String> {
    let broken = failing(report, rules);
    if broken.is_empty() {
        Ok(render(report))
    } else {
        Err(broken.join("; "))
    }
}

/// A committed artifact's stem and the function that measures its report
/// in full mode, checks the rules and renders the JSON, or names the rules
/// the report breaks.
pub type Artifact = (&'static str, fn() -> Result<String, String>);

/// Every committed simulated-time artifact.
pub const ARTIFACTS: [Artifact; 6] = [
    ("BENCH_autoscale", autoscale::artifact),
    ("BENCH_fault", failure::artifact),
    ("BENCH_mm", mm::artifact),
    ("BENCH_net", net_contention::artifact),
    ("BENCH_scheduler", scheduler_threads::artifact),
    ("BENCH_sim", event_loop::artifact),
];

/// The artifact named `stem`, if there is one.
pub fn find(stem: &str) -> Option<Artifact> {
    ARTIFACTS.into_iter().find(|&(s, _)| s == stem)
}

#[cfg(test)]
mod tests {
    use super::*;

    const POSITIVE: Rule<i32> = Rule {
        name: "positive",
        holds: |x| *x > 0,
    };
    const EVEN: Rule<i32> = Rule {
        name: "even",
        holds: |x| x % 2 == 0,
    };

    #[test]
    fn checked_renders_only_a_report_that_keeps_every_rule() {
        let rules = [POSITIVE, EVEN];
        let render = |x: &i32| x.to_string();
        assert_eq!(checked(&4, &rules, render), Ok("4".to_string()));
        assert_eq!(failing(&3, &rules), ["even"]);
        assert_eq!(checked(&-3, &rules, render), Err("positive; even".into()));
    }

    #[test]
    fn every_stem_is_found_once() {
        for (stem, _) in ARTIFACTS {
            assert_eq!(ARTIFACTS.iter().filter(|(s, _)| *s == stem).count(), 1);
            assert_eq!(find(stem).map(|(s, _)| s), Some(stem));
        }
        assert!(find("BENCH_nope").is_none(), "an unknown stem is not found");
    }
}
