//! Every committed `BENCH_*.json` artifact holds up.
//!
//! The simulated-time artifacts are regenerated through
//! [`ts_bench::artifact`], which checks each typed report against its
//! experiment's rules, and must match the committed bytes. The wall-clock
//! artifacts cannot reproduce their bytes, so they must pass the strict
//! gate: the same checks their bench binaries run on the JSON they write.

use ts_bench::{artifact, gate};

const WALL_CLOCK_STEMS: &[&str] = &["BENCH_scheduler", "BENCH_sim", "BENCH_obs"];

fn committed(stem: &str) -> String {
    let path = format!("{}/../../{stem}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path} must be committed: {e}"))
}

/// Each simulated-time artifact keeps its rules and reproduces the
/// committed file byte for byte.
#[test]
fn simulated_time_artifacts_reproduce_byte_for_byte() {
    for (stem, measure) in artifact::ARTIFACTS {
        let json = measure().unwrap_or_else(|broken| panic!("{stem}: {broken}"));
        assert!(
            json == committed(stem),
            "{stem}: the regenerated JSON differs from the committed file"
        );
    }
}

/// The committed artifacts hold under the *strict* gate (timing budgets
/// included): strictness applies to the recorded values, not to this
/// machine, so the check is deterministic wherever it runs.
#[test]
fn committed_artifacts_pass_the_strict_gate() {
    for stem in WALL_CLOCK_STEMS {
        let report =
            gate::check(stem, &committed(stem), true).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert!(report.checks > 0, "{stem}: gate checked nothing");
    }
}
