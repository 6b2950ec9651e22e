//! Every committed `BENCH_*.json` artifact must satisfy the shared gate's
//! structural and qualitative invariants under the strict rules — the
//! same checks each bench binary runs on the JSON it writes.

use ts_bench::gate;

const STEMS: &[&str] = &[
    "BENCH_scheduler",
    "BENCH_net",
    "BENCH_sim",
    "BENCH_fault",
    "BENCH_mm",
    "BENCH_autoscale",
    "BENCH_obs",
];

fn committed(stem: &str) -> String {
    let path = format!("{}/../../{stem}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path} must be committed: {e}"))
}

/// The committed artifacts hold under the *strict* gate (timing budgets
/// included): strictness applies to the recorded values, not to this
/// machine, so the check is deterministic wherever it runs.
#[test]
fn committed_artifacts_pass_the_strict_gate() {
    for stem in STEMS {
        let report =
            gate::check(stem, &committed(stem), true).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert!(report.checks > 0, "{stem}: gate checked nothing");
    }
}
