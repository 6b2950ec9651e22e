//! Every committed `BENCH_*.json` artifact holds up.
//!
//! Each artifact is regenerated through [`ts_bench::artifact`], which
//! checks its typed report against the experiment's rules, and must match
//! the committed bytes.

use ts_bench::artifact;

fn committed(stem: &str) -> String {
    let path = format!("{}/../../{stem}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path} must be committed: {e}"))
}

/// Each artifact keeps its rules and reproduces the committed file byte
/// for byte.
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
