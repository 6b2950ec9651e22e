//! Every committed `BENCH_*.json` artifact and `REPRODUCE_quick.txt` hold
//! up.
//!
//! Each artifact is regenerated through [`ts_bench::artifact`], which
//! checks its typed report against the experiment's rules, and must match
//! the committed bytes. The quick experiment report is regenerated through
//! [`ts_bench::report`].

use ts_bench::artifact;

/// The committed file `name` at the repository root.
fn committed(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path} must be committed: {e}"))
}

/// Each artifact keeps its rules and reproduces the committed file byte
/// for byte.
#[test]
fn simulated_time_artifacts_reproduce_byte_for_byte() {
    for (stem, measure) in artifact::ARTIFACTS {
        let json = measure().unwrap_or_else(|broken| panic!("{stem}: {broken}"));
        assert!(
            json == committed(&format!("{stem}.json")),
            "{stem}: the regenerated JSON differs from the committed file"
        );
    }
}

/// `reproduce --quick` prints the committed `REPRODUCE_quick.txt` byte for
/// byte.
#[test]
fn quick_report_reproduces_byte_for_byte() {
    assert!(
        ts_bench::report(None, true) == committed("REPRODUCE_quick.txt"),
        "the quick report differs from the committed REPRODUCE_quick.txt"
    );
}
