//! Regenerates every table and figure of the ThunderServe paper on the
//! simulated substrate, and the committed simulated-time artifacts.
//!
//! ```text
//! reproduce [--exp <id>] [--quick] [--list] [--trace <path>] [--metrics <base>]
//! reproduce --artifact <stem>
//! ```
//!
//! `--trace <path>` additionally runs the telemetry demo scenario and
//! writes its Chrome trace-event JSON there (viewable in Perfetto).
//! `--metrics <base>` runs the same scenario, builds its post-run metrics
//! snapshot and writes `<base>.prom` (Prometheus text exposition, written
//! only if it validates and carries exactly `ts_telemetry::FAMILIES`) and
//! `<base>.json` (compact metric dump).
//!
//! `--artifact <stem>` runs only that entry of [`ts_bench::artifact`]
//! (`BENCH_autoscale`, `BENCH_fault`, `BENCH_mm`, `BENCH_net`,
//! `BENCH_scheduler` or `BENCH_sim`) in full mode and writes its JSON to
//! stdout, byte for byte the committed `<stem>.json`. If the report breaks
//! one of the experiment's rules, it writes nothing to stdout, names the
//! rules on stderr and exits 1.
//!
//! Stdout carries only simulated-time results, so it is byte-identical
//! across runs and machines: the experiments' part is [`ts_bench::report`],
//! and `reproduce --quick` prints the committed `REPRODUCE_quick.txt`. A
//! malformed command line prints the usage and exits 2.

use ts_bench::artifact::{self, Artifact, ARTIFACTS};
use ts_bench::{all_experiments, report};

const USAGE: &str =
    "usage: reproduce [--exp <id>] [--quick] [--list] [--trace <path>] [--metrics <base>]
       reproduce --artifact <stem>";

/// What one command line asks for.
#[derive(Debug, Default)]
struct Args {
    quick: bool,
    list: bool,
    exp: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    artifact: Option<Artifact>,
}

/// Parses the arguments after the program name.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || match it.next() {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{flag} needs a value")),
        };
        match flag.as_str() {
            "--quick" => a.quick = true,
            "--list" => a.list = true,
            "--exp" => a.exp = Some(value()?),
            "--trace" => a.trace = Some(value()?),
            "--metrics" => a.metrics = Some(value()?),
            "--artifact" => {
                let stem = value()?;
                let found = artifact::find(&stem).ok_or_else(|| {
                    let stems: Vec<&str> = ARTIFACTS.iter().map(|(s, _)| *s).collect();
                    format!(
                        "unknown artifact {stem}; the artifacts are {}",
                        stems.join(", ")
                    )
                })?;
                a.artifact = Some(found);
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let others = a.quick || a.list || a.exp.is_some() || a.trace.is_some() || a.metrics.is_some();
    if a.artifact.is_some() && others {
        return Err("--artifact takes no other option".into());
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    if let Some((stem, measure)) = args.artifact {
        let json = measure().map_err(|broken| format!("{stem}: {broken}"))?;
        print!("{json}");
        return Ok(());
    }
    if args.list {
        for e in all_experiments() {
            println!("{:8} {}", e.id, e.title);
        }
        return Ok(());
    }
    let reports = report(args.exp.as_deref(), args.quick);
    print!("{reports}");
    if args.metrics.is_none() && args.trace.is_none() {
        if reports.is_empty() {
            return Err("no experiment matched; use --list to see ids".into());
        }
        return Ok(());
    }
    let demo = ts_bench::trace_demo::run(args.quick);
    if let Some(base) = &args.metrics {
        let prom = ts_telemetry::render_prometheus(&demo.snapshot);
        let stats = ts_telemetry::prom::validate_export(&prom)
            .map_err(|e| format!("exposition failed validation: {e}"))?;
        let prom_path = format!("{base}.prom");
        let json_path = format!("{base}.json");
        std::fs::write(&prom_path, &prom)
            .and_then(|()| std::fs::write(&json_path, demo.snapshot.to_json()))
            .map_err(|e| format!("cannot write metrics: {e}"))?;
        println!(
            "metrics: wrote {prom_path} ({} families, {} samples) and {json_path}",
            stats.families.len(),
            stats.samples
        );
    }
    if let Some(out) = &args.trace {
        let json = ts_telemetry::chrome::export(&demo.log);
        let stats = ts_telemetry::validate_chrome_trace(&json)
            .map_err(|e| format!("exported trace failed validation: {e}"))?;
        std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!(
            "trace: wrote {out} ({} events) — open in https://ui.perfetto.dev",
            stats.events
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn parses_every_option() {
        let a = parsed("--quick --exp fig11 --trace t.json --metrics m").unwrap();
        assert!(a.quick && !a.list);
        assert_eq!(a.exp.as_deref(), Some("fig11"));
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert_eq!(a.metrics.as_deref(), Some("m"));
        assert!(a.artifact.is_none());
        assert!(parsed("--list").unwrap().list);
        let a = parsed("--artifact BENCH_net").unwrap();
        assert_eq!(a.artifact.map(|(s, _)| s), Some("BENCH_net"));
        let none = parsed("").unwrap();
        assert!(!none.quick && none.exp.is_none() && none.artifact.is_none());
    }

    #[test]
    fn rejects_a_malformed_command_line() {
        assert_eq!(parsed("--qiuck").unwrap_err(), "unknown option --qiuck");
        assert_eq!(parsed("--quick fig11").unwrap_err(), "unknown option fig11");
        assert_eq!(parsed("--exp").unwrap_err(), "--exp needs a value");
        assert_eq!(parsed("--exp --quick").unwrap_err(), "--exp needs a value");
        assert_eq!(
            parsed("--quick --trace").unwrap_err(),
            "--trace needs a value"
        );
        assert_eq!(parsed("--metrics").unwrap_err(), "--metrics needs a value");
        assert_eq!(
            parsed("--artifact").unwrap_err(),
            "--artifact needs a value"
        );
        let err = parsed("--artifact BENCH_nope").unwrap_err();
        for (stem, _) in ARTIFACTS {
            assert!(err.contains(stem), "{err}");
        }
        assert_eq!(
            parsed("--artifact BENCH_mm --quick").unwrap_err(),
            "--artifact takes no other option"
        );
    }
}
