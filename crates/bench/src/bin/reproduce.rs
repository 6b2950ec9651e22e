//! Regenerates every table and figure of the ThunderServe paper on the
//! simulated substrate.
//!
//! ```text
//! reproduce [--exp <id>] [--quick] [--list] [--trace <path>] [--metrics <base>]
//! ```
//!
//! `--trace <path>` additionally runs the telemetry demo scenario and
//! writes its Chrome trace-event JSON there (viewable in Perfetto).
//! `--metrics <base>` runs the same scenario, builds its post-run metrics
//! snapshot and writes `<base>.prom` (Prometheus text exposition, written
//! only if it validates and carries exactly `ts_telemetry::FAMILIES`) and
//! `<base>.json` (compact metric dump).
//!
//! Stdout carries only simulated-time results, so it is byte-identical
//! across runs and machines; CI `cmp`s `reproduce --quick` with the
//! committed `REPRODUCE_quick.txt`. Wall-clock figures (each experiment's
//! run time, scheduler search times) go to stderr.

use std::time::Instant;
use ts_bench::all_experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let list = args.iter().any(|a| a == "--list");
    let exp_filter = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let trace_out = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let exps = all_experiments();
    if list {
        for e in &exps {
            println!("{:8} {}", e.id, e.title);
        }
        return;
    }
    let mut ran = 0;
    for e in &exps {
        if let Some(f) = &exp_filter {
            if e.id != f {
                continue;
            }
        }
        let start = Instant::now();
        println!("==================================================================");
        println!("[{}] {}", e.id, e.title);
        println!("==================================================================");
        let report = (e.run)(quick);
        println!("{report}\n");
        eprintln!(
            "({} finished in {:.1}s)",
            e.id,
            start.elapsed().as_secs_f64()
        );
        ran += 1;
    }
    if let Some(base) = metrics_out {
        let demo = ts_bench::trace_demo::run(quick);
        let prom = ts_telemetry::render_prometheus(&demo.snapshot);
        match ts_telemetry::prom::validate_export(&prom) {
            Ok(stats) => {
                let prom_path = format!("{base}.prom");
                let json_path = format!("{base}.json");
                if let Err(e) = std::fs::write(&prom_path, &prom)
                    .and_then(|()| std::fs::write(&json_path, demo.snapshot.to_json()))
                {
                    eprintln!("cannot write metrics: {e}");
                    std::process::exit(1);
                }
                println!(
                    "metrics: wrote {prom_path} ({} families, {} samples) and {json_path}",
                    stats.families.len(),
                    stats.samples
                );
            }
            Err(e) => {
                eprintln!("exposition failed validation: {e}");
                std::process::exit(1);
            }
        }
        if trace_out.is_none() {
            return;
        }
    }
    if let Some(out) = trace_out {
        let demo = ts_bench::trace_demo::run(quick);
        let json = ts_telemetry::chrome::export(&demo.log);
        match ts_telemetry::validate_chrome_trace(&json) {
            Ok(stats) => {
                if let Err(e) = std::fs::write(&out, &json) {
                    eprintln!("cannot write {out}: {e}");
                    std::process::exit(1);
                }
                println!(
                    "trace: wrote {out} ({} events) — open in https://ui.perfetto.dev",
                    stats.events
                );
            }
            Err(e) => {
                eprintln!("exported trace failed validation: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if ran == 0 {
        eprintln!("no experiment matched; use --list to see ids");
        std::process::exit(1);
    }
}
