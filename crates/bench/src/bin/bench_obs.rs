//! Wall-clock overhead of the trace recorder on the event loop, held to a
//! budget.
//!
//! Each arm serves one of `BENCH_sim`'s two small arms
//! ([`ts_bench::exps::event_loop`]) with decode coalescing off, the
//! recorder detached and attached, so both runs dispatch the same per-step
//! event stream; the traced run's time includes finalizing the log. The
//! overhead is `min(on) / min(off) - 1` over [`PAIRS`] alternating pairs.
//! A full run holds the 100k × 64 arm to [`TRACE_OVERHEAD_BUDGET`] and the
//! 10k × 8 smoke arm to [`TRACE_OVERHEAD_BUDGET_QUICK`]; `--quick` runs the
//! smoke arm only, for CI on untrusted machines. The run exits 1 if an arm
//! exceeds its budget, and writes no file: the trace census is
//! `BENCH_sim.json`'s `trace_events`.
//!
//! Usage: `cargo run --release -p ts-bench --bin bench_obs [-- --quick]`

use std::time::Instant;
use ts_bench::exps::event_loop::{self, Setup, PER_STEP_ARMS};
use ts_sim::{SimConfig, Simulation};

/// Overhead budget on a full run's arms of at least
/// [`STRICT_ARM_REQUESTS`] requests: the traced run may exceed the plain
/// run by at most this fraction. Three full runs on a 2-vCPU host
/// measured 0.67, 0.90 and 1.07; the budget leaves room for a noisier
/// host.
const TRACE_OVERHEAD_BUDGET: f64 = 1.5;

/// Overhead budget of quick runs and of the smoke arm, whose runs last
/// tens of milliseconds, so timer noise dominates the ratio.
const TRACE_OVERHEAD_BUDGET_QUICK: f64 = 3.0;

/// Arm size from which a full run applies the strict budget: below it,
/// runs are too short for a trustworthy wall-clock ratio.
const STRICT_ARM_REQUESTS: usize = 100_000;

/// Timed off/on pairs per arm, run in alternating order so thermal or
/// load drift lands on both configurations equally. The overhead compares
/// the per-configuration *minimum* wall times: external noise (scheduler
/// steal, cache eviction by other tenants) only ever adds time, so the
/// minima are the best available estimate of true cost.
const PAIRS: usize = 7;

/// Whether `overhead` keeps the budget of an arm of `requests` requests.
///
/// # Errors
/// Names the overhead and the budget it exceeds.
fn check(quick: bool, requests: usize, overhead: f64) -> Result<(), String> {
    let budget = if !quick && requests >= STRICT_ARM_REQUESTS {
        TRACE_OVERHEAD_BUDGET
    } else {
        TRACE_OVERHEAD_BUDGET_QUICK
    };
    if overhead <= budget {
        Ok(())
    } else {
        Err(format!(
            "{requests} requests: recorder overhead {overhead:.4} exceeds the {budget:.2} budget"
        ))
    }
}

/// One timed run, through finalizing the trace when the recorder is
/// attached; returns its wall clock and the trace length.
fn time_once(s: &Setup, traced: bool) -> (f64, usize) {
    let cfg = SimConfig::new(s.model.clone())
        .with_decode_coalescing(false)
        .with_telemetry(traced);
    let mut sim = Simulation::new(&s.cluster, &s.plan, cfg).unwrap();
    let t0 = Instant::now();
    sim.run(&s.requests).unwrap();
    let events = sim.take_trace().map_or(0, |log| log.len());
    (t0.elapsed().as_secs_f64(), events)
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let arms = if quick { 1 } else { PER_STEP_ARMS };
    println!("trace-recorder overhead ({arms} arms, best of {PAIRS} alternating paired runs)");
    println!(
        "{:>10} {:>9} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "requests", "replicas", "off (s)", "on (s)", "overhead", "events", "ns/event"
    );
    let mut failed = false;
    for arm in &event_loop::ARMS[..arms] {
        let s = event_loop::setup(arm);
        // Untimed warmup faults in code pages and allocator arenas.
        time_once(&s, false);
        let (mut off, mut on, mut events) = (f64::INFINITY, f64::INFINITY, 0);
        for i in 0..PAIRS {
            // Alternate the order within each pair so warmup and slow drift
            // bias neither configuration.
            let traced_first = i % 2 == 0;
            let (w1, e1) = time_once(&s, traced_first);
            let (w2, e2) = time_once(&s, !traced_first);
            let (w_off, w_on) = if traced_first { (w2, w1) } else { (w1, w2) };
            off = off.min(w_off);
            on = on.min(w_on);
            events = e1.max(e2);
        }
        let overhead = on / off - 1.0;
        println!(
            "{:>10} {:>9} {:>12.4} {:>12.4} {:>9.2}% {:>12} {:>10.1}",
            arm.requests,
            arm.replicas,
            off,
            on,
            overhead * 100.0,
            events,
            overhead.max(0.0) * off * 1e9 / events as f64
        );
        if let Err(e) = check(quick, arm.requests, overhead) {
            eprintln!("bench_obs: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_budgets_trip() {
        let (strict, lax) = (TRACE_OVERHEAD_BUDGET, TRACE_OVERHEAD_BUDGET_QUICK);
        let between = (strict + lax) / 2.0;
        // A full run's 100k arm: the strict budget.
        check(false, 100_000, strict).unwrap();
        assert!(check(false, 100_000, between).is_err());
        // Quick runs and the smoke arm: the lax budget.
        check(true, 100_000, between).unwrap();
        check(false, 10_000, between).unwrap();
        assert!(check(true, 10_000, lax * 1.01).is_err());
        assert!(check(false, 10_000, lax * 1.01).is_err());
    }
}
