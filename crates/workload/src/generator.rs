//! Poisson arrival generation.
//!
//! Following the paper (§5.1, after AlpaServe/HexGen), requests arrive as a
//! Poisson process: inter-arrival times are exponential with mean `1/rate`.
//! [`generate_phased`] chains several workload phases back to back, which
//! drives the workload-shift rescheduling experiments.

use crate::spec::WorkloadSpec;
use rand::Rng;
use ts_common::{seeded_rng, ModelId, Request, RequestId, SimDuration, SimTime};

/// Generates a Poisson-arrival trace for `spec` over `[0, horizon)`.
///
/// Deterministic for a given `(spec, horizon, seed)`.
pub fn generate(spec: &WorkloadSpec, horizon: SimDuration, seed: u64) -> Vec<Request> {
    let mut rng = seeded_rng(seed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let horizon_s = horizon.as_secs_f64();
    let mut id = 0u64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / spec.rate;
        if t >= horizon_s {
            break;
        }
        out.push(Request::new(
            RequestId(id),
            SimTime::from_secs_f64(t),
            spec.prompt.sample(&mut rng),
            spec.output.sample(&mut rng),
        ));
        id += 1;
    }
    out
}

/// One phase of a time-varying workload script.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPhase {
    /// The workload active during this phase.
    pub spec: WorkloadSpec,
    /// Phase duration.
    pub duration: SimDuration,
}

/// Generates a trace that switches workloads at phase boundaries (e.g.
/// coding for 10 min, then conversation) with globally increasing ids and
/// arrival times.
pub fn generate_phased(phases: &[WorkloadPhase], seed: u64) -> Vec<Request> {
    let mut out: Vec<Request> = Vec::new();
    let mut offset = SimDuration::ZERO;
    for (pi, phase) in phases.iter().enumerate() {
        let base_id = out.len() as u64;
        let reqs = generate(
            &phase.spec,
            phase.duration,
            ts_common::rng::derive_seed(seed, pi as u64),
        );
        out.extend(reqs.into_iter().map(|r| Request {
            id: RequestId(base_id + r.id.0),
            arrival: SimTime::ZERO + offset + (r.arrival - SimTime::ZERO),
            ..r
        }));
        offset += phase.duration;
    }
    out
}

/// Builds the phase list of a sinusoidal diurnal cycle: the arrival rate
/// follows `base.rate * (1 - amplitude * cos(2π t / period))`, sampled at
/// the midpoint of each `bucket`-long phase. At `t = 0` the rate sits at
/// its overnight trough `base.rate * (1 - amplitude)` and climbs through
/// the morning ramp to the midday peak `base.rate * (1 + amplitude)` at
/// `t = period / 2`. The time-weighted mean rate over a whole period stays
/// `base.rate`.
///
/// The returned phases all share `base`'s length distributions — feed them
/// to [`generate_phased`] (or splice a flash crowd in first with
/// [`with_flash_crowd`]).
///
/// # Panics
/// Panics if `period` or `bucket` is zero, or `amplitude` is outside
/// `[0, 1)` (an amplitude of 1 would zero the trough rate).
pub fn diurnal_phases(
    base: &WorkloadSpec,
    horizon: SimDuration,
    period: SimDuration,
    amplitude: f64,
    bucket: SimDuration,
) -> Vec<WorkloadPhase> {
    assert!(!period.is_zero(), "diurnal period must be positive");
    assert!(!bucket.is_zero(), "diurnal bucket must be positive");
    assert!(
        (0.0..1.0).contains(&amplitude),
        "diurnal amplitude must be in [0, 1), got {amplitude}"
    );
    let period_s = period.as_secs_f64();
    let mut phases = Vec::new();
    let mut t = SimDuration::ZERO;
    while t < horizon {
        let len = bucket.min(horizon - t);
        let mid_s = (t + len.mul_f64(0.5)).as_secs_f64();
        let factor = 1.0 - amplitude * (std::f64::consts::TAU * mid_s / period_s).cos();
        phases.push(WorkloadPhase {
            spec: base.with_rate(base.rate * factor),
            duration: len,
        });
        t += len;
    }
    phases
}

/// Splices a flash crowd into a phase list: every part of the timeline
/// inside `[start, start + duration)` has its arrival rate multiplied by
/// `multiplier`. Phases straddling a window edge are split at the boundary,
/// so the total duration and everything outside the window are untouched.
///
/// # Panics
/// Panics if `multiplier < 1` or `duration` is zero.
pub fn with_flash_crowd(
    phases: &[WorkloadPhase],
    start: SimDuration,
    duration: SimDuration,
    multiplier: f64,
) -> Vec<WorkloadPhase> {
    assert!(multiplier >= 1.0, "flash-crowd multiplier must be >= 1");
    assert!(!duration.is_zero(), "flash-crowd duration must be positive");
    let end = start + duration;
    let mut out = Vec::new();
    let mut t = SimDuration::ZERO;
    for phase in phases {
        let p_start = t;
        let p_end = t + phase.duration;
        // Up to three slices: before, inside and after the window. The two
        // middle cuts are the window edges clamped into the phase, so the
        // array is already ordered and degenerate slices collapse away.
        let cuts = [
            p_start,
            start.clamp(p_start, p_end),
            end.clamp(p_start, p_end),
            p_end,
        ];
        for w in cuts.windows(2) {
            let (s, e) = (w[0], w[1]);
            if e <= s {
                continue;
            }
            let inside = s >= start && s < end;
            let rate = if inside {
                phase.spec.rate * multiplier
            } else {
                phase.spec.rate
            };
            out.push(WorkloadPhase {
                spec: phase.spec.with_rate(rate),
                duration: e - s,
            });
        }
        t = p_end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn arrival_count_matches_rate() {
        let w = spec::coding(4.0);
        let reqs = generate(&w, SimDuration::from_secs(500), 7);
        let expected = 2000.0;
        let n = reqs.len() as f64;
        assert!((n / expected - 1.0).abs() < 0.15, "{n} arrivals");
    }

    #[test]
    fn arrivals_sorted_unique_ids() {
        let w = spec::conversation(3.0);
        let reqs = generate(&w, SimDuration::from_secs(100), 3);
        for (i, pair) in reqs.windows(2).enumerate() {
            assert!(pair[0].arrival <= pair[1].arrival, "unsorted at {i}");
        }
        let mut ids: Vec<u64> = reqs.iter().map(|r| r.id.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), reqs.len());
    }

    #[test]
    fn deterministic_for_seed() {
        let w = spec::coding(2.0);
        let a = generate(&w, SimDuration::from_secs(50), 9);
        let b = generate(&w, SimDuration::from_secs(50), 9);
        assert_eq!(a, b);
        let c = generate(&w, SimDuration::from_secs(50), 10);
        assert_ne!(a, c);
    }

    #[test]
    fn phased_trace_shifts_statistics() {
        let phases = [
            WorkloadPhase {
                spec: spec::coding(5.0),
                duration: SimDuration::from_secs(200),
            },
            WorkloadPhase {
                spec: spec::conversation(5.0),
                duration: SimDuration::from_secs(200),
            },
        ];
        let reqs = generate_phased(&phases, 11);
        let cut = SimTime::from_secs_f64(200.0);
        let (first, second): (Vec<_>, Vec<_>) = reqs.iter().partition(|r| r.arrival < cut);
        let mean_out =
            |v: &[&Request]| v.iter().map(|r| r.output_len as f64).sum::<f64>() / v.len() as f64;
        assert!(mean_out(&second) > 3.0 * mean_out(&first));
        // ids strictly increasing across the whole trace
        for w in reqs.windows(2) {
            assert!(w[0].id.0 < w[1].id.0);
        }
    }

    #[test]
    fn empty_horizon_gives_empty_trace() {
        let w = spec::coding(2.0);
        assert!(generate(&w, SimDuration::ZERO, 1).is_empty());
    }

    #[test]
    fn diurnal_phases_ramp_from_trough_to_peak() {
        let base = spec::conversation(4.0);
        let day = SimDuration::from_secs(24 * 3600);
        let phases = diurnal_phases(&base, day, day, 0.6, SimDuration::from_secs(3600));
        assert_eq!(phases.len(), 24);
        let total: SimDuration = phases
            .iter()
            .map(|p| p.duration)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert_eq!(total, day, "phases must tile the horizon exactly");
        // t = 0 is the overnight trough; midday is the peak.
        let trough = phases[0].spec.rate;
        let peak = phases[12].spec.rate;
        assert!(trough < base.rate * 0.5, "trough {trough}");
        assert!(peak > base.rate * 1.5, "peak {peak}");
        // The time-weighted mean rate stays near the base rate.
        let mean: f64 = phases.iter().map(|p| p.spec.rate).sum::<f64>() / 24.0;
        assert!((mean / base.rate - 1.0).abs() < 0.01, "mean {mean}");
        // Shapes are untouched: only the rate varies.
        for p in &phases {
            assert_eq!(p.spec.prompt, base.prompt);
            assert_eq!(p.spec.output, base.output);
        }
    }

    #[test]
    fn diurnal_partial_final_bucket_and_determinism() {
        let base = spec::coding(2.0);
        let horizon = SimDuration::from_secs(250);
        let phases = diurnal_phases(
            &base,
            horizon,
            SimDuration::from_secs(400),
            0.4,
            SimDuration::from_secs(100),
        );
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[2].duration, SimDuration::from_secs(50));
        let a = generate_phased(&phases, 7);
        let b = generate_phased(&phases, 7);
        assert_eq!(a, b, "diurnal traces are bit-reproducible");
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].id.0 < w[1].id.0, "globally increasing ids");
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn flash_crowd_boosts_only_the_window() {
        let base = spec::conversation(3.0);
        let phases = vec![
            WorkloadPhase {
                spec: base.clone(),
                duration: SimDuration::from_secs(300),
            },
            WorkloadPhase {
                spec: base.clone(),
                duration: SimDuration::from_secs(300),
            },
        ];
        // Window straddles the phase boundary: 200s..400s at 5x.
        let crowd = with_flash_crowd(
            &phases,
            SimDuration::from_secs(200),
            SimDuration::from_secs(200),
            5.0,
        );
        let total: SimDuration = crowd
            .iter()
            .map(|p| p.duration)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert_eq!(total, SimDuration::from_secs(600), "duration preserved");
        // Expected slices: [0,200) 1x | [200,300) 5x | [300,400) 5x | [400,600) 1x.
        let rates: Vec<f64> = crowd.iter().map(|p| p.spec.rate).collect();
        assert_eq!(rates, vec![3.0, 15.0, 15.0, 3.0]);
        // The generated trace really is denser inside the window.
        let reqs = generate_phased(&crowd, 13);
        let in_window = reqs
            .iter()
            .filter(|r| {
                r.arrival >= SimTime::from_secs_f64(200.0)
                    && r.arrival < SimTime::from_secs_f64(400.0)
            })
            .count();
        let outside = reqs.len() - in_window;
        assert!(
            in_window as f64 > 2.0 * outside as f64,
            "window {in_window} vs outside {outside}"
        );
    }

    #[test]
    fn flash_crowd_outside_horizon_is_identity() {
        let base = spec::coding(1.5);
        let phases = diurnal_phases(
            &base,
            SimDuration::from_secs(100),
            SimDuration::from_secs(100),
            0.3,
            SimDuration::from_secs(50),
        );
        let spliced = with_flash_crowd(
            &phases,
            SimDuration::from_secs(500),
            SimDuration::from_secs(10),
            4.0,
        );
        assert_eq!(spliced, phases, "a window past the horizon changes nothing");
    }

    #[test]
    #[should_panic]
    fn diurnal_rejects_full_amplitude() {
        let _ = diurnal_phases(
            &spec::coding(1.0),
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
            1.0,
            SimDuration::from_secs(5),
        );
    }
}

/// Generates a superposition of several independent Poisson workloads (the
/// paper's online services mix coding and conversation traffic whose
/// proportions drift). Ids are reassigned globally in arrival order.
pub fn generate_mixture(specs: &[WorkloadSpec], horizon: SimDuration, seed: u64) -> Vec<Request> {
    superpose(specs.iter().enumerate().map(|(i, spec)| {
        generate(
            spec,
            horizon,
            ts_common::rng::derive_seed(seed, 0x31 + i as u64),
        )
    }))
}

/// Generates a multi-tenant trace: one independent Poisson stream per
/// `(model, workload)` tenant, each request tagged with its tenant's
/// [`ModelId`], merged into a single arrival-ordered trace with globally
/// reassigned ids. This is the request stream a shared multi-model pool
/// serves — per-tenant rates are free to differ, matching the asymmetric
/// traffic shares of a [`ts_common::ServedModel`] catalog.
///
/// Deterministic for a given `(tenants, horizon, seed)`; each tenant's
/// stream is salted independently, so adding a tenant never perturbs the
/// others' arrivals.
pub fn generate_multi_tenant(
    tenants: &[(ModelId, WorkloadSpec)],
    horizon: SimDuration,
    seed: u64,
) -> Vec<Request> {
    superpose(tenants.iter().enumerate().map(|(i, (model, spec))| {
        generate(
            spec,
            horizon,
            ts_common::rng::derive_seed(seed, 0x4D54 + i as u64),
        )
        .into_iter()
        .map(|r| r.with_model(*model))
    }))
}

/// Merges independent streams, in order, into one trace sorted by
/// `(arrival, prompt_len, output_len)` (stable, so ties keep stream order),
/// with ids reassigned in that order.
fn superpose<S: IntoIterator<Item = Request>>(streams: impl Iterator<Item = S>) -> Vec<Request> {
    let mut all: Vec<Request> = streams.flatten().collect();
    all.sort_by_key(|r| (r.arrival, r.prompt_len, r.output_len));
    for (i, r) in all.iter_mut().enumerate() {
        r.id = RequestId(i as u64);
    }
    all
}

/// Generates a bursty trace via a two-state Markov-modulated Poisson
/// process: the arrival rate alternates between `burst_factor × rate` and
/// `rate / burst_factor`, with exponentially distributed state dwell times
/// of mean `dwell`. The long-run mean rate stays close to `spec.rate`.
///
/// # Panics
/// Panics if `burst_factor < 1` or `dwell` is zero.
pub fn generate_bursty(
    spec: &WorkloadSpec,
    horizon: SimDuration,
    burst_factor: f64,
    dwell: SimDuration,
    seed: u64,
) -> Vec<Request> {
    assert!(burst_factor >= 1.0, "burst factor must be >= 1");
    assert!(!dwell.is_zero(), "dwell time must be positive");
    let mut rng = seeded_rng(seed);
    let horizon_s = horizon.as_secs_f64();
    let dwell_s = dwell.as_secs_f64();
    // Normalize so the time-weighted mean rate equals spec.rate.
    let norm = (burst_factor + 1.0 / burst_factor) / 2.0;
    let high_rate = spec.rate * burst_factor / norm;
    let low_rate = spec.rate / burst_factor / norm;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut state_high = false;
    let mut state_end = {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -u.ln() * dwell_s
    };
    let mut id = 0u64;
    loop {
        let rate = if state_high { high_rate } else { low_rate };
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let dt = -u.ln() / rate;
        if t + dt >= state_end {
            // state switch: advance to the boundary and resample
            t = state_end;
            state_high = !state_high;
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            state_end = t - u.ln() * dwell_s;
            if t >= horizon_s {
                break;
            }
            continue;
        }
        t += dt;
        if t >= horizon_s {
            break;
        }
        out.push(Request::new(
            RequestId(id),
            SimTime::from_secs_f64(t),
            spec.prompt.sample(&mut rng),
            spec.output.sample(&mut rng),
        ));
        id += 1;
    }
    out
}

#[cfg(test)]
mod mixture_tests {
    use super::*;
    use crate::spec;

    #[test]
    fn mixture_interleaves_components() {
        let specs = [spec::coding(2.0), spec::conversation(2.0)];
        let reqs = generate_mixture(&specs, SimDuration::from_secs(200), 5);
        // arrival-sorted, sequential ids
        for (i, w) in reqs.windows(2).enumerate() {
            assert!(w[0].arrival <= w[1].arrival, "unsorted at {i}");
        }
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id.0, i as u64);
        }
        // total rate ~4 req/s
        let n = reqs.len() as f64;
        assert!((n / 800.0 - 1.0).abs() < 0.15, "{n} arrivals");
        // both short- and long-output requests present
        assert!(reqs.iter().any(|r| r.output_len <= 16));
        assert!(reqs.iter().any(|r| r.output_len >= 64));
    }

    #[test]
    fn multi_tenant_tags_and_merges_streams() {
        let tenants = [
            (ModelId(1), spec::conversation(3.0)),
            (ModelId(2), spec::coding(1.0)),
        ];
        let reqs = generate_multi_tenant(&tenants, SimDuration::from_secs(300), 7);
        for (i, w) in reqs.windows(2).enumerate() {
            assert!(w[0].arrival <= w[1].arrival, "unsorted at {i}");
        }
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id.0, i as u64);
        }
        let n1 = reqs.iter().filter(|r| r.model == ModelId(1)).count();
        let n2 = reqs.iter().filter(|r| r.model == ModelId(2)).count();
        assert_eq!(n1 + n2, reqs.len(), "every request carries a tenant tag");
        // 3:1 rate asymmetry survives the merge
        let ratio = n1 as f64 / n2 as f64;
        assert!((2.0..=4.5).contains(&ratio), "tenant ratio {ratio}");
    }

    #[test]
    fn multi_tenant_streams_are_independent_of_tenant_count() {
        // adding a tenant must not perturb the first tenant's arrivals
        let one = generate_multi_tenant(
            &[(ModelId(1), spec::coding(2.0))],
            SimDuration::from_secs(100),
            11,
        );
        let two = generate_multi_tenant(
            &[
                (ModelId(1), spec::coding(2.0)),
                (ModelId(2), spec::conversation(2.0)),
            ],
            SimDuration::from_secs(100),
            11,
        );
        let only_m1: Vec<SimTime> = two
            .iter()
            .filter(|r| r.model == ModelId(1))
            .map(|r| r.arrival)
            .collect();
        let arrivals: Vec<SimTime> = one.iter().map(|r| r.arrival).collect();
        assert_eq!(arrivals, only_m1);
    }

    #[test]
    fn bursty_preserves_mean_rate_but_raises_variance() {
        let w = spec::coding(3.0);
        let horizon = SimDuration::from_secs(600);
        let smooth = generate(&w, horizon, 9);
        let bursty = generate_bursty(&w, horizon, 4.0, SimDuration::from_secs(20), 9);
        let rate_ratio = bursty.len() as f64 / smooth.len() as f64;
        assert!((0.6..=1.4).contains(&rate_ratio), "rate ratio {rate_ratio}");

        // squared coefficient of variation of inter-arrivals: Poisson ~1,
        // MMPP substantially higher.
        let cv2 = |reqs: &[Request]| {
            let gaps: Vec<f64> = reqs
                .windows(2)
                .map(|p| (p[1].arrival - p[0].arrival).as_secs_f64())
                .collect();
            let n = gaps.len() as f64;
            let mean = gaps.iter().sum::<f64>() / n;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n;
            var / (mean * mean)
        };
        let cv_smooth = cv2(&smooth);
        let cv_bursty = cv2(&bursty);
        assert!(cv_smooth < 1.5, "Poisson CV^2 {cv_smooth}");
        assert!(
            cv_bursty > cv_smooth * 1.5,
            "bursty CV^2 {cv_bursty} should exceed Poisson {cv_smooth}"
        );
    }

    #[test]
    fn bursty_is_deterministic() {
        let w = spec::conversation(2.0);
        let a = generate_bursty(
            &w,
            SimDuration::from_secs(100),
            3.0,
            SimDuration::from_secs(10),
            1,
        );
        let b = generate_bursty(
            &w,
            SimDuration::from_secs(100),
            3.0,
            SimDuration::from_secs(10),
            1,
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn bursty_rejects_sub_unit_factor() {
        let w = spec::coding(1.0);
        let _ = generate_bursty(
            &w,
            SimDuration::from_secs(10),
            0.5,
            SimDuration::from_secs(5),
            1,
        );
    }
}
