//! The one step function behind every pressure and utilization signal,
//! and the online per-replica pressure tally built on it: two functions
//! per replica for a consumer that needs only their means and peaks (the
//! autoscaler), with no event buffer, no sort and no rescan.

use crate::event::{Role, TraceKind};
use ts_common::SimTime;

pub(crate) use sample::Sample;

mod sample {
    /// A value a [`super::StepFunction`] can integrate: `u64` counts
    /// (queue depth, batch occupancy, bytes) integrate exactly in `u128`,
    /// `f64` fractions (link utilization) in `f64`.
    pub trait Sample: Copy + Default + PartialEq + std::fmt::Debug {
        /// The integral, in value·µs.
        type Area: Copy + Default + PartialEq + std::fmt::Debug;
        /// `area + self · dt`.
        fn accumulate(self, area: Self::Area, dt: u64) -> Self::Area;
        /// The larger of two samples.
        fn max(self, other: Self) -> Self;
        /// The sample as `f64`.
        fn to_f64(self) -> f64;
        /// `area / end`, for `end > 0`.
        fn mean(area: Self::Area, end: u64) -> f64;
    }

    impl Sample for u64 {
        type Area = u128;
        fn accumulate(self, area: u128, dt: u64) -> u128 {
            area + u128::from(self) * u128::from(dt)
        }
        fn max(self, other: u64) -> u64 {
            Ord::max(self, other)
        }
        fn to_f64(self) -> f64 {
            self as f64
        }
        fn mean(area: u128, end: u64) -> f64 {
            area as f64 / end as f64
        }
    }

    impl Sample for f64 {
        type Area = f64;
        fn accumulate(self, area: f64, dt: u64) -> f64 {
            area + self * dt as f64
        }
        fn max(self, other: f64) -> f64 {
            f64::max(self, other)
        }
        fn to_f64(self) -> f64 {
            self
        }
        fn mean(area: f64, end: u64) -> f64 {
            area / end as f64
        }
    }
}

/// A right-continuous step function of simulated time, integrated online:
/// the value sampled at instant `t` holds until the next sample.
///
/// - Samples arrive in time order; [`StepFunction::push`] panics otherwise.
/// - A sample at the same instant as the last one overwrites it, and the
///   overwritten value never counts toward the peak.
/// - The value is zero before the first sample.
/// - The mean covers `[0, end)`, with `end` at or after the last sample.
///
/// `u64` samples integrate exactly; `f64` samples add `value · dt` sample
/// by sample, then the last sample's tail up to `end`, then divide by `end`.
///
/// ```
/// use ts_common::SimTime;
/// use ts_telemetry::StepFunction;
/// let mut s = StepFunction::<u64>::default();
/// s.push(SimTime::from_micros(2), 4);
/// s.push(SimTime::from_micros(6), 1);
/// assert_eq!(s.peak(), 4.0);
/// // 0 for 2us, 4 for 4us, 1 for 2us over [0, 8us): mean = 18/8.
/// assert_eq!(s.time_weighted_mean(SimTime::from_micros(8)), 2.25);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StepFunction<V: Sample> {
    /// Instant of the latest sample, in microseconds.
    at: u64,
    /// The latest sample, holding from `at` on.
    value: V,
    /// The integral of the function over `[0, at)`.
    area: V::Area,
    /// The largest sample before `at` (the latest sample may still be
    /// overwritten, so it joins the peak only when time moves on).
    peak: V,
}

impl<V: Sample> StepFunction<V> {
    /// Adds a sample, overwriting the last one if it is at the same instant.
    ///
    /// # Panics
    /// Panics if `at` precedes the last sample.
    #[inline]
    pub fn push(&mut self, at: SimTime, value: V) {
        let at = at.as_micros();
        assert!(at >= self.at, "step samples must be time-ordered");
        if at > self.at {
            self.area = self.value.accumulate(self.area, at - self.at);
            self.peak = self.peak.max(self.value);
            self.at = at;
        }
        self.value = value;
    }

    /// The largest sampled value (zero before any sample).
    pub fn peak(&self) -> f64 {
        self.peak.max(self.value).to_f64()
    }

    /// The time-weighted mean over `[0, end)`, counting the zero before the
    /// first sample. Returns zero when `end` is the origin.
    ///
    /// # Panics
    /// Panics if `end` precedes the last sample.
    pub fn time_weighted_mean(&self, end: SimTime) -> f64 {
        let end = end.as_micros();
        if end == 0 {
            return 0.0;
        }
        assert!(end >= self.at, "the mean must cover every sample");
        let area = if end > self.at {
            self.value.accumulate(self.area, end - self.at)
        } else {
            self.area
        };
        V::mean(area, end)
    }

    /// Time-weighted mean over peak: 1.0 when the value sat at its peak all
    /// of `[0, end)`, 0.0 for a function that never left zero.
    pub fn duty(&self, end: SimTime) -> f64 {
        let peak = self.peak();
        if peak <= 0.0 {
            return 0.0;
        }
        self.time_weighted_mean(end) / peak
    }
}

/// The pressure signals of one replica.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ReplicaPressure {
    /// Queued prefill jobs over time (from [`TraceKind::QueueDepth`]).
    pub queue_depth: StepFunction<u64>,
    /// Active continuous-batch size over time (from
    /// [`TraceKind::BatchOccupancy`]).
    pub batch_occupancy: StepFunction<u64>,
}

/// Every serving role, in [`Role`] order.
const ROLES: [Role; 3] = [Role::Prefill, Role::Decode, Role::Colocated];

/// An online event consumer keeping one [`ReplicaPressure`] per replica
/// seen. A replica appears on the events that name it
/// ([`TraceKind::replica`]), as in [`crate::TraceLog::series`], so a
/// replica that never sampled a signal still counts, at zero, in role means.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PressureTally {
    /// Indexed by `role as usize`, then replica; `None` for an index no
    /// event has named.
    roles: [Vec<Option<ReplicaPressure>>; 3],
}

impl PressureTally {
    /// An empty tally.
    pub fn new() -> Self {
        PressureTally::default()
    }

    /// Folds one event in. Events must arrive in non-decreasing time order
    /// per replica; every kind but the replica-scoped ones is ignored.
    ///
    /// # Panics
    /// Panics if a replica's sample precedes its previous one.
    #[inline]
    pub fn observe(&mut self, at: SimTime, kind: &TraceKind) {
        let Some((role, replica)) = kind.replica() else {
            return;
        };
        let slots = &mut self.roles[role as usize];
        if slots.len() <= replica {
            slots.resize(replica + 1, None);
        }
        let p = slots[replica].get_or_insert_with(ReplicaPressure::default);
        match *kind {
            TraceKind::QueueDepth { depth, .. } => p.queue_depth.push(at, depth as u64),
            TraceKind::BatchOccupancy { active, .. } => p.batch_occupancy.push(at, active as u64),
            _ => {}
        }
    }

    /// The replicas seen, ascending — the keys of
    /// [`crate::TraceSeries::replicas`] for the same events.
    pub fn replicas(&self) -> Vec<(Role, usize)> {
        ROLES
            .iter()
            .flat_map(|&role| {
                self.roles[role as usize]
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, p)| p.map(|_| (role, i)))
            })
            .collect()
    }

    /// One replica's signals, `None` if no event named it.
    pub fn replica(&self, role: Role, replica: usize) -> Option<&ReplicaPressure> {
        self.roles[role as usize].get(replica)?.as_ref()
    }

    /// The mean of `f` over the replicas of `role` seen, in ascending
    /// replica order; 0.0 when there are none.
    pub fn role_mean(&self, role: Role, f: impl Fn(&ReplicaPressure) -> f64) -> f64 {
        let seen = || self.roles[role as usize].iter().flatten();
        let n = seen().count();
        if n == 0 {
            return 0.0;
        }
        seen().map(f).sum::<f64>() / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn step<V: Sample>(points: &[(u64, V)]) -> StepFunction<V> {
        let mut s = StepFunction::default();
        for &(t, v) in points {
            s.push(at(t), v);
        }
        s
    }

    /// The observable samples: the last one at each instant.
    fn dedup<V: Copy>(points: &[(u64, V)]) -> Vec<(u64, V)> {
        let mut kept: Vec<(u64, V)> = Vec::new();
        for &(t, v) in points {
            match kept.last_mut() {
                Some(last) if last.0 == t => last.1 = v,
                _ => kept.push((t, v)),
            }
        }
        kept
    }

    /// The float fold over a list of points, as the trace log's series did
    /// it: `v · dt` point by point, then the last point's tail, divided by
    /// `end`; the peak folds from zero. Returns `(mean, peak)`.
    fn float_fold(points: &[(u64, f64)], end: u64) -> (f64, f64) {
        let points = dedup(points);
        let peak = points.iter().map(|p| p.1).fold(0.0, f64::max);
        if end == 0 {
            return (0.0, peak);
        }
        let mut area = 0.0;
        for (i, &(t, v)) in points.iter().enumerate() {
            if t >= end {
                break;
            }
            let until = points.get(i + 1).map_or(end, |p| p.0);
            area += v * (until - t) as f64;
        }
        (area / end as f64, peak)
    }

    /// The exact integral over `[0, end)` and the peak.
    fn exact_fold(points: &[(u64, u64)], end: u64) -> (u128, u64) {
        let points = dedup(points);
        let peak = points.iter().map(|p| p.1).max().unwrap_or(0);
        let area = points
            .iter()
            .enumerate()
            .map(|(i, &(t, v))| {
                let until = points.get(i + 1).map_or(end, |p| p.0);
                u128::from(v) * u128::from(until - t)
            })
            .sum();
        (area, peak)
    }

    /// Checks `u64` samples against the exact fold and, while the area
    /// stays below 2⁵³, against the float fold. Returns whether the area
    /// did.
    fn check_counts(points: &[(u64, u64)], end: u64) -> bool {
        let s = step(points);
        let (area, peak) = exact_fold(points, end);
        let mean = if end == 0 {
            0.0
        } else {
            area as f64 / end as f64
        };
        let what = || format!("{points:?} over [0, {end})");
        assert_eq!(
            s.time_weighted_mean(at(end)).to_bits(),
            mean.to_bits(),
            "{}",
            what()
        );
        assert_eq!(s.peak().to_bits(), (peak as f64).to_bits(), "{}", what());
        let exact_in_floats = area < 1 << 53;
        if exact_in_floats {
            let floats: Vec<(u64, f64)> = points.iter().map(|&(t, v)| (t, v as f64)).collect();
            let (fmean, fpeak) = float_fold(&floats, end);
            assert_eq!(mean.to_bits(), fmean.to_bits(), "{}", what());
            assert_eq!((peak as f64).to_bits(), fpeak.to_bits(), "{}", what());
        }
        exact_in_floats
    }

    /// Checks `f64` samples against the float fold, bit for bit.
    fn check_fractions(points: &[(u64, f64)], end: u64) {
        let s = step(points);
        let (mean, peak) = float_fold(points, end);
        let what = || format!("{points:?} over [0, {end})");
        assert_eq!(
            s.time_weighted_mean(at(end)).to_bits(),
            mean.to_bits(),
            "{}",
            what()
        );
        assert_eq!(s.peak().to_bits(), peak.to_bits(), "{}", what());
    }

    /// A random instant gap: often none (an overwrite), else short or long.
    fn gap(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..4u32) {
            0 => 0,
            1 => rng.gen_range(1..=5u64),
            2 => rng.gen_range(1..=1_000u64),
            _ => rng.gen_range(1..=20_000_000u64),
        }
    }

    #[test]
    fn matches_the_series_bit_for_bit() {
        let cases: &[&[(u64, u64)]] = &[
            &[],
            &[(0, 3)],
            &[(0, 5), (0, 2)],
            &[(5, 9), (5, 1), (7, 4), (10, 0)],
            &[(1, 3), (4, 7), (4, 2), (9, 6), (9, 6), (20, 1)],
            &[(3, 1), (11, 8), (17, 0), (40, 2)],
        ];
        for points in cases {
            let fractions: Vec<(u64, f64)> =
                points.iter().map(|&(t, v)| (t, v as f64 / 7.0)).collect();
            let last = points.last().map_or(0, |p| p.0);
            for end in [last, last + 1, last + 7, 100] {
                assert!(check_counts(points, end));
                check_fractions(&fractions, end);
            }
        }
        // Seeded draws: empty and single-sample inputs, same-instant
        // overwrites (of a peak too), gaps from 1us to 20s, counts past
        // 2^53 value·us, and `end` at or after the last sample.
        let mut rng = StdRng::seed_from_u64(43);
        let mut past_floats = 0;
        for _ in 0..1_000 {
            let n = rng.gen_range(0..=12usize);
            let mut t = rng.gen_range(0..=2u64);
            let mut counts = Vec::with_capacity(n);
            let mut fractions = Vec::with_capacity(n);
            for _ in 0..n {
                let count = match rng.gen_range(0..3u32) {
                    0 => 0,
                    1 => rng.gen_range(1..=64u64),
                    _ => rng.gen_range(1..=1u64 << 40),
                };
                let fraction = match rng.gen_range(0..4u32) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen::<f64>(),
                };
                counts.push((t, count));
                fractions.push((t, fraction));
                t += gap(&mut rng);
            }
            let last = counts.last().map_or(0, |p| p.0);
            let end = last + if rng.gen_bool(0.3) { 0 } else { gap(&mut rng) };
            if !check_counts(&counts, end) {
                past_floats += 1;
            }
            check_fractions(&fractions, end);
        }
        assert!(past_floats > 0, "some draws must need the exact integral");
    }

    #[test]
    fn overwritten_sample_is_not_a_peak() {
        assert_eq!(step(&[(2, 50u64), (2, 3), (6, 1)]).peak(), 3.0);
        assert_eq!(step(&[(2, 0.5), (2, 0.25), (6, 0.125)]).peak(), 0.25);
    }

    #[test]
    fn duty_is_mean_over_peak() {
        // Half the window at 8, half at 0: mean 4, peak 8, duty 0.5.
        let s = step(&[(0, 8u64), (500_000, 0)]);
        assert_eq!(s.duty(at(1_000_000)), 0.5);
        assert_eq!(StepFunction::<u64>::default().duty(at(10)), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_sample_panics() {
        step(&[(10, 1u64), (5, 1)]);
    }

    /// The mean covers every sample: an `end` before the last one would
    /// need the integral past it cut back.
    #[test]
    #[should_panic(expected = "the mean must cover every sample")]
    fn mean_before_the_last_sample_panics() {
        step(&[(0, 2.0), (100, 8.0)]).time_weighted_mean(at(50));
    }

    #[test]
    fn tally_registers_replicas_like_the_log() {
        let mut t = PressureTally::new();
        t.observe(
            at(0),
            &TraceKind::Enqueued {
                request: ts_common::RequestId(1),
                role: Role::Prefill,
                replica: 2,
            },
        );
        t.observe(
            at(1),
            &TraceKind::QueueDepth {
                role: Role::Prefill,
                replica: 0,
                depth: 4,
            },
        );
        t.observe(
            at(3),
            &TraceKind::BatchOccupancy {
                role: Role::Decode,
                replica: 1,
                active: 2,
            },
        );
        t.observe(at(4), &TraceKind::ServiceResumed);
        assert_eq!(
            t.replicas(),
            vec![(Role::Prefill, 0), (Role::Prefill, 2), (Role::Decode, 1)]
        );
        assert!(t.replica(Role::Prefill, 1).is_none());
        // Prefill 0 holds 4 over [1, 5) of [0, 5); prefill 2 never sampled.
        let q = t.role_mean(Role::Prefill, |p| p.queue_depth.time_weighted_mean(at(5)));
        assert_eq!(q, (16.0 / 5.0) / 2.0);
        // Decode 1 holds 2 over [3, 5): mean 0.8 over peak 2.
        assert_eq!(
            t.role_mean(Role::Decode, |p| p.batch_occupancy.duty(at(5))),
            0.4
        );
        assert_eq!(t.role_mean(Role::Colocated, |_| 1.0), 0.0);
    }
}
