//! Online per-replica pressure: each replica's queue-depth and
//! batch-occupancy step functions, integrated as the events arrive.
//!
//! [`crate::TraceLog::queue_depth_series`] and
//! [`crate::TraceLog::batch_occupancy_series`] answer the same questions
//! after the run, from a recorded and sorted log. A consumer that needs only
//! each replica's time-weighted mean and peak (the autoscaler, between
//! serving segments) reads them from a [`PressureTally`] instead: a few
//! words per replica, no event buffer, no sort, no rescan. Every sample is
//! an integer held for an integer number of microseconds, so the integral
//! is exact and [`StepIntegral::time_weighted_mean`] is bit-identical to
//! [`crate::UtilizationSeries::time_weighted_mean`] over the same samples
//! while the series' own `f64` sum stays below 2⁵³.

use crate::event::{Role, TraceKind};
use ts_common::SimTime;

/// A right-continuous integer step function of simulated time, integrated
/// online: the value sampled at instant `t` holds until the next sample,
/// and before the first sample the value is zero. Follows the rules of
/// [`crate::UtilizationSeries`]: a sample at the same instant as the last
/// one overwrites it, and the mean covers `[0, end)`.
///
/// ```
/// use ts_common::SimTime;
/// use ts_telemetry::pressure::StepIntegral;
/// let mut s = StepIntegral::default();
/// s.push(SimTime::from_micros(2), 4);
/// s.push(SimTime::from_micros(6), 1);
/// assert_eq!(s.peak(), 4.0);
/// // 0 for 2us, 4 for 4us, 1 for 2us over [0, 8us): mean = 18/8.
/// assert_eq!(s.time_weighted_mean(SimTime::from_micros(8)), 2.25);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StepIntegral {
    /// Instant of the latest sample, in microseconds.
    at: u64,
    /// The latest sample, holding from `at` on.
    value: u64,
    /// The integral of the function over `[0, at)`, in value·µs.
    integral: u128,
    /// The largest sample before `at` (the latest sample may still be
    /// overwritten, so it joins the peak only when time moves on).
    peak: u64,
}

impl StepIntegral {
    /// Adds a sample. Samples must arrive in non-decreasing time order; a
    /// sample at the same instant as the last one overwrites it.
    ///
    /// # Panics
    /// Panics if `at` precedes the last sample.
    #[inline]
    pub fn push(&mut self, at: SimTime, value: u64) {
        let at = at.as_micros();
        assert!(at >= self.at, "step samples must be time-ordered");
        if at > self.at {
            self.integral += u128::from(self.value) * u128::from(at - self.at);
            self.peak = self.peak.max(self.value);
            self.at = at;
        }
        self.value = value;
    }

    /// The largest sampled value (zero before any sample).
    pub fn peak(&self) -> f64 {
        self.peak.max(self.value) as f64
    }

    /// The time-weighted mean over `[0, end)`, counting the zero before the
    /// first sample. Returns zero when `end` is the origin.
    ///
    /// # Panics
    /// Panics if `end` precedes the last sample: the integral past it is
    /// already folded in and cannot be cut back.
    pub fn time_weighted_mean(&self, end: SimTime) -> f64 {
        let end = end.as_micros();
        if end == 0 {
            return 0.0;
        }
        assert!(end >= self.at, "mean must cover every sample");
        let tail = u128::from(self.value) * u128::from(end - self.at);
        (self.integral + tail) as f64 / end as f64
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
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaPressure {
    /// Queued prefill jobs over time (from [`TraceKind::QueueDepth`]).
    pub queue_depth: StepIntegral,
    /// Active continuous-batch size over time (from
    /// [`TraceKind::BatchOccupancy`]).
    pub batch_occupancy: StepIntegral,
}

/// Every serving role, in [`Role`] order.
const ROLES: [Role; 3] = [Role::Prefill, Role::Decode, Role::Colocated];

/// An online event consumer keeping one [`ReplicaPressure`] per replica
/// seen. A replica appears on the same events that make it appear in
/// [`crate::TraceLog::replicas`] ([`TraceKind::replica`]), so a replica
/// that never sampled a signal still counts, at zero, in role means.
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

    /// The replicas seen, ascending — the same list
    /// [`crate::TraceLog::replicas`] gives for the same events.
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
    use crate::series::UtilizationSeries;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Pushes the same samples into a tally and a series.
    fn both(points: &[(u64, u64)]) -> (StepIntegral, UtilizationSeries) {
        let mut s = StepIntegral::default();
        let mut u = UtilizationSeries::new();
        for &(t, v) in points {
            s.push(at(t), v);
            u.push(at(t), v as f64);
        }
        (s, u)
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
            let (s, u) = both(points);
            assert_eq!(s.peak().to_bits(), u.peak().to_bits(), "{points:?}");
            let last = points.last().map_or(0, |p| p.0);
            for end in [last, last + 1, last + 7, 100] {
                assert_eq!(
                    s.time_weighted_mean(at(end)).to_bits(),
                    u.time_weighted_mean(at(end)).to_bits(),
                    "{points:?} over [0, {end})"
                );
            }
        }
    }

    #[test]
    fn overwritten_sample_is_not_a_peak() {
        let (s, u) = both(&[(2, 50), (2, 3), (6, 1)]);
        assert_eq!(s.peak(), 3.0);
        assert_eq!(u.peak(), 3.0);
    }

    #[test]
    fn duty_is_mean_over_peak() {
        // Half the window at 8, half at 0: mean 4, peak 8, duty 0.5.
        let (s, _) = both(&[(0, 8), (500_000, 0)]);
        assert_eq!(s.duty(at(1_000_000)), 0.5);
        assert_eq!(StepIntegral::default().duty(at(10)), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_sample_panics() {
        let mut s = StepIntegral::default();
        s.push(at(10), 1);
        s.push(at(5), 1);
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
