//! The step series [`crate::TraceLog::series`] derives from sampled events.

use crate::event::{LinkKind, Role};
use crate::pressure::{Sample, StepFunction};
use std::collections::BTreeMap;
use ts_common::SimTime;

/// A [`StepFunction`] that also keeps its samples, the last one at each
/// instant: the points a Chrome counter track draws.
///
/// ```
/// use ts_common::SimTime;
/// use ts_telemetry::StepSeries;
/// let mut s = StepSeries::<f64>::default();
/// s.push(SimTime::from_micros(2), 0.5);
/// s.push(SimTime::from_micros(6), 0.25);
/// s.push(SimTime::from_micros(6), 0.125);
/// assert_eq!(s.points().len(), 2);
/// // 0 for 2us, 0.5 for 4us, 0.125 for 2us over [0, 8us): mean = 2.25/8.
/// assert_eq!(s.step().time_weighted_mean(SimTime::from_micros(8)), 0.28125);
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StepSeries<V: Sample> {
    /// `(instant, value)` samples, strictly increasing in time.
    points: Vec<(SimTime, V)>,
    /// The function the samples describe.
    step: StepFunction<V>,
}

impl<V: Sample> StepSeries<V> {
    /// Appends a sample, overwriting the last one if it is at the same
    /// instant.
    ///
    /// # Panics
    /// Panics if `at` precedes the last sample.
    pub fn push(&mut self, at: SimTime, value: V) {
        self.step.push(at, value);
        match self.points.last_mut() {
            Some(last) if last.0 == at => last.1 = value,
            _ => self.points.push((at, value)),
        }
    }

    /// The `(instant, value)` samples, one per instant.
    pub fn points(&self) -> &[(SimTime, V)] {
        &self.points
    }

    /// The step function: its peak and time-weighted mean.
    pub fn step(&self) -> &StepFunction<V> {
        &self.step
    }
}

/// One replica's sampled signals.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ReplicaSeries {
    /// Queued prefill jobs (from [`crate::TraceKind::QueueDepth`]).
    pub queue_depth: StepSeries<u64>,
    /// Active continuous-batch size (from
    /// [`crate::TraceKind::BatchOccupancy`]).
    pub batch_occupancy: StepSeries<u64>,
}

/// One fabric link's sampled utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSeries {
    /// The link's class, from its first sample.
    pub kind: LinkKind,
    /// The link's capacity in bytes per second, from its first sample.
    pub capacity_bps: f64,
    /// Used over capacity, a fraction in `[0, 1]`.
    pub utilization: StepSeries<f64>,
}

/// Every step series of a log, from [`crate::TraceLog::series`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceSeries {
    /// Each replica any event names ([`crate::TraceKind::replica`]),
    /// ascending; a replica that never sampled a signal has empty series.
    pub replicas: BTreeMap<(Role, usize), ReplicaSeries>,
    /// Total KV bytes in flight, from enqueue, delivery and drop events (no
    /// engine-side tally exists).
    pub inflight_kv_bytes: StepSeries<u64>,
    /// Each sampled fabric link, by link index. Empty unless the flow-level
    /// fabric ran with telemetry on.
    pub links: BTreeMap<usize, LinkSeries>,
}

#[cfg(test)]
impl<V: Sample> StepSeries<V> {
    /// The value holding at instant `t` (zero before the first sample).
    pub(crate) fn value_at(&self, t: SimTime) -> V {
        match self.points.partition_point(|&(at, _)| at <= t) {
            0 => V::default(),
            n => self.points[n - 1].1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn empty_series_is_constant_zero() {
        let s = StepSeries::<f64>::default();
        assert!(s.points().is_empty());
        assert_eq!(s.value_at(at(100)), 0.0);
        assert_eq!(s.step().peak(), 0.0);
        assert_eq!(s.step().time_weighted_mean(at(100)), 0.0);
    }

    #[test]
    fn value_at_is_right_continuous() {
        let mut s = StepSeries::default();
        s.push(at(10), 2u64);
        assert_eq!(s.value_at(at(9)), 0);
        assert_eq!(s.value_at(at(10)), 2);
        assert_eq!(s.value_at(at(11)), 2);
    }

    #[test]
    fn same_instant_sample_overwrites() {
        let mut s = StepSeries::default();
        s.push(at(5), 1.0);
        s.push(at(5), 3.0);
        assert_eq!(s.points(), &[(at(5), 3.0)]);
        assert_eq!(s.value_at(at(5)), 3.0);
        assert_eq!(s.step().time_weighted_mean(at(10)), 1.5);
    }

    #[test]
    #[should_panic]
    fn out_of_order_sample_panics() {
        let mut s = StepSeries::default();
        s.push(at(10), 1.0);
        s.push(at(5), 1.0);
    }
}
