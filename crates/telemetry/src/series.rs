//! Step-function time series derived from sampled trace events.

use ts_common::SimTime;

/// A right-continuous step function of simulated time: the value set at
/// instant `t` holds until the next sample. Before the first sample the
/// value is implicitly zero.
///
/// ```
/// use ts_common::SimTime;
/// use ts_telemetry::UtilizationSeries;
/// let mut s = UtilizationSeries::new();
/// s.push(SimTime::from_micros(2), 4.0);
/// s.push(SimTime::from_micros(6), 1.0);
/// assert_eq!(s.peak(), 4.0);
/// // 0 for 2us, 4 for 4us, 1 for 2us over [0, 8us): mean = 18/8.
/// assert!((s.time_weighted_mean(SimTime::from_micros(8)) - 2.25).abs() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct UtilizationSeries {
    /// `(instant, value)` samples, strictly increasing in time.
    points: Vec<(SimTime, f64)>,
}

impl UtilizationSeries {
    /// An empty series (constantly zero).
    pub fn new() -> Self {
        UtilizationSeries::default()
    }

    /// Appends a sample. Samples must arrive in non-decreasing time order;
    /// a sample at the same instant as the last one overwrites it (only the
    /// final value at an instant is observable).
    ///
    /// # Panics
    /// Panics if `at` precedes the last sample.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(last) = self.points.last_mut() {
            assert!(at >= last.0, "series samples must be time-ordered");
            if last.0 == at {
                last.1 = value;
                return;
            }
        }
        self.points.push((at, value));
    }

    /// The raw `(instant, value)` samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The largest sampled value (zero for an empty series).
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// The time-weighted mean over `[0, end)`, counting the implicit zero
    /// before the first sample. Returns zero when `end` is the origin.
    pub fn time_weighted_mean(&self, end: SimTime) -> f64 {
        let horizon = end.as_micros();
        if horizon == 0 {
            return 0.0;
        }
        let mut integral = 0.0;
        for (i, &(at, v)) in self.points.iter().enumerate() {
            if at >= end {
                break;
            }
            let until = self
                .points
                .get(i + 1)
                .map(|&(next, _)| next.min(end))
                .unwrap_or(end);
            integral += v * (until.as_micros() - at.as_micros()) as f64;
        }
        integral / horizon as f64
    }
}

#[cfg(test)]
impl UtilizationSeries {
    /// The value holding at instant `t` (zero before the first sample).
    pub(crate) fn value_at(&self, t: SimTime) -> f64 {
        match self.points.partition_point(|&(at, _)| at <= t) {
            0 => 0.0,
            n => self.points[n - 1].1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_is_constant_zero() {
        let s = UtilizationSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.value_at(SimTime::from_micros(100)), 0.0);
        assert_eq!(s.peak(), 0.0);
        assert_eq!(s.time_weighted_mean(SimTime::from_micros(100)), 0.0);
    }

    #[test]
    fn value_at_is_right_continuous() {
        let mut s = UtilizationSeries::new();
        s.push(SimTime::from_micros(10), 2.0);
        assert_eq!(s.value_at(SimTime::from_micros(9)), 0.0);
        assert_eq!(s.value_at(SimTime::from_micros(10)), 2.0);
        assert_eq!(s.value_at(SimTime::from_micros(11)), 2.0);
    }

    #[test]
    fn same_instant_sample_overwrites() {
        let mut s = UtilizationSeries::new();
        s.push(SimTime::from_micros(5), 1.0);
        s.push(SimTime::from_micros(5), 3.0);
        assert_eq!(s.points().len(), 1);
        assert_eq!(s.value_at(SimTime::from_micros(5)), 3.0);
    }

    #[test]
    fn mean_truncates_at_end() {
        let mut s = UtilizationSeries::new();
        s.push(SimTime::ZERO, 2.0);
        s.push(SimTime::from_micros(100), 8.0);
        // Only the first 50us count: mean = 2.
        assert_eq!(s.time_weighted_mean(SimTime::from_micros(50)), 2.0);
        // Over 200us: 2 for 100us + 8 for 100us = 5.
        assert_eq!(s.time_weighted_mean(SimTime::from_micros(200)), 5.0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_sample_panics() {
        let mut s = UtilizationSeries::new();
        s.push(SimTime::from_micros(10), 1.0);
        s.push(SimTime::from_micros(5), 1.0);
    }
}
