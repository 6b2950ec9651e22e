//! Token-length distributions.

use rand::Rng;
use ts_common::rng::standard_normal;

/// A clamped lognormal distribution over token counts, parameterized by its
/// median (the statistic the paper reports for the Azure traces).
///
/// ```
/// use ts_workload::LengthDistribution;
/// let d = LengthDistribution::lognormal(129, 0.7, 1, 2048);
/// let mut rng = ts_common::seeded_rng(1);
/// let samples: Vec<u32> = (0..1000).map(|_| d.sample(&mut rng)).collect();
/// let mut sorted = samples.clone();
/// sorted.sort_unstable();
/// let median = sorted[500];
/// assert!((median as f64 / 129.0 - 1.0).abs() < 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthDistribution {
    /// Median token count (lognormal `exp(mu)`).
    pub median: u32,
    /// Lognormal shape parameter (sigma of the underlying normal).
    pub sigma: f64,
    /// Inclusive lower clamp.
    pub min: u32,
    /// Inclusive upper clamp.
    pub max: u32,
}

impl LengthDistribution {
    /// Creates a lognormal length distribution.
    ///
    /// # Panics
    /// Panics if `median` is zero, `sigma` is negative/non-finite, or
    /// `min > max`.
    pub fn lognormal(median: u32, sigma: f64, min: u32, max: u32) -> Self {
        assert!(median > 0, "median must be positive");
        assert!(sigma.is_finite() && sigma >= 0.0, "bad sigma {sigma}");
        assert!(min <= max, "min {min} > max {max}");
        LengthDistribution {
            median,
            sigma,
            min,
            max,
        }
    }

    /// A degenerate distribution always returning `value`.
    pub fn constant(value: u32) -> Self {
        LengthDistribution {
            median: value.max(1),
            sigma: 0.0,
            min: value.max(1),
            max: value.max(1),
        }
    }

    /// Draws one length.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        if self.sigma == 0.0 {
            return self.median.clamp(self.min, self.max);
        }
        let z = standard_normal(rng);
        let v = (self.median as f64) * (self.sigma * z).exp();
        (v.round() as u32).clamp(self.min, self.max)
    }

    /// Analytic mean of the clamped-free lognormal (`median·exp(σ²/2)`);
    /// a good approximation when clamps are loose. Used for cost estimation.
    pub fn mean(&self) -> f64 {
        let m = self.median as f64 * (self.sigma * self.sigma / 2.0).exp();
        m.clamp(self.min as f64, self.max as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_common::seeded_rng;

    #[test]
    fn constant_always_returns_value() {
        let d = LengthDistribution::constant(42);
        let mut rng = seeded_rng(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 42);
        }
    }

    #[test]
    fn samples_respect_clamps() {
        let d = LengthDistribution::lognormal(100, 1.5, 50, 200);
        let mut rng = seeded_rng(1);
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!((50..=200).contains(&s));
        }
    }

    #[test]
    fn empirical_median_tracks_parameter() {
        let d = LengthDistribution::lognormal(1000, 0.5, 1, 100_000);
        let mut rng = seeded_rng(2);
        let mut v: Vec<u32> = (0..4000).map(|_| d.sample(&mut rng)).collect();
        v.sort_unstable();
        let med = v[2000] as f64;
        assert!((med / 1000.0 - 1.0).abs() < 0.1, "median {med}");
    }

    #[test]
    fn mean_exceeds_median_for_lognormal() {
        let d = LengthDistribution::lognormal(100, 0.8, 1, 10_000);
        assert!(d.mean() > 100.0);
        let c = LengthDistribution::constant(7);
        assert_eq!(c.mean(), 7.0);
    }

    #[test]
    #[should_panic]
    fn zero_median_panics() {
        let _ = LengthDistribution::lognormal(0, 0.5, 1, 10);
    }
}
