//! Simulated time.
//!
//! The discrete-event simulator needs totally ordered, exactly comparable
//! timestamps; floating point would make event ordering fragile. We therefore
//! represent simulated time as integer **microseconds** since the start of
//! the simulation.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// `x.round()` for non-negative `x`, without the libm call.
///
/// On baseline x86-64 (no SSE4.1 `roundsd`) `f64::round` compiles to a call
/// into libm, and the simulator converts floats to timestamps millions of
/// times per run — it shows up in profiles. For `x < 2^53` every integer in
/// play is exactly representable, so truncate-and-compare reproduces
/// round-half-away-from-zero bit-for-bit with three inline instructions;
/// larger values (285+ simulated years in microseconds) take the slow path.
#[inline]
fn round_nonneg(x: f64) -> u64 {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if x < EXACT {
        let i = x as u64; // truncation; exact since x < 2^53
        i + (x - i as f64 >= 0.5) as u64
    } else {
        x.round() as u64
    }
}

/// An instant in simulated time (microseconds since simulation start).
///
/// ```
/// use ts_common::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
///
/// ```
/// use ts_common::SimDuration;
/// let d = SimDuration::from_secs_f64(0.25) * 2;
/// assert_eq!(d.as_secs_f64(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from (possibly fractional) seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs}");
        SimTime(round_nonneg(secs * 1e6))
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN or infinite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration(round_nonneg(secs * 1e6))
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration expressed in milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This duration expressed in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether this duration is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Duration scaled by a non-negative float, rounding to whole microseconds.
    ///
    /// # Panics
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor: {factor}"
        );
        SimDuration(round_nonneg(self.0 as f64 * factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Elapsed time between two instants.
    ///
    /// # Panics
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "time went backwards: {self:?} - {rhs:?}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    /// Panics if `rhs` is zero.
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_nonneg_matches_libm_round() {
        // Adversarial cases: exact halves (round half away from zero), the
        // largest double below 0.5 (where the naive `floor(x + 0.5)` trick
        // breaks), values straddling the 2^53 exactness cliff, and a sweep
        // of awkward fractions at realistic microsecond magnitudes.
        let mut cases = vec![
            0.0,
            0.25,
            0.49999999999999994, // nextbelow(0.5): rounds to 0, x+0.5 would give 1
            0.5,
            0.75,
            1.5,
            2.5,
            9_007_199_254_740_991.0, // 2^53 - 1
            9_007_199_254_740_992.0, // 2^53 (slow path)
            9_007_199_254_740_994.0,
            1.8e16,
        ];
        let mut x = 0.1;
        while x < 1e12 {
            cases.push(x);
            cases.push(x + 0.5);
            x = x * 9.7 + 0.3;
        }
        for &c in &cases {
            assert_eq!(round_nonneg(c), c.round() as u64, "diverged at {c}");
        }
    }

    #[test]
    fn arithmetic_round_trips() {
        let t0 = SimTime::from_secs_f64(1.0);
        let d = SimDuration::from_millis(250);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1.as_micros(), 1_250_000);
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(42).to_string(), "42us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(3);
        assert_eq!(d.mul_f64(0.5).as_micros(), 2); // 1.5 rounds to 2
        assert_eq!(d.mul_f64(2.0).as_micros(), 6);
    }

    #[test]
    #[should_panic]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_micros(3),
            SimTime::ZERO,
            SimTime::from_micros(1),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_micros(3));
    }
}
