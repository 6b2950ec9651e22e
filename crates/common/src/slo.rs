//! Service-level objectives.
//!
//! Following the paper (§2, §5.1), a request is "good" under three latency
//! criteria: time-to-first-token (TTFT), time-per-output-token (TPOT) and
//! end-to-end latency (E2E). SLO deadlines are expressed as *multiples* of a
//! reference single-device execution latency ("SLO scale"), which lets the
//! evaluation sweep stringency levels.

use crate::SimDuration;
use std::fmt;

/// Which latency criterion an SLO refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SloKind {
    /// Time to first token: arrival → first token emitted.
    Ttft,
    /// Average time per output token during decoding.
    Tpot,
    /// End-to-end latency: arrival → last token emitted.
    E2e,
}

impl SloKind {
    /// All three criteria in TTFT, TPOT, E2E order.
    pub const ALL: [SloKind; 3] = [SloKind::Ttft, SloKind::Tpot, SloKind::E2e];
}

impl fmt::Display for SloKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SloKind::Ttft => f.write_str("TTFT"),
            SloKind::Tpot => f.write_str("TPOT"),
            SloKind::E2e => f.write_str("E2E"),
        }
    }
}

/// Absolute SLO deadlines for one workload.
///
/// ```
/// use ts_common::{SloSpec, SimDuration, SloKind};
/// let base = SloSpec::new(
///     SimDuration::from_millis(500),
///     SimDuration::from_millis(50),
///     SimDuration::from_secs(5),
/// );
/// let relaxed = base.scaled(2.0);
/// assert_eq!(relaxed.deadline(SloKind::Tpot), SimDuration::from_millis(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SloSpec {
    /// TTFT deadline.
    pub ttft: SimDuration,
    /// TPOT deadline (average per generated token).
    pub tpot: SimDuration,
    /// End-to-end deadline.
    pub e2e: SimDuration,
}

impl SloSpec {
    /// Creates an SLO from the three deadlines.
    pub fn new(ttft: SimDuration, tpot: SimDuration, e2e: SimDuration) -> Self {
        SloSpec { ttft, tpot, e2e }
    }

    /// The deadline for one criterion.
    #[inline]
    pub fn deadline(&self, kind: SloKind) -> SimDuration {
        match kind {
            SloKind::Ttft => self.ttft,
            SloKind::Tpot => self.tpot,
            SloKind::E2e => self.e2e,
        }
    }

    /// All three deadlines multiplied by `scale` (the paper's "SLO scale").
    ///
    /// # Panics
    /// Panics if `scale` is negative or not finite.
    pub fn scaled(&self, scale: f64) -> SloSpec {
        SloSpec {
            ttft: self.ttft.mul_f64(scale),
            tpot: self.tpot.mul_f64(scale),
            e2e: self.e2e.mul_f64(scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SloSpec {
        SloSpec::new(
            SimDuration::from_millis(400),
            SimDuration::from_millis(40),
            SimDuration::from_secs(4),
        )
    }

    #[test]
    fn scaled_multiplies_all_deadlines() {
        let s = base().scaled(1.5);
        assert_eq!(s.ttft, SimDuration::from_millis(600));
        assert_eq!(s.tpot, SimDuration::from_millis(60));
        assert_eq!(s.e2e, SimDuration::from_millis(6000));
    }

    #[test]
    fn deadline_selects_kind() {
        let s = base();
        for kind in SloKind::ALL {
            assert!(!s.deadline(kind).is_zero());
        }
        assert_eq!(s.deadline(SloKind::Ttft), s.ttft);
    }

    #[test]
    fn kind_display_matches_paper() {
        assert_eq!(SloKind::Ttft.to_string(), "TTFT");
        assert_eq!(SloKind::E2e.to_string(), "E2E");
    }
}
