//! Inference phases.

use std::fmt;

/// The two phases of autoregressive LLM inference.
///
/// The *prefill* phase processes the whole prompt in one compute-bound pass
/// and produces the KV cache plus the first token; the *decode* phase then
/// generates one token per step and is bound by memory bandwidth. Phase-split
/// serving assigns entire model replicas to one phase or the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Prompt processing: compute-bound, latency-sensitive (TTFT).
    Prefill,
    /// Token generation: memory-bandwidth-bound, throughput-oriented (TPOT).
    Decode,
}

impl Phase {
    /// The other phase; used by the "flip" tabu move and lightweight
    /// rescheduling.
    ///
    /// ```
    /// use ts_common::Phase;
    /// assert_eq!(Phase::Prefill.opposite(), Phase::Decode);
    /// assert_eq!(Phase::Decode.opposite(), Phase::Prefill);
    /// ```
    #[inline]
    pub const fn opposite(self) -> Phase {
        match self {
            Phase::Prefill => Phase::Decode,
            Phase::Decode => Phase::Prefill,
        }
    }

    /// Both phases, in prefill-first order.
    pub const ALL: [Phase; 2] = [Phase::Prefill, Phase::Decode];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Prefill => f.write_str("prefill"),
            Phase::Decode => f.write_str("decode"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_is_involutive() {
        for p in Phase::ALL {
            assert_eq!(p.opposite().opposite(), p);
            assert_ne!(p.opposite(), p);
        }
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(Phase::Prefill.to_string(), "prefill");
        assert_eq!(Phase::Decode.to_string(), "decode");
    }
}
