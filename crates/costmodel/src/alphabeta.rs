//! The alpha-beta (Hockney) communication model.
//!
//! A message of `bytes` over a link with startup latency `α` and bandwidth
//! `β` takes `α + bytes/β` — Equation (1) of the paper, used for KV-cache
//! transfers, pipeline activations and tensor-parallel collectives.

use ts_common::SimDuration;

/// A point-to-point link: startup latency plus bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCost {
    /// Startup latency (α).
    pub alpha: SimDuration,
    /// Bandwidth in bytes/second (β).
    pub beta: f64,
}

impl CommCost {
    /// Creates a link descriptor.
    ///
    /// # Panics
    /// Panics if `beta` is not positive (use [`CommCost::LOOPBACK`] for
    /// free transfers).
    pub fn new(alpha: SimDuration, beta: f64) -> Self {
        assert!(beta > 0.0, "bandwidth must be positive, got {beta}");
        CommCost { alpha, beta }
    }

    /// A free link (same GPU): zero latency, infinite bandwidth.
    pub const LOOPBACK: CommCost = CommCost {
        alpha: SimDuration::ZERO,
        beta: f64::INFINITY,
    };

    /// Time to move `bytes` over this link.
    pub fn time(&self, bytes: u64) -> SimDuration {
        transfer_time(bytes, self.alpha, self.beta)
    }
}

/// `α + bytes/β`.
///
/// ```
/// use ts_common::SimDuration;
/// use ts_costmodel::transfer_time;
/// let t = transfer_time(1_000_000, SimDuration::from_micros(100), 1e9);
/// assert_eq!(t, SimDuration::from_micros(1_100)); // 100us + 1ms
/// ```
pub fn transfer_time(bytes: u64, alpha: SimDuration, beta: f64) -> SimDuration {
    if bytes == 0 {
        return SimDuration::ZERO;
    }
    if beta.is_infinite() {
        return alpha;
    }
    alpha + SimDuration::from_secs_f64(bytes as f64 / beta)
}

/// Ring all-reduce across `world` participants of a `bytes`-sized buffer.
///
/// Each participant sends/receives `2·(world−1)/world · bytes` over the
/// bottleneck link and pays `2·(world−1)` startup latencies.
///
/// Returns zero for `world <= 1`.
pub fn allreduce_time(bytes: u64, world: usize, alpha: SimDuration, beta: f64) -> SimDuration {
    if world <= 1 || bytes == 0 {
        return SimDuration::ZERO;
    }
    let steps = 2 * (world - 1) as u64;
    let volume = 2.0 * (world as f64 - 1.0) / world as f64 * bytes as f64;
    let latency = alpha * steps;
    if beta.is_infinite() {
        return latency;
    }
    latency + SimDuration::from_secs_f64(volume / beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(
            transfer_time(0, SimDuration::from_micros(100), 1e9),
            SimDuration::ZERO
        );
        assert_eq!(
            allreduce_time(0, 4, SimDuration::from_micros(10), 1e9),
            SimDuration::ZERO
        );
    }

    #[test]
    fn single_participant_allreduce_is_free() {
        assert_eq!(
            allreduce_time(1 << 20, 1, SimDuration::from_micros(10), 1e9),
            SimDuration::ZERO
        );
    }

    #[test]
    fn allreduce_volume_scales_with_world() {
        let a = SimDuration::ZERO;
        let t2 = allreduce_time(1_000_000_000, 2, a, 1e9);
        let t4 = allreduce_time(1_000_000_000, 4, a, 1e9);
        // 2*(w-1)/w: 1.0 for w=2, 1.5 for w=4
        assert_eq!(t2, SimDuration::from_secs(1));
        assert_eq!(t4, SimDuration::from_secs_f64(1.5));
    }

    #[test]
    fn loopback_is_instant() {
        assert_eq!(CommCost::LOOPBACK.time(1 << 30), SimDuration::ZERO);
    }

    #[test]
    fn alpha_dominates_small_messages() {
        let link = CommCost::new(SimDuration::from_micros(200), 1e9);
        let small = link.time(100);
        assert!(small >= SimDuration::from_micros(200));
        assert!(small < SimDuration::from_micros(202));
    }

    #[test]
    #[should_panic]
    fn non_positive_bandwidth_panics() {
        let _ = CommCost::new(SimDuration::ZERO, 0.0);
    }
}
