//! Deterministic randomness helpers.
//!
//! Every stochastic component in the workspace (workload generation, tabu
//! search tie-breaking, synthetic KV tensors) accepts an explicit seed so all
//! experiments are exactly reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
///
/// ```
/// use rand::Rng;
/// let mut a = ts_common::seeded_rng(7);
/// let mut b = ts_common::seeded_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// One standard normal draw by Box–Muller: `u1` from `EPSILON..1.0`, then
/// `u2` from `0.0..1.0`, giving `sqrt(-2 ln u1) · cos(2π u2)`. Every normal
/// and lognormal sampler in the workspace draws through this, so their
/// streams stay in lockstep with the seed.
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Derives a child seed from a parent seed and a stream index, so subsystems
/// can fork independent deterministic streams (SplitMix64 finalizer).
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let xs: Vec<u32> = {
            let mut r = seeded_rng(42);
            (0..8).map(|_| r.gen()).collect()
        };
        let ys: Vec<u32> = {
            let mut r = seeded_rng(42);
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(xs, ys);
    }

    #[test]
    fn derived_seeds_differ_by_stream() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
