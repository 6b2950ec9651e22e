//! A fast, deterministic, non-cryptographic hasher for in-process maps.
//!
//! The scheduler's maps are keyed by values that are already hashes
//! (`CandidateGroup::group_hash`, `Candidate::canonical_hash`) or by short
//! word vectors (phase vectors, bandwidth-matrix bits). std's SipHash spends
//! most of a lookup guarding against adversarial keys these maps never
//! see. [`FoldHasher`] folds each 64-bit word into its state with one
//! full-width multiply, whose high and low halves are xored together, so
//! every output bit depends on every input bit: a table may index by any
//! slice of the hash, and keys that agree in their low bits still spread.
//!
//! The hash has no random seed, so it is the same in every run. No code may
//! let a map's iteration order reach an output; the maps built on it are
//! only ever probed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The fold-multiply hasher. See the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct FoldHasher {
    state: u64,
}

/// Odd multiplier of the fold: 2⁶⁴ divided by the golden ratio.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Default for FoldHasher {
    fn default() -> Self {
        // The hex digits of π, so an all-zero key does not hash to zero.
        FoldHasher {
            state: 0x243F_6A88_85A3_08D3,
        }
    }
}

impl FoldHasher {
    fn fold(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(MULTIPLIER);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        // `Hash` writes a slice's length before its bytes, so the zero
        // padding of a short last chunk cannot alias a longer input.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The [`std::hash::BuildHasher`] of [`FoldHasher`].
pub type FoldBuildHasher = BuildHasherDefault<FoldHasher>;

/// A `HashMap` hashed with [`FoldHasher`]; build it with `default()`.
pub type FastHashMap<K, V> = HashMap<K, V, FoldBuildHasher>;

/// A `HashSet` hashed with [`FoldHasher`]; build it with `default()`.
pub type FastHashSet<K> = HashSet<K, FoldBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(v: &T) -> u64 {
        FoldBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hash_is_deterministic_and_input_sensitive() {
        assert_eq!(hash(&42u64), hash(&42u64));
        assert_ne!(hash(&42u64), hash(&43u64));
        assert_ne!(hash(&0u64), 0);
        // Order matters in a pair key.
        assert_ne!(hash(&(1u64, 2u64)), hash(&(2u64, 1u64)));
        // The length prefix separates a short slice from its zero-padded
        // extension.
        assert_ne!(hash(&vec![1u64]), hash(&vec![1u64, 0]));
        assert_ne!(hash(&[1u8][..]), hash(&[1u8, 0][..]));
    }

    #[test]
    fn keys_sharing_low_bits_spread_over_low_and_middle_bits() {
        // Keys equal modulo 2^16, as the keys of one cache shard are: their
        // hashes must still cover the low bits a table indexes by.
        let mut low = FastHashSet::default();
        let mut middle = FastHashSet::default();
        for k in 0..256u64 {
            let h = hash(&((k << 16) | 0xBEEF));
            low.insert(h & 0xFF);
            middle.insert((h >> 32) & 0xFF);
        }
        assert!(low.len() > 128, "{} distinct low bytes", low.len());
        assert!(middle.len() > 128, "{} distinct middle bytes", middle.len());
    }
}
