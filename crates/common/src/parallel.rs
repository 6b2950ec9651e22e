//! Model-parallelism configuration.

use crate::{Error, Result};
use std::fmt;

/// A tensor-parallel × pipeline-parallel configuration for one model replica.
///
/// Following the paper's notation, a configuration `(TP, PP)` shards every
/// layer across `TP` GPUs and splits the layer stack into `PP` pipeline
/// stages, for a total of `TP·PP` GPUs.
///
/// ```
/// use ts_common::ParallelConfig;
/// let pc = ParallelConfig::new(2, 2)?;
/// assert_eq!(pc.world_size(), 4);
/// assert_eq!(pc.to_string(), "(TP=2, PP=2)");
/// # Ok::<(), ts_common::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    tp: usize,
    pp: usize,
}

impl ParallelConfig {
    /// Creates a configuration with tensor-parallel degree `tp` and pipeline
    /// depth `pp`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if either degree is zero.
    pub fn new(tp: usize, pp: usize) -> Result<Self> {
        if tp == 0 || pp == 0 {
            return Err(Error::InvalidConfig(format!(
                "parallel degrees must be positive, got tp={tp}, pp={pp}"
            )));
        }
        Ok(ParallelConfig { tp, pp })
    }

    /// The single-GPU configuration `(TP=1, PP=1)`.
    pub const SINGLE: ParallelConfig = ParallelConfig { tp: 1, pp: 1 };

    /// Tensor-parallel degree.
    #[inline]
    pub fn tp(&self) -> usize {
        self.tp
    }

    /// Pipeline-parallel degree (number of stages).
    #[inline]
    pub fn pp(&self) -> usize {
        self.pp
    }

    /// Total number of GPUs used by the replica.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.tp * self.pp
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::SINGLE
    }
}

impl fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(TP={}, PP={})", self.tp, self.pp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_degrees() {
        assert!(ParallelConfig::new(0, 1).is_err());
        assert!(ParallelConfig::new(1, 0).is_err());
    }

    #[test]
    fn world_size_is_product() {
        let pc = ParallelConfig::new(4, 3).unwrap();
        assert_eq!(pc.world_size(), 12);
    }

    #[test]
    fn default_is_single() {
        assert_eq!(ParallelConfig::default(), ParallelConfig::SINGLE);
        assert_eq!(ParallelConfig::SINGLE.world_size(), 1);
    }
}
