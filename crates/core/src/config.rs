//! Scheduler configuration.

use ts_costmodel::ModelParams;
use ts_kvcache::codec::KvWirePrecision;
use ts_solver::routing_dp::MAX_STAGES;

/// Tabu memory length (`N_mem` in Algorithm 1): the walk refuses the last
/// `N_MEM` solutions it moved to.
pub const N_MEM: usize = 5;

/// Deepest pipeline Algorithm 2 considers.
pub const MAX_PP: usize = 8;

/// Widest tensor-parallel degree Algorithm 2 considers.
pub const MAX_TP: usize = 8;

// Algorithm 2 needs at least one degree of each kind, and no pipeline deeper
// than the stage-order DP orders.
const _: () = assert!(MAX_PP >= 1 && MAX_PP <= MAX_STAGES && MAX_TP >= 1);

/// Tuning knobs for the two-level scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Tabu search steps (`N_step` in Algorithm 1).
    pub n_step: usize,
    /// Neighbours evaluated per step (`N_nghb`).
    pub n_nghb: usize,
    /// RNG seed for all stochastic choices.
    pub seed: u64,
    /// Cost-model parameters.
    pub params: ModelParams,
    /// KV wire precision assumed when estimating transfer costs.
    pub kv_precision: KvWirePrecision,
    /// Ablation switch: restrict neighbourhood construction to the flip
    /// move only (the lightweight-rescheduling move set).
    pub flip_only_moves: bool,
    /// Ablation switch: replace the hierarchical-clustering seed with a
    /// random contiguous partition.
    pub random_init: bool,
    /// Ablation switch: disable the hardware-affinity tie-breaker.
    pub disable_affinity_tiebreak: bool,
    /// Worker threads for neighbourhood evaluation in the tabu walk, shared
    /// by scheduling and lightweight rescheduling. `0` uses
    /// one worker per available CPU, `1` is the serial reference path, any
    /// other value is taken literally.
    ///
    /// The thread count never changes results: each step draws its whole
    /// neighbourhood from the seeded RNG up front and reduces evaluation
    /// results in neighbour-generation order, so plans, scores, trajectories
    /// and evaluation counts are bit-identical across all settings (see
    /// DESIGN.md, "Scheduler parallelism").
    pub num_threads: usize,
    /// Evaluate candidate plans under flow-level network contention: KV
    /// transfers share NIC/inter-node links max-min fairly in the simulator
    /// ([`ts_sim::config::KvTransfer::Fabric`]) instead of
    /// serializing per sender. Off by default (the paper's model).
    pub network_contention: bool,
}

impl Default for SchedulerConfig {
    /// The paper's defaults: `N_step = 100`, `N_nghb = 10` (`N_mem` is the
    /// constant [`N_MEM`]).
    fn default() -> Self {
        SchedulerConfig {
            n_step: 100,
            n_nghb: 10,
            seed: 0,
            params: ModelParams::default(),
            kv_precision: KvWirePrecision::DEFAULT_COMPRESSED,
            flip_only_moves: false,
            random_init: false,
            disable_affinity_tiebreak: false,
            num_threads: 0,
            network_contention: false,
        }
    }
}

impl SchedulerConfig {
    /// A trimmed configuration for tests and doctests (fewer steps).
    pub fn fast() -> Self {
        SchedulerConfig {
            n_step: 12,
            n_nghb: 6,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_algorithm_1() {
        let c = SchedulerConfig::default();
        assert_eq!(c.n_step, 100);
        assert_eq!(c.n_nghb, 10);
        assert_eq!(N_MEM, 5);
    }

    #[test]
    fn fast_is_smaller() {
        let c = SchedulerConfig::fast();
        assert!(c.n_step < SchedulerConfig::default().n_step);
    }

    #[test]
    fn default_threads_is_auto() {
        assert_eq!(SchedulerConfig::default().num_threads, 0);
        assert!(ts_common::resolve_threads(SchedulerConfig::default().num_threads) >= 1);
    }

    #[test]
    fn network_knobs_default_to_the_paper_model() {
        let c = SchedulerConfig::default();
        assert!(!c.network_contention);
    }
}
