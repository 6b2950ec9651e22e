//! Scheduler search introspection: the per-step rows every tabu walk
//! returns (scheduling and lightweight or fleet rescheduling).

/// What one search step did: how many neighbors were generated, how the
/// filter pipeline (tabu list, evaluation cache, intra-batch dedup,
/// feasibility pre-checks) thinned them, and what the step concluded.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchStep {
    /// Step index (0-based).
    pub step: usize,
    /// Candidate neighbors generated this step.
    pub generated: usize,
    /// Neighbors rejected by the tabu list.
    pub tabu_filtered: usize,
    /// Neighbors answered from the evaluation cache (prior steps).
    pub cache_hits: usize,
    /// Neighbors deduplicated within this step's batch.
    pub duplicates: usize,
    /// Neighbors rejected by structural pre-checks (e.g. a move that
    /// leaves one phase empty) before any evaluation.
    pub infeasible: usize,
    /// Neighbors actually evaluated (cache misses sent to the pool).
    pub evaluated: usize,
    /// Score of the step's winning neighbor, if any was feasible.
    pub winner_score: Option<f64>,
    /// Best score found so far, clamped at zero: one point of the
    /// convergence trajectory (Figure 10).
    pub best_score: f64,
}

/// The per-step trace of one search run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchTrace {
    /// One row per executed step, in order.
    pub steps: Vec<SearchStep>,
}

impl SearchTrace {
    /// Total neighbors generated across all steps.
    pub fn total_generated(&self) -> usize {
        self.steps.iter().map(|s| s.generated).sum()
    }

    /// Total neighbors evaluated (cache misses) across all steps.
    pub fn total_evaluated(&self) -> usize {
        self.steps.iter().map(|s| s.evaluated).sum()
    }

    /// Fraction of non-tabu lookups answered by the evaluation cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: usize = self.steps.iter().map(|s| s.cache_hits).sum();
        let total = hits + self.total_evaluated();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_hit_rate() {
        let t = SearchTrace {
            steps: vec![
                SearchStep {
                    step: 0,
                    generated: 10,
                    cache_hits: 2,
                    evaluated: 6,
                    ..Default::default()
                },
                SearchStep {
                    step: 1,
                    generated: 10,
                    cache_hits: 6,
                    evaluated: 2,
                    ..Default::default()
                },
            ],
        };
        assert_eq!(t.total_generated(), 20);
        assert_eq!(t.total_evaluated(), 8);
        assert!((t.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_zero_hit_rate() {
        assert_eq!(SearchTrace::default().cache_hit_rate(), 0.0);
    }
}
