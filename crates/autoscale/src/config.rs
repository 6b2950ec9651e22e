//! Autoscaler tuning knobs.

use ts_common::{Error, Result, SimDuration};

/// Heartbeat timeout used when serving segments with fault scripts: the
/// engine's detection delay for a lost replica.
pub const HEARTBEAT_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// Segments after a voluntary acquire or release during which the
/// controller takes no further voluntary action.
pub const COOLDOWN_SEGMENTS: usize = 1;

/// Nodes released in one control step (drains are exempt).
pub const MAX_RELEASE_PER_STEP: usize = 1;

/// Configuration of the [`crate::AutoscaleController`] and harness.
///
/// Thresholds are deliberately hysteretic: the scale-up trigger
/// (`attainment_floor` / `queue_depth_high`) and the scale-down trigger
/// (`attainment_ceiling` + `occupancy_low`) leave a dead band in between,
/// and [`COOLDOWN_SEGMENTS`] rate-limits consecutive actions, so the fleet
/// does not thrash on workload noise. Preemption drains bypass both — an
/// announced reclaim does not wait for a cooldown.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// Scale up when segment SLO attainment falls below this.
    pub attainment_floor: f64,
    /// Consider scale-down only when attainment is at least this.
    pub attainment_ceiling: f64,
    /// Scale up when the prefill pool's mean queue depth exceeds this
    /// (requests waiting per replica — leading indicator that fires before
    /// attainment visibly sags).
    pub queue_depth_high: f64,
    /// Consider scale-down when the decode pool's mean batch-occupancy duty
    /// is below this fraction of its peak.
    pub occupancy_low: f64,
    /// How far ahead of the announced reclaim a held node is drained. A
    /// warning whose reclaim is further out than this is remembered but not
    /// acted on yet.
    pub warning_lead_time: SimDuration,
    /// Maximum nodes acquired in one control step.
    pub max_acquire_per_step: usize,
    /// Fraction of the active fleet a delta may touch before the runtime
    /// escalates to a full re-plan (see
    /// [`ts_runtime::ServingRuntime::apply_fleet_delta`]).
    pub full_replan_fraction: f64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            attainment_floor: 0.85,
            attainment_ceiling: 0.95,
            queue_depth_high: 4.0,
            occupancy_low: 0.35,
            warning_lead_time: SimDuration::from_secs(120),
            max_acquire_per_step: 2,
            full_replan_fraction: ts_runtime::DEFAULT_FULL_REPLAN_FRACTION,
        }
    }
}

impl AutoscaleConfig {
    /// Validates threshold ordering (floor below ceiling, sane fractions)
    /// and that a step may acquire at least one node.
    /// [`crate::AutoscaleController::new`] runs it, so a misconfiguration
    /// fails up front rather than producing a quietly absurd trajectory.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] naming the first inconsistent
    /// threshold.
    pub fn validate(&self) -> Result<()> {
        let bad = |what: String| Err(Error::InvalidConfig(what));
        if self.attainment_floor >= self.attainment_ceiling {
            return bad(format!(
                "attainment floor {} must lie below ceiling {}",
                self.attainment_floor, self.attainment_ceiling
            ));
        }
        if !((0.0..=1.0).contains(&self.attainment_floor)
            && (0.0..=1.0).contains(&self.attainment_ceiling))
        {
            return bad("attainment thresholds must be fractions".into());
        }
        if !(self.occupancy_low >= 0.0 && self.queue_depth_high >= 0.0) {
            return bad("utilization thresholds must be non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.full_replan_fraction) {
            return bad("full_replan_fraction must be a fraction".into());
        }
        if self.max_acquire_per_step == 0 {
            return bad(
                "max_acquire_per_step must be at least 1, or the fleet never scales up".into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(AutoscaleConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_acquire_per_step_is_rejected() {
        let cfg = AutoscaleConfig {
            max_acquire_per_step: 0,
            ..AutoscaleConfig::default()
        };
        assert!(
            matches!(&cfg.validate(), Err(Error::InvalidConfig(m)) if m.contains("max_acquire_per_step")),
            "{:?}",
            cfg.validate()
        );
    }
}
