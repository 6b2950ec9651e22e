//! Multi-window SLO burn-rate monitors.
//!
//! Prometheus-alerting style: an SLO with attainment target `t` has an
//! error budget `1 - t`; the *burn rate* of a window is its observed
//! miss fraction divided by that budget. A burn rate of 1 spends the
//! budget exactly at the allowed pace; a sustained burn rate of 10 spends
//! a month of budget in three days. Alerting on a **fast** and a **slow**
//! window simultaneously (the classic multi-window multi-burn-rate rule)
//! keeps the monitor both responsive and resistant to blips: the fast
//! window alone only warns, both together escalate to critical.
//!
//! The monitor is fed one fixed window at a time and is fully
//! deterministic: no wall clock, no decay — just ring buffers of integer
//! good/bad counts.

use std::collections::VecDeque;

use ts_common::ModelId;

/// The SLO attainment target the run snapshot's monitors budget against.
pub const TARGET: f64 = 0.99;

/// Burn rate at or above which the snapshot's monitors count a window as
/// burning.
pub const THRESHOLD: f64 = 2.0;

/// Depth of the snapshot's fast burn window, in fixed windows.
pub const FAST_WINDOWS: usize = 5;

/// Depth of the snapshot's slow burn window, in fixed windows.
pub const SLOW_WINDOWS: usize = 60;

/// Health state distilled from the two burn windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Neither window is burning above the threshold.
    Healthy,
    /// The fast window burns hot but the slow window does not (a blip, or
    /// the very start of an incident).
    Warning,
    /// Both windows burn above the threshold: the error budget is being
    /// spent at an unsustainable pace right now *and* has been for a while.
    Critical,
}

/// One tenant's (or the fleet-wide) burn-rate reading.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSignal {
    /// The tenant this signal describes; `None` is the fleet-wide signal.
    pub tenant: Option<ModelId>,
    /// Burn rate over the fast window (miss rate / error budget).
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Requests judged over the slow window (good + bad).
    pub samples: u64,
    /// The distilled state.
    pub state: HealthState,
}

/// A multi-window burn-rate monitor over one SLO: attainment target
/// [`TARGET`], burning at [`THRESHOLD`], over the newest [`FAST_WINDOWS`]
/// and [`SLOW_WINDOWS`] fixed windows.
#[derive(Debug, Clone, Default)]
pub struct BurnMonitor {
    /// Closed windows' `(good, bad)` counts, oldest first, at most
    /// [`SLOW_WINDOWS`] of them.
    ring: VecDeque<(u64, u64)>,
    /// `(good, bad)` counts of the open window.
    open: (u64, u64),
}

impl BurnMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        BurnMonitor::default()
    }

    /// Records one request outcome into the open window.
    pub fn observe(&mut self, met_slo: bool) {
        if met_slo {
            self.open.0 += 1;
        } else {
            self.open.1 += 1;
        }
    }

    /// Closes the open fixed window, rolling its counts into the ring.
    /// Called exactly once per window boundary, so rollover points are
    /// deterministic in simulated time.
    pub fn roll_window(&mut self) {
        if self.ring.len() == SLOW_WINDOWS {
            self.ring.pop_front();
        }
        self.ring.push_back(std::mem::take(&mut self.open));
    }

    /// `(good, bad)` totals over the newest `depth` closed windows plus the
    /// open one.
    fn totals(&self, depth: usize) -> (u64, u64) {
        let newest = self.ring.iter().rev().take(depth);
        newest.fold(self.open, |(g, b), &(rg, rb)| (g + rg, b + rb))
    }

    /// The current reading: each window's miss fraction over the error
    /// budget `1 - TARGET` (0.0 with no samples). The open window
    /// participates in both rates so a mid-window incident is visible
    /// before the boundary.
    pub fn signal(&self, tenant: Option<ModelId>) -> HealthSignal {
        let burn = |(good, bad): (u64, u64)| match good + bad {
            0 => 0.0,
            n => (bad as f64 / n as f64) / (1.0 - TARGET),
        };
        let slow_totals = self.totals(SLOW_WINDOWS);
        let (fast_burn, slow_burn) = (burn(self.totals(FAST_WINDOWS)), burn(slow_totals));
        let state = match (fast_burn >= THRESHOLD, slow_burn >= THRESHOLD) {
            (true, true) => HealthState::Critical,
            (true, false) | (false, true) => HealthState::Warning,
            (false, false) => HealthState::Healthy,
        };
        HealthSignal {
            tenant,
            fast_burn,
            slow_burn,
            samples: slow_totals.0 + slow_totals.1,
            state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One window of `good` hits and `bad` misses.
    fn window(m: &mut BurnMonitor, good: usize, bad: usize) {
        (0..good).for_each(|_| m.observe(true));
        (0..bad).for_each(|_| m.observe(false));
    }

    #[test]
    fn empty_monitor_is_healthy() {
        let s = BurnMonitor::new().signal(None);
        assert_eq!(s.state, HealthState::Healthy);
        assert_eq!(s.fast_burn, 0.0);
        assert_eq!(s.samples, 0);
    }

    #[test]
    fn sustained_misses_escalate_to_critical() {
        let mut m = BurnMonitor::new();
        for _ in 0..SLOW_WINDOWS {
            window(&mut m, 5, 5); // 50% miss rate
            m.roll_window();
        }
        let s = m.signal(Some(ModelId(3)));
        assert_eq!(s.state, HealthState::Critical);
        assert_eq!(s.tenant, Some(ModelId(3)));
        let burn = 0.5 / (1.0 - TARGET);
        assert!((s.fast_burn - burn).abs() < 1e-9, "{}", s.fast_burn);
        assert!((s.slow_burn - burn).abs() < 1e-9);
        assert_eq!(s.samples, 10 * SLOW_WINDOWS as u64);
    }

    #[test]
    fn a_blip_only_warns_and_then_clears() {
        let mut m = BurnMonitor::new();
        // Healthy windows fill the slow ring...
        for _ in 0..SLOW_WINDOWS {
            window(&mut m, 100, 0);
            m.roll_window();
        }
        // ...then one bad open window: the fast window burns, the slow
        // one does not.
        window(&mut m, 0, 100);
        let s = m.signal(None);
        assert_eq!(s.state, HealthState::Warning, "{s:?}");
        assert!(s.fast_burn >= THRESHOLD && s.slow_burn < THRESHOLD);
        // The blip ends; healthy windows push it out of the fast window.
        m.roll_window();
        for _ in 0..FAST_WINDOWS {
            window(&mut m, 100, 0);
            m.roll_window();
        }
        let s = m.signal(None);
        assert!(
            s.fast_burn < THRESHOLD,
            "the fast window must forget the blip: {s:?}"
        );
    }

    #[test]
    fn the_ring_keeps_the_slow_depth() {
        let mut m = BurnMonitor::new();
        window(&mut m, 0, 7);
        for _ in 0..=SLOW_WINDOWS {
            m.roll_window();
            window(&mut m, 1, 0);
        }
        // The first window, all misses, fell out of the slow window: it
        // holds the newest closed windows and the open one.
        let s = m.signal(None);
        assert_eq!((s.samples, s.slow_burn), (SLOW_WINDOWS as u64 + 1, 0.0));
    }
}
