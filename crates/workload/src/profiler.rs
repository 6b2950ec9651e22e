//! The online workload profiler (Appendix E).
//!
//! The profiler observes completed requests over a sliding time window and
//! maintains the statistics the scheduler needs (mean prompt length, mean
//! output length, arrival rate). When the prompt/output ratio drifts by more
//! than a configurable factor from the ratio at the last (re)schedule, it
//! reports a *workload shift*, which triggers lightweight rescheduling.

use std::collections::VecDeque;
use ts_common::{Request, SimDuration};

/// Aggregate statistics over the profiler window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadStats {
    /// Number of requests in the window.
    pub count: usize,
    /// Mean prompt length (tokens).
    pub mean_prompt: f64,
    /// Mean output length (tokens).
    pub mean_output: f64,
    /// Observed arrival rate (requests/second over the window).
    pub rate: f64,
}

impl WorkloadStats {
    /// Mean prompt-to-output token ratio.
    pub fn prompt_output_ratio(&self) -> f64 {
        if self.mean_output <= 0.0 {
            return f64::INFINITY;
        }
        self.mean_prompt / self.mean_output
    }
}

/// Sliding-window workload monitor with shift detection.
#[derive(Debug, Clone)]
pub struct WorkloadProfiler {
    window: SimDuration,
    shift_factor: f64,
    min_samples: usize,
    seen: VecDeque<Request>,
    baseline_ratio: Option<f64>,
}

impl WorkloadProfiler {
    /// Creates a profiler.
    ///
    /// * `window` — how far back observations count;
    /// * `shift_factor` — a shift is flagged when the current prompt/output
    ///   ratio differs from the baseline by more than this factor (e.g. 2.0);
    /// * `min_samples` — minimum window population before shifts are flagged.
    ///
    /// # Panics
    /// Panics if `shift_factor <= 1` or the window is zero.
    pub fn new(window: SimDuration, shift_factor: f64, min_samples: usize) -> Self {
        assert!(shift_factor > 1.0, "shift factor must exceed 1");
        assert!(!window.is_zero(), "window must be positive");
        WorkloadProfiler {
            window,
            shift_factor,
            min_samples,
            seen: VecDeque::new(),
            baseline_ratio: None,
        }
    }

    /// Records an observed request (call in arrival order).
    pub fn observe(&mut self, req: Request) {
        let cutoff = req.arrival.saturating_since(ts_common::SimTime::ZERO);
        self.seen.push_back(req);
        // Evict entries older than the window.
        while let Some(front) = self.seen.front() {
            if cutoff - front.arrival.saturating_since(ts_common::SimTime::ZERO) > self.window {
                self.seen.pop_front();
            } else {
                break;
            }
        }
    }

    /// Current window statistics, or `None` if the window is empty.
    pub fn stats(&self) -> Option<WorkloadStats> {
        if self.seen.is_empty() {
            return None;
        }
        let n = self.seen.len();
        let mean_prompt = self.seen.iter().map(|r| r.prompt_len as f64).sum::<f64>() / n as f64;
        let mean_output = self.seen.iter().map(|r| r.output_len as f64).sum::<f64>() / n as f64;
        let first = self.seen.front().unwrap().arrival;
        let last = self.seen.back().unwrap().arrival;
        let span = (last.saturating_since(first)).as_secs_f64().max(1e-9);
        Some(WorkloadStats {
            count: n,
            mean_prompt,
            mean_output,
            rate: if n > 1 { (n - 1) as f64 / span } else { 0.0 },
        })
    }

    /// Marks the current statistics as the post-(re)schedule baseline.
    pub fn rebaseline(&mut self) {
        self.baseline_ratio = self.stats().map(|s| s.prompt_output_ratio());
    }

    /// Whether the workload has shifted relative to the last baseline.
    ///
    /// Returns `false` until both a baseline exists and the window holds at
    /// least `min_samples` requests.
    pub fn shift_detected(&self) -> bool {
        let (Some(base), Some(stats)) = (self.baseline_ratio, self.stats()) else {
            return false;
        };
        if stats.count < self.min_samples {
            return false;
        }
        let ratio = stats.prompt_output_ratio();
        if !base.is_finite() || !ratio.is_finite() {
            return base.is_finite() != ratio.is_finite();
        }
        ratio > base * self.shift_factor || ratio < base / self.shift_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::spec;
    use ts_common::{RequestId, SimTime};

    fn feed(p: &mut WorkloadProfiler, reqs: &[Request]) {
        for r in reqs {
            p.observe(*r);
        }
    }

    #[test]
    fn stats_track_means() {
        let mut p = WorkloadProfiler::new(SimDuration::from_secs(600), 2.0, 5);
        for i in 0..10 {
            p.observe(Request::new(
                RequestId(i),
                SimTime::from_secs_f64(i as f64),
                1000,
                10,
            ));
        }
        let s = p.stats().unwrap();
        assert_eq!(s.count, 10);
        assert_eq!(s.mean_prompt, 1000.0);
        assert_eq!(s.mean_output, 10.0);
        assert!((s.rate - 1.0).abs() < 0.01);
    }

    #[test]
    fn old_entries_evicted() {
        let mut p = WorkloadProfiler::new(SimDuration::from_secs(10), 2.0, 1);
        p.observe(Request::new(RequestId(0), SimTime::ZERO, 100, 10));
        p.observe(Request::new(
            RequestId(1),
            SimTime::from_secs_f64(100.0),
            200,
            20,
        ));
        let s = p.stats().unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean_prompt, 200.0);
    }

    #[test]
    fn detects_coding_to_conversation_shift() {
        let mut p = WorkloadProfiler::new(SimDuration::from_secs(3600), 2.0, 20);
        let coding = generate(&spec::coding(5.0), SimDuration::from_secs(60), 1);
        feed(&mut p, &coding);
        p.rebaseline();
        assert!(!p.shift_detected(), "no shift right after baseline");
        // Conversation traffic arrives next (shift output lengths up).
        let conv: Vec<Request> = generate(&spec::conversation(5.0), SimDuration::from_secs(400), 2)
            .into_iter()
            .map(|r| Request {
                arrival: SimTime::from_secs_f64(60.0 + r.arrival.as_secs_f64()),
                ..r
            })
            .collect();
        feed(&mut p, &conv);
        assert!(p.shift_detected(), "conversation shift should be flagged");
    }

    #[test]
    fn no_shift_without_baseline() {
        let mut p = WorkloadProfiler::new(SimDuration::from_secs(60), 2.0, 1);
        p.observe(Request::new(RequestId(0), SimTime::ZERO, 100, 10));
        assert!(!p.shift_detected());
    }

    #[test]
    fn min_samples_gate() {
        let mut p = WorkloadProfiler::new(SimDuration::from_secs(60), 1.5, 100);
        p.observe(Request::new(RequestId(0), SimTime::ZERO, 1000, 10));
        p.rebaseline();
        p.observe(Request::new(
            RequestId(1),
            SimTime::from_secs_f64(1.0),
            10,
            1000,
        ));
        assert!(!p.shift_detected(), "below min samples");
    }
}
