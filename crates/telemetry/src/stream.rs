//! The streaming observability plane: online aggregation over driver events.
//!
//! [`StreamingPlane::observe`] consumes the same [`TraceKind`] stream the
//! post-hoc recorder sees, but folds it incrementally into:
//!
//! * run-lifetime [`QuantileSketch`]es for TTFT, E2E, queue depth and batch
//!   occupancy (mergeable, relative-error bounded);
//! * [`Ewma`] smoothers over the same signals;
//! * fixed-window counters ([`WindowCounts`]) that roll deterministically
//!   at exact multiples of the configured window in *simulated* time;
//! * per-tenant and fleet-wide SLO [`BurnMonitor`]s whose
//!   [`HealthSignal`]s the [`StreamSnapshot`] exports.
//!
//! The plane is an observer: it never schedules events, draws randomness,
//! or feeds anything back into the engine, and no engine, runtime or
//! autoscaler decision reads it, so enabling it leaves simulation results
//! bit-identical (pinned by the golden-digest suite).

use std::collections::{BTreeMap, HashMap};

use ts_common::{Error, ModelId, RequestId, Result, SimDuration, SimTime, SloSpec};

use crate::burn::{BurnMonitor, HealthSignal};
use crate::event::TraceKind;
use crate::sketch::QuantileSketch;

/// Exponentially weighted moving average with first-sample seeding.
///
/// The first observation seeds the average directly (no bias toward an
/// arbitrary zero start); later observations fold in with weight `alpha`.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    /// `1 - alpha`, precomputed: `observe` runs once per simulator step.
    beta: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an empty EWMA with smoothing factor `alpha`.
    ///
    /// # Panics
    /// Panics unless `alpha` lies in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA smoothing factor must lie in (0, 1], got {alpha}"
        );
        Ewma {
            alpha,
            beta: 1.0 - alpha,
            value: None,
        }
    }

    /// Folds in one observation.
    #[inline]
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.alpha * x + self.beta * v,
        });
    }

    /// The current average, `None` before the first observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Configuration of the [`StreamingPlane`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Fixed aggregation window length (simulated time). Windows roll at
    /// exact multiples of this from the time origin.
    pub window: SimDuration,
    /// EWMA smoothing factor for the latency/pressure averages.
    pub ewma_alpha: f64,
    /// Relative accuracy of the quantile sketches.
    pub sketch_alpha: f64,
    /// The SLO that request outcomes are judged against for burn-rate
    /// accounting (per-tenant SLOs registered via
    /// [`StreamingPlane::register_tenant`] take precedence).
    pub slo: SloSpec,
    /// SLO attainment target the burn monitors budget against (e.g. 0.99).
    pub target: f64,
    /// Depth of the fast burn window, in fixed windows.
    pub fast_windows: usize,
    /// Depth of the slow burn window, in fixed windows.
    pub slow_windows: usize,
    /// Burn rate at or above which a window counts as burning.
    pub burn_threshold: f64,
}

impl StreamConfig {
    /// A sensible default around the given SLO: 1-second windows, EWMA
    /// alpha 0.2, 1% sketches, 99% attainment target, 5-window fast / 60-
    /// window slow burn monitors firing at burn rate 2.
    pub fn new(slo: SloSpec) -> Self {
        StreamConfig {
            window: SimDuration::from_secs(1),
            ewma_alpha: 0.2,
            sketch_alpha: 0.01,
            slo,
            target: 0.99,
            fast_windows: 5,
            slow_windows: 60,
            burn_threshold: 2.0,
        }
    }

    /// Returns a copy with the given fixed window length.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// Returns a copy with the given sketch relative accuracy.
    pub fn with_sketch_alpha(mut self, alpha: f64) -> Self {
        self.sketch_alpha = alpha;
        self
    }

    /// Returns a copy with the given EWMA smoothing factor.
    pub fn with_ewma_alpha(mut self, alpha: f64) -> Self {
        self.ewma_alpha = alpha;
        self
    }

    /// Returns a copy with the given attainment target and burn threshold.
    pub fn with_burn(mut self, target: f64, threshold: f64) -> Self {
        self.target = target;
        self.burn_threshold = threshold;
        self
    }

    /// Returns a copy with the given fast/slow burn-window depths.
    pub fn with_burn_windows(mut self, fast: usize, slow: usize) -> Self {
        self.fast_windows = fast;
        self.slow_windows = slow;
        self
    }

    /// The one check that the plane can run this configuration: a
    /// positive window, `sketch_alpha` in `(0, 1)`, `ewma_alpha` in
    /// `(0, 1]`, `target` in `(0, 1)`, a positive `burn_threshold` and
    /// `0 < fast_windows <= slow_windows`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] naming the first rule broken.
    pub fn validate(&self) -> Result<()> {
        let (fast, slow) = (self.fast_windows, self.slow_windows);
        let rules = [
            (!self.window.is_zero(), "window must be positive"),
            (
                self.sketch_alpha > 0.0 && self.sketch_alpha < 1.0,
                "sketch_alpha must lie in (0, 1)",
            ),
            (
                self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
                "ewma_alpha must lie in (0, 1]",
            ),
            (
                self.target > 0.0 && self.target < 1.0,
                "target must lie in (0, 1)",
            ),
            (self.burn_threshold > 0.0, "burn_threshold must be positive"),
            (
                fast > 0 && fast <= slow,
                "burn windows must satisfy 0 < fast <= slow",
            ),
        ];
        match rules.into_iter().find(|&(holds, _)| !holds) {
            Some((_, rule)) => Err(Error::InvalidConfig(format!("streaming {rule}: {self:?}"))),
            None => Ok(()),
        }
    }
}

/// Counters of one fixed aggregation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowCounts {
    /// Window start (an exact multiple of the configured window length).
    pub start: SimTime,
    /// Requests that arrived.
    pub arrived: u64,
    /// Requests that completed.
    pub finished: u64,
    /// Requests dropped mid-service.
    pub dropped: u64,
    /// Requests rejected at admission (stall-queue overflow).
    pub rejected: u64,
    /// Completed requests that missed their SLO (TTFT or E2E).
    pub slo_miss: u64,
    /// Hedged duplicates launched.
    pub hedges: u64,
    /// Requests requeued by fault recovery.
    pub requeues: u64,
}

impl WindowCounts {
    fn fresh(start: SimTime) -> Self {
        WindowCounts {
            start,
            ..WindowCounts::default()
        }
    }

    /// Terminal outcomes observed in this window.
    pub fn terminals(&self) -> u64 {
        self.finished + self.dropped + self.rejected
    }
}

/// Exact histogram over small non-negative integer samples (queue depths,
/// batch occupancies). Sampled once per simulator step, so recording must
/// be nearly free: one bounds check and one increment. The sketch the
/// snapshot exports is materialized from the histogram on demand —
/// bit-identical to having inserted every sample individually, since all
/// the arithmetic involved is exact on integers.
#[derive(Debug, Clone, Default)]
struct PressureStat {
    /// `counts[n]` = samples with value `n`; grown on demand.
    counts: Vec<u64>,
}

impl PressureStat {
    #[inline]
    fn record(&mut self, n: usize) {
        if n >= self.counts.len() {
            self.counts.resize(n + 1, 0);
        }
        self.counts[n] += 1;
    }

    /// Materializes the histogram as a quantile sketch with accuracy
    /// `alpha`, identical to one fed each sample in stream order.
    fn to_sketch(&self, alpha: f64) -> QuantileSketch {
        let mut s = QuantileSketch::new(alpha);
        for (v, &c) in self.counts.iter().enumerate() {
            s.insert_n(v as f64, c);
        }
        s
    }
}

/// In-flight request state the plane tracks between lifecycle events.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    arrival: SimTime,
    first_token: Option<SimTime>,
    model: ModelId,
}

/// Per-tenant streaming state: the SLO outcomes are judged against and the
/// tenant's burn monitor.
#[derive(Debug, Clone)]
struct TenantState {
    slo: SloSpec,
    burn: BurnMonitor,
}

/// An immutable export of the plane's state at one instant.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// Simulated instant of the snapshot (the plane's event high-water
    /// mark).
    pub at: SimTime,
    /// Events the plane consumed (aggregation-relevant kinds; ignored
    /// phase-internal and fabric events are not counted).
    pub events_observed: u64,
    /// Run-lifetime TTFT sketch (seconds).
    pub ttft: QuantileSketch,
    /// Run-lifetime E2E latency sketch (seconds).
    pub e2e: QuantileSketch,
    /// Run-lifetime prefill queue-depth sketch (jobs).
    pub queue_depth: QuantileSketch,
    /// Run-lifetime decode batch-occupancy sketch (sequences).
    pub batch_occupancy: QuantileSketch,
    /// Smoothed TTFT (seconds), `None` before the first token.
    pub ttft_ewma: Option<f64>,
    /// Smoothed E2E latency (seconds).
    pub e2e_ewma: Option<f64>,
    /// Smoothed queue depth (jobs).
    pub queue_depth_ewma: Option<f64>,
    /// Smoothed batch occupancy (sequences).
    pub batch_occupancy_ewma: Option<f64>,
    /// Run-lifetime counters (same shape as a window, `start` is zero).
    pub totals: WindowCounts,
    /// The open (partial) window's counters.
    pub window: WindowCounts,
    /// The most recently closed window, `None` before the first rollover.
    pub last_window: Option<WindowCounts>,
    /// Windows closed so far.
    pub windows_closed: u64,
    /// Burn-rate signals: the fleet-wide signal first (tenant `None`),
    /// then per-tenant signals in ascending [`ModelId`] order.
    pub health: Vec<HealthSignal>,
}

impl StreamSnapshot {
    /// The fleet-wide health signal.
    pub fn global_health(&self) -> &HealthSignal {
        &self.health[0]
    }

    /// Compact single-line-per-key JSON metrics dump (no external JSON
    /// dependency; validated by the exposition round-trip tests).
    pub fn to_json(&self) -> String {
        fn num(x: f64) -> String {
            if x.is_finite() {
                format!("{x:.6}")
            } else {
                "null".into()
            }
        }
        fn opt(x: Option<f64>) -> String {
            x.map_or("null".into(), num)
        }
        fn sketch(s: &QuantileSketch) -> String {
            format!(
                "{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                s.count(),
                opt(s.mean()),
                opt(s.quantile(0.5)),
                opt(s.quantile(0.9)),
                opt(s.quantile(0.99)),
                opt(s.max()),
            )
        }
        let mut health = String::from("[");
        for (i, h) in self.health.iter().enumerate() {
            if i > 0 {
                health.push(',');
            }
            health.push_str(&format!(
                "{{\"tenant\":{},\"fast_burn\":{},\"slow_burn\":{},\"samples\":{},\"state\":\"{:?}\"}}",
                h.tenant.map_or("null".into(), |m| m.0.to_string()),
                num(h.fast_burn),
                num(h.slow_burn),
                h.samples,
                h.state,
            ));
        }
        health.push(']');
        format!(
            "{{\n  \"at_s\": {},\n  \"events_observed\": {},\n  \"windows_closed\": {},\n  \"ttft_s\": {},\n  \"e2e_s\": {},\n  \"queue_depth\": {},\n  \"batch_occupancy\": {},\n  \"ewma\": {{\"ttft_s\":{},\"e2e_s\":{},\"queue_depth\":{},\"batch_occupancy\":{}}},\n  \"window\": {{\"start_s\":{},\"arrived\":{},\"finished\":{},\"dropped\":{},\"rejected\":{},\"slo_miss\":{},\"hedges\":{},\"requeues\":{}}},\n  \"health\": {}\n}}\n",
            num(self.at.as_secs_f64()),
            self.events_observed,
            self.windows_closed,
            sketch(&self.ttft),
            sketch(&self.e2e),
            sketch(&self.queue_depth),
            sketch(&self.batch_occupancy),
            opt(self.ttft_ewma),
            opt(self.e2e_ewma),
            opt(self.queue_depth_ewma),
            opt(self.batch_occupancy_ewma),
            num(self.window.start.as_secs_f64()),
            self.window.arrived,
            self.window.finished,
            self.window.dropped,
            self.window.rejected,
            self.window.slo_miss,
            self.window.hedges,
            self.window.requeues,
            health,
        )
    }
}

/// The online aggregation core, fed one [`TraceKind`] at a time.
#[derive(Debug, Clone)]
pub struct StreamingPlane {
    cfg: StreamConfig,
    /// Event-time high-water mark.
    now: SimTime,
    /// Start of the open fixed window.
    window_start: SimTime,
    windows_closed: u64,
    events: u64,
    ttft: QuantileSketch,
    e2e: QuantileSketch,
    queue_depth: PressureStat,
    batch_occupancy: PressureStat,
    ttft_ewma: Ewma,
    e2e_ewma: Ewma,
    queue_ewma: Ewma,
    occupancy_ewma: Ewma,
    current: WindowCounts,
    last: Option<WindowCounts>,
    totals: WindowCounts,
    global: BurnMonitor,
    tenants: BTreeMap<ModelId, TenantState>,
    inflight: HashMap<RequestId, Inflight>,
}

impl StreamingPlane {
    /// Creates an empty plane.
    pub fn new(cfg: StreamConfig) -> Self {
        assert!(!cfg.window.is_zero(), "streaming window must be positive");
        let global = BurnMonitor::new(
            cfg.target,
            cfg.burn_threshold,
            cfg.fast_windows,
            cfg.slow_windows,
        );
        StreamingPlane {
            ttft: QuantileSketch::new(cfg.sketch_alpha),
            e2e: QuantileSketch::new(cfg.sketch_alpha),
            queue_depth: PressureStat::default(),
            batch_occupancy: PressureStat::default(),
            ttft_ewma: Ewma::new(cfg.ewma_alpha),
            e2e_ewma: Ewma::new(cfg.ewma_alpha),
            queue_ewma: Ewma::new(cfg.ewma_alpha),
            occupancy_ewma: Ewma::new(cfg.ewma_alpha),
            current: WindowCounts::fresh(SimTime::ZERO),
            last: None,
            totals: WindowCounts::fresh(SimTime::ZERO),
            global,
            tenants: BTreeMap::new(),
            inflight: HashMap::new(),
            now: SimTime::ZERO,
            window_start: SimTime::ZERO,
            windows_closed: 0,
            events: 0,
            cfg,
        }
    }

    /// The plane's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Registers a tenant with its own SLO (and burn monitor). Outcomes of
    /// requests tagged with this model are judged against `slo` instead of
    /// the default, and additionally feed a dedicated monitor.
    pub fn register_tenant(&mut self, model: ModelId, slo: SloSpec) {
        let burn = BurnMonitor::new(
            self.cfg.target,
            self.cfg.burn_threshold,
            self.cfg.fast_windows,
            self.cfg.slow_windows,
        );
        self.tenants.insert(model, TenantState { slo, burn });
    }

    /// Rolls fixed windows forward until `at` lies inside the open window.
    /// An event stamped exactly on a boundary lands in the *new* window
    /// (windows are `[start, start + w)`), which the window-semantics tests
    /// pin.
    fn roll_to(&mut self, at: SimTime) {
        if at > self.now {
            self.now = at;
        }
        let w = self.cfg.window;
        let mut end = self.window_start + w;
        while self.now >= end {
            self.global.roll_window();
            for t in self.tenants.values_mut() {
                t.burn.roll_window();
            }
            self.last = Some(self.current);
            self.windows_closed += 1;
            self.window_start = end;
            self.current = WindowCounts::fresh(end);
            end = self.window_start + w;
        }
    }

    /// Judges a completed request against its tenant's SLO and feeds the
    /// burn monitors.
    fn judge_completion(&mut self, model: ModelId, ttft: SimDuration, e2e: SimDuration) {
        let slo = self.tenants.get(&model).map_or(self.cfg.slo, |t| t.slo);
        let met = ttft <= slo.ttft && e2e <= slo.e2e;
        if !met {
            self.current.slo_miss += 1;
            self.totals.slo_miss += 1;
        }
        self.global.observe(met);
        if let Some(t) = self.tenants.get_mut(&model) {
            t.burn.observe(met);
        }
    }

    /// Records a terminal loss (drop/reject/shed) against the monitors.
    fn judge_loss(&mut self, model: ModelId) {
        self.global.observe(false);
        if let Some(t) = self.tenants.get_mut(&model) {
            t.burn.observe(false);
        }
    }

    /// Feeds one trace event into the plane. Events may arrive slightly
    /// out of order (retroactive coalesced-decode replays), in which case
    /// they are attributed to the window open at observation time — the
    /// stream itself is deterministic, so so is the attribution. Kinds the
    /// aggregates have no use for (phase-internal and fabric events) are
    /// complete no-ops, and engines may skip constructing trace-only
    /// events entirely when no recorder is attached.
    ///
    /// Split into a small inlinable dispatcher and an out-of-line
    /// lifecycle handler: at an emission site the event kind is statically
    /// known, so ignored kinds fold to nothing and the pressure gauges to
    /// a histogram slot bump plus an EWMA step — this is what keeps the
    /// plane's overhead on the event loop within the committed budget
    /// (`BENCH_obs.json`).
    #[inline]
    pub fn observe(&mut self, at: SimTime, kind: &TraceKind) {
        match *kind {
            TraceKind::QueueDepth { depth, .. } => {
                self.events += 1;
                self.queue_depth.record(depth);
                self.queue_ewma.observe(depth as f64);
            }
            TraceKind::BatchOccupancy { active, .. } => {
                self.events += 1;
                self.batch_occupancy.record(active);
                self.occupancy_ewma.observe(active as f64);
            }
            TraceKind::Arrived { .. }
            | TraceKind::ModelTag { .. }
            | TraceKind::FirstToken { .. }
            | TraceKind::Finished { .. }
            | TraceKind::Dropped { .. }
            | TraceKind::Rejected { .. }
            | TraceKind::HedgeLaunched { .. }
            | TraceKind::Requeued { .. } => {
                self.events += 1;
                self.observe_lifecycle(at, kind);
            }
            // Phase-internal and fabric events carry nothing the online
            // aggregates need; not even counting them keeps the hot path
            // free.
            _ => {}
        }
    }

    /// Request-lifecycle accounting: window rolls, latency sketches, burn
    /// judgement. Per-request (not per-event) frequency, so kept out of
    /// line to leave [`StreamingPlane::observe`] small enough to inline.
    fn observe_lifecycle(&mut self, at: SimTime, kind: &TraceKind) {
        match *kind {
            TraceKind::Arrived { request } => {
                self.roll_to(at);
                self.current.arrived += 1;
                self.totals.arrived += 1;
                self.inflight.insert(
                    request,
                    Inflight {
                        arrival: at,
                        first_token: None,
                        model: ModelId(0),
                    },
                );
            }
            TraceKind::ModelTag { request, model } => {
                if let Some(i) = self.inflight.get_mut(&request) {
                    i.model = model;
                }
            }
            TraceKind::FirstToken { request } => {
                self.roll_to(at);
                if let Some(i) = self.inflight.get_mut(&request) {
                    if i.first_token.is_none() {
                        i.first_token = Some(at);
                        let ttft = at.saturating_since(i.arrival).as_secs_f64();
                        self.ttft.insert(ttft);
                        self.ttft_ewma.observe(ttft);
                    }
                }
            }
            TraceKind::Finished { request } => {
                self.roll_to(at);
                if let Some(i) = self.inflight.remove(&request) {
                    self.current.finished += 1;
                    self.totals.finished += 1;
                    let e2e = at.saturating_since(i.arrival);
                    self.e2e.insert(e2e.as_secs_f64());
                    self.e2e_ewma.observe(e2e.as_secs_f64());
                    let ttft = i
                        .first_token
                        .map_or(e2e, |ft| ft.saturating_since(i.arrival));
                    self.judge_completion(i.model, ttft, e2e);
                }
            }
            TraceKind::Dropped { request } => {
                self.roll_to(at);
                if let Some(i) = self.inflight.remove(&request) {
                    self.current.dropped += 1;
                    self.totals.dropped += 1;
                    self.judge_loss(i.model);
                }
            }
            TraceKind::Rejected { request } => {
                self.roll_to(at);
                if let Some(i) = self.inflight.remove(&request) {
                    self.current.rejected += 1;
                    self.totals.rejected += 1;
                    self.judge_loss(i.model);
                }
            }
            TraceKind::HedgeLaunched { .. } => {
                self.current.hedges += 1;
                self.totals.hedges += 1;
            }
            TraceKind::Requeued { .. } => {
                self.current.requeues += 1;
                self.totals.requeues += 1;
            }
            _ => unreachable!("observe() routes only lifecycle kinds here"),
        }
    }

    /// Advances the window clock to `at` without observing an event (used
    /// to close out windows at a segment boundary or run horizon).
    pub fn advance_to(&mut self, at: SimTime) {
        self.roll_to(at);
    }

    /// Exports the current state (sketches cloned, monitors read out).
    pub fn snapshot(&self) -> StreamSnapshot {
        let mut health = vec![self.global.signal(None)];
        for (&m, t) in &self.tenants {
            health.push(t.burn.signal(Some(m)));
        }
        StreamSnapshot {
            at: self.now,
            events_observed: self.events,
            ttft: self.ttft.clone(),
            e2e: self.e2e.clone(),
            queue_depth: self.queue_depth.to_sketch(self.cfg.sketch_alpha),
            batch_occupancy: self.batch_occupancy.to_sketch(self.cfg.sketch_alpha),
            ttft_ewma: self.ttft_ewma.value(),
            e2e_ewma: self.e2e_ewma.value(),
            queue_depth_ewma: self.queue_ewma.value(),
            batch_occupancy_ewma: self.occupancy_ewma.value(),
            totals: self.totals,
            window: self.current,
            last_window: self.last,
            windows_closed: self.windows_closed,
            health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo() -> SloSpec {
        SloSpec::new(
            SimDuration::from_millis(500),
            SimDuration::from_millis(50),
            SimDuration::from_secs(5),
        )
    }

    fn plane() -> StreamingPlane {
        StreamingPlane::new(StreamConfig::new(slo()))
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn lifecycle(p: &mut StreamingPlane, id: u64, arrive: f64, first: f64, done: f64) {
        let request = RequestId(id);
        p.observe(t(arrive), &TraceKind::Arrived { request });
        p.observe(t(first), &TraceKind::FirstToken { request });
        p.observe(t(done), &TraceKind::Finished { request });
    }

    #[test]
    fn ttft_and_e2e_feed_sketches_and_ewma() {
        let mut p = plane();
        lifecycle(&mut p, 1, 0.0, 0.1, 0.5);
        lifecycle(&mut p, 2, 0.2, 0.5, 0.9);
        let s = p.snapshot();
        assert_eq!(s.ttft.count(), 2);
        assert_eq!(s.e2e.count(), 2);
        // TTFTs are 0.1 and 0.3; EWMA seeds on the first then folds.
        let e = s.ttft_ewma.unwrap();
        assert!((e - (0.2 * 0.3 + 0.8 * 0.1)).abs() < 1e-9, "{e}");
        assert_eq!(s.window.finished, 2);
        assert_eq!(s.window.slo_miss, 0);
    }

    #[test]
    fn window_rolls_exactly_at_the_boundary() {
        let mut p = plane();
        lifecycle(&mut p, 1, 0.4, 0.5, 0.9);
        // An event at exactly 1.0 s opens the second window.
        p.observe(
            t(1.0),
            &TraceKind::Arrived {
                request: RequestId(2),
            },
        );
        let s = p.snapshot();
        assert_eq!(s.windows_closed, 1);
        assert_eq!(s.last_window.unwrap().finished, 1);
        assert_eq!(s.last_window.unwrap().start, SimTime::ZERO);
        assert_eq!(s.window.start, t(1.0));
        assert_eq!(s.window.arrived, 1);
    }

    #[test]
    fn empty_windows_roll_without_counts() {
        let mut p = plane();
        p.advance_to(t(3.5));
        let s = p.snapshot();
        assert_eq!(s.windows_closed, 3);
        let last = s.last_window.unwrap();
        assert_eq!(last.terminals(), 0);
        assert_eq!(last.start, t(2.0));
        assert_eq!(s.window.start, t(3.0));
        // Exporting an empty plane is well-defined everywhere.
        assert_eq!(s.ttft.quantile(0.99), None);
        assert_eq!(s.global_health().fast_burn, 0.0);
    }

    #[test]
    fn slo_misses_raise_the_burn_rate() {
        let mut p = plane();
        // TTFT 0.9 s blows the 0.5 s target; e2e fine.
        for i in 0..20 {
            let base = i as f64 * 0.01;
            lifecycle(&mut p, i, base, base + 0.9, base + 1.0);
        }
        let s = p.snapshot();
        let h = s.global_health();
        assert!(h.fast_burn > 2.0, "{h:?}");
        assert_eq!(s.window.slo_miss + s.last_window.unwrap().slo_miss, 20);
    }

    #[test]
    fn tenants_are_judged_against_their_own_slo() {
        let mut p = plane();
        // Tenant 1 has a 10x tighter TTFT target.
        let tight = SloSpec::new(
            SimDuration::from_millis(50),
            SimDuration::from_millis(50),
            SimDuration::from_secs(5),
        );
        p.register_tenant(ModelId(1), tight);
        for i in 0..10 {
            let request = RequestId(i);
            p.observe(t(0.0), &TraceKind::Arrived { request });
            p.observe(
                t(0.0),
                &TraceKind::ModelTag {
                    request,
                    model: ModelId(1),
                },
            );
            // TTFT 0.1 s: fine for the default SLO, a miss for tenant 1.
            p.observe(t(0.1), &TraceKind::FirstToken { request });
            p.observe(t(0.2), &TraceKind::Finished { request });
        }
        // Snapshot lists global first, then the registered tenant.
        let s = p.snapshot();
        assert_eq!(s.health.len(), 2);
        let tenant = &s.health[1];
        assert_eq!(tenant.tenant, Some(ModelId(1)));
        assert!(tenant.fast_burn > 0.0, "{tenant:?}");
        assert_eq!(tenant.samples, 10);
    }

    #[test]
    fn losses_count_against_the_budget() {
        let mut p = plane();
        let request = RequestId(1);
        p.observe(t(0.1), &TraceKind::Arrived { request });
        p.observe(t(0.2), &TraceKind::Dropped { request });
        // A second terminal event for the same request must not double
        // count (the inflight entry is gone).
        p.observe(t(0.3), &TraceKind::Rejected { request });
        let s = p.snapshot();
        assert_eq!(s.window.dropped, 1);
        assert_eq!(s.window.rejected, 0);
        assert!(s.global_health().fast_burn > 0.0);
    }

    #[test]
    fn pressure_samples_feed_the_pressure_sketches() {
        let mut p = plane();
        for depth in [0usize, 2, 4, 8] {
            p.observe(
                t(0.1),
                &TraceKind::QueueDepth {
                    role: crate::Role::Prefill,
                    replica: 0,
                    depth,
                },
            );
        }
        p.observe(
            t(0.2),
            &TraceKind::BatchOccupancy {
                role: crate::Role::Decode,
                replica: 1,
                active: 13,
            },
        );
        let s = p.snapshot();
        assert_eq!(s.queue_depth.count(), 4);
        assert_eq!(s.queue_depth.max(), Some(8.0));
        assert_eq!(s.batch_occupancy_ewma, Some(13.0));
    }

    #[test]
    fn json_dump_is_emitted() {
        let mut p = plane();
        lifecycle(&mut p, 1, 0.0, 0.1, 0.4);
        let j = p.snapshot().to_json();
        assert!(j.contains("\"events_observed\": 3"), "{j}");
        assert!(j.contains("\"health\""));
    }
}
