//! Per-request records and serving metrics.
//!
//! Mirrors the paper's metric suite (§2): TTFT, TPOT, E2E latency per
//! request; system SLO attainment (fraction of requests meeting a deadline,
//! per criterion or all three jointly); and throughput in requests/s and
//! tokens/s.

use ts_common::{ModelId, Request, SimDuration, SimTime, SloKind, SloSpec};

/// Timing record for one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// The request served.
    pub request: Request,
    /// Index of the prefill replica that served it (colocated engines use
    /// the single replica index for both).
    pub prefill_replica: usize,
    /// Index of the decode replica that served it.
    pub decode_replica: usize,
    /// Time the first token was emitted (end of prefill).
    pub first_token_at: SimTime,
    /// Time the last token was emitted.
    pub finished_at: SimTime,
    /// Longest gap between two consecutive output tokens (zero for
    /// single-token outputs) — the inter-token latency (ITL) tail, which
    /// prefill interference on colocated replicas and fault recovery
    /// stretch.
    pub max_token_gap: SimDuration,
    /// Time the KV transfer spent queued on the sender before its bytes
    /// started moving (zero for colocated engines, single-token requests,
    /// and fabric runs, where flows start immediately and contention shows
    /// up in [`RequestRecord::kv_wire_time`] instead).
    pub kv_queue_wait: SimDuration,
    /// Time the KV bytes of the *delivered* attempt spent on the wire
    /// (startup alpha included).
    pub kv_wire_time: SimDuration,
    /// When the KV cache arrived at the decode replica; `None` when the
    /// request never crossed the inter-replica fabric (colocated engine,
    /// single-token output).
    pub kv_done_at: Option<SimTime>,
}

impl RequestRecord {
    /// Time to first token.
    pub fn ttft(&self) -> SimDuration {
        self.first_token_at - self.request.arrival
    }

    /// Average time per output token during decoding (zero for single-token
    /// outputs, which trivially meet any TPOT deadline).
    pub fn tpot(&self) -> SimDuration {
        let steps = self.request.decode_steps();
        if steps == 0 {
            return SimDuration::ZERO;
        }
        (self.finished_at - self.first_token_at) / steps as u64
    }

    /// End-to-end latency.
    pub fn e2e(&self) -> SimDuration {
        self.finished_at - self.request.arrival
    }

    /// Latency under one criterion.
    pub fn latency(&self, kind: SloKind) -> SimDuration {
        match kind {
            SloKind::Ttft => self.ttft(),
            SloKind::Tpot => self.tpot(),
            SloKind::E2e => self.e2e(),
        }
    }

    /// Whether the request meets all three deadlines of `slo`.
    pub fn meets(&self, slo: &SloSpec) -> bool {
        SloKind::ALL
            .iter()
            .all(|&k| self.latency(k) <= slo.deadline(k))
    }
}

/// How a lost request left the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Entered service and never finished, including requests still in the
    /// system when the run ended.
    Dropped,
    /// Refused admission: no live route existed and the stall queue was
    /// full.
    Rejected,
}

/// One request that never finished, with the instant it was lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossRecord {
    /// The request lost (its arrival and model included).
    pub request: Request,
    /// When the engine gave it up: the end of the run for a request still
    /// in the system then.
    pub at: SimTime,
    /// Dropped or rejected.
    pub kind: LossKind,
}

/// Per-model request conservation for one tenant of a multi-model run:
/// every submitted request must end up exactly once in `completed`,
/// `dropped`, or `rejected`. The engines assert this identity per
/// [`ModelId`] at the end of every run with a non-empty catalog.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelConservation {
    /// The tenant these counts belong to.
    pub model: ModelId,
    /// Requests of this model handed to the engine.
    pub submitted: usize,
    /// Requests of this model that finished all output tokens.
    pub completed: usize,
    /// Requests of this model that entered service but never finished.
    pub dropped: usize,
    /// Requests of this model refused admission.
    pub rejected: usize,
}

impl ModelConservation {
    /// Whether the conservation identity
    /// `completed + dropped + rejected == submitted` holds.
    pub fn balanced(&self) -> bool {
        self.completed + self.dropped + self.rejected == self.submitted
    }
}

/// Recovery bookkeeping accumulated by a fault-injected simulation run.
///
/// All counters are zero for a run without faults, so `Metrics` equality
/// (used by determinism tests) extends naturally. Both topologies produce
/// these with identical semantics — [`crate::Simulation::new`] and
/// [`crate::Simulation::colocated`] share one fault layer in
/// [`crate::exec`] — so failure experiments can compare recovery behaviour
/// across system architectures directly. (`kv_transfer_retries` stays zero
/// for colocated runs: there are no inter-replica transfers to retry.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryCounters {
    /// Queued or in-flight prefill requests re-routed to a surviving
    /// replica after their original replica died.
    pub requeued_requests: usize,
    /// Context tokens re-prefilled because a decode replica lost its KV
    /// cache (prompt plus already-generated tokens — the paper's lost work).
    pub reprefilled_tokens: u64,
    /// KV transfers re-sent after a link fault (each backoff retry counts
    /// once).
    pub kv_transfer_retries: usize,
    /// Per-fault time from the fault taking effect until every affected
    /// request was either re-admitted to decoding, completed, or shed.
    pub recovery_times: Vec<SimDuration>,
    /// Hedged duplicates launched for stuck prefills / KV transfers
    /// (gray-failure mitigation).
    pub hedges_launched: usize,
    /// Hedges whose duplicate beat the original (first-completion-wins).
    pub hedges_won: usize,
    /// Replicas removed from routing by straggler detection or a
    /// flaky-heartbeat false positive (each quarantine episode counts once).
    pub quarantines: usize,
    /// Quarantined (or spuriously dead) replicas returned to routing.
    pub readmissions: usize,
    /// Per-model request-conservation counts, sorted by [`ModelId`]. Empty
    /// for single-model runs (an empty [`crate::SimConfig::models`]
    /// catalog), which keeps single-model `Metrics` values equal to those of
    /// runs without a catalog.
    pub per_model: Vec<ModelConservation>,
}

impl RecoveryCounters {
    /// Whether any recovery action was taken.
    pub fn any(&self) -> bool {
        self.requeued_requests > 0
            || self.reprefilled_tokens > 0
            || self.kv_transfer_retries > 0
            || !self.recovery_times.is_empty()
            || self.hedges_launched > 0
            || self.quarantines > 0
            || self.readmissions > 0
    }

    /// Longest time-to-recover across faults, or `None` if no fault
    /// affected any in-flight request.
    pub fn max_time_to_recover(&self) -> Option<SimDuration> {
        self.recovery_times.iter().max().copied()
    }
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    records: Vec<RequestRecord>,
    /// Every lost request with its instant, in the order the engine lost
    /// them; empty for metrics built from a bare count ([`Metrics::new`]).
    losses: Vec<LossRecord>,
    /// Requests submitted but never completed (overload / capacity loss).
    dropped: usize,
    /// Requests refused admission because no live route existed and the
    /// stall queue was full (distinct from `dropped`: these never entered
    /// service).
    rejected: usize,
    horizon: SimDuration,
    recovery: RecoveryCounters,
}

impl Metrics {
    /// Builds metrics from completed-request records over a time horizon.
    pub fn new(records: Vec<RequestRecord>, dropped: usize, horizon: SimDuration) -> Self {
        Metrics {
            records,
            losses: Vec::new(),
            dropped,
            rejected: 0,
            horizon,
            recovery: RecoveryCounters::default(),
        }
    }

    /// Builds metrics from a fault-injected run: its lost requests (which
    /// give the dropped and rejected counts) and recovery counters.
    pub fn with_recovery(
        records: Vec<RequestRecord>,
        losses: Vec<LossRecord>,
        horizon: SimDuration,
        recovery: RecoveryCounters,
    ) -> Self {
        let rejected = losses
            .iter()
            .filter(|l| l.kind == LossKind::Rejected)
            .count();
        Metrics {
            records,
            dropped: losses.len() - rejected,
            rejected,
            losses,
            horizon,
            recovery,
        }
    }

    /// Completed request count.
    pub fn num_completed(&self) -> usize {
        self.records.len()
    }

    /// Requests that never finished.
    pub fn num_dropped(&self) -> usize {
        self.dropped
    }

    /// Requests shed at admission (no live route and the stall queue was
    /// full).
    pub fn num_rejected(&self) -> usize {
        self.rejected
    }

    /// Recovery bookkeeping (all zero for runs without faults).
    pub fn recovery(&self) -> &RecoveryCounters {
        &self.recovery
    }

    /// All records.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Every lost request with the instant it was lost, in loss order.
    pub fn losses(&self) -> &[LossRecord] {
        &self.losses
    }

    /// The simulated horizon (used for throughput denominators).
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// Fraction of *submitted* requests meeting the deadline for `kind`.
    /// Dropped and rejected requests count as misses.
    pub fn slo_attainment(&self, slo: &SloSpec, kind: SloKind) -> f64 {
        let total = self.records.len() + self.dropped + self.rejected;
        if total == 0 {
            return 1.0;
        }
        let ok = self
            .records
            .iter()
            .filter(|r| r.latency(kind) <= slo.deadline(kind))
            .count();
        ok as f64 / total as f64
    }

    /// Fraction of submitted requests meeting **all three** deadlines.
    pub fn joint_attainment(&self, slo: &SloSpec) -> f64 {
        let total = self.records.len() + self.dropped + self.rejected;
        if total == 0 {
            return 1.0;
        }
        let ok = self.records.iter().filter(|r| r.meets(slo)).count();
        ok as f64 / total as f64
    }

    /// The minimum SLO scale at which attainment of `kind` reaches `goal`
    /// (the paper's "latency deadline for 90%/99% attainment"), searched
    /// over the given scale grid. Returns `None` if no scale suffices.
    pub fn min_scale_for(
        &self,
        base: &SloSpec,
        kind: SloKind,
        goal: f64,
        scales: &[f64],
    ) -> Option<f64> {
        scales
            .iter()
            .copied()
            .find(|&s| self.slo_attainment(&base.scaled(s), kind) >= goal)
    }

    /// Completed requests per second.
    pub fn throughput_rps(&self) -> f64 {
        self.records.len() as f64 / self.horizon.as_secs_f64().max(1e-9)
    }

    /// Generated tokens per second (output tokens only).
    pub fn throughput_tokens(&self) -> f64 {
        let tokens: u64 = self
            .records
            .iter()
            .map(|r| r.request.output_len as u64)
            .sum();
        tokens as f64 / self.horizon.as_secs_f64().max(1e-9)
    }

    /// Processed tokens per second (prompt + output), the paper's Figure 6
    /// y-axis flavour.
    pub fn throughput_total_tokens(&self) -> f64 {
        let tokens: u64 = self.records.iter().map(|r| r.request.total_tokens()).sum();
        tokens as f64 / self.horizon.as_secs_f64().max(1e-9)
    }

    /// Attainment as a function of SLO scale for one criterion — the series
    /// behind the paper's Figure 7/8 curves.
    pub fn attainment_curve(
        &self,
        base: &SloSpec,
        kind: SloKind,
        scales: &[f64],
    ) -> Vec<(f64, f64)> {
        scales
            .iter()
            .map(|&s| (s, self.slo_attainment(&base.scaled(s), kind)))
            .collect()
    }

    /// Distinct models appearing in the run, sorted by id: every tenant
    /// tracked by the per-model conservation counters plus any model seen
    /// among completed records. A single-model run reports `[ModelId(0)]`
    /// when it completed anything, `[]` otherwise.
    pub fn models(&self) -> Vec<ModelId> {
        let mut ids: Vec<ModelId> = self.recovery.per_model.iter().map(|c| c.model).collect();
        ids.extend(self.records.iter().map(|r| r.request.model));
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Per-model view of the run: records filtered to `model`, with
    /// dropped/rejected counts taken from the per-model conservation
    /// counters (zero when the run did not track this model). All the
    /// aggregate accessors — attainment, throughput, percentiles — then
    /// report that tenant alone, so per-tenant SLOs can be checked against
    /// per-tenant deadlines.
    pub fn for_model(&self, model: ModelId) -> Metrics {
        let records: Vec<RequestRecord> = self
            .records
            .iter()
            .filter(|r| r.request.model == model)
            .copied()
            .collect();
        let conservation = self
            .recovery
            .per_model
            .iter()
            .copied()
            .find(|c| c.model == model);
        let recovery = RecoveryCounters {
            per_model: conservation.into_iter().collect(),
            ..RecoveryCounters::default()
        };
        let losses = self
            .losses
            .iter()
            .filter(|l| l.request.model == model)
            .copied()
            .collect();
        Metrics {
            records,
            losses,
            dropped: conservation.map_or(0, |c| c.dropped),
            rejected: conservation.map_or(0, |c| c.rejected),
            horizon: self.horizon,
            recovery,
        }
    }

    /// `p`-quantile of the per-request maximum inter-token gap, or `None`
    /// with no completions.
    pub fn itl_percentile(&self, p: f64) -> Option<SimDuration> {
        let v: Vec<SimDuration> = self.records.iter().map(|r| r.max_token_gap).collect();
        ts_common::percentile(&v, p)
    }

    /// `p`-quantile of latency under `kind` (e.g. 0.99), or `None` with no
    /// completions.
    pub fn latency_percentile(&self, kind: SloKind, p: f64) -> Option<SimDuration> {
        let v: Vec<SimDuration> = self.records.iter().map(|r| r.latency(kind)).collect();
        ts_common::percentile(&v, p)
    }

    /// Mean latency under `kind`, or `None` with no completions.
    pub fn mean_latency(&self, kind: SloKind) -> Option<SimDuration> {
        if self.records.is_empty() {
            return None;
        }
        let total: SimDuration = self.records.iter().map(|r| r.latency(kind)).sum();
        Some(total / self.records.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_common::RequestId;

    fn record(arrival_s: f64, first_s: f64, done_s: f64, out: u32) -> RequestRecord {
        RequestRecord {
            request: Request::new(RequestId(0), SimTime::from_secs_f64(arrival_s), 512, out),
            prefill_replica: 0,
            decode_replica: 0,
            first_token_at: SimTime::from_secs_f64(first_s),
            finished_at: SimTime::from_secs_f64(done_s),
            max_token_gap: SimDuration::ZERO,
            kv_queue_wait: SimDuration::ZERO,
            kv_wire_time: SimDuration::ZERO,
            kv_done_at: None,
        }
    }

    fn slo() -> SloSpec {
        SloSpec::new(
            SimDuration::from_millis(500),
            SimDuration::from_millis(100),
            SimDuration::from_secs(5),
        )
    }

    #[test]
    fn per_request_latencies() {
        let r = record(1.0, 1.4, 2.4, 11); // 10 decode steps over 1s
        assert_eq!(r.ttft(), SimDuration::from_millis(400));
        assert_eq!(r.tpot(), SimDuration::from_millis(100));
        assert_eq!(r.e2e(), SimDuration::from_millis(1400));
        assert!(r.meets(&slo()));
    }

    #[test]
    fn single_token_output_has_zero_tpot() {
        let r = record(0.0, 0.3, 0.3, 1);
        assert_eq!(r.tpot(), SimDuration::ZERO);
    }

    #[test]
    fn attainment_counts_dropped_as_misses() {
        let m = Metrics::new(
            vec![record(0.0, 0.3, 1.0, 8)],
            1,
            SimDuration::from_secs(10),
        );
        assert_eq!(m.slo_attainment(&slo(), SloKind::Ttft), 0.5);
        assert_eq!(m.joint_attainment(&slo()), 0.5);
    }

    #[test]
    fn min_scale_search() {
        // TTFT = 400ms; base deadline 500ms -> scale 1.0 works
        let m = Metrics::new(vec![record(0.0, 0.4, 1.0, 8)], 0, SimDuration::from_secs(1));
        let scales = [0.5, 1.0, 2.0];
        assert_eq!(
            m.min_scale_for(&slo(), SloKind::Ttft, 1.0, &scales),
            Some(1.0)
        );
        // with a dropped request nothing reaches 100%
        let m2 = Metrics::new(vec![record(0.0, 0.4, 1.0, 8)], 1, SimDuration::from_secs(1));
        assert_eq!(m2.min_scale_for(&slo(), SloKind::Ttft, 1.0, &scales), None);
    }

    #[test]
    fn throughput_math() {
        let m = Metrics::new(
            vec![record(0.0, 0.3, 1.0, 10), record(0.0, 0.4, 1.5, 30)],
            0,
            SimDuration::from_secs(4),
        );
        assert!((m.throughput_rps() - 0.5).abs() < 1e-9);
        assert!((m.throughput_tokens() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_sorted() {
        let recs = (1..=100)
            .map(|i| record(0.0, i as f64 / 100.0, 2.0, 4))
            .collect();
        let m = Metrics::new(recs, 0, SimDuration::from_secs(2));
        let p50 = m.latency_percentile(SloKind::Ttft, 0.5).unwrap();
        let p99 = m.latency_percentile(SloKind::Ttft, 0.99).unwrap();
        assert!(p50 < p99);
        assert_eq!(p99, SimDuration::from_millis(990));
    }

    #[test]
    fn attainment_curve_is_monotone() {
        let recs = (1..=20)
            .map(|i| record(0.0, i as f64 / 10.0, 3.0, 4))
            .collect();
        let m = Metrics::new(recs, 0, SimDuration::from_secs(3));
        let curve = m.attainment_curve(&slo(), SloKind::Ttft, &[0.5, 1.0, 2.0, 4.0]);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(curve.len(), 4);
    }

    #[test]
    fn rejected_requests_count_as_misses() {
        let rec = RecoveryCounters {
            requeued_requests: 2,
            reprefilled_tokens: 640,
            kv_transfer_retries: 1,
            recovery_times: vec![SimDuration::from_millis(80), SimDuration::from_millis(30)],
            ..RecoveryCounters::default()
        };
        let lost = |kind| LossRecord {
            request: Request::new(RequestId(9), SimTime::ZERO, 512, 8),
            at: SimTime::from_secs_f64(0.5),
            kind,
        };
        let m = Metrics::with_recovery(
            vec![record(0.0, 0.3, 1.0, 8), record(0.0, 0.3, 1.0, 8)],
            vec![lost(LossKind::Dropped), lost(LossKind::Rejected)],
            SimDuration::from_secs(10),
            rec,
        );
        assert_eq!(m.num_rejected(), 1);
        // 2 hits out of 2 + 1 dropped + 1 rejected submitted
        assert_eq!(m.slo_attainment(&slo(), SloKind::Ttft), 0.5);
        assert_eq!(m.joint_attainment(&slo()), 0.5);
        assert!(m.recovery().any());
        assert_eq!(
            m.recovery().max_time_to_recover(),
            Some(SimDuration::from_millis(80))
        );
    }

    #[test]
    fn per_model_breakdown_filters_records_and_counters() {
        let mut fast = record(0.0, 0.3, 1.0, 8);
        fast.request = fast.request.with_model(ModelId(1));
        let mut slow = record(0.0, 0.9, 4.0, 8);
        slow.request = slow.request.with_model(ModelId(2));
        let rec = RecoveryCounters {
            per_model: vec![
                ModelConservation {
                    model: ModelId(1),
                    submitted: 2,
                    completed: 1,
                    dropped: 1,
                    rejected: 0,
                },
                ModelConservation {
                    model: ModelId(2),
                    submitted: 1,
                    completed: 1,
                    dropped: 0,
                    rejected: 0,
                },
            ],
            ..RecoveryCounters::default()
        };
        let lost = LossRecord {
            request: fast.request,
            at: SimTime::from_secs_f64(0.5),
            kind: LossKind::Dropped,
        };
        let m = Metrics::with_recovery(
            vec![fast, slow],
            vec![lost],
            SimDuration::from_secs(10),
            rec,
        );
        assert_eq!(m.models(), vec![ModelId(1), ModelId(2)]);
        assert!(m.recovery().per_model.iter().all(|c| c.balanced()));

        let m1 = m.for_model(ModelId(1));
        assert_eq!(m1.num_completed(), 1);
        assert_eq!(m1.num_dropped(), 1);
        // tenant 1: one hit of two submitted
        assert_eq!(m1.slo_attainment(&slo(), SloKind::Ttft), 0.5);

        let m2 = m.for_model(ModelId(2));
        assert_eq!(m2.num_completed(), 1);
        assert_eq!(m2.num_dropped(), 0);
        // tenant 2's single request misses the 500ms TTFT deadline
        assert_eq!(m2.slo_attainment(&slo(), SloKind::Ttft), 0.0);

        // untracked model: empty, vacuously perfect
        let m9 = m.for_model(ModelId(9));
        assert_eq!(m9.num_completed(), 0);
        assert_eq!(m9.joint_attainment(&slo()), 1.0);
    }

    #[test]
    fn per_model_counters_stay_out_of_legacy_recovery() {
        // an empty catalog must leave RecoveryCounters (and thus Metrics
        // equality) exactly as before the multi-model work
        let rec = RecoveryCounters::default();
        assert!(rec.per_model.is_empty());
        assert!(!rec.any());
        let tracked = RecoveryCounters {
            per_model: vec![ModelConservation {
                model: ModelId(1),
                submitted: 0,
                completed: 0,
                dropped: 0,
                rejected: 0,
            }],
            ..RecoveryCounters::default()
        };
        // conservation tracking alone is bookkeeping, not a recovery action
        assert!(!tracked.any());
    }

    #[test]
    fn empty_metrics_are_vacuously_perfect() {
        let m = Metrics::new(vec![], 0, SimDuration::from_secs(1));
        assert_eq!(m.joint_attainment(&slo()), 1.0);
        assert!(m.latency_percentile(SloKind::E2e, 0.9).is_none());
    }
}
