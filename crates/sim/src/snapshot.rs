//! The post-run metrics snapshot: [`Metrics::snapshot`] rebuilds what the
//! exporters report from a finished run's records, its lost requests, its
//! recovery counters and its [`PressureTally`].

use std::collections::BTreeMap;

use ts_common::{stats, ModelId, ServedModel, SimDuration, SimTime, SloSpec};
use ts_telemetry::{pressure::ReplicaPressure, snapshot::QUANTILES};
use ts_telemetry::{
    BurnMonitor, MeanPeak, MetricsSnapshot, PressureTally, Role, RolePressure, Summary,
    WindowCounts,
};

use crate::metrics::{LossKind, Metrics};

/// Smoothing factor of the snapshot's latency EWMAs.
pub const EWMA_ALPHA: f64 = 0.2;

/// Exact summary of `values`.
fn summary(values: &[SimDuration]) -> Summary {
    Summary {
        count: values.len() as u64,
        sum: values.iter().copied().sum(),
        quantiles: QUANTILES
            .iter()
            .filter_map(|&q| stats::percentile(values, q).map(|v| (q, v)))
            .collect(),
    }
}

/// Exponentially weighted moving average of `xs` in order, seeded by the
/// first value; `None` when empty.
fn ewma(xs: impl Iterator<Item = f64>) -> Option<f64> {
    xs.fold(None, |avg, x| {
        Some(avg.map_or(x, |v| EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * v))
    })
}

/// Time-weighted mean (over `[0, end)`) and peak of one signal across the
/// tally's replicas of `role`.
fn role_pressure(tally: &PressureTally, role: Role, end: SimTime) -> Option<RolePressure> {
    let replicas: Vec<_> = tally
        .replicas()
        .into_iter()
        .filter(|&(r, _)| r == role)
        .filter_map(|(r, i)| tally.replica(r, i))
        .collect();
    if replicas.is_empty() {
        return None;
    }
    let peak = |f: fn(&ReplicaPressure) -> f64| replicas.iter().map(|&p| f(p)).fold(0.0, f64::max);
    Some(RolePressure {
        role,
        queue_depth: MeanPeak {
            mean: tally.role_mean(role, |p| p.queue_depth.time_weighted_mean(end)),
            peak: peak(|p| p.queue_depth.peak()),
        },
        batch_occupancy: MeanPeak {
            mean: tally.role_mean(role, |p| p.batch_occupancy.time_weighted_mean(end)),
            peak: peak(|p| p.batch_occupancy.peak()),
        },
    })
}

impl Metrics {
    /// The run's metrics snapshot over fixed windows of length `window`.
    ///
    /// - Quantiles are exact ([`stats::percentile`]) over the completed
    ///   requests.
    /// - Each arrival, completion and loss counts in the window holding its
    ///   instant.
    /// - A completion meets its SLO when its TTFT and E2E latency are
    ///   within its tenant's deadlines: the catalog entry's [`SloSpec`],
    ///   else `slo`. A loss is a miss. The fleet-wide [`BurnMonitor`] and
    ///   one per catalog tenant are fed window by window.
    /// - Pressure is each role's time-weighted mean and peak over the run's
    ///   horizon, from `tally`.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn snapshot(
        &self,
        slo: &SloSpec,
        catalog: &[ServedModel],
        window: SimDuration,
        tally: &PressureTally,
    ) -> MetricsSnapshot {
        assert!(!window.is_zero(), "snapshot window must be positive");
        let records = self.records();
        let losses = self.losses();
        let at = records
            .iter()
            .map(|r| r.finished_at)
            .chain(losses.iter().map(|l| l.at))
            .max()
            .unwrap_or(SimTime::ZERO);
        let width = window.as_micros();
        let slot = |t: SimTime| (t.as_micros() / width) as usize;
        let mut windows: Vec<WindowCounts> = (0..=slot(at) as u64)
            .map(|k| WindowCounts {
                start: SimTime::from_micros(k * width),
                ..WindowCounts::default()
            })
            .collect();

        // Outcomes as (window, tenant, met), fed to the monitors in window
        // order.
        let mut outcomes = Vec::with_capacity(records.len() + losses.len());
        for r in records {
            let deadline = catalog
                .iter()
                .find(|m| m.id == r.request.model)
                .map_or(slo, |m| &m.slo);
            let met = r.ttft() <= deadline.ttft && r.e2e() <= deadline.e2e;
            windows[slot(r.request.arrival)].arrived += 1;
            let w = &mut windows[slot(r.finished_at)];
            w.finished += 1;
            w.slo_miss += u64::from(!met);
            outcomes.push((slot(r.finished_at), r.request.model, met));
        }
        for l in losses {
            windows[slot(l.request.arrival)].arrived += 1;
            let w = &mut windows[slot(l.at)];
            match l.kind {
                LossKind::Dropped => w.dropped += 1,
                LossKind::Rejected => w.rejected += 1,
            }
            outcomes.push((slot(l.at), l.request.model, false));
        }
        outcomes.sort_by_key(|o| o.0);

        let mut global = BurnMonitor::new();
        let mut tenants: BTreeMap<ModelId, BurnMonitor> =
            catalog.iter().map(|m| (m.id, BurnMonitor::new())).collect();
        let mut next = outcomes.iter().peekable();
        for k in 0..windows.len() {
            if k > 0 {
                global.roll_window();
                tenants.values_mut().for_each(BurnMonitor::roll_window);
            }
            while let Some(&(_, model, met)) = next.next_if(|o| o.0 == k) {
                global.observe(met);
                if let Some(t) = tenants.get_mut(&model) {
                    t.observe(met);
                }
            }
        }
        let mut health = vec![global.signal(None)];
        health.extend(tenants.iter().map(|(&m, t)| t.signal(Some(m))));

        let totals = windows
            .iter()
            .fold(WindowCounts::default(), |t, w| WindowCounts {
                start: SimTime::ZERO,
                arrived: t.arrived + w.arrived,
                finished: t.finished + w.finished,
                dropped: t.dropped + w.dropped,
                rejected: t.rejected + w.rejected,
                slo_miss: t.slo_miss + w.slo_miss,
            });
        let mut by_first: Vec<_> = records.iter().collect();
        by_first.sort_by_key(|r| r.first_token_at);
        let mut by_finish: Vec<_> = records.iter().collect();
        by_finish.sort_by_key(|r| r.finished_at);
        let ttfts: Vec<SimDuration> = records.iter().map(|r| r.ttft()).collect();
        let e2es: Vec<SimDuration> = records.iter().map(|r| r.e2e()).collect();
        let end = SimTime::ZERO + self.horizon();
        MetricsSnapshot {
            at,
            ttft: summary(&ttfts),
            e2e: summary(&e2es),
            ttft_ewma: ewma(by_first.iter().map(|r| r.ttft().as_secs_f64())),
            e2e_ewma: ewma(by_finish.iter().map(|r| r.e2e().as_secs_f64())),
            pressure: [Role::Prefill, Role::Decode, Role::Colocated]
                .into_iter()
                .filter_map(|role| role_pressure(tally, role, end))
                .collect(),
            totals,
            hedges: self.recovery().hedges_launched as u64,
            requeues: self.recovery().requeued_requests as u64,
            windows,
            health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{LossRecord, RecoveryCounters, RequestRecord};
    use ts_common::{Request, RequestId};
    use ts_telemetry::HealthState;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn slo() -> SloSpec {
        SloSpec::new(
            SimDuration::from_millis(500),
            SimDuration::from_millis(50),
            SimDuration::from_secs(5),
        )
    }

    fn request(id: u64, arrive: f64, model: u32) -> Request {
        Request::new(RequestId(id), t(arrive), 512, 8).with_model(ModelId(model))
    }

    fn record(id: u64, arrive: f64, first: f64, done: f64) -> RequestRecord {
        RequestRecord {
            request: request(id, arrive, 0),
            prefill_replica: 0,
            decode_replica: 0,
            first_token_at: t(first),
            finished_at: t(done),
            max_token_gap: SimDuration::ZERO,
            kv_queue_wait: SimDuration::ZERO,
            kv_wire_time: SimDuration::ZERO,
            kv_done_at: None,
        }
    }

    /// The snapshot over one-second windows with the default SLO and no
    /// catalog.
    fn snap(records: Vec<RequestRecord>, losses: Vec<LossRecord>) -> MetricsSnapshot {
        let m = Metrics::with_recovery(
            records,
            losses,
            SimDuration::from_secs(10),
            RecoveryCounters::default(),
        );
        m.snapshot(
            &slo(),
            &[],
            SimDuration::from_secs(1),
            &PressureTally::new(),
        )
    }

    #[test]
    fn window_rolls_exactly_at_the_boundary() {
        // Arrives in window 0; its first token and completion land exactly
        // on the 1 s boundary, which opens window 1.
        let s = snap(
            vec![record(1, 0.4, 0.5, 0.9), record(2, 0.6, 1.0, 1.0)],
            vec![],
        );
        assert_eq!(s.windows_closed(), 1);
        assert_eq!(s.at, t(1.0));
        let (w0, w1) = (s.windows[0], s.windows[1]);
        assert_eq!((w0.start, w0.arrived, w0.finished), (SimTime::ZERO, 2, 1));
        assert_eq!((w1.start, w1.arrived, w1.finished), (t(1.0), 0, 1));
        // TTFTs are 0.1 and 0.4 s in first-token order.
        assert_eq!(
            s.ttft_ewma,
            Some(EWMA_ALPHA * 0.4 + (1.0 - EWMA_ALPHA) * 0.1)
        );
    }

    #[test]
    fn empty_windows_roll_without_counts() {
        let s = snap(vec![record(1, 0.2, 0.3, 3.5)], vec![]);
        assert_eq!(s.windows_closed(), 3);
        assert!(s.windows[1..3].iter().all(|w| w.arrived + w.finished == 0));
        assert_eq!(s.windows[2].start, t(2.0));
        // An empty run is well-defined everywhere.
        let empty = snap(vec![], vec![]);
        assert_eq!(empty.windows_closed(), 0);
        assert!(empty.ttft.quantiles.is_empty());
        assert_eq!(empty.ttft_ewma, None);
        assert_eq!(empty.health[0].fast_burn, 0.0);
        assert!(empty.pressure.is_empty());
    }

    #[test]
    fn slo_misses_raise_the_burn_rate() {
        // TTFT 0.9 s blows the 0.5 s deadline; E2E is fine.
        let records = (0..20u32)
            .map(|i| {
                let base = f64::from(i) * 0.01;
                record(u64::from(i), base, base + 0.9, base + 1.0)
            })
            .collect();
        let s = snap(records, vec![]);
        assert_eq!(s.totals.slo_miss, 20);
        assert_eq!(s.health[0].state, HealthState::Critical);
    }

    #[test]
    fn tenants_are_judged_against_their_own_slo() {
        let tight = SloSpec::new(
            SimDuration::from_millis(50),
            SimDuration::from_millis(50),
            SimDuration::from_secs(5),
        );
        let mut tenant = ServedModel::llama_7b_chat(ModelId(1), 1.0).unwrap();
        tenant.slo = tight;
        // TTFT 0.1 s: fine for the default SLO, a miss for tenant 1.
        let records: Vec<_> = (0..10)
            .map(|i| {
                let mut r = record(i, 0.0, 0.1, 0.2);
                r.request = r.request.with_model(ModelId(1));
                r
            })
            .collect();
        let m = Metrics::with_recovery(
            records,
            vec![],
            SimDuration::from_secs(1),
            RecoveryCounters::default(),
        );
        let s = m.snapshot(
            &slo(),
            &[tenant],
            SimDuration::from_secs(1),
            &PressureTally::new(),
        );
        assert_eq!(s.health.len(), 2);
        assert_eq!(s.health[1].tenant, Some(ModelId(1)));
        assert_eq!(s.health[1].samples, 10);
        assert!(s.health[1].fast_burn > 0.0);
        assert_eq!(s.totals.slo_miss, 10);
    }

    #[test]
    fn losses_count_against_the_budget() {
        let lost = |kind, at| LossRecord {
            request: request(1, 0.1, 0),
            at: t(at),
            kind,
        };
        let s = snap(vec![], vec![lost(LossKind::Dropped, 0.2)]);
        assert_eq!(s.totals.arrived, 1);
        assert_eq!((s.totals.dropped, s.totals.rejected), (1, 0));
        assert_eq!(s.health[0].samples, 1);
        assert!(s.health[0].fast_burn > 0.0);
        let s = snap(vec![], vec![lost(LossKind::Rejected, 1.5)]);
        assert_eq!((s.windows[1].dropped, s.windows[1].rejected), (0, 1));
    }

    #[test]
    fn ttft_and_e2e_feed_summaries_and_ewma() {
        let s = snap(
            vec![record(1, 0.0, 0.1, 0.5), record(2, 0.2, 0.5, 0.9)],
            vec![],
        );
        let ms = SimDuration::from_millis;
        assert_eq!((s.ttft.count, s.ttft.sum), (2, ms(400)));
        assert_eq!(
            s.ttft.quantiles,
            vec![(0.5, ms(300)), (0.9, ms(300)), (0.99, ms(300))]
        );
        assert_eq!(s.e2e.quantiles[0], (0.5, ms(700)));
        // E2E latencies 0.5 and 0.7 s in completion order.
        let e = s.e2e_ewma.unwrap();
        assert!(
            (e - (EWMA_ALPHA * 0.7 + (1.0 - EWMA_ALPHA) * 0.5)).abs() < 1e-12,
            "{e}"
        );
        assert_eq!((s.windows[0].finished, s.windows[0].slo_miss), (2, 0));
    }

    #[test]
    fn pressure_samples_feed_the_role_pressure() {
        use ts_telemetry::TraceKind;
        let mut tally = PressureTally::new();
        let depth = |replica, depth| TraceKind::QueueDepth {
            role: Role::Prefill,
            replica,
            depth,
        };
        // Prefill 0 holds 4 over [1, 3) s and 8 over [3, 4) s; prefill 1
        // holds 2 over [2, 4) s.
        tally.observe(t(1.0), &depth(0, 4));
        tally.observe(t(2.0), &depth(1, 2));
        tally.observe(t(3.0), &depth(0, 8));
        let active = TraceKind::BatchOccupancy {
            role: Role::Decode,
            replica: 0,
            active: 13,
        };
        tally.observe(t(2.0), &active);
        let m = Metrics::new(vec![], 0, SimDuration::from_secs(4));
        let s = m.snapshot(&slo(), &[], SimDuration::from_secs(1), &tally);
        let roles: Vec<_> = s.pressure.iter().map(|p| p.role).collect();
        assert_eq!(roles, [Role::Prefill, Role::Decode]);
        let prefill = s.pressure[0].queue_depth;
        assert_eq!(
            (prefill.mean, prefill.peak),
            ((16.0 / 4.0 + 4.0 / 4.0) / 2.0, 8.0)
        );
        let decode = s.pressure[1].batch_occupancy;
        assert_eq!((decode.mean, decode.peak), (26.0 / 4.0, 13.0));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn a_zero_window_panics() {
        Metrics::new(vec![], 0, SimDuration::ZERO).snapshot(
            &slo(),
            &[],
            SimDuration::ZERO,
            &PressureTally::new(),
        );
    }
}
