//! The post-run metrics snapshot the exporters render: exact latency
//! summaries, fixed-window counts, per-role pressure and SLO burn-rate
//! health. `ts_sim::Metrics::snapshot` builds it from a finished run.

use ts_common::{SimDuration, SimTime};

use crate::burn::HealthSignal;
use crate::event::Role;

/// The quantiles every [`Summary`] reports.
pub const QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// Counters of one fixed window `[start, start + w)`; each event counts in
/// the window holding its instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowCounts {
    /// Window start (a multiple of the window length).
    pub start: SimTime,
    /// Requests that arrived.
    pub arrived: u64,
    /// Requests that completed.
    pub finished: u64,
    /// Requests dropped mid-service or left in the system at the end.
    pub dropped: u64,
    /// Requests rejected at admission (stall-queue overflow).
    pub rejected: u64,
    /// Completed requests that missed their TTFT or E2E deadline.
    pub slo_miss: u64,
}

/// Exact summary of one latency population.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: u64,
    /// Their sum.
    pub sum: SimDuration,
    /// `(q, nearest-rank q-quantile)` for each of [`QUANTILES`]; empty
    /// with no samples.
    pub quantiles: Vec<(f64, SimDuration)>,
}

/// Time-weighted mean and peak of one integer signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanPeak {
    /// Mean over the replicas of the time-weighted mean of each.
    pub mean: f64,
    /// Largest sample on any replica.
    pub peak: f64,
}

/// The pressure signals of one serving role.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolePressure {
    /// The role.
    pub role: Role,
    /// Queued prefill jobs.
    pub queue_depth: MeanPeak,
    /// Active continuous-batch size.
    pub batch_occupancy: MeanPeak,
}

/// Everything the exporters report about one run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The last lifecycle instant of the run (arrival, first token,
    /// completion or loss).
    pub at: SimTime,
    /// Time to first token of the completed requests.
    pub ttft: Summary,
    /// End-to-end latency of the completed requests.
    pub e2e: Summary,
    /// TTFT (seconds) smoothed in first-token order.
    pub ttft_ewma: Option<f64>,
    /// E2E latency (seconds) smoothed in completion order.
    pub e2e_ewma: Option<f64>,
    /// Per-role pressure, in [`Role`] order, for each role with replicas.
    pub pressure: Vec<RolePressure>,
    /// Run-lifetime counters (`start` is zero).
    pub totals: WindowCounts,
    /// Hedged duplicates launched.
    pub hedges: u64,
    /// Requests requeued by fault recovery.
    pub requeues: u64,
    /// Every window from the origin through the one holding `at`; the
    /// last is still open.
    pub windows: Vec<WindowCounts>,
    /// Burn-rate signals: the fleet-wide signal first (tenant `None`),
    /// then one per catalog tenant in ascending model order.
    pub health: Vec<HealthSignal>,
}

impl MetricsSnapshot {
    /// Windows closed before `at`.
    pub fn windows_closed(&self) -> u64 {
        self.windows.len() as u64 - 1
    }

    /// Compact JSON metrics dump.
    pub fn to_json(&self) -> String {
        let num = |x: f64| format!("{x:.6}");
        let summary = |s: &Summary| {
            let quantiles = s.quantiles.iter();
            let quantiles = quantiles
                .map(|&(q, v)| format!(",\"p{}\":{}", (q * 100.0).round(), num(v.as_secs_f64())));
            let sum = num(s.sum.as_secs_f64());
            format!(
                "{{\"count\":{},\"sum\":{sum}{}}}",
                s.count,
                quantiles.collect::<String>()
            )
        };
        let counts = |w: &WindowCounts| {
            let fields = [w.arrived, w.finished, w.dropped, w.rejected, w.slo_miss];
            let names = ["arrived", "finished", "dropped", "rejected", "slo_miss"];
            let fields = names
                .iter()
                .zip(fields)
                .map(|(k, v)| format!("\"{k}\":{v}"));
            fields.collect::<Vec<_>>().join(",")
        };
        let pressure = self.pressure.iter().map(|p| {
            let (q, b) = (p.queue_depth, p.batch_occupancy);
            format!(
                "{{\"role\":\"{}\",\"queue_depth\":{{\"mean\":{},\"peak\":{}}},\"batch_occupancy\":{{\"mean\":{},\"peak\":{}}}}}",
                p.role, num(q.mean), num(q.peak), num(b.mean), num(b.peak)
            )
        });
        let health = self.health.iter().map(|h| {
            let tenant = h.tenant.map_or("null".into(), |m| m.0.to_string());
            format!(
                "{{\"tenant\":{tenant},\"fast_burn\":{},\"slow_burn\":{},\"samples\":{},\"state\":\"{:?}\"}}",
                num(h.fast_burn), num(h.slow_burn), h.samples, h.state
            )
        });
        let ewma = |x: Option<f64>| x.map_or("null".into(), num);
        let open = &self.windows[self.windows.len() - 1];
        format!(
            "{{\n  \"at_s\": {},\n  \"windows_closed\": {},\n  \"ttft_s\": {},\n  \"e2e_s\": {},\n  \"ewma\": {{\"ttft_s\":{},\"e2e_s\":{}}},\n  \"pressure\": [{}],\n  \"totals\": {{{},\"hedges\":{},\"requeues\":{}}},\n  \"window\": {{\"start_s\":{},{}}},\n  \"health\": [{}]\n}}\n",
            num(self.at.as_secs_f64()),
            self.windows_closed(),
            summary(&self.ttft),
            summary(&self.e2e),
            ewma(self.ttft_ewma),
            ewma(self.e2e_ewma),
            pressure.collect::<Vec<_>>().join(","),
            counts(&self.totals),
            self.hedges,
            self.requeues,
            num(open.start.as_secs_f64()),
            counts(open),
            health.collect::<Vec<_>>().join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burn::BurnMonitor;
    use ts_common::ModelId;

    #[test]
    fn json_dump_is_emitted() {
        let counts = WindowCounts {
            arrived: 3,
            finished: 2,
            rejected: 1,
            ..WindowCounts::default()
        };
        let s = MetricsSnapshot {
            at: SimTime::from_secs_f64(1.5),
            ttft: Summary {
                count: 2,
                sum: SimDuration::from_millis(300),
                quantiles: vec![(0.5, SimDuration::from_millis(100))],
            },
            e2e: Summary {
                count: 0,
                sum: SimDuration::ZERO,
                quantiles: Vec::new(),
            },
            ttft_ewma: Some(0.14),
            e2e_ewma: None,
            pressure: vec![RolePressure {
                role: Role::Decode,
                queue_depth: MeanPeak {
                    mean: 0.0,
                    peak: 0.0,
                },
                batch_occupancy: MeanPeak {
                    mean: 2.5,
                    peak: 4.0,
                },
            }],
            totals: counts,
            hedges: 1,
            requeues: 0,
            windows: vec![
                WindowCounts::default(),
                WindowCounts {
                    start: SimTime::from_secs_f64(1.0),
                    ..counts
                },
            ],
            health: vec![BurnMonitor::new().signal(Some(ModelId(2)))],
        };
        let j = s.to_json();
        let v = ts_common::json::parse(&j).expect("valid JSON");
        assert_eq!(v.num("windows_closed"), Some(1.0));
        let ttft = v.get("ttft_s").unwrap();
        assert_eq!((ttft.num("count"), ttft.num("p50")), (Some(2.0), Some(0.1)));
        assert_eq!(v.get("e2e_s").unwrap().num("p50"), None);
        assert_eq!(v.get("totals").unwrap().num("hedges"), Some(1.0));
        assert_eq!(v.get("window").unwrap().num("start_s"), Some(1.0));
        assert_eq!(v.get("window").unwrap().num("rejected"), Some(1.0));
        let pressure = &v.get("pressure").unwrap().as_array().unwrap()[0];
        assert_eq!(pressure.get("role").unwrap().as_str(), Some("decode"));
        let health = &v.get("health").unwrap().as_array().unwrap()[0];
        assert_eq!(health.num("tenant"), Some(2.0));
        assert!(
            j.contains("\"ewma\": {\"ttft_s\":0.140000,\"e2e_s\":null}"),
            "{j}"
        );
    }
}
