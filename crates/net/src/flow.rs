//! The event-driven flow registry.
//!
//! [`FlowFabric`] tracks every in-flight transfer as a fluid flow with a
//! remaining byte count and a one-shot startup latency (alpha). Whenever
//! the set of active flows or the link capacities change, the max-min fair
//! allocation is recomputed and **every** flow's completion time
//! re-estimated. The caller keeps one timer at
//! [`FlowFabric::next_due`], re-armed after each change, and completes
//! flows with [`FlowFabric::complete_due`] when it fires.

use std::collections::BTreeMap;

use ts_common::{GpuId, RequestId, SimDuration, SimTime};
use ts_telemetry::{LinkKind, Recorder, TraceEvent, TraceKind, TraceSink};

use crate::topology::FabricTopology;

/// Residual byte count below which a flow counts as drained. Completion
/// estimates are rounded up to whole microseconds, so when one is due the
/// true residual is at most one microsecond of float error — far below
/// this threshold for any realistic rate.
const EPS_BYTES: f64 = 1e-3;

/// Rounds a span in seconds *up* to whole microseconds, so a completion
/// estimate never falls before the modeled flow has actually drained.
fn ceil_micros(secs: f64) -> SimDuration {
    assert!(secs.is_finite() && secs >= 0.0, "invalid span: {secs}");
    SimDuration::from_micros((secs * 1e6).ceil() as u64)
}

#[derive(Debug, Clone)]
struct FlowState {
    path: Vec<usize>,
    remaining: f64,
    rate: f64,
    /// Bytes start draining here (start time + alpha). The flow still
    /// occupies link bandwidth during the startup window.
    active_at: SimTime,
    /// Completion estimate under the current allocation.
    done_at: SimTime,
}

/// The set of in-flight flows over one [`FabricTopology`], with max-min
/// fair bandwidth sharing.
///
/// Deterministic: flows are kept in a `BTreeMap` keyed by the caller's id,
/// so the allocator always sees them in key order regardless of insertion
/// order, and identical flow sets yield bit-identical estimates.
#[derive(Debug, Clone)]
pub struct FlowFabric {
    topo: FabricTopology,
    flows: BTreeMap<u64, FlowState>,
    now: SimTime,
    /// Latest completion estimate ever issued, superseded or not.
    latest_estimate: SimTime,
    /// Fabric-side telemetry, `Some` iff [`FlowFabric::enable_telemetry`]
    /// was called: link-utilization samples and per-flow rate changes,
    /// recorded at allocation boundaries. Pure observation — it never
    /// affects rates or estimates.
    recorder: Option<Recorder>,
    /// Per-link used bandwidth at the last telemetry sample, so only
    /// changed links emit events (including drops to zero as flows drain).
    last_used: Vec<f64>,
}

impl FlowFabric {
    /// Creates an empty fabric over `topo`.
    pub fn new(topo: FabricTopology) -> Self {
        FlowFabric {
            topo,
            flows: BTreeMap::new(),
            now: SimTime::ZERO,
            latest_estimate: SimTime::ZERO,
            recorder: None,
            last_used: Vec::new(),
        }
    }

    /// Turns on fabric-side telemetry: every reallocation records a
    /// [`TraceKind::LinkUtilization`] sample for each link whose used
    /// bandwidth changed and a [`TraceKind::FlowRate`] event for each flow
    /// whose fair-share rate changed. Idempotent.
    pub fn enable_telemetry(&mut self) {
        if self.recorder.is_none() {
            self.recorder = Some(Recorder::new());
            self.last_used = vec![0.0; self.topo.capacities().len()];
        }
    }

    /// Takes the telemetry events recorded so far, in emission order
    /// (empty when telemetry is off). Recording continues afterwards with
    /// an empty buffer.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        match self.recorder.take() {
            Some(r) => {
                self.recorder = Some(Recorder::new());
                r.into_events()
            }
            None => Vec::new(),
        }
    }

    /// Builds the fabric directly from a cluster.
    pub fn from_cluster(cluster: &ts_cluster::Cluster) -> Self {
        FlowFabric::new(FabricTopology::from_cluster(cluster))
    }

    /// Whether `key` is currently in flight.
    pub fn contains(&self, key: u64) -> bool {
        self.flows.contains_key(&key)
    }

    /// Starts a flow of `bytes` from GPU `from` to GPU `to` at `now` and
    /// re-estimates **all** flows (including this one). The startup latency
    /// of the crossed link class is charged as a one-shot delay before
    /// bytes begin draining.
    ///
    /// Starting a key that is already in flight replaces the old flow.
    pub fn start(&mut self, key: u64, from: GpuId, to: GpuId, bytes: f64, now: SimTime) {
        self.advance(now);
        let state = FlowState {
            path: self.topo.path(from, to),
            remaining: bytes.max(0.0),
            rate: 0.0,
            active_at: now + self.topo.alpha(from, to),
            done_at: now,
        };
        self.flows.insert(key, state);
        self.reallocate();
    }

    /// The earliest completion estimate and its flow's key, ties broken by
    /// the smaller key; `None` when no flow is in flight.
    pub fn next_due(&self) -> Option<(SimTime, u64)> {
        self.flows.iter().map(|(&key, f)| (f.done_at, key)).min()
    }

    /// Completes the flow [`FlowFabric::next_due`] names if its estimate
    /// is due by `now`, reallocates bandwidth among the survivors and
    /// returns its key; `None` (and no change) when no flow is due.
    pub fn complete_due(&mut self, now: SimTime) -> Option<u64> {
        let (at, key) = self.next_due()?;
        if at > now {
            return None;
        }
        self.advance(now);
        let f = self.flows.remove(&key).expect("next_due names a flow");
        debug_assert!(
            f.remaining <= EPS_BYTES,
            "flow {key} due with {} bytes left",
            f.remaining
        );
        self.reallocate();
        Some(key)
    }

    /// The latest completion estimate this fabric has ever issued,
    /// including estimates a later change superseded (`ZERO` before the
    /// first flow).
    pub fn latest_estimate(&self) -> SimTime {
        self.latest_estimate
    }

    /// Removes `key` (e.g. its link went down) and re-estimates the
    /// surviving flows. Does nothing if the key was not in flight.
    pub fn cancel(&mut self, key: u64, now: SimTime) {
        if self.flows.remove(&key).is_none() {
            return;
        }
        self.advance(now);
        self.reallocate();
    }

    /// Degrades (or heals, with `factor` 1) every link on the `from → to`
    /// path to `healthy capacity / factor` and re-fair-shares the fabric
    /// live: bytes already moved at the old rates stay moved, and every
    /// in-flight flow gets a fresh completion estimate under the new
    /// capacities.
    ///
    /// # Panics
    /// Panics if `factor` is not finite or below 1.
    pub fn degrade_path(&mut self, from: GpuId, to: GpuId, factor: f64, now: SimTime) {
        self.advance(now);
        for link in self.topo.path(from, to) {
            self.topo.set_degradation(link, factor);
        }
        self.reallocate();
    }

    /// Drains every flow's remaining bytes up to `now` under the rates of
    /// the *current* allocation.
    fn advance(&mut self, now: SimTime) {
        if now < self.now {
            debug_assert!(
                false,
                "fabric time went backwards: {now:?} < {:?}",
                self.now
            );
            return;
        }
        for f in self.flows.values_mut() {
            let begin = if f.active_at > self.now {
                f.active_at
            } else {
                self.now
            };
            if now >= begin {
                if f.rate.is_finite() {
                    let dt = (now - begin).as_secs_f64();
                    f.remaining = (f.remaining - f.rate * dt).max(0.0);
                } else {
                    // Unconstrained (loopback / free-link) flows drain the
                    // moment their startup window ends.
                    f.remaining = 0.0;
                }
            }
        }
        self.now = now;
    }

    /// Recomputes the max-min allocation over all flows and re-estimates
    /// every flow's completion.
    fn reallocate(&mut self) {
        let mut rate_changes: Vec<(u64, f64)> = Vec::new();
        if !self.flows.is_empty() {
            let paths: Vec<Vec<usize>> = self.flows.values().map(|f| f.path.clone()).collect();
            let rates = crate::maxmin::max_min_allocate(self.topo.capacities(), &paths);
            let now = self.now;
            let telemetry_on = self.recorder.is_some();
            for ((&key, f), rate) in self.flows.iter_mut().zip(rates) {
                if telemetry_on && rate.is_finite() && rate != f.rate {
                    rate_changes.push((key, rate));
                }
                f.rate = rate;
                f.done_at = estimate(f, now);
                self.latest_estimate = self.latest_estimate.max(f.done_at);
            }
        }
        if let Some(rec) = self.recorder.as_mut() {
            let at = self.now;
            for (key, rate_bps) in rate_changes {
                rec.record(TraceEvent {
                    at,
                    kind: TraceKind::FlowRate {
                        request: RequestId(key),
                        rate_bps,
                    },
                });
            }
        }
        self.record_utilization();
    }

    /// Emits a [`TraceKind::LinkUtilization`] sample for every link whose
    /// used bandwidth changed since the last sample. Unconstrained
    /// (infinite-rate) flows and links with unbounded capacity are skipped:
    /// they model free local copies, not contended bandwidth.
    fn record_utilization(&mut self) {
        if self.recorder.is_none() {
            return;
        }
        let caps = self.topo.capacities();
        let mut used = vec![0.0f64; caps.len()];
        for f in self.flows.values() {
            if !f.rate.is_finite() {
                continue;
            }
            for &l in &f.path {
                used[l] += f.rate;
            }
        }
        let n = self.topo.num_nodes();
        let at = self.now;
        let rec = self.recorder.as_mut().expect("checked above");
        for (l, (&u, &prev)) in used.iter().zip(self.last_used.iter()).enumerate() {
            if u == prev || !caps[l].is_finite() {
                continue;
            }
            let kind = if l < n {
                LinkKind::Uplink(l)
            } else if l < 2 * n {
                LinkKind::Downlink(l - n)
            } else if l < 3 * n {
                LinkKind::Intra(l - 2 * n)
            } else {
                LinkKind::Inter
            };
            rec.record(TraceEvent {
                at,
                kind: TraceKind::LinkUtilization {
                    link: l,
                    kind,
                    used_bps: u,
                    capacity_bps: caps[l],
                },
            });
        }
        self.last_used = used;
    }
}

/// When `f` finishes under its current rate, seen from `now`.
fn estimate(f: &FlowState, now: SimTime) -> SimTime {
    let begin = if f.active_at > now { f.active_at } else { now };
    if f.remaining <= EPS_BYTES || f.rate.is_infinite() {
        begin
    } else {
        begin + ceil_micros(f.remaining / f.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::{Cluster, ClusterBuilder, GpuModel};

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .node("a", GpuModel::A40, 2)
            .node("b", GpuModel::Rtx3090Ti, 2)
            .node("c", GpuModel::A5000, 1)
            .inter_link(0, 1, 1e9, SimDuration::from_micros(300))
            .inter_link(0, 2, 1e9, SimDuration::from_micros(300))
            .inter_link(1, 2, 1e9, SimDuration::from_micros(300))
            .build()
            .unwrap()
    }

    #[test]
    fn single_flow_matches_alpha_beta_time() {
        let mut fab = FlowFabric::from_cluster(&cluster());
        // 1 GB over the 1 GB/s node0 → node1 link, alpha 300us.
        fab.start(7, GpuId(0), GpuId(2), 1e9, SimTime::ZERO);
        let done = SimTime::from_micros(300) + SimDuration::from_secs(1);
        assert_eq!(fab.next_due(), Some((done, 7)));
        assert_eq!(fab.complete_due(done), Some(7));
        assert_eq!(fab.next_due(), None);
    }

    #[test]
    fn loopback_flow_finishes_instantly() {
        let mut fab = FlowFabric::from_cluster(&cluster());
        let t = SimTime::from_micros(10);
        fab.start(1, GpuId(0), GpuId(0), 5e9, t);
        assert_eq!(fab.next_due(), Some((t, 1)));
        assert_eq!(fab.complete_due(t), Some(1));
    }

    #[test]
    fn shared_uplink_halves_rates_and_finish_frees_bandwidth() {
        let mut fab = FlowFabric::from_cluster(&cluster());
        let t0 = SimTime::ZERO;
        // Both flows leave node 0 (GPU 0 and GPU 1) for different nodes:
        // they share node 0's 1 GB/s uplink.
        fab.start(1, GpuId(0), GpuId(2), 1e9, t0);
        let (solo, _) = fab.next_due().unwrap();
        fab.start(2, GpuId(1), GpuId(4), 1e9, t0);
        // Halved bandwidth: both now finish in ~2s, so flow 1's refreshed
        // estimate is later than its solo estimate.
        let twice = SimTime::from_micros(300) + SimDuration::from_secs(2);
        assert_eq!(fab.next_due(), Some((twice, 1)));
        // The solo estimate was superseded: nothing is due then.
        assert_eq!(fab.complete_due(solo), None);
        assert!(fab.contains(1) && fab.contains(2));
        // Cancel flow 2 halfway: flow 1 gets the uplink back and its fresh
        // estimate moves earlier again.
        fab.cancel(2, SimTime::from_secs_f64(1.0));
        assert!(!fab.contains(2));
        let (after_cancel, key) = fab.next_due().unwrap();
        assert_eq!(key, 1);
        assert!(after_cancel < twice, "{after_cancel} !< {twice}");
        // The superseded shared-uplink estimate is still the latest issued.
        assert_eq!(fab.latest_estimate(), twice);
        assert_eq!(fab.complete_due(after_cancel), Some(1));
        assert_eq!(fab.next_due(), None);
    }

    #[test]
    fn receiver_downlink_contends_across_senders() {
        let mut fab = FlowFabric::from_cluster(&cluster());
        // Different source nodes, one destination GPU: node 2's downlink is
        // the shared bottleneck — precisely the effect the legacy
        // sender-serialized model cannot produce.
        fab.start(1, GpuId(0), GpuId(4), 1e9, SimTime::ZERO);
        let alpha = SimTime::from_micros(300);
        assert_eq!(fab.next_due(), Some((alpha + SimDuration::from_secs(1), 1)));
        fab.start(2, GpuId(2), GpuId(4), 1e9, SimTime::ZERO);
        // Both finish together; the smaller key is due first, then the
        // other is due at the same instant.
        let both = alpha + SimDuration::from_secs(2);
        assert_eq!(fab.next_due(), Some((both, 1)));
        assert_eq!(fab.complete_due(both), Some(1));
        assert_eq!(fab.next_due(), Some((both, 2)));
        assert_eq!(fab.complete_due(both), Some(2));
    }

    /// Drains `fab`, returning every (completion time, key) in order.
    fn drain(fab: &mut FlowFabric) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some((at, key)) = fab.next_due() {
            assert_eq!(fab.complete_due(at), Some(key));
            out.push((at, key));
        }
        out
    }

    /// Identical flow sets inserted in permuted order produce bit-identical
    /// completion times.
    #[test]
    fn completion_times_are_insertion_order_invariant() {
        let flows: [(u64, GpuId, GpuId, f64); 4] = [
            (3, GpuId(0), GpuId(2), 7e8),
            (1, GpuId(1), GpuId(4), 3e8),
            (4, GpuId(2), GpuId(0), 5e8),
            (2, GpuId(0), GpuId(4), 9e8),
        ];
        let t0 = SimTime::ZERO;
        let mut fab_a = FlowFabric::from_cluster(&cluster());
        let mut fab_b = FlowFabric::from_cluster(&cluster());
        for &(k, from, to, bytes) in &flows {
            fab_a.start(k, from, to, bytes, t0);
        }
        for &(k, from, to, bytes) in flows.iter().rev() {
            fab_b.start(k, from, to, bytes, t0);
        }
        let done = drain(&mut fab_a);
        assert_eq!(done.len(), flows.len());
        assert_eq!(done, drain(&mut fab_b));
    }

    #[test]
    fn zero_byte_flow_completes_after_alpha() {
        let mut fab = FlowFabric::from_cluster(&cluster());
        fab.start(5, GpuId(0), GpuId(2), 0.0, SimTime::ZERO);
        let alpha = SimTime::from_micros(300);
        assert_eq!(fab.next_due(), Some((alpha, 5)));
        assert_eq!(fab.complete_due(alpha), Some(5));
    }

    #[test]
    fn telemetry_samples_links_and_rates() {
        let mut fab = FlowFabric::from_cluster(&cluster());
        assert!(fab.take_events().is_empty(), "off by default");
        fab.enable_telemetry();
        // Both flows leave node 0 (GPU 0 and GPU 1): they share uplink 0.
        fab.start(1, GpuId(0), GpuId(2), 1e9, SimTime::ZERO);
        fab.start(2, GpuId(1), GpuId(4), 1e9, SimTime::ZERO);
        fab.cancel(1, SimTime::from_secs_f64(0.5));
        fab.cancel(2, SimTime::from_secs_f64(0.5));
        let events = fab.take_events();
        assert!(!events.is_empty());
        let rates = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::FlowRate { .. }))
            .count();
        assert!(rates >= 2, "each flow's rate change recorded, got {rates}");
        let mut up0_last = None;
        for e in &events {
            if let TraceKind::LinkUtilization {
                kind: LinkKind::Uplink(0),
                used_bps,
                capacity_bps,
                ..
            } = e.kind
            {
                assert!(used_bps <= capacity_bps + 1e-6);
                up0_last = Some(used_bps);
            }
        }
        assert_eq!(up0_last, Some(0.0), "drops back to zero when flows drain");
        assert!(fab.take_events().is_empty(), "buffer drained by take");
    }

    #[test]
    fn degrade_path_refair_shares_in_flight_flows() {
        let mut fab = FlowFabric::from_cluster(&cluster());
        // 1 GB over the 1 GB/s node0 → node1 path: solo finish at ~1s.
        fab.start(1, GpuId(0), GpuId(2), 1e9, SimTime::ZERO);
        let (healthy_done, _) = fab.next_due().unwrap();
        // Halfway through, the path loses 4× bandwidth. 0.5 GB already
        // moved stays moved; the rest drains at 0.25 GB/s → ~2s more.
        let t_half = SimTime::from_micros(300) + SimDuration::from_millis(500);
        fab.degrade_path(GpuId(0), GpuId(2), 4.0, t_half);
        let degraded_done = t_half + SimDuration::from_secs(2);
        assert!(degraded_done > healthy_done);
        assert_eq!(fab.next_due(), Some((degraded_done, 1)));
        // The healthy estimate was superseded: nothing is due then.
        assert_eq!(fab.complete_due(healthy_done), None);
        // Healing mid-flight speeds the remainder back up.
        fab.degrade_path(GpuId(0), GpuId(2), 1.0, t_half + SimDuration::from_secs(1));
        let (healed_done, _) = fab.next_due().unwrap();
        assert!(healed_done < degraded_done);
        assert_eq!(fab.latest_estimate(), degraded_done);
        assert_eq!(fab.complete_due(healed_done), Some(1));
    }

    #[test]
    fn cancel_of_unknown_key_is_a_noop() {
        let mut fab = FlowFabric::from_cluster(&cluster());
        fab.start(1, GpuId(0), GpuId(2), 1e9, SimTime::ZERO);
        let before = fab.next_due();
        fab.cancel(42, SimTime::from_micros(10));
        assert_eq!(fab.next_due(), before);
        let (at, _) = before.unwrap();
        assert_eq!(fab.complete_due(at), Some(1));
    }
}
