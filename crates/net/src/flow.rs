//! The event-driven flow registry.
//!
//! [`FlowFabric`] tracks every in-flight transfer as a fluid flow with a
//! remaining byte count and a one-shot startup latency (alpha). Flows are
//! grouped into path classes, one per distinct path, with a member count
//! that each start, finish and cancel adjusts in O(path). Whenever the set
//! of active flows or the link capacities change, the fabric refills
//! max-min fair bandwidth over the live classes ([`crate::maxmin::MaxMin`])
//! and then makes one pass over the flows, kept in a vector sorted by key:
//! each is drained at its old rate up to the change, given its class's new
//! rate and re-estimated. The same pass caches the earliest estimate, so
//! [`FlowFabric::next_due`] answers in O(1). The caller keeps one timer at
//! [`FlowFabric::next_due`], re-armed after each change, and completes
//! flows with [`FlowFabric::complete_due`] when it fires.

use ts_common::{GpuId, RequestId, SimDuration, SimTime};
use ts_telemetry::{LinkKind, Recorder, TraceEvent, TraceKind, TraceSink};

use crate::maxmin::MaxMin;
use crate::topology::FabricTopology;

/// Residual byte count below which a flow counts as drained. Completion
/// estimates are rounded up to whole microseconds, so when one is due the
/// true residual is at most one microsecond of float error — far below
/// this threshold for any realistic rate.
const EPS_BYTES: f64 = 1e-3;

/// Rounds a span in seconds *up* to whole microseconds, so a completion
/// estimate never falls before the modeled flow has actually drained.
///
/// Equal to `(secs * 1e6).ceil() as u64` for every finite non-negative
/// `secs`, without the libm call: the truncating cast is the floor, and
/// the floor of an `f64` below 2^64 converts back exactly, so one exact
/// comparison tells whether it has to go up by one. Above 2^64 both
/// saturate.
fn ceil_micros(secs: f64) -> SimDuration {
    assert!(secs.is_finite() && secs >= 0.0, "invalid span: {secs}");
    let us = secs * 1e6;
    let floor = us as u64;
    let ceil = if (floor as f64) < us {
        floor.saturating_add(1)
    } else {
        floor
    };
    SimDuration::from_micros(ceil)
}

#[derive(Debug, Clone)]
struct FlowState {
    /// Index of the flow's path class.
    class: usize,
    remaining: f64,
    rate: f64,
    /// Bytes start draining here (start time + alpha). The flow still
    /// occupies link bandwidth during the startup window.
    active_at: SimTime,
    /// Completion estimate under the current allocation.
    done_at: SimTime,
}

/// Exact counts of the fabric's reallocation work since it was built.
///
/// Allocation over path classes and the flat, flow-by-flow filling it
/// replaced take the same rounds, so `flat_cells` is exactly what the
/// flat filler would have scanned for the same changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricWork {
    /// Reallocations: flow starts, completions, cancels of in-flight keys
    /// and path degradations.
    pub changes: u64,
    /// Flows visited by the per-change pass (Σ flows in flight per change).
    pub flows_visited: u64,
    /// Progressive-filling bottleneck searches.
    pub rounds: u64,
    /// Class-link cells scanned: Σ rounds × touched links × live classes.
    pub class_cells: u64,
    /// Flat-equivalent cells: Σ rounds × all links × flows in flight.
    pub flat_cells: u64,
}

/// The set of in-flight flows over one [`FabricTopology`], with max-min
/// fair bandwidth sharing.
///
/// Deterministic: flows are kept in a vector sorted by the caller's id,
/// so the per-change pass always visits them in key order regardless of
/// insertion order, and identical flow sets yield bit-identical estimates.
#[derive(Debug, Clone)]
pub struct FlowFabric {
    topo: FabricTopology,
    /// The flows in flight, sorted by key.
    flows: Vec<(u64, FlowState)>,
    /// Class index per path slot, `usize::MAX` until a flow first takes
    /// that path. Slot `a * n + b` is the path from node `a` to node `b`
    /// (`a == b`: the node's intra-node bus); slot `n * n` is loopback.
    /// The allocator holds one class per distinct path used so far, live
    /// or not, with its member count.
    class_at: Vec<usize>,
    allocator: MaxMin,
    now: SimTime,
    /// The earliest `(estimate, key)` of the flows in flight.
    next: Option<(SimTime, u64)>,
    /// Latest completion estimate ever issued, superseded or not.
    latest_estimate: SimTime,
    work: FabricWork,
    /// Fabric-side telemetry, `Some` iff [`FlowFabric::enable_telemetry`]
    /// was called: link-utilization samples and per-flow rate changes,
    /// recorded at allocation boundaries. Pure observation — it never
    /// affects rates or estimates.
    recorder: Option<Recorder>,
    /// Per-link used bandwidth at the last telemetry sample, so only
    /// changed links emit events (including drops to zero as flows drain).
    last_used: Vec<f64>,
    /// Per-link used bandwidth of the sample being taken; swapped with
    /// `last_used` once it is recorded.
    used: Vec<f64>,
}

impl FlowFabric {
    /// Creates an empty fabric over `topo`.
    pub fn new(topo: FabricTopology) -> Self {
        let n = topo.num_nodes();
        FlowFabric {
            topo,
            flows: Vec::new(),
            class_at: vec![usize::MAX; n * n + 1],
            allocator: MaxMin::default(),
            now: SimTime::ZERO,
            next: None,
            latest_estimate: SimTime::ZERO,
            work: FabricWork::default(),
            recorder: None,
            last_used: Vec::new(),
            used: Vec::new(),
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
            self.used = vec![0.0; self.topo.capacities().len()];
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
        self.find(key).is_ok()
    }

    /// The flow table position of `key`, or where it would be inserted.
    fn find(&self, key: u64) -> Result<usize, usize> {
        self.flows.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// The reallocation work done so far.
    pub fn work(&self) -> FabricWork {
        self.work
    }

    /// Starts a flow of `bytes` from GPU `from` to GPU `to` at `now` and
    /// re-estimates **all** flows (including this one). The startup latency
    /// of the crossed link class is charged as a one-shot delay before
    /// bytes begin draining.
    ///
    /// Starting a key that is already in flight replaces the old flow.
    pub fn start(&mut self, key: u64, from: GpuId, to: GpuId, bytes: f64, now: SimTime) {
        let class = self.class_of(from, to);
        self.allocator.add_member(class);
        let state = FlowState {
            class,
            remaining: bytes.max(0.0),
            rate: 0.0,
            active_at: now + self.topo.alpha(from, to),
            done_at: now,
        };
        match self.find(key) {
            Ok(i) => {
                let old = std::mem::replace(&mut self.flows[i].1, state);
                self.allocator.remove_member(old.class);
            }
            Err(i) => self.flows.insert(i, (key, state)),
        }
        self.reallocate(now);
    }

    /// The earliest completion estimate and its flow's key, ties broken by
    /// the smaller key; `None` when no flow is in flight.
    pub fn next_due(&self) -> Option<(SimTime, u64)> {
        self.next
    }

    /// Completes the flow [`FlowFabric::next_due`] names if its estimate
    /// is due by `now`, reallocates bandwidth among the survivors and
    /// returns its key; `None` (and no change) when no flow is due.
    pub fn complete_due(&mut self, now: SimTime) -> Option<u64> {
        let (at, key) = self.next?;
        if at > now {
            return None;
        }
        let i = self.find(key).expect("next_due names a flow");
        let (_, f) = self.flows.remove(i);
        self.allocator.remove_member(f.class);
        debug_assert!(
            drained(&f, self.now, now) <= EPS_BYTES,
            "flow {key} due with {} bytes left",
            drained(&f, self.now, now)
        );
        self.reallocate(now);
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
        let Ok(i) = self.find(key) else {
            return;
        };
        let (_, f) = self.flows.remove(i);
        self.allocator.remove_member(f.class);
        self.reallocate(now);
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
        let class = self.class_of(from, to);
        for &link in self.allocator.links(class) {
            self.topo.set_degradation(link, factor);
        }
        self.reallocate(now);
    }

    /// The class of the `from → to` path, created on first use.
    fn class_of(&mut self, from: GpuId, to: GpuId) -> usize {
        let n = self.topo.num_nodes();
        let slot = if from == to {
            n * n
        } else {
            self.topo.node_of(from) * n + self.topo.node_of(to)
        };
        if self.class_at[slot] == usize::MAX {
            self.class_at[slot] = self.allocator.add_class(&self.topo.path(from, to));
        }
        self.class_at[slot]
    }

    /// Refills max-min bandwidth over the live classes, then makes the
    /// one pass over the flows: drain each at its old rate up to `now`,
    /// give it its class's new rate, re-estimate its completion and fold
    /// the estimate into the latest and the earliest.
    ///
    /// A flow started by this change has rate 0 and sits inside its alpha
    /// window, so the drain leaves its bytes untouched. Every flow already
    /// draining at the previous change drains over the same interval, so
    /// the pass converts it to seconds once, the value [`drained`] would
    /// compute for each such flow.
    fn reallocate(&mut self, now: SimTime) {
        let now = if now < self.now {
            debug_assert!(
                false,
                "fabric time went backwards: {now:?} < {:?}",
                self.now
            );
            self.now
        } else {
            now
        };
        let in_flight = self.flows.len() as u64;
        let filling = if in_flight == 0 {
            Default::default()
        } else {
            self.allocator.fill(self.topo.capacities())
        };
        let links = self.topo.capacities().len() as u64;
        let w = &mut self.work;
        w.changes += 1;
        w.flows_visited += in_flight;
        w.rounds += filling.rounds;
        w.class_cells += filling.cells;
        w.flat_cells += filling.rounds * links * in_flight;

        let prev = self.now;
        let span = (now - prev).as_secs_f64();
        let mut next: Option<(SimTime, u64)> = None;
        for (key, f) in self.flows.iter_mut() {
            let key = *key;
            f.remaining = if f.active_at > prev {
                drained(f, prev, now)
            } else {
                drained_over(f, span)
            };
            let rate = self.allocator.rate(f.class);
            if let Some(rec) = self.recorder.as_mut() {
                if rate.is_finite() && rate != f.rate {
                    rec.record(TraceEvent {
                        at: now,
                        kind: TraceKind::FlowRate {
                            request: RequestId(key),
                            rate_bps: rate,
                        },
                    });
                }
            }
            f.rate = rate;
            f.done_at = estimate(f, now);
            self.latest_estimate = self.latest_estimate.max(f.done_at);
            if next.is_none_or(|due| (f.done_at, key) < due) {
                next = Some((f.done_at, key));
            }
        }
        self.next = next;
        self.now = now;
        self.record_utilization();
    }

    /// Emits a [`TraceKind::LinkUtilization`] sample for every link whose
    /// used bandwidth changed since the last sample. Unconstrained
    /// (infinite-rate) flows and links with unbounded capacity are skipped:
    /// they model free local copies, not contended bandwidth.
    fn record_utilization(&mut self) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let caps = self.topo.capacities();
        let used = &mut self.used;
        used.fill(0.0);
        for (_, f) in &self.flows {
            if !f.rate.is_finite() {
                continue;
            }
            for &l in self.allocator.links(f.class) {
                used[l] += f.rate;
            }
        }
        let n = self.topo.num_nodes();
        let at = self.now;
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
        std::mem::swap(&mut self.used, &mut self.last_used);
    }
}

/// `f`'s remaining bytes after draining from `from` to `to` at its current
/// rate. Unconstrained (loopback / free-link) flows drain the moment their
/// startup window ends.
fn drained(f: &FlowState, from: SimTime, to: SimTime) -> f64 {
    let begin = if f.active_at > from {
        f.active_at
    } else {
        from
    };
    if to < begin {
        f.remaining
    } else {
        drained_over(f, (to - begin).as_secs_f64())
    }
}

/// `f`'s remaining bytes after `secs` seconds of draining at its current
/// rate.
fn drained_over(f: &FlowState, secs: f64) -> f64 {
    if f.rate.is_finite() {
        (f.remaining - f.rate * secs).max(0.0)
    } else {
        0.0
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

    /// Seeded scripts of random starts (some replacing a key in flight),
    /// cancels (some of unknown keys), completions (some late) and path
    /// degradations. After every call the flow table is sorted by key, the
    /// cached earliest estimate equals a full scan, the latest estimate
    /// equals the running maximum of every estimate seen, the class member
    /// counts match the flows, and the allocator's incremental link user
    /// counts and live lists equal a recount.
    #[test]
    fn random_scripts_keep_cached_estimates_and_class_counts_exact() {
        use rand::Rng;
        let mut rng = ts_common::seeded_rng(0x5C1);
        let mut calls = [0usize; 5];
        for _script in 0..20 {
            let mut fab = FlowFabric::from_cluster(&cluster());
            let mut now = SimTime::ZERO;
            let mut running_max = SimTime::ZERO;
            for _step in 0..250 {
                now += SimDuration::from_micros(rng.gen_range(0..300_000));
                let from = GpuId(rng.gen_range(0..5));
                let to = GpuId(rng.gen_range(0..5));
                let key = rng.gen_range(0..16u64);
                match rng.gen_range(0..10) {
                    0..=3 => {
                        calls[usize::from(fab.contains(key))] += 1;
                        let bytes = rng.gen_range(0.0..2e9);
                        fab.start(key, from, to, bytes, now);
                    }
                    4 => {
                        calls[2] += 1;
                        fab.cancel(key, now);
                    }
                    5..=7 => {
                        // Fire at the due time, or late when it has passed.
                        if let Some((at, _)) = fab.next_due() {
                            now = now.max(at);
                        }
                        calls[3] += usize::from(fab.complete_due(now).is_some());
                    }
                    _ => {
                        calls[4] += 1;
                        let factor = [1.0, 1.0, 2.0, 8.0][rng.gen_range(0..4usize)];
                        fab.degrade_path(from, to, factor, now);
                    }
                }
                assert!(fab.flows.windows(2).all(|w| w[0].0 < w[1].0));
                let scan = fab.flows.iter().map(|&(k, ref f)| (f.done_at, k)).min();
                assert_eq!(fab.next_due(), scan);
                for (_, f) in &fab.flows {
                    running_max = running_max.max(f.done_at);
                }
                assert_eq!(fab.latest_estimate(), running_max);
                let mut total = 0;
                for &c in fab.class_at.iter().filter(|&&c| c != usize::MAX) {
                    let members = fab.flows.iter().filter(|(_, f)| f.class == c).count();
                    assert_eq!(fab.allocator.members(c), members, "class {c}");
                    total += members;
                }
                assert_eq!(total, fab.flows.len());
                fab.allocator.assert_counts_exact();
            }
        }
        // Fresh starts, replacing starts, cancels, completions, degradations.
        assert!(
            calls.iter().all(|&n| n >= 100),
            "every call is covered: {calls:?}"
        );
    }

    /// `FabricWork` on one fixed seeded script of starts (some replacing a
    /// key in flight), completions, cancels and degradations, pinned so the
    /// counters keep their meaning across changes to the fabric. A digest
    /// of every cached earliest estimate and completed key pins the
    /// estimates bit for bit.
    #[test]
    fn fabric_work_is_pinned_on_a_fixed_script() {
        use rand::Rng;
        let mut rng = ts_common::seeded_rng(0xF1_0E);
        let mut fab = FlowFabric::from_cluster(&cluster());
        let mut now = SimTime::ZERO;
        // FNV-1a over every cached earliest estimate and completed key.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        for _ in 0..400 {
            now += SimDuration::from_micros(rng.gen_range(0..200_000));
            let from = GpuId(rng.gen_range(0..5));
            let to = GpuId(rng.gen_range(0..5));
            let key = rng.gen_range(0..24u64);
            match rng.gen_range(0..10) {
                0..=4 => fab.start(key, from, to, rng.gen_range(0.0..2e9), now),
                5 => fab.cancel(key, now),
                6..=8 => {
                    if let Some((at, _)) = fab.next_due() {
                        now = now.max(at);
                    }
                    fold(fab.complete_due(now).unwrap_or(u64::MAX));
                }
                _ => fab.degrade_path(from, to, [1.0, 2.0, 8.0][rng.gen_range(0..3usize)], now),
            }
            let (at, key) = fab.next_due().unwrap_or((SimTime::ZERO, u64::MAX));
            fold(at.as_micros());
            fold(key);
        }
        assert_eq!(
            fab.work(),
            FabricWork {
                changes: 374,
                flows_visited: 3_521,
                rounds: 1_448,
                class_cells: 78_469,
                flat_cells: 191_520,
            }
        );
        assert_eq!(fab.latest_estimate().as_micros(), 211_492_413);
        assert_eq!(digest, 0x1f2d_41b1_dae0_19d0);
    }

    /// The integer rounding equals the float `ceil` it replaced on whole
    /// and fractional microseconds, on both sides of 2^53 and past 2^64.
    #[test]
    fn ceil_micros_matches_the_float_ceil() {
        use rand::Rng;
        let reference = |secs: f64| (secs * 1e6).ceil() as u64;
        let mut spans = vec![
            0.0, 1e-6, 1.5e-6, 0.1, 0.3, 1.0, 2.5, 9.007e9, 1.8e13, 1.9e13, 1e300,
        ];
        let mut rng = ts_common::seeded_rng(0xCE11);
        for _ in 0..100_000 {
            let exp = rng.gen_range(-9..14);
            spans.push(rng.gen_range(0.0..1.0f64) * 10f64.powi(exp));
            // Whole microseconds and their float neighbours.
            let us = rng.gen_range(0..1u64 << 40) as f64;
            let secs = us / 1e6;
            spans.extend([secs, f64::from_bits(secs.to_bits() + 1)]);
            if secs > 0.0 {
                spans.push(f64::from_bits(secs.to_bits() - 1));
            }
        }
        for secs in spans {
            assert_eq!(ceil_micros(secs).as_micros(), reference(secs), "{secs:e}");
        }
    }
}
