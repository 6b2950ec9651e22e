//! KV-cache transport from prefill to decode replicas.
//!
//! [`KvTransport`] owns the one decision of how a transfer occupies the
//! wire, taken once from [`SimConfig::kv_transfer`]:
//!
//! * [`KvTransfer::Serialized`] — alpha-beta wire time, queued on the
//!   sender's uplink and stretched by a degraded link's factor;
//! * [`KvTransfer::Fabric`] — a flow in the `ts-net` max-min fabric, which
//!   degraded and faulted links affect live.
//!
//! It also owns link liveness and the retry of a transfer whose link
//! faulted. The driver calls [`KvTransport::launch`], the link-fault
//! entry points and the completion handlers; a handler returns the
//! request whose bytes arrived over a live link, and the driver hands it
//! to the decode replica.

use super::driver::{drop_request, trace, trace_at, tracing, Core};
use super::executor::{DecodeExecutor, PrefillExecutor};
use super::seq::PrefillJob;
use crate::config::{KvTransfer, SimConfig, KV_RETRY_BACKOFF_BASE, KV_RETRY_BACKOFF_CAP};
use crate::event::EventKind;
use crate::fault::{FaultKind, TimedFault};
use ts_cluster::Cluster;
use ts_common::{
    DeploymentPlan, Error, GpuId, ModelId, ModelSpec, Result, SimDuration, SimTime, SlabKey,
};
use ts_costmodel::replica::{kv_route_legs, kv_transfer_time, KvRouteLeg, KvRouteSegment};
use ts_kvcache::codec::KvCodec;
use ts_net::{FabricWork, FlowFabric};
use ts_telemetry::{TraceEvent, TraceKind};

/// An in-flight KV transfer (completion events carry an attempt number so
/// superseded attempts are ignored).
#[derive(Debug, Clone, Copy)]
pub(super) struct Transfer {
    pub(super) from: usize,
    pub(super) to: usize,
    pub(super) job: PrefillJob,
    pub(super) attempt: u32,
}

/// How a transfer occupies the wire.
enum Wire {
    /// Wire time serialized on the sender's uplink.
    Serialized(Uplinks),
    /// Flows in the max-min fabric (boxed: its reusable allocation
    /// buffers make it several times the size of the other variants). The
    /// event queue's timer slot holds its earliest completion estimate.
    Fabric(Box<FlowFabric>),
}

/// State of the per-sender serialized model.
struct Uplinks {
    /// KV route per (prefill, decode) pair.
    routes: Vec<Vec<Vec<KvRouteSegment>>>,
    /// One-entry memo per (prefill, decode) pair: `tokens ->` modeled
    /// wire time. The route, the sender's model spec and the wire
    /// precision are all fixed after construction, so
    /// [`kv_transfer_time`] is pure in the token count — fixed-length
    /// day traces hit the cache on nearly every transfer.
    memo: Vec<Vec<Option<(u64, SimDuration)>>>,
    /// Per-sender (prefill replica) uplink availability: one replica's
    /// outbound transfers serialize on its NIC, whichever decode replica
    /// they target.
    sender_free_at: Vec<SimTime>,
    /// Bandwidth-degradation factor per (prefill, decode) pair (1 =
    /// healthy); wire times stretch by it.
    link_factor: Vec<Vec<f64>>,
    /// Model spec each prefill replica's transfers are priced with.
    specs: Vec<ModelSpec>,
}

/// KV transport between the prefill and decode replicas of a phase-split
/// plan.
pub(super) struct KvTransport {
    wire: Wire,
    /// Link availability per (prefill, decode) pair.
    link_down: Vec<Vec<bool>>,
    /// Per (prefill, decode) pair: representative endpoints and total layer
    /// count for the fabric's one-flow-per-transfer approximation. The
    /// endpoints come from the route leg carrying the most layers; the byte
    /// count covers the whole route.
    flow_routes: Vec<Vec<(GpuId, GpuId, usize)>>,
    /// Wire codec per prefill replica (its model × the configured KV
    /// precision), sizing fabric flows and traced KV bytes.
    codecs: Vec<KvCodec>,
}

impl KvTransport {
    /// Builds the transport between `prefills` and `decodes`, where
    /// prefill replica `i` serves `prefill_model[i]`.
    pub(super) fn new(
        cluster: &Cluster,
        cfg: &SimConfig,
        plan: &DeploymentPlan,
        prefills: &[PrefillExecutor],
        decodes: &[DecodeExecutor],
        prefill_model: &[ModelId],
    ) -> Self {
        // Legacy plans keep the default model's codec whatever their groups
        // are tagged with.
        let codecs = prefill_model
            .iter()
            .map(|&m| {
                let spec = if plan.is_multi_model() {
                    cfg.spec_for(m)
                } else {
                    &cfg.model
                };
                KvCodec::new(spec.clone(), cfg.kv_precision)
            })
            .collect();
        let mut routes = Vec::with_capacity(prefills.len());
        let mut flow_routes = Vec::with_capacity(prefills.len());
        for p in prefills {
            let mut row = Vec::with_capacity(decodes.len());
            let mut flow_row = Vec::with_capacity(decodes.len());
            for d in decodes {
                let legs = kv_route_legs(cluster, &p.cost, &d.cost);
                flow_row.push(flow_endpoints(&legs));
                row.push(legs.iter().map(KvRouteLeg::segment).collect());
            }
            routes.push(row);
            flow_routes.push(flow_row);
        }
        let (np, nd) = (prefills.len(), decodes.len());
        let wire = match cfg.kv_transfer {
            KvTransfer::Serialized => Wire::Serialized(Uplinks {
                routes,
                memo: vec![vec![None; nd]; np],
                sender_free_at: vec![SimTime::ZERO; np],
                link_factor: vec![vec![1.0; nd]; np],
                // Priced with the sending replica's model (the
                // default-model spec on single-model plans, where every
                // group carries ModelId(0)).
                specs: prefill_model
                    .iter()
                    .map(|&m| cfg.spec_for(m).clone())
                    .collect(),
            }),
            KvTransfer::Fabric => {
                let mut flows = Box::new(FlowFabric::from_cluster(cluster));
                if cfg.telemetry {
                    flows.enable_telemetry();
                }
                Wire::Fabric(flows)
            }
        };
        KvTransport {
            wire,
            link_down: vec![vec![false; nd]; np],
            flow_routes,
            codecs,
        }
    }

    /// Schedules (or re-schedules) a KV transfer after an optional backoff
    /// delay and registers it in the request's slab entry. Under the
    /// fabric the flow starts immediately, or through a
    /// [`EventKind::KvFlowLaunch`] after the backoff. Otherwise a
    /// [`EventKind::KvTransferDone`] is scheduled; a transfer of zero wire
    /// time completes after the delay alone, without queuing on (or
    /// advancing) the sender's uplink.
    pub(super) fn launch(&mut self, core: &mut Core, transfer: Transfer, delay: SimDuration) {
        let key = transfer.job.key;
        let now = core.now;
        let Some(st) = core.reqs.get_mut(key) else {
            return; // resolved while a retry or parked re-dispatch was pending
        };
        let rid = st.req.id;
        // First attempt stamps the enqueue time; retries keep the original.
        let mut first_attempt = false;
        if st.pend.kv_enqueued_at.is_none() {
            st.pend.kv_enqueued_at = Some(now);
            first_attempt = true;
        }
        st.transfer = Some(transfer);
        let (from, to) = (transfer.from, transfer.to);
        if first_attempt && tracing(core) {
            // The byte count is sized like the fabric's flow (whole route,
            // configured wire precision); computed only under telemetry.
            let (_, _, layers) = self.flow_routes[from][to];
            let bytes = self.codecs[from].wire_bytes_layers(transfer.job.tokens, layers);
            trace(
                core,
                TraceKind::KvEnqueued {
                    request: rid,
                    from,
                    to,
                    bytes,
                },
            );
        }
        let ready = now + delay;
        let (start, done) = match &mut self.wire {
            Wire::Fabric(_) => {
                if delay == SimDuration::ZERO {
                    self.start_flow(core, key);
                } else {
                    core.queue.push(
                        ready,
                        EventKind::KvFlowLaunch {
                            request: key,
                            attempt: transfer.attempt,
                        },
                    );
                }
                return;
            }
            Wire::Serialized(up) => {
                let tokens = transfer.job.tokens;
                let mut dur = match up.memo[from][to] {
                    Some((t, wire)) if t == tokens => wire,
                    _ => {
                        let ratio = core.cfg.kv_precision.ratio_vs_f16();
                        let wire =
                            kv_transfer_time(&up.specs[from], &up.routes[from][to], tokens, ratio);
                        up.memo[from][to] = Some((tokens, wire));
                        wire
                    }
                };
                // Gray link fault, skipped at the healthy factor of exactly
                // 1.
                let factor = up.link_factor[from][to];
                if factor != 1.0 {
                    dur = dur.mul_f64(factor);
                }
                if dur == SimDuration::ZERO {
                    // Pushing `sender_free_at` out to `ready` would queue
                    // later transfers on a link nothing used.
                    (ready, ready)
                } else {
                    let start = up.sender_free_at[from].max(ready);
                    up.sender_free_at[from] = start + dur;
                    (start, start + dur)
                }
            }
        };
        if let Some(st) = core.reqs.get_mut(key) {
            st.pend.kv_wire_started_at = Some(start);
        }
        trace_at(
            core,
            start,
            TraceKind::KvWireStart {
                request: rid,
                attempt: transfer.attempt,
            },
        );
        core.queue.push(
            done,
            EventKind::KvTransferDone {
                replica: to,
                request: key,
                attempt: transfer.attempt,
            },
        );
    }

    /// Starts the fabric flow for a registered transfer.
    fn start_flow(&mut self, core: &mut Core, key: SlabKey) {
        let Some(st) = core.reqs.get_mut(key) else {
            return; // dropped while the launch was in flight
        };
        let Some(t) = st.transfer else {
            return;
        };
        let Wire::Fabric(flows) = &mut self.wire else {
            return;
        };
        let rid = st.req.id;
        st.pend.kv_wire_started_at = Some(core.now);
        let (from, to, layers) = self.flow_routes[t.from][t.to];
        let bytes = self.codecs[t.from].wire_bytes_layers(t.job.tokens, layers) as f64;
        trace(
            core,
            TraceKind::KvWireStart {
                request: rid,
                attempt: t.attempt,
            },
        );
        flows.start(key.as_u64(), from, to, bytes, core.now);
        rearm(core, flows);
    }

    /// A delayed (backed-off) flow launch fired; start the flow unless a
    /// newer attempt superseded it.
    pub(super) fn on_flow_launch(&mut self, core: &mut Core, request: SlabKey, attempt: u32) {
        let Some(t) = core.reqs.get(request).and_then(|st| st.transfer) else {
            return;
        };
        if t.attempt != attempt {
            return;
        }
        self.start_flow(core, request);
    }

    /// The fabric timer fired: complete the earliest-due flow and re-arm.
    /// Returns the request to deliver, unless its link faulted.
    pub(super) fn on_timer(&mut self, core: &mut Core) -> Result<Option<SlabKey>> {
        let Wire::Fabric(flows) = &mut self.wire else {
            return Err(Error::Simulation("KvFlowDone without a fabric".into()));
        };
        let key = flows
            .complete_due(core.now)
            .ok_or_else(|| Error::Simulation("KvFlowDone with no flow due".into()))?;
        rearm(core, flows);
        Ok(self.arrived(core, SlabKey::from_u64(key)))
    }

    /// A serialized (or free) transfer's completion event fired. Returns
    /// the request to deliver, unless the event belongs to a superseded
    /// attempt or the link faulted.
    pub(super) fn on_transfer_done(
        &mut self,
        core: &mut Core,
        replica: usize,
        request: SlabKey,
        attempt: u32,
    ) -> Option<SlabKey> {
        let t = core.reqs.get(request).and_then(|st| st.transfer)?;
        if t.attempt != attempt || t.to != replica {
            return None; // stale attempt
        }
        self.arrived(core, request)
    }

    /// The bytes of `key`'s transfer arrived: retry if the link died
    /// underneath it, otherwise return `key` for delivery.
    fn arrived(&mut self, core: &mut Core, key: SlabKey) -> Option<SlabKey> {
        let t = core.reqs.get(key).and_then(|st| st.transfer)?;
        if !self.link_down[t.from][t.to] {
            return Some(key);
        }
        self.retry(core, key, t);
        None
    }

    /// The link under `t` faulted. With recovery the sender retries after
    /// a capped exponential backoff; without, or when the script never
    /// brings the link back up, the request is lost.
    fn retry(&mut self, core: &mut Core, key: SlabKey, mut t: Transfer) {
        if !core.recovery_enabled || !heals_later(&core.faults, t.from, t.to, core.now) {
            drop_request(core, key);
            return;
        }
        t.attempt += 1;
        core.recovery.kv_transfer_retries += 1;
        let rid = core.reqs[key].req.id;
        trace(
            core,
            TraceKind::KvRetry {
                request: rid,
                attempt: t.attempt,
            },
        );
        let delay = retry_backoff(t.attempt);
        self.launch(core, t, delay);
    }

    /// Cancels `key`'s fabric flow, if one is in flight.
    pub(super) fn cancel(&mut self, core: &mut Core, key: SlabKey) {
        if let Wire::Fabric(flows) = &mut self.wire {
            if flows.contains(key.as_u64()) {
                flows.cancel(key.as_u64(), core.now);
                rearm(core, flows);
            }
        }
    }

    /// The (prefill, decode) link went down. Under the fabric the fault is
    /// visible immediately: in-flight flows on the link die now and retry.
    /// The other models notice at completion time.
    pub(super) fn link_down(&mut self, core: &mut Core, prefill: usize, decode: usize) {
        self.link_down[prefill][decode] = true;
        let Wire::Fabric(flows) = &self.wire else {
            return;
        };
        let mut victims: Vec<_> = core
            .reqs
            .iter()
            .filter_map(|(key, st)| {
                let t = st.transfer?;
                (t.from == prefill && t.to == decode && flows.contains(key.as_u64()))
                    .then_some((st.req.id, key))
            })
            .collect();
        victims.sort_unstable();
        for (_, key) in victims {
            self.cancel(core, key);
            let Some(t) = core.reqs.get(key).and_then(|st| st.transfer) else {
                continue;
            };
            self.retry(core, key, t);
        }
    }

    /// The (prefill, decode) link came back up.
    pub(super) fn link_up(&mut self, prefill: usize, decode: usize) {
        self.link_down[prefill][decode] = false;
    }

    /// The (prefill, decode) link degraded to `1 / factor` of its
    /// bandwidth (1 heals it). Under the fabric the degradation applies to
    /// the pair's physical links, re-fair-sharing every in-flight flow live
    /// (other pairs sharing those links feel it too, as on a real
    /// network).
    pub(super) fn degrade(&mut self, core: &mut Core, prefill: usize, decode: usize, factor: f64) {
        match &mut self.wire {
            Wire::Serialized(up) => up.link_factor[prefill][decode] = factor,
            Wire::Fabric(flows) => {
                let (from, to, _) = self.flow_routes[prefill][decode];
                flows.degrade_path(from, to, factor, core.now);
                rearm(core, flows);
            }
        }
    }

    /// The latest completion estimate the fabric issued, superseded or not
    /// (`ZERO` without the fabric).
    pub(super) fn horizon(&self) -> SimTime {
        match &self.wire {
            Wire::Fabric(flows) => flows.latest_estimate(),
            _ => SimTime::ZERO,
        }
    }

    /// The fabric's reallocation work so far; `None` without the fabric.
    pub(super) fn fabric_work(&self) -> Option<FabricWork> {
        match &self.wire {
            Wire::Fabric(flows) => Some(flows.work()),
            _ => None,
        }
    }

    /// Takes the fabric's telemetry events (link utilization, flow rate
    /// changes); empty without the fabric or telemetry.
    pub(super) fn take_events(&mut self) -> Vec<TraceEvent> {
        match &mut self.wire {
            Wire::Fabric(flows) => flows.take_events(),
            _ => Vec::new(),
        }
    }
}

/// Moves the fabric timer to the earliest completion estimate, or disarms
/// it when no flow is in flight. The timer is restamped even when that
/// time is unchanged: the estimate dates from this change, and its
/// sequence number must order it after every event pushed before the
/// change.
fn rearm(core: &mut Core, flows: &FlowFabric) {
    match flows.next_due() {
        Some((at, _)) => core.queue.set_timer(at, EventKind::KvFlowDone),
        None => core.queue.clear_timer(),
    }
}

/// Representative endpoints and total layer count for a KV route, used by
/// the fabric's one-flow-per-transfer approximation: the flow runs between
/// the endpoints of the leg carrying the most layers (first wins on ties,
/// for determinism) and carries the whole route's bytes.
fn flow_endpoints(legs: &[KvRouteLeg]) -> (GpuId, GpuId, usize) {
    let mut best: Option<&KvRouteLeg> = None;
    let mut total = 0usize;
    for leg in legs {
        total += leg.layers;
        if best.map(|b| leg.layers > b.layers).unwrap_or(true) {
            best = Some(leg);
        }
    }
    match best {
        Some(leg) => (leg.from, leg.to, total),
        None => (GpuId(0), GpuId(0), 0),
    }
}

/// Whether `faults` bring the (prefill, decode) link up at or after `now`.
/// A transfer retried on a down link that never heals would back off
/// forever, so it is dropped instead.
fn heals_later(faults: &[TimedFault], prefill: usize, decode: usize, now: SimTime) -> bool {
    let up = FaultKind::LinkUp { prefill, decode };
    faults.iter().any(|f| f.at >= now && f.kind == up)
}

/// Exponential backoff for transfer attempt `attempt` (2 = first retry):
/// `base * 2^(attempt-2)`, capped.
fn retry_backoff(attempt: u32) -> SimDuration {
    let mut delay = KV_RETRY_BACKOFF_BASE;
    for _ in 2..attempt {
        delay = delay + delay;
        if delay >= KV_RETRY_BACKOFF_CAP {
            delay = KV_RETRY_BACKOFF_CAP;
            break;
        }
    }
    delay.min(KV_RETRY_BACKOFF_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::driver::tests::{seed_request, testbed};

    fn uplinks(kv: &mut KvTransport) -> &mut Uplinks {
        match &mut kv.wire {
            Wire::Serialized(up) => up,
            _ => panic!("not the serialized wire model"),
        }
    }

    #[test]
    fn zero_duration_launch_bypasses_uplink_serialization() {
        // Regression: a zero-duration transfer used to wait behind
        // `sender_free_at` and then push it out to `now + delay`, queueing
        // later transfers on a link it never used. An empty route takes no
        // wire time.
        let mut d = testbed(|_| {});
        let (core, s) = d.split("test").unwrap();
        let (req, key) = seed_request(core, 7);
        core.now = SimTime::from_secs_f64(5.0);
        let busy_until = SimTime::from_secs_f64(30.0);
        uplinks(&mut s.kv).routes[0][0].clear();
        uplinks(&mut s.kv).sender_free_at[0] = busy_until;
        s.kv.launch(
            core,
            Transfer {
                from: 0,
                to: 0,
                job: PrefillJob::fresh(key, &req),
                attempt: 2,
            },
            SimDuration::from_millis(50),
        );
        assert_eq!(
            uplinks(&mut s.kv).sender_free_at[0],
            busy_until,
            "zero-duration transfer must not touch the uplink"
        );
        let ev = core.queue.pop().expect("completion scheduled");
        assert_eq!(
            ev.at,
            SimTime::from_secs_f64(5.0) + SimDuration::from_millis(50),
            "completes after the backoff alone, not behind the uplink queue"
        );
        let p = &core.reqs[key].pend;
        assert_eq!(p.kv_enqueued_at, Some(SimTime::from_secs_f64(5.0)));
        assert_eq!(p.kv_wire_started_at, Some(ev.at));
    }

    #[test]
    fn modeled_transfer_still_serializes_on_the_uplink() {
        let mut d = testbed(|_| {});
        let (core, s) = d.split("test").unwrap();
        let (req, key) = seed_request(core, 8);
        core.now = SimTime::from_secs_f64(5.0);
        let busy_until = SimTime::from_secs_f64(10.0);
        uplinks(&mut s.kv).sender_free_at[0] = busy_until;
        s.kv.launch(
            core,
            Transfer {
                from: 0,
                to: 0,
                job: PrefillJob::fresh(key, &req),
                attempt: 1,
            },
            SimDuration::ZERO,
        );
        let free_at = uplinks(&mut s.kv).sender_free_at[0];
        assert!(
            free_at > busy_until,
            "a modeled transfer occupies the uplink past the queue head"
        );
        assert_eq!(
            core.reqs[key].pend.kv_wire_started_at,
            Some(busy_until),
            "wire time starts when the uplink frees, not at enqueue"
        );
        let ev = core.queue.pop().expect("completion scheduled");
        assert_eq!(ev.at, free_at);
    }

    #[test]
    fn fabric_is_built_only_for_the_fabric_transfer_model() {
        for transfer in [KvTransfer::Serialized, KvTransfer::Fabric] {
            let mut d = testbed(|cfg| cfg.kv_transfer = transfer);
            let (_, s) = d.split("test").unwrap();
            let picked = match s.kv.wire {
                Wire::Serialized(_) => KvTransfer::Serialized,
                Wire::Fabric(_) => KvTransfer::Fabric,
            };
            assert_eq!(picked, transfer);
            assert_eq!(s.kv.codecs.len(), 1, "one codec per prefill replica");
        }
    }

    #[test]
    fn flow_endpoints_pick_the_heaviest_leg_and_total_layers() {
        let mut d = testbed(|_| {});
        let (core, s) = d.split("test").unwrap();
        // tp=4/pp=1 on both sides: a single leg carrying every layer.
        let (_, _, layers) = s.kv.flow_routes[0][0];
        assert_eq!(layers, core.cfg.model.num_layers);
        assert_eq!(flow_endpoints(&[]), (GpuId(0), GpuId(0), 0));
    }
}
