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
//!
//! Per-pair state (route, wire-time memo, degradation, liveness, flow
//! endpoints) is one record per (prefill, decode) pair, built the first
//! time a transfer launch, a link fault or a degradation names the pair.
//! A plan routes at most about P + D of its P × D pairs, so setup stays
//! O(P + D). A record is built by the same calls on the same inputs
//! whenever it is built, so the outputs do not depend on when.

use super::driver::{drop_request, trace, trace_at, tracing, Core};
use super::executor::{DecodeExecutor, PrefillExecutor};
use super::seq::PrefillJob;
use crate::config::{KvTransfer, SimConfig, KV_RETRY_BACKOFF_BASE, KV_RETRY_BACKOFF_CAP};
use crate::event::EventKind;
use crate::fault::{FaultKind, TimedFault};
use std::sync::Arc;
use ts_cluster::Cluster;
use ts_common::hash::FastHashMap;
use ts_common::{Error, GpuId, Result, SimDuration, SimTime, SlabKey};
use ts_costmodel::replica::{kv_route, kv_transfer_time, KvRouteLeg};
use ts_costmodel::ReplicaCostModel;
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

/// The KV transport's work so far.
///
/// Machine-independent: a plan's setup builds no pair, and a fault-free
/// run builds exactly the routed pairs its transfers used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvWork {
    /// (prefill, decode) pair records built, each on the pair's first use.
    pub pairs_built: u64,
}

/// How a transfer occupies the wire.
enum Wire {
    /// Wire time serialized on the sender's uplink: one prefill replica's
    /// outbound transfers serialize on its NIC, whichever decode replica
    /// they target. Holds each sender's uplink availability.
    Serialized { sender_free_at: Vec<SimTime> },
    /// Flows in the max-min fabric (boxed: its reusable allocation
    /// buffers make it several times the size of the other variants). The
    /// event queue's timer slot holds its earliest completion estimate.
    Fabric(Box<FlowFabric>),
}

/// State of one (prefill, decode) pair.
struct Pair {
    /// The KV route: one leg per overlap of a prefill stage's and a
    /// decode stage's layer ranges.
    legs: Vec<KvRouteLeg>,
    /// One-entry memo: `tokens ->` modeled wire time. The route, the
    /// sender's model spec and the wire precision are all fixed, so
    /// [`kv_transfer_time`] is pure in the token count — fixed-length day
    /// traces hit the memo on nearly every transfer.
    memo: Option<(u64, SimDuration)>,
    /// Bandwidth-degradation factor of the serialized wire (1 = healthy);
    /// wire times stretch by it.
    factor: f64,
    /// Whether the link is down.
    down: bool,
    /// Representative endpoints and total layer count for the fabric's
    /// one-flow-per-transfer approximation. The endpoints come from the
    /// route leg carrying the most layers; the byte count covers the whole
    /// route.
    flow: (GpuId, GpuId, usize),
}

impl Pair {
    fn build(cluster: &Cluster, prefill: &ReplicaCostModel, decode: &ReplicaCostModel) -> Self {
        let legs: Vec<KvRouteLeg> = kv_route(cluster, prefill, decode).collect();
        Pair {
            flow: flow_endpoints(&legs),
            legs,
            memo: None,
            factor: 1.0,
            down: false,
        }
    }
}

/// The pair records built so far, and what building one reads: the
/// cluster and each replica's cost model, shared with its executor.
struct Pairs {
    built: FastHashMap<(usize, usize), Pair>,
    cluster: Cluster,
    prefills: Vec<Arc<ReplicaCostModel>>,
    decodes: Vec<Arc<ReplicaCostModel>>,
}

impl Pairs {
    /// The (prefill, decode) pair's record, built on its first use, and
    /// the prefill replica's cost model, whose spec sizes and prices the
    /// pair's transfers.
    fn get(&mut self, prefill: usize, decode: usize) -> (&mut Pair, &ReplicaCostModel) {
        let sender = &self.prefills[prefill];
        let pair = self
            .built
            .entry((prefill, decode))
            .or_insert_with(|| Pair::build(&self.cluster, sender, &self.decodes[decode]));
        (pair, sender)
    }
}

/// KV transport between the prefill and decode replicas of a phase-split
/// plan.
pub(super) struct KvTransport {
    wire: Wire,
    pairs: Pairs,
}

impl KvTransport {
    /// Builds the transport between `prefills` and `decodes`. No pair is
    /// built here.
    pub(super) fn new(
        cluster: &Cluster,
        cfg: &SimConfig,
        prefills: &[PrefillExecutor],
        decodes: &[DecodeExecutor],
    ) -> Self {
        let wire = match cfg.kv_transfer {
            KvTransfer::Serialized => Wire::Serialized {
                sender_free_at: vec![SimTime::ZERO; prefills.len()],
            },
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
            pairs: Pairs {
                built: FastHashMap::default(),
                cluster: cluster.clone(),
                prefills: prefills.iter().map(|p| Arc::clone(&p.cost)).collect(),
                decodes: decodes.iter().map(|d| Arc::clone(&d.cost)).collect(),
            },
        }
    }

    /// The transport's work so far.
    pub(super) fn work(&self) -> KvWork {
        KvWork {
            pairs_built: self.pairs.built.len() as u64,
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
        let (pair, sender) = self.pairs.get(from, to);
        if first_attempt && tracing(core) {
            // The byte count is sized like the fabric's flow (whole route,
            // sender's model, configured wire precision); computed only
            // under telemetry.
            let (_, _, layers) = pair.flow;
            let precision = core.cfg.kv_precision;
            let bytes = precision.wire_bytes(sender.model(), transfer.job.tokens, layers);
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
                    let flow = pair.flow;
                    self.start_flow(core, key, flow);
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
            Wire::Serialized { sender_free_at } => {
                let tokens = transfer.job.tokens;
                // Sized and priced with the sending replica's model.
                let mut dur = match pair.memo {
                    Some((t, wire)) if t == tokens => wire,
                    _ => {
                        let route = pair.legs.iter().copied();
                        let wire =
                            kv_transfer_time(sender.model(), route, tokens, core.cfg.kv_precision);
                        pair.memo = Some((tokens, wire));
                        wire
                    }
                };
                // Gray link fault, skipped at the healthy factor of exactly
                // 1.
                if pair.factor != 1.0 {
                    dur = dur.mul_f64(pair.factor);
                }
                if dur == SimDuration::ZERO {
                    // Pushing `sender_free_at` out to `ready` would queue
                    // later transfers on a link nothing used.
                    (ready, ready)
                } else {
                    let start = sender_free_at[from].max(ready);
                    sender_free_at[from] = start + dur;
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

    /// Starts the fabric flow for a registered transfer between the
    /// pair's `flow` endpoints.
    fn start_flow(&mut self, core: &mut Core, key: SlabKey, flow: (GpuId, GpuId, usize)) {
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
        let (from, to, layers) = flow;
        let sender = self.pairs.prefills[t.from].model();
        let precision = core.cfg.kv_precision;
        let bytes = precision.wire_bytes(sender, t.job.tokens, layers);
        trace(
            core,
            TraceKind::KvWireStart {
                request: rid,
                attempt: t.attempt,
            },
        );
        flows.start(key.as_u64(), from, to, bytes as f64, core.now);
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
        let flow = self.pairs.get(t.from, t.to).0.flow;
        self.start_flow(core, request, flow);
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
        if !self.pairs.get(t.from, t.to).0.down {
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
        self.pairs.get(prefill, decode).0.down = true;
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
        self.pairs.get(prefill, decode).0.down = false;
    }

    /// The (prefill, decode) link degraded to `1 / factor` of its
    /// bandwidth (1 heals it). Under the fabric the degradation applies to
    /// the pair's physical links, re-fair-sharing every in-flight flow live
    /// (other pairs sharing those links feel it too, as on a real
    /// network).
    pub(super) fn degrade(&mut self, core: &mut Core, prefill: usize, decode: usize, factor: f64) {
        let pair = self.pairs.get(prefill, decode).0;
        match &mut self.wire {
            Wire::Serialized { .. } => pair.factor = factor,
            Wire::Fabric(flows) => {
                let (from, to, _) = pair.flow;
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
    use crate::exec::driver::Driver;
    use rand::Rng;
    use ts_cluster::presets;
    use ts_common::{
        DeploymentPlan, GroupSpec, ModelId, ModelRouting, ModelSpec, ParallelConfig, Phase,
        RoutingMatrix, ServedModel, StageSpec,
    };

    fn sender_free_at(kv: &mut KvTransport) -> &mut Vec<SimTime> {
        match &mut kv.wire {
            Wire::Serialized { sender_free_at } => sender_free_at,
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
        s.kv.pairs.get(0, 0).0.legs.clear();
        sender_free_at(&mut s.kv)[0] = busy_until;
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
            sender_free_at(&mut s.kv)[0],
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
        sender_free_at(&mut s.kv)[0] = busy_until;
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
        let free_at = sender_free_at(&mut s.kv)[0];
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
                Wire::Serialized { .. } => KvTransfer::Serialized,
                Wire::Fabric(_) => KvTransfer::Fabric,
            };
            assert_eq!(picked, transfer);
        }
    }

    #[test]
    fn flow_endpoints_pick_the_heaviest_leg_and_total_layers() {
        let mut d = testbed(|_| {});
        let (core, s) = d.split("test").unwrap();
        // tp=4/pp=1 on both sides: a single leg carrying every layer.
        let (_, _, layers) = s.kv.pairs.get(0, 0).0.flow;
        assert_eq!(layers, core.cfg.model.num_layers);
        assert_eq!(flow_endpoints(&[]), (GpuId(0), GpuId(0), 0));
    }

    /// Route legs and flow endpoints for every (prefill, decode) pair,
    /// built up front: the dense tables the per-pair records replaced.
    #[allow(clippy::type_complexity)]
    fn dense_tables(
        cluster: &Cluster,
        prefills: &[PrefillExecutor],
        decodes: &[DecodeExecutor],
    ) -> (Vec<Vec<Vec<KvRouteLeg>>>, Vec<Vec<(GpuId, GpuId, usize)>>) {
        let mut routes = Vec::with_capacity(prefills.len());
        let mut flow_routes = Vec::with_capacity(prefills.len());
        for p in prefills {
            let mut row = Vec::with_capacity(decodes.len());
            let mut flow_row = Vec::with_capacity(decodes.len());
            for d in decodes {
                let legs: Vec<KvRouteLeg> = kv_route(cluster, &p.cost, &d.cost).collect();
                flow_row.push(flow_endpoints(&legs));
                row.push(legs);
            }
            routes.push(row);
            flow_routes.push(flow_row);
        }
        (routes, flow_routes)
    }

    /// Random replicas packed onto the paper cloud's free GPUs: each has
    /// one to four pipeline stages of `tp` GPUs (1, 2 or 4) on one node
    /// each, with the model's layers split as evenly as the stages allow.
    /// Replicas take turns among `models` (with their ids) and alternate
    /// phases; a draw that runs out of GPUs stops there. `None` when the
    /// groups do not make a valid plan.
    fn random_plan<R: Rng>(
        cluster: &Cluster,
        models: &[(ModelId, &ModelSpec)],
        rng: &mut R,
    ) -> Option<DeploymentPlan> {
        let mut free: Vec<Vec<GpuId>> = cluster.nodes().iter().map(|n| n.gpus.clone()).collect();
        let mut groups = Vec::new();
        for k in 0..rng.gen_range(2 * models.len()..=8) {
            let (id, model) = models[k % models.len()];
            let phase = if (k / models.len()).is_multiple_of(2) {
                Phase::Prefill
            } else {
                Phase::Decode
            };
            let pp = rng.gen_range(1..=4usize);
            let tp = [1usize, 2, 4][rng.gen_range(0..3usize)];
            let mut stages = Vec::with_capacity(pp);
            for s in 0..pp {
                let fits: Vec<usize> = (0..free.len()).filter(|&n| free[n].len() >= tp).collect();
                if fits.is_empty() {
                    break;
                }
                let node = fits[rng.gen_range(0..fits.len())];
                let at = free[node].len() - tp;
                let gpus = free[node].split_off(at);
                let layers = model.num_layers / pp + usize::from(s < model.num_layers % pp);
                stages.push(StageSpec { gpus, layers });
            }
            if stages.len() < pp {
                break;
            }
            let parallel = ParallelConfig::new(tp, pp).ok()?;
            groups.push(GroupSpec::new(phase, parallel, stages).ok()?.with_model(id));
        }
        let count = |m: ModelId, phase| {
            groups
                .iter()
                .filter(|g| g.model == m && g.phase == phase)
                .count()
        };
        if models.len() == 1 {
            let (np, nd) = (
                count(ModelId(0), Phase::Prefill),
                count(ModelId(0), Phase::Decode),
            );
            return DeploymentPlan::new(groups, RoutingMatrix::uniform(np.max(1), nd.max(1))).ok();
        }
        let routing = models
            .iter()
            .map(|&(m, _)| ModelRouting {
                model: m,
                routing: RoutingMatrix::uniform(
                    count(m, Phase::Prefill).max(1),
                    count(m, Phase::Decode).max(1),
                ),
                share: 1.0 / models.len() as f64,
            })
            .collect();
        DeploymentPlan::new_multi(groups, routing).ok()
    }

    /// The per-pair records match the dense tables they replaced, pair for
    /// pair, on seeded random plans: one- and two-model, pp up to 4, mixed
    /// tp. Setup builds no pair; reading every pair builds each once.
    #[test]
    fn pairs_built_on_first_use_match_the_dense_tables() {
        let cluster = presets::paper_cloud_cluster();
        let (m7, m13) = (ModelSpec::llama_7b(), ModelSpec::llama_13b());
        let mut rng = ts_common::seeded_rng(0x9A1E);
        let mut checked = 0;
        while checked < 120 {
            let two_models = checked % 2 == 1;
            let (models, cfg) = if two_models {
                let catalog = vec![
                    ServedModel::llama_7b_chat(ModelId(1), 0.5).unwrap(),
                    ServedModel::llama_13b_chat(ModelId(2), 0.5).unwrap(),
                ];
                (
                    vec![(ModelId(1), &m7), (ModelId(2), &m13)],
                    SimConfig::new(m7.clone()).with_catalog(catalog),
                )
            } else {
                (vec![(ModelId(0), &m13)], SimConfig::new(m13.clone()))
            };
            let Some(plan) = random_plan(&cluster, &models, &mut rng) else {
                continue;
            };
            let cfg = cfg.with_network_contention(rng.gen_bool(0.5));
            let Ok(mut d) = Driver::new_split(&cluster, &plan, cfg) else {
                continue;
            };
            let (_, s) = d.split("test").unwrap();
            assert_eq!(s.kv.work().pairs_built, 0, "setup builds no pair");
            let (routes, flows) = dense_tables(&cluster, &s.prefills, &s.decodes);
            let (np, nd) = (s.prefills.len(), s.decodes.len());
            // Visit the pairs in a shuffled order: a record must not
            // depend on which pairs were built before it.
            let mut order: Vec<(usize, usize)> =
                (0..np).flat_map(|i| (0..nd).map(move |j| (i, j))).collect();
            rand::seq::SliceRandom::shuffle(&mut order[..], &mut rng);
            for (i, j) in order {
                let pair = s.kv.pairs.get(i, j).0;
                assert_eq!(pair.legs, routes[i][j], "route ({i}, {j}), plan {checked}");
                assert_eq!(pair.flow, flows[i][j], "flow ({i}, {j}), plan {checked}");
                assert_eq!((pair.memo, pair.factor, pair.down), (None, 1.0, false));
            }
            assert_eq!(s.kv.work().pairs_built, (np * nd) as u64);
            checked += 1;
        }
    }
}
