//! The shared event-loop driver.
//!
//! One discrete-event loop serves both serving topologies:
//!
//! * [`Topology::Split`] — phase-split replica pairs with KV transfer over
//!   the inter-replica fabric (the ThunderServe engine);
//! * [`Topology::Colocated`] — identical-role replicas serving both phases
//!   (the vLLM/HexGen-style baselines).
//!
//! This module owns the [`Core`] every layer reads — the event queue, the
//! request slab, the routes (one [`StrideRouter`] per served model; see
//! [`Route`]) and the believed host liveness that masks them, the shed
//! policy and the run's accounting — plus the run loop, event dispatch,
//! arrivals and routing. It also holds the replica steps both topologies
//! take, each written once over the concrete executor fields: enqueueing
//! a routed job, forming and pricing a prefill launch, booking a prefill's
//! end, an admission pass and a decode step's finishes. The phase-split
//! prefill and KV-delivery handlers live here too. The other layers own
//! their state in sibling modules:
//!
//! * `decode` — decode plans and step coalescing on phase-split decode
//!   replicas;
//! * `colo` — the colocated work loop, which serializes both phases on one
//!   replica;
//! * `faults` — fault triggers, detection, recovery and the stall queue;
//! * `gray` — flaky heartbeats, straggler quarantine and hedging, over
//!   the private [`GrayState`];
//! * `kv` — the KV transport between phase-split replicas.
//!
//! # Performance architecture
//!
//! Seven structural decisions keep setup and the loop fast on day-scale
//! traces without changing a single output bit:
//!
//! * **Slim indexed event heap.** The heap moves 24-byte `(at, seq, id)`
//!   keys compared as one `u128`; payloads sit beside it, indexed by id.
//!   A decode re-plan rewrites its event's time in place and a cancel
//!   removes it at its recorded position, so every entry leaves the heap
//!   exactly once (see the `event` module).
//!
//! * **Slab-allocated request state.** All per-request bookkeeping (the
//!   payload, routing/timing state, and any in-flight KV transfer) lives
//!   in one [`Slab`] entry; events and jobs carry the dense generational
//!   [`SlabKey`] instead of hashing a [`RequestId`] per touch.
//! * **Lazy arrival merge.** Arrivals are never heap entries: the sorted
//!   arrival vector is merged against the event queue head ([`NextEvent`]),
//!   so a 1M-request trace starts with an empty heap instead of a 1M-entry
//!   one. Arrivals won setup-time seqs under the old scheme (pushed first,
//!   before fault events), so the merge breaks `at` ties in favour of
//!   arrivals — bit-identical event order.
//! * **Decode-step coalescing.** One decode event is scheduled per planned
//!   run instead of one per step, and step times are priced a whole block
//!   of contexts at a time into contiguous prefix sums (see the `decode`
//!   module); a prefill launch prices its latency and bottleneck in one
//!   pass over the stages.
//! * **Routing over credit levels.** A [`StrideRouter`] pick tops up one
//!   entry per level — the live cells sharing a stride and a credit — not
//!   one per cell, so a fleet plan's 1,024 equal cells cost two entries.
//! * **O(support) setup.** A plan's routing matrix carries its support,
//!   the cells that are not `+0.0`, found in the one validation pass of
//!   `RoutingMatrix::new`. Each route's router is built from the support
//!   and the KV transport builds a pair's state on the pair's first use,
//!   so building a driver visits the routed cells, not P × D: 1,024 of
//!   `fleet_1m`'s 262,144 ([`RouterWork::cells`]).
//! * **O(path + flows) fabric changes.** Under the flow fabric each KV
//!   flow start, finish or cancel updates the max-min filler's inputs in
//!   O(path), refills over the touched links only, and makes one pass over
//!   a key-sorted flow vector. The fabric's one timer lives in the event
//!   queue's timer slot, so a re-arm never touches the heap (see the `kv`
//!   module and `ts_net`).

use super::colo::{self, ColoState};
use super::decode;
use super::executor::{
    ColocatedExecutor, DecodeExecutor, DecodeWork, PrefillExecutor, ReplicaExecutor,
};
use super::gray::{self, observe_straggler, GrayState};
use super::kv::{KvTransport, KvWork, Transfer};
use super::seq::{AdmitOutcome, BatchCore, Pending, PrefillJob, PrefillQueue, WaitingSeq};
use crate::config::{SimConfig, SHED_THRESHOLD};
use crate::event::{Event, EventKind, EventQueue, QueueWork};
use crate::fault::{FaultScript, TimedFault};
use crate::metrics::{
    LossKind, LossRecord, Metrics, ModelConservation, RecoveryCounters, RequestRecord,
};
use crate::router::{RouterWork, StrideRouter};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use ts_cluster::Cluster;
use ts_common::{
    DeploymentPlan, Error, GroupSpec, ModelId, Request, RequestId, Result, SimDuration, SimTime,
    Slab, SlabKey,
};
use ts_costmodel::ReplicaCostModel;
use ts_telemetry::{
    profile, PressureTally, Recorder, Role, TraceEvent, TraceKind, TraceLog, TraceSink,
};

/// All driver-side state of one in-flight request, slab-resident: the
/// payload, routing/timing bookkeeping, and the KV transfer registry slot
/// (split topology only). One slab entry exists per live request; events
/// and jobs address it by [`SlabKey`].
pub(crate) struct ReqState {
    pub(super) req: Request,
    pub(super) pend: Pending,
    /// The request's in-flight KV transfer, if any.
    pub(super) transfer: Option<Transfer>,
}

impl ReqState {
    fn new(req: Request) -> Self {
        ReqState {
            req,
            pend: Pending::new(0, 0),
            transfer: None,
        }
    }
}

/// The next simulation occurrence: a trace arrival (merged lazily from the
/// sorted arrival vector) or a queued event.
enum NextEvent {
    Arrival(Request),
    Queued(Event),
}

/// Topology-agnostic driver state: event queue, routing, per-request
/// bookkeeping, shed policy and fault/recovery accounting.
pub(crate) struct Core {
    pub(super) cfg: SimConfig,
    /// One route per served model, in [`DeploymentPlan::models`] order (a
    /// single route for single-model plans and colocated drivers).
    pub(super) routes: Vec<Route>,
    /// The coordinator's belief about host liveness (hosts numbered as in
    /// [`GrayState`]): updated at fault *detection* (downs) and immediately
    /// on healing (ups). Routing masks follow beliefs, not ground truth —
    /// that is the detection window.
    pub(super) believed_dead: Vec<bool>,
    pub(super) queue: EventQueue,
    /// Per-request state, slab-allocated; an entry lives from arrival to
    /// completion/drop/rejection.
    pub(super) reqs: Slab<ReqState>,
    records: Vec<RequestRecord>,
    /// Lost requests with their instants, in loss order.
    losses: Vec<LossRecord>,
    pub(super) now: SimTime,
    pub(super) faults: Vec<TimedFault>,
    pub(super) recovery_enabled: bool,
    /// Arrivals (and requeues) stalled because no live route exists or the
    /// service is paused; shed beyond [`SHED_THRESHOLD`].
    pub(super) stalled: VecDeque<PrefillJob>,
    pub(super) paused_until: Option<SimTime>,
    pub(super) recovery: RecoveryCounters,
    /// Requests affected by each fault (fault time, outstanding ids); a
    /// fault's time-to-recover is recorded when its set empties.
    pub(super) affected: Vec<(SimTime, BTreeSet<RequestId>)>,
    /// Request-lifecycle trace recorder; `Some` iff
    /// [`SimConfig::telemetry`] is on. Instrumentation only observes —
    /// it never schedules events, draws randomness or mutates simulation
    /// state, so the `None` path stays bit-identical.
    trace: Option<Recorder>,
    /// Per-replica pressure tally; `Some` iff [`SimConfig::pressure`] is
    /// on. Fed the same event stream as the recorder.
    pressure: Option<PressureTally>,
    /// Gray-failure state, indexed by *host*.
    pub(super) gray: GrayState,
    /// Whether per-model conservation is tracked — true iff the catalog
    /// ([`SimConfig::models`]) is non-empty, so single-model runs carry
    /// zero extra bookkeeping and their [`RecoveryCounters`] stay
    /// byte-identical.
    track_models: bool,
    /// The run's arrival trace, sorted by `(arrival, original order)`;
    /// merged lazily against the event queue instead of being heap
    /// entries.
    pub(super) arrivals: Vec<Request>,
    /// Cursor into `arrivals`.
    pub(super) next_arrival: usize,
    /// Count of occurrences dispatched (arrivals + queued events) — the
    /// denominator of the events/sec benchmark.
    events_processed: u64,
    /// `pushed_at` stamp of the occurrence being dispatched (zero for
    /// arrivals); consulted by the coalesced-decode tie rule.
    pub(super) event_pushed_at: SimTime,
    /// Latest fire time folded in from cancelled decode-plan events and,
    /// at the end of the run, from the fabric's superseded completion
    /// estimates. The makespan counts these cancelled fire times; the
    /// per-step loop popped such events and advanced `now` past them.
    pub(super) phantom_horizon: SimTime,
    /// Coalesced decode finish events deferred behind a same-instant rival
    /// (replica, original seq, original pushed_at), newest last. A stack,
    /// not an `Option`: a rival dispatched inline may itself defer.
    pub(super) held_decode: Vec<(usize, u64, SimTime)>,
    /// Recycled buffer for one admission pass's decisions.
    admit_buf: Vec<AdmitOutcome>,
    /// Recycled buffer for the sequences one decode step finishes.
    finished_buf: Vec<(SlabKey, SimDuration)>,
    /// Whether a run has started; the clock, executors and queues are not
    /// reset, so a second run is refused.
    ran: bool,
}

/// One tenant's routing state: its requests draw their (prefill, decode)
/// pair from its own stride router over its own replicas, so tenants on a
/// shared pool never leak requests into each other's executors. A
/// single-model plan is one route over the aggregate matrix; a colocated
/// driver is one route over its replicas, with pairs `(k, k)`.
pub(crate) struct Route {
    model: ModelId,
    pub(super) router: StrideRouter,
    /// (prefill, decode) replica coordinates per router index, in the
    /// *global* replica numbering of the plan.
    pub(super) pairs: Vec<(usize, usize)>,
}

/// Phase-split topology state: prefill/decode executor pools plus the KV
/// transport between them.
pub(crate) struct SplitState {
    pub(super) prefills: Vec<PrefillExecutor>,
    pub(super) decodes: Vec<DecodeExecutor>,
    pub(super) kv: KvTransport,
    /// Transfers whose target died with no live alternative; re-dispatched
    /// when a decode replica comes back.
    pub(super) parked: Vec<Transfer>,
    /// Model served by each prefill replica (plan group order).
    prefill_model: Vec<ModelId>,
    /// Model served by each decode replica.
    decode_model: Vec<ModelId>,
}

/// Which serving topology the driver runs.
// One Topology exists per simulation (never stored per-event or in bulk),
// so the size gap between variants costs nothing worth an indirection.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Topology {
    /// Phase-split replica pairs with KV transfer.
    Split(SplitState),
    /// Identical-role colocated replicas.
    Colocated(ColoState),
}

impl Topology {
    /// Replica `i` of the given role (a prefill replica when `prefill`,
    /// else a decode replica); colocated replica `i` plays both roles.
    pub(super) fn executor(&mut self, prefill: bool, i: usize) -> &mut dyn ReplicaExecutor {
        match self {
            Topology::Split(s) => {
                if prefill {
                    &mut s.prefills[i]
                } else {
                    &mut s.decodes[i]
                }
            }
            Topology::Colocated(c) => &mut c.replicas[i],
        }
    }
}

/// The shared discrete-event driver behind both topologies of
/// [`crate::engine::Simulation`].
pub(crate) struct Driver {
    pub(super) core: Core,
    pub(super) topo: Topology,
}

impl Driver {
    /// Builds a phase-split driver for `plan` on `cluster`.
    pub fn new_split(cluster: &Cluster, plan: &DeploymentPlan, cfg: SimConfig) -> Result<Self> {
        let prefill_idx = plan.prefill_indices();
        let decode_idx = plan.decode_indices();
        // Each group is priced with its own model's spec; on single-model
        // plans every group carries ModelId(0) and the catalog is empty, so
        // `spec_for` resolves to `cfg.model` exactly as before.
        let mut prefills = Vec::with_capacity(prefill_idx.len());
        for &gi in &prefill_idx {
            prefills.push(PrefillExecutor::new(ReplicaCostModel::new(
                cluster,
                cfg.spec_for(plan.groups[gi].model),
                &plan.groups[gi],
                &cfg.params,
            )?));
        }
        let mut decodes = Vec::with_capacity(decode_idx.len());
        for &gi in &decode_idx {
            decodes.push(DecodeExecutor::new(ReplicaCostModel::new(
                cluster,
                cfg.spec_for(plan.groups[gi].model),
                &plan.groups[gi],
                &cfg.params,
            )?));
        }
        let prefill_model: Vec<ModelId> = prefill_idx
            .iter()
            .map(|&gi| plan.groups[gi].model)
            .collect();
        let decode_model: Vec<ModelId> =
            decode_idx.iter().map(|&gi| plan.groups[gi].model).collect();
        // One route per served model, each over its matrix's support. A
        // legacy plan's single route runs over the aggregate matrix, whose
        // coordinates are already global; a tenant's local row and column
        // map to the global ones through each group's slot.
        let slot = plan.routing_slots();
        let mut routes = Vec::new();
        for m in plan.models() {
            let routing = plan.routing_for(m).ok_or_else(|| {
                Error::InvalidConfig(format!("model {m} has no routing in the plan"))
            })?;
            let (router, local) = StrideRouter::from_support(routing.support())?;
            let pairs = if plan.is_multi_model() {
                let pidx = plan.prefill_indices_for(m);
                let didx = plan.decode_indices_for(m);
                local
                    .iter()
                    .map(|&(li, lj)| (slot[pidx[li]], slot[didx[lj]]))
                    .collect()
            } else {
                local
            };
            routes.push(Route {
                model: m,
                router,
                pairs,
            });
        }
        let kv = KvTransport::new(cluster, &cfg, &prefills, &decodes);
        let (np, nd) = (prefills.len(), decodes.len());
        Ok(Driver {
            core: Core::new(cfg, routes, Some(np), np + nd),
            topo: Topology::Split(SplitState {
                prefills,
                decodes,
                kv,
                parked: Vec::new(),
                prefill_model,
                decode_model,
            }),
        })
    }

    /// Builds a colocated driver over `groups`, each serving both phases.
    /// Requests are routed proportional to each replica's decode
    /// throughput capacity.
    pub fn new_colocated(cluster: &Cluster, groups: &[GroupSpec], cfg: SimConfig) -> Result<Self> {
        if groups.is_empty() {
            return Err(Error::Infeasible("no replicas".into()));
        }
        let mut replicas = Vec::with_capacity(groups.len());
        let mut weights = Vec::with_capacity(groups.len());
        for g in groups {
            let cost = ReplicaCostModel::new(cluster, cfg.spec_for(g.model), g, &cfg.params)?;
            let kv_capacity = cost.kv_capacity_tokens();
            // Route proportional to steady decode throughput at batch 32.
            weights.push(cost.decode_throughput(32.min(kv_capacity / 1024).max(1), 1024));
            replicas.push(ColocatedExecutor::new(cost));
        }
        let n = replicas.len();
        let route = Route {
            model: ModelId(0),
            router: StrideRouter::new(weights)?,
            pairs: (0..n).map(|k| (k, k)).collect(),
        };
        Ok(Driver {
            core: Core::new(cfg, vec![route], None, n),
            topo: Topology::Colocated(ColoState { replicas }),
        })
    }

    /// Total occurrences (arrivals + queued events) dispatched so far — the
    /// denominator of the events/sec benchmark.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// The KV fabric's reallocation work so far; `None` unless the
    /// topology is phase-split with [`crate::config::KvTransfer::Fabric`].
    pub fn fabric_work(&self) -> Option<ts_net::FabricWork> {
        match &self.topo {
            Topology::Split(s) => s.kv.fabric_work(),
            Topology::Colocated(_) => None,
        }
    }

    /// The routers' work so far, summed over the routes.
    pub fn router_work(&self) -> RouterWork {
        let mut work = RouterWork::default();
        for route in &self.core.routes {
            work += route.router.work();
        }
        work
    }

    /// The event queue's heap work so far.
    pub fn queue_work(&self) -> QueueWork {
        self.core.queue.work()
    }

    /// The decode planner's work so far, summed over the decode replicas;
    /// zero for colocated replicas, which step one event at a time.
    pub fn decode_work(&self) -> DecodeWork {
        let mut work = DecodeWork::default();
        if let Topology::Split(s) = &self.topo {
            for d in &s.decodes {
                work += d.work;
            }
        }
        work
    }

    /// The KV transport's work so far; zero for colocated replicas, which
    /// transfer nothing.
    pub fn kv_work(&self) -> KvWork {
        match &self.topo {
            Topology::Split(s) => s.kv.work(),
            Topology::Colocated(_) => KvWork::default(),
        }
    }

    /// Runs the trace with mid-flight fault injection. With an empty
    /// script this is a plain (fault-free) run. A driver runs once: a
    /// second call returns [`Error::Simulation`].
    pub fn run_with_faults(
        &mut self,
        requests: &[Request],
        script: &FaultScript,
    ) -> Result<Metrics> {
        if self.core.ran {
            return Err(Error::Simulation(
                "a simulation runs once; build a new one for another run".into(),
            ));
        }
        let detections = self.detections(script)?;
        if let Some(r) = requests
            .iter()
            .find(|r| self.core.route_of(r.model).is_none())
        {
            return Err(Error::InvalidConfig(format!(
                "request {} is for {}, which the plan does not serve",
                r.id, r.model
            )));
        }
        self.core.ran = true;
        self.core.faults = script.faults.clone();
        self.core.recovery_enabled = script.recovery;
        self.core.gray.set_beat_period(script.detection_delay);

        // Arrivals are merged lazily from this sorted vector instead of
        // being heap entries. The stable sort keeps submission order among
        // simultaneous arrivals — the seq order the eager pushes gave them.
        self.core.arrivals = requests.to_vec();
        self.core.arrivals.sort_by_key(|r| r.arrival);
        self.core.next_arrival = 0;
        // One record per completed request, without doubling past it.
        self.core.records.reserve(requests.len());
        // Detection only matters when the engine actually recovers; healing
        // and pauses act at trigger time. Each detection is pushed right
        // after its fault's trigger: that seq order is the `(at, index)`
        // order `detections` decides liveness by.
        let mut detected = vec![false; self.core.faults.len()];
        if script.recovery {
            for d in &detections {
                detected[d.fault] = true;
            }
        }
        for (idx, f) in self.core.faults.iter().enumerate() {
            self.core
                .queue
                .push(f.at, EventKind::FaultTriggered { index: idx });
            if detected[idx] {
                self.core.queue.push(
                    f.at + script.detection_delay,
                    EventKind::FaultDetected { index: idx },
                );
            }
        }
        let submitted = requests.len();
        while let Some(next) = self.core.next_event()? {
            match next {
                NextEvent::Arrival(req) => self.on_arrival(req),
                NextEvent::Queued(ev) => self.dispatch_event(ev)?,
            }
        }
        // A driver runs once: its copy of the trace is spent.
        self.core.arrivals = Vec::new();
        // Anything still in the system when events run dry was lost to a
        // fault it never recovered from (stalled, parked, frozen on a dead
        // replica).
        let now = self.core.now;
        for (_, st) in self.core.reqs.drain() {
            self.core.losses.push(LossRecord {
                request: st.req,
                at: now,
                kind: LossKind::Dropped,
            });
        }
        if self.core.records.len() + self.core.losses.len() != submitted {
            return Err(Error::Simulation(format!(
                "conservation violated: {} completed + {} lost != {} submitted",
                self.core.records.len(),
                self.core.losses.len(),
                submitted
            )));
        }
        if self.core.track_models {
            // The aggregate identity must also hold tenant by tenant: no
            // request may complete as one model and be dropped as another.
            let mut per: BTreeMap<ModelId, ModelConservation> = BTreeMap::new();
            let blank = |m: ModelId| ModelConservation {
                model: m,
                ..ModelConservation::default()
            };
            for r in requests {
                per.entry(r.model)
                    .or_insert_with(|| blank(r.model))
                    .submitted += 1;
            }
            for rec in &self.core.records {
                let m = rec.request.model;
                per.entry(m).or_insert_with(|| blank(m)).completed += 1;
            }
            for l in &self.core.losses {
                let m = l.request.model;
                let c = per.entry(m).or_insert_with(|| blank(m));
                match l.kind {
                    LossKind::Dropped => c.dropped += 1,
                    LossKind::Rejected => c.rejected += 1,
                }
            }
            for c in per.values() {
                if !c.balanced() {
                    return Err(Error::Simulation(format!(
                        "per-model conservation violated for {}: {} completed + {} dropped \
                         + {} rejected != {} submitted",
                        c.model, c.completed, c.dropped, c.rejected, c.submitted
                    )));
                }
            }
            self.core.recovery.per_model = per.into_values().collect();
        }
        // The per-step loop popped (and advanced `now` past) decode events
        // made stale by a replica death; the coalesced loop cancels them
        // instead and folds their fire times into the phantom horizon. The
        // fabric's superseded completion estimates count the same way.
        if let Topology::Split(s) = &self.topo {
            self.core.phantom_horizon = self.core.phantom_horizon.max(s.kv.horizon());
        }
        let horizon = self
            .core
            .now
            .max(self.core.phantom_horizon)
            .saturating_since(SimTime::ZERO);
        Ok(Metrics::with_recovery(
            std::mem::take(&mut self.core.records),
            std::mem::take(&mut self.core.losses),
            horizon,
            std::mem::take(&mut self.core.recovery),
        ))
    }

    /// Dispatches one queued event to its handler.
    pub(super) fn dispatch_event(&mut self, ev: Event) -> Result<()> {
        match ev.kind {
            EventKind::PrefillDone { replica, epoch } => {
                let (core, s) = self.split("PrefillDone")?;
                if s.prefills[replica].event_is_current(epoch) {
                    split_on_prefill_done(core, s, replica)?;
                }
            }
            EventKind::PrefillSlotFree { replica, epoch } => {
                let (core, s) = self.split("PrefillSlotFree")?;
                if s.prefills[replica].event_is_current(epoch) {
                    s.prefills[replica].wakeup_scheduled = false;
                    split_maybe_start_prefill(core, s, replica);
                }
            }
            EventKind::KvTransferDone {
                replica,
                request,
                attempt,
            } => {
                let (core, s) = self.split("KvTransferDone")?;
                if let Some(key) = s.kv.on_transfer_done(core, replica, request, attempt) {
                    split_deliver_transfer(core, s, key)?;
                }
            }
            EventKind::KvFlowLaunch { request, attempt } => {
                let (core, s) = self.split("KvFlowLaunch")?;
                s.kv.on_flow_launch(core, request, attempt);
            }
            EventKind::KvFlowDone => {
                let (core, s) = self.split("KvFlowDone")?;
                if let Some(key) = s.kv.on_timer(core)? {
                    split_deliver_transfer(core, s, key)?;
                }
            }
            EventKind::DecodeStepDone { replica, epoch } => {
                let (_, s) = self.split("DecodeStepDone")?;
                if s.decodes[replica].event_is_current(epoch) {
                    self.on_decode_finish(replica, ev)?;
                }
            }
            EventKind::WorkDone { replica, epoch } => {
                let (core, c) = self.colocated("WorkDone")?;
                if c.replicas[replica].event_is_current(epoch) {
                    colo::on_work_done(core, c, replica)?;
                }
            }
            EventKind::FaultTriggered { index } => self.on_fault_triggered(index)?,
            EventKind::FaultDetected { index } => self.on_fault_detected(index)?,
            EventKind::ServiceResumed => self.on_service_resumed(),
            EventKind::HedgeCheck { request } => {
                let (core, s) = self.split("HedgeCheck")?;
                gray::on_hedge_check(core, s, request)?;
            }
            EventKind::FlakyBeat { node } => self.on_flaky_beat(node),
            EventKind::ReadmitProbe { prefill, replica } => self.on_readmit_probe(prefill, replica),
        }
        Ok(())
    }

    /// Takes the recorded trace of the run, finalized into a time-sorted
    /// [`TraceLog`]; `None` when [`SimConfig::telemetry`] is off. Fabric-side
    /// events (per-link utilization, flow rate changes) are merged here.
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        let mut rec = self.core.trace.take()?;
        if let Topology::Split(s) = &mut self.topo {
            rec.extend(s.kv.take_events());
        }
        Some(rec.finish())
    }

    /// Takes the per-replica pressure tally of the run; `None` when
    /// [`SimConfig::pressure`] is off.
    pub fn take_pressure(&mut self) -> Option<PressureTally> {
        self.core.pressure.take()
    }

    /// The core plus the split topology's state, or an "event kind in
    /// wrong engine" error.
    pub(super) fn split(&mut self, kind: &str) -> Result<(&mut Core, &mut SplitState)> {
        match &mut self.topo {
            Topology::Split(s) => Ok((&mut self.core, s)),
            Topology::Colocated(_) => Err(Error::Simulation(format!(
                "unexpected {kind} event in colocated engine"
            ))),
        }
    }

    /// The colocated twin of [`Driver::split`].
    fn colocated(&mut self, kind: &str) -> Result<(&mut Core, &mut ColoState)> {
        match &mut self.topo {
            Topology::Colocated(c) => Ok((&mut self.core, c)),
            Topology::Split(_) => Err(Error::Simulation(format!(
                "unexpected {kind} event in phase-split engine"
            ))),
        }
    }

    fn on_arrival(&mut self, req: Request) {
        let (id, model) = (req.id, req.model);
        let key = self.core.reqs.insert(ReqState::new(req));
        trace(&mut self.core, TraceKind::Arrived { request: id });
        if self.core.track_models {
            trace(&mut self.core, TraceKind::ModelTag { request: id, model });
        }
        gray::restart_beats(&mut self.core);
        let job = PrefillJob::fresh(key, &self.core.reqs[key].req);
        self.dispatch_job(job);
    }

    /// Routes a job to a live destination (a (prefill, decode) pair under
    /// `Split`, a replica under `Colocated`), or stalls/sheds it if the
    /// service is paused or no live route exists.
    pub(super) fn dispatch_job(&mut self, job: PrefillJob) {
        let Some(st) = self.core.reqs.get(job.key) else {
            return;
        };
        let (rid, model) = (st.req.id, st.req.model);
        if self.core.paused_until.is_some() {
            stall_or_shed(&mut self.core, job);
            return;
        }
        // Draw from the request's own route, so a tenant never lands on
        // another tenant's executors.
        let Driver { core, topo } = self;
        let ri = core
            .route_of(model)
            .expect("run_with_faults rejects requests for unserved models");
        let route = &mut core.routes[ri];
        if route.router.num_enabled() == 0 {
            stall_or_shed(core, job);
            return;
        }
        // A colocated route's pairs are `(k, k)`.
        let (i, j) = route.pairs[route.router.next()];
        if let Some(st) = core.reqs.get_mut(job.key) {
            st.pend.prefill = i;
            st.pend.decode = j;
        }
        match topo {
            Topology::Split(s) => {
                let key = job.key;
                enqueue_prefill(core, Role::Prefill, i, &mut s.prefills[i].queue, rid, job);
                split_maybe_start_prefill(core, s, i);
                if let Some(h) = core.cfg.hedge {
                    core.queue
                        .push(core.now + h.timeout, EventKind::HedgeCheck { request: key });
                }
            }
            Topology::Colocated(c) => {
                let queue = &mut c.replicas[i].prefill;
                enqueue_prefill(core, Role::Colocated, i, queue, rid, job);
                colo::maybe_start_work(core, c, i);
            }
        }
    }
}

impl Core {
    fn new(
        cfg: SimConfig,
        routes: Vec<Route>,
        prefill_hosts: Option<usize>,
        total_hosts: usize,
    ) -> Self {
        let trace = cfg.telemetry.then(Recorder::new);
        let pressure = cfg.pressure.then(PressureTally::new);
        let gray = GrayState::new(prefill_hosts, total_hosts);
        let track_models = !cfg.models.is_empty();
        Core {
            cfg,
            routes,
            believed_dead: vec![false; total_hosts],
            queue: EventQueue::new(),
            reqs: Slab::new(),
            records: Vec::new(),
            losses: Vec::new(),
            now: SimTime::ZERO,
            faults: Vec::new(),
            recovery_enabled: true,
            stalled: VecDeque::new(),
            paused_until: None,
            recovery: RecoveryCounters::default(),
            affected: Vec::new(),
            trace,
            pressure,
            gray,
            track_models,
            arrivals: Vec::new(),
            next_arrival: 0,
            events_processed: 0,
            event_pushed_at: SimTime::ZERO,
            phantom_horizon: SimTime::ZERO,
            held_decode: Vec::new(),
            admit_buf: Vec::new(),
            finished_buf: Vec::new(),
            ran: false,
        }
    }

    /// Pops the next occurrence — the cursor arrival or the queue head,
    /// whichever is earlier — advancing the clock and stamping
    /// [`Core::event_pushed_at`]. Ties go to the arrival: under the eager
    /// scheme arrivals were pushed at setup, before any simulation event,
    /// so they carried the smaller sequence numbers. An occurrence before
    /// the clock is an [`Error::Simulation`]: the clock never runs back.
    fn next_event(&mut self) -> Result<Option<NextEvent>> {
        let arrival = self.arrivals.get(self.next_arrival).map(|r| r.arrival);
        let take_arrival = match (arrival, self.queue.peek_at()) {
            (Some(a), Some(q)) => a <= q,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return Ok(None),
        };
        let (at, next) = if take_arrival {
            let req = self.arrivals[self.next_arrival];
            self.next_arrival += 1;
            self.event_pushed_at = SimTime::ZERO;
            (req.arrival, NextEvent::Arrival(req))
        } else {
            let Some(ev) = self.queue.pop() else {
                return Ok(None);
            };
            self.event_pushed_at = ev.pushed_at;
            (ev.at, NextEvent::Queued(ev))
        };
        if at < self.now {
            let what = match next {
                NextEvent::Arrival(req) => format!("arrival of {}", req.id),
                NextEvent::Queued(ev) => format!("{:?}", ev.kind),
            };
            return Err(Error::Simulation(format!(
                "{what} at {at} is before the clock at {}",
                self.now
            )));
        }
        self.now = at;
        self.queue.set_now(at);
        self.events_processed += 1;
        Ok(Some(next))
    }

    /// The route serving requests for `model`: the only route of a
    /// one-route plan whatever the model, otherwise that tenant's route;
    /// `None` when a multi-model plan does not serve `model`.
    pub(super) fn route_of(&self, model: ModelId) -> Option<usize> {
        if self.routes.len() == 1 {
            return Some(0);
        }
        self.routes.iter().position(|r| r.model == model)
    }
}

// --- trace helpers ---------------------------------------------------------

/// Records a trace event at the current simulation time; a no-op of a few
/// branches when every consumer is off.
#[inline]
pub(super) fn trace(core: &mut Core, kind: TraceKind) {
    let at = core.now;
    trace_at(core, at, kind);
}

/// Records a trace event stamped at `at`, which may lie in the future (a
/// KV wire start scheduled behind a busy uplink); the recorder re-sorts by
/// timestamp at finalization. The pressure tally folds in event order; the
/// samples it reads (queue depth, batch occupancy) are always stamped at
/// or before `now`, in order per replica.
#[inline]
pub(super) fn trace_at(core: &mut Core, at: SimTime, kind: TraceKind) {
    if let Some(tally) = core.pressure.as_mut() {
        tally.observe(at, &kind);
    }
    if let Some(rec) = core.trace.as_mut() {
        rec.record(TraceEvent { at, kind });
    }
}

/// Whether the trace recorder is attached — the gate for trace-only
/// events no other consumer reads (prefill-start markers, KV wire byte
/// accounting, stall markers). It gates no simulation work.
pub(super) fn tracing(core: &Core) -> bool {
    core.trace.is_some()
}

/// Whether any consumer of queue-depth samples (recorder or pressure
/// tally) is attached — the gate for sites that must read a queue length
/// only to emit its sample.
fn sampling(core: &Core) -> bool {
    tracing(core) || core.pressure.is_some()
}

// --- topology-agnostic helpers (free functions over Core) ----------------

/// Removes `key` from the slab and books the loss as a rejection. The
/// trace event and any policy-specific accounting stay with the caller,
/// which knows *why* the request was rejected. A dead key is a no-op: the
/// loss was already booked when the entry went away.
fn reject_request(core: &mut Core, key: SlabKey) {
    let Some(st) = core.reqs.remove(key) else {
        return;
    };
    core.losses.push(LossRecord {
        request: st.req,
        at: core.now,
        kind: LossKind::Rejected,
    });
}

fn stall_or_shed(core: &mut Core, job: PrefillJob) {
    if core.stalled.len() < SHED_THRESHOLD {
        if tracing(core) {
            let rid = core.reqs[job.key].req.id;
            trace(core, TraceKind::Stalled { request: rid });
        }
        core.stalled.push_back(job);
    } else {
        let rid = core.reqs.get(job.key).map(|st| st.req.id);
        reject_request(core, job.key);
        if let Some(rid) = rid {
            trace(core, TraceKind::Rejected { request: rid });
            clear_affected(core, rid);
        }
    }
}

/// Removes `key` from the slab and books the loss as a drop. A dead key
/// (a hedge ghost of a request that already resolved) is a no-op.
pub(super) fn drop_request(core: &mut Core, key: SlabKey) {
    let Some(st) = core.reqs.remove(key) else {
        return;
    };
    let id = st.req.id;
    core.losses.push(LossRecord {
        request: st.req,
        at: core.now,
        kind: LossKind::Dropped,
    });
    trace(core, TraceKind::Dropped { request: id });
    clear_affected(core, id);
}

/// Marks `id` no longer waiting on fault recovery; records a fault's
/// time-to-recover when its last affected request resolves. The empty
/// check keeps the fault-free fast path allocation-free.
fn clear_affected(core: &mut Core, id: RequestId) {
    if core.affected.is_empty() {
        return;
    }
    let now = core.now;
    let mut recovered_at = Vec::new();
    for (at, set) in &mut core.affected {
        if set.remove(&id) && set.is_empty() {
            recovered_at.push(now.saturating_since(*at));
        }
    }
    core.recovery.recovery_times.extend(recovered_at);
}

fn finish(core: &mut Core, key: SlabKey, at: SimTime, max_token_gap: SimDuration) -> Result<()> {
    let st = core
        .reqs
        .remove(key)
        .ok_or_else(|| Error::Simulation(format!("finish without request state: {key}")))?;
    let (req, pend) = (st.req, st.pend);
    let first = pend
        .first_token_at
        .ok_or_else(|| Error::Simulation(format!("finish before prefill: {}", req.id)))?;
    // KV-transfer decomposition: queue wait on the sender, then wire time.
    // Requests that never transferred (colocated, single-token) record zero.
    let kv_queue_wait = match (pend.kv_enqueued_at, pend.kv_wire_started_at) {
        (Some(enq), Some(wire)) => wire.saturating_since(enq),
        _ => SimDuration::ZERO,
    };
    let kv_wire_time = match (pend.kv_wire_started_at, pend.kv_done_at) {
        (Some(wire), Some(done)) => done.saturating_since(wire),
        _ => SimDuration::ZERO,
    };
    core.records.push(RequestRecord {
        request: req,
        prefill_replica: pend.prefill,
        decode_replica: pend.decode,
        first_token_at: first,
        finished_at: at,
        max_token_gap,
        kv_queue_wait,
        kv_wire_time,
        kv_done_at: pend.kv_done_at,
    });
    trace_at(core, at, TraceKind::Finished { request: req.id });
    clear_affected(core, req.id);
    Ok(())
}

// --- replica steps shared by both topologies -------------------------------

/// Queues `job` of request `rid` on the prefill `queue` of `replica` and
/// samples the new depth.
fn enqueue_prefill(
    core: &mut Core,
    role: Role,
    replica: usize,
    queue: &mut PrefillQueue,
    rid: RequestId,
    job: PrefillJob,
) {
    queue.enqueue(job);
    trace(
        core,
        TraceKind::Enqueued {
            request: rid,
            role,
            replica,
        },
    );
    trace(
        core,
        TraceKind::QueueDepth {
            role,
            replica,
            depth: queue.queue.len(),
        },
    );
}

/// Takes the next prefill launch of `replica` off its `queue` into `jobs`,
/// tracing each job's start and sampling the new queue depth. Returns the
/// launch's prompt tokens and the context to price it at.
pub(super) fn take_prefill_launch(
    core: &mut Core,
    role: Role,
    replica: usize,
    queue: &mut PrefillQueue,
    jobs: &mut Vec<PrefillJob>,
) -> (u64, u64) {
    let launch = queue.take_launch(jobs);
    if tracing(core) {
        for job in jobs.iter() {
            // A hedge ghost (its request already resolved) prefills without
            // a slab entry; it has no id to trace.
            if let Some(st) = core.reqs.get(job.key) {
                let rid = st.req.id;
                trace(
                    core,
                    TraceKind::PrefillStart {
                        request: rid,
                        role,
                        replica,
                        tokens: job.tokens,
                    },
                );
            }
        }
    }
    if sampling(core) {
        let depth = queue.queue.len();
        trace(
            core,
            TraceKind::QueueDepth {
                role,
                replica,
                depth,
            },
        );
    }
    launch
}

/// Prices a prefill launch of `tokens` prompt tokens at context `ctx`:
/// its latency through the whole pipeline, and the bottleneck stage time
/// after which the next launch may enter, both from one pass over the
/// stages. Pricing goes through the replica's one-entry `memo`: traces
/// with repeated prompt lengths form the same batch shape over and over,
/// and the pricing is pure in `(tokens, ctx)`. A memo miss is timed under
/// the profiler scope `sim.price_prefill`.
pub(super) fn price_prefill(
    cost: &ReplicaCostModel,
    memo: &mut Option<(u64, u64, SimDuration, SimDuration)>,
    slow: f64,
    tokens: u64,
    ctx: u64,
) -> (SimDuration, SimDuration) {
    let (mut latency, mut bottleneck) = match *memo {
        Some((t, c, lat, bot)) if t == tokens && c == ctx => (lat, bot),
        _ => {
            let _g = profile::scope("sim.price_prefill");
            let (lat, bot) = cost.prefill_latency_and_bottleneck(tokens, ctx);
            *memo = Some((tokens, ctx, lat, bot));
            (lat, bot)
        }
    };
    // Straggler fault: iteration times stretch. Skipped entirely at the
    // healthy factor of exactly 1 so the default path never rounds
    // through the multiply.
    if slow != 1.0 {
        latency = latency.mul_f64(slow);
        bottleneck = bottleneck.mul_f64(slow);
    }
    (latency, bottleneck)
}

/// Books the end of `job`'s prefill on `replica`: stamps its first-token
/// time and traces the prefill's end and the first token. A re-prefill
/// keeps its original first-token time: TTFT was already paid, recovery
/// shows up in inter-token gaps instead. A single-token job finishes
/// here, since the prefill produced its only token. Returns whether the
/// job goes on to decode.
pub(super) fn end_prefill(
    core: &mut Core,
    role: Role,
    replica: usize,
    job: &PrefillJob,
) -> Result<bool> {
    let now = core.now;
    let st = core
        .reqs
        .get_mut(job.key)
        .ok_or_else(|| Error::Simulation(format!("unknown request {}", job.key)))?;
    let rid = st.req.id;
    let newly_first = st.pend.first_token_at.is_none();
    if newly_first {
        st.pend.first_token_at = Some(now);
    }
    trace(
        core,
        TraceKind::PrefillEnd {
            request: rid,
            role,
            replica,
        },
    );
    if newly_first {
        trace(core, TraceKind::FirstToken { request: rid });
    }
    if job.remaining == 0 {
        finish(core, job.key, now, SimDuration::ZERO)?;
        return Ok(false);
    }
    Ok(true)
}

/// Runs an admission pass over `batch` of `replica` and applies its
/// decisions in order: evictions become drops, admissions resolve
/// fault-recovery tracking (and, under telemetry, mark the sequence's
/// decode-batch join). Then samples the batch occupancy if it differs
/// from the replica's last sample: a repeated value moves no step
/// function, and the first sample registers the replica. Returns whether
/// anything was admitted.
pub(super) fn admit_waiting(
    core: &mut Core,
    role: Role,
    replica: usize,
    batch: &mut BatchCore,
) -> bool {
    let mut outcomes = std::mem::take(&mut core.admit_buf);
    let reqs = &core.reqs;
    batch.admit(
        core.now,
        |key| reqs.get(key).and_then(|st| st.pend.first_token_at),
        &mut outcomes,
    );
    let mut admitted = false;
    for &o in &outcomes {
        match o {
            AdmitOutcome::Dropped(key) => drop_request(core, key),
            AdmitOutcome::Admitted(key) => {
                admitted = true;
                if let Some(st) = core.reqs.get(key) {
                    let rid = st.req.id;
                    trace(
                        core,
                        TraceKind::DecodeJoin {
                            request: rid,
                            role,
                            replica,
                        },
                    );
                    clear_affected(core, rid);
                }
            }
        }
    }
    core.admit_buf = outcomes;
    let active = batch.active.len();
    if batch.sampled != Some(active) {
        batch.sampled = Some(active);
        trace(
            core,
            TraceKind::BatchOccupancy {
                role,
                replica,
                active,
            },
        );
    }
    admitted
}

/// Advances `batch` one decode step ending now and finishes every
/// sequence the step completes.
pub(super) fn finish_step(core: &mut Core, batch: &mut BatchCore) -> Result<()> {
    let mut finished = std::mem::take(&mut core.finished_buf);
    batch.advance(core.now, &mut finished);
    for &(key, gap) in &finished {
        finish(core, key, core.now, gap)?;
    }
    core.finished_buf = finished;
    Ok(())
}

// --- split-topology handlers ---------------------------------------------

pub(super) fn split_maybe_start_prefill(core: &mut Core, s: &mut SplitState, i: usize) {
    let p = &mut s.prefills[i];
    if !p.is_alive() || p.queue.is_empty() {
        return;
    }
    if p.next_free > core.now {
        // First stage still occupied: wake up when it frees.
        if !p.wakeup_scheduled {
            p.wakeup_scheduled = true;
            core.queue.push(
                p.next_free,
                EventKind::PrefillSlotFree {
                    replica: i,
                    epoch: p.epoch(),
                },
            );
        }
        return;
    }
    // Recycle a retired batch buffer so steady-state launches do not
    // allocate.
    let mut batch = p.spare_batches.pop().unwrap_or_default();
    let (tokens, ctx) = take_prefill_launch(core, Role::Prefill, i, &mut p.queue, &mut batch);
    let (latency, bottleneck) =
        price_prefill(&p.cost, &mut p.price_memo, p.slow_factor, tokens, ctx);
    // Pipeline parallelism: the next batch may enter once the slowest
    // stage has processed this one; the batch itself completes after the
    // full pipeline latency.
    p.next_free = core.now + bottleneck;
    p.in_flight.push_back(batch);
    core.queue.push(
        core.now + latency,
        EventKind::PrefillDone {
            replica: i,
            epoch: p.epoch(),
        },
    );
}

fn split_on_prefill_done(core: &mut Core, s: &mut SplitState, i: usize) -> Result<()> {
    let mut batch = s.prefills[i]
        .in_flight
        .pop_front()
        .ok_or_else(|| Error::Simulation("prefill done with nothing in flight".into()))?;
    observe_straggler(core, Role::Prefill, i, s.prefills[i].slow_factor);
    for job in batch.drain(..) {
        // Hedged duplicates race, first completion wins: the loser finds
        // the request finished (single-token outputs) or its KV transfer
        // already launched, and is discarded here.
        let Some(st) = core.reqs.get_mut(job.key) else {
            continue;
        };
        let pend = &mut st.pend;
        if pend.kv_launched {
            continue;
        }
        // The winner of a hedge race fixes the (prefill, decode) pair; the
        // loser's still-queued copy is cancelled (an in-flight copy is
        // discarded at its own completion instead).
        if let Some((hp, hd)) = pend.hedge.take() {
            let loser = if hp == i {
                core.recovery.hedges_won += 1;
                let primary = pend.prefill;
                pend.prefill = hp;
                pend.decode = hd;
                primary
            } else {
                hp
            };
            if loser != i {
                s.prefills[loser].queue.remove(job.key);
            }
        }
        if job.remaining != 0 {
            pend.kv_launched = true;
        }
        let to = pend.decode;
        if end_prefill(core, Role::Prefill, i, &job)? {
            let t = Transfer {
                from: i,
                to,
                job,
                attempt: 1,
            };
            s.kv.launch(core, t, SimDuration::ZERO);
        }
    }
    // Return the emptied batch buffer to the pool for the next launch.
    s.prefills[i].spare_batches.push(batch);
    split_maybe_start_prefill(core, s, i);
    Ok(())
}

/// The bytes of `key`'s KV transfer arrived over a live link: re-target
/// if the decode replica died, otherwise hand the sequence to the decode
/// replica.
fn split_deliver_transfer(core: &mut Core, s: &mut SplitState, key: SlabKey) -> Result<()> {
    let Some(t) = core.reqs.get(key).and_then(|st| st.transfer) else {
        return Ok(());
    };
    if !s.decodes[t.to].is_alive() {
        // Target died while the bytes were in flight.
        if let Some(st) = core.reqs.get_mut(key) {
            st.transfer = None;
        }
        if !core.recovery_enabled {
            drop_request(core, key);
            return Ok(());
        }
        return split_redispatch_transfer(core, s, t);
    }
    // Delivered.
    let now = core.now;
    let st = core
        .reqs
        .get_mut(key)
        .expect("delivered transfer without request state");
    st.transfer = None;
    st.pend.kv_done_at = Some(now);
    let rid = st.req.id;
    trace(core, TraceKind::KvDone { request: rid });
    // Step boundaries owed before this instant must land before the
    // admission pass reads KV occupancy and batch size.
    decode::catch_up(core, s, t.to)?;
    s.decodes[t.to].batch.waiting.push_back(WaitingSeq {
        key,
        tokens: t.job.tokens,
        remaining: t.job.remaining,
        resume: t.job.resume,
    });
    decode::admit_and_kick(core, s, t.to)
}

/// The live decode replica with the most free KV memory (lowest index
/// breaks ties) among those serving the model of prefill replica `from` —
/// KV caches are model-specific. Callers catch up every decode batch first.
pub(super) fn kv_target(s: &SplitState, from: usize) -> Option<usize> {
    let model = s.prefill_model[from];
    s.decodes
        .iter()
        .enumerate()
        .filter(|&(j, d)| d.is_alive() && s.decode_model[j] == model)
        .max_by_key(|(j, d)| {
            (
                d.batch.kv_capacity.saturating_sub(d.batch.kv_used),
                std::cmp::Reverse(*j),
            )
        })
        .map(|(j, _)| j)
}

/// Re-targets a transfer whose decode replica died to [`kv_target`], or
/// parks it until a decode replica comes back.
pub(super) fn split_redispatch_transfer(
    core: &mut Core,
    s: &mut SplitState,
    mut t: Transfer,
) -> Result<()> {
    // The free-KV scan reads every decode batch; their owed boundaries
    // must land first.
    decode::catch_up_all(core, s)?;
    let Some(j2) = kv_target(s, t.from) else {
        s.parked.push(t);
        return Ok(());
    };
    let Some(st) = core.reqs.get_mut(t.job.key) else {
        return Ok(()); // resolved while parked
    };
    st.pend.decode = j2;
    let rid = st.req.id;
    t.to = j2;
    t.attempt += 1;
    core.recovery.kv_transfer_retries += 1;
    trace(
        core,
        TraceKind::KvRetry {
            request: rid,
            attempt: t.attempt,
        },
    );
    s.kv.launch(core, t, SimDuration::ZERO);
    Ok(())
}

// --- routing masks ---------------------------------------------------------

/// Route `ri`'s mask: whether each of its (prefill, decode) pairs is
/// routable under current liveness beliefs and gray-failure masking
/// (flaky-heartbeat false positives and straggler quarantine). `extra`
/// additionally masks one host — used to test whether a prospective
/// quarantine would leave a route empty, without committing it.
pub(super) fn router_mask(core: &Core, ri: usize, extra: Option<usize>) -> Vec<bool> {
    let live = |h: usize| !core.believed_dead[h] && !core.gray.masked(h) && extra != Some(h);
    core.routes[ri]
        .pairs
        .iter()
        .map(|&(i, j)| live(core.gray.host_of(true, i)) && live(core.gray.host_of(false, j)))
        .collect()
}

/// Re-derives every route's mask (see [`router_mask`]).
pub(super) fn refresh_router(core: &mut Core) {
    for ri in 0..core.routes.len() {
        let mask = router_mask(core, ri, None);
        core.routes[ri].router.apply_mask(&mask);
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::config::Quarantine;
    use crate::fault::FaultKind;
    use ts_cluster::presets;
    use ts_common::{GpuId, ModelRouting, ModelSpec, Phase, RoutingMatrix, ServedModel};

    pub(crate) fn testbed(cfg_edit: impl FnOnce(&mut SimConfig)) -> Driver {
        let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
        let model = ModelSpec::llama_13b();
        let group = |phase, ids: [u32; 4]| {
            GroupSpec::single_stage(
                phase,
                ids.iter().map(|&i| GpuId(i)).collect(),
                model.num_layers,
            )
            .unwrap()
        };
        let plan = DeploymentPlan::new(
            vec![
                group(Phase::Prefill, [0, 1, 2, 3]),
                group(Phase::Decode, [4, 5, 6, 7]),
            ],
            RoutingMatrix::uniform(1, 1),
        )
        .unwrap();
        let mut cfg = SimConfig::new(model);
        cfg_edit(&mut cfg);
        Driver::new_split(&cluster, &plan, cfg).unwrap()
    }

    pub(crate) fn seed_request(core: &mut Core, id: u64) -> (Request, SlabKey) {
        let req = Request::new(RequestId(id), SimTime::ZERO, 512, 16);
        let key = core.reqs.insert(ReqState::new(req));
        (req, key)
    }

    /// Two tenants (both llama-7b, so memory trivially fits) partitioning
    /// the 8-GPU network-case cluster with the given traffic shares: model
    /// 1 on groups 0/2, model 2 on groups 1/3.
    fn multi_testbed_with(shares: [f64; 2], tweak: impl FnOnce(&mut SimConfig)) -> Driver {
        let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
        let model = ModelSpec::llama_7b();
        let group = |phase, m: ModelId, ids: [u32; 2]| {
            GroupSpec::single_stage(
                phase,
                ids.iter().map(|&i| GpuId(i)).collect(),
                model.num_layers,
            )
            .unwrap()
            .with_model(m)
        };
        let plan = DeploymentPlan::new_multi(
            vec![
                group(Phase::Prefill, ModelId(1), [0, 1]),
                group(Phase::Prefill, ModelId(2), [2, 3]),
                group(Phase::Decode, ModelId(1), [4, 5]),
                group(Phase::Decode, ModelId(2), [6, 7]),
            ],
            vec![
                ModelRouting {
                    model: ModelId(1),
                    routing: RoutingMatrix::uniform(1, 1),
                    share: shares[0],
                },
                ModelRouting {
                    model: ModelId(2),
                    routing: RoutingMatrix::uniform(1, 1),
                    share: shares[1],
                },
            ],
        )
        .unwrap();
        let mut cfg = SimConfig::new(model).with_catalog(vec![
            ServedModel::llama_7b_chat(ModelId(1), 0.5).unwrap(),
            ServedModel::llama_7b_chat(ModelId(2), 0.5).unwrap(),
        ]);
        tweak(&mut cfg);
        Driver::new_split(&cluster, &plan, cfg).unwrap()
    }

    fn multi_testbed() -> Driver {
        multi_testbed_with([0.5, 0.5], |_| {})
    }

    /// `n` short requests 50 ms apart, tagged `model(i)`.
    fn requests(n: u64, model: impl Fn(u64) -> ModelId) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::new(
                    RequestId(i),
                    SimTime::from_secs_f64(i as f64 * 0.05),
                    256,
                    8,
                )
                .with_model(model(i))
            })
            .collect()
    }

    /// Alternates requests between the two tenants of [`multi_testbed`].
    fn alternating(i: u64) -> ModelId {
        ModelId(1 + (i % 2) as u32)
    }

    #[test]
    fn single_model_plan_builds_one_route() {
        let mut d = testbed(|_| {});
        assert!(!d.core.track_models);
        assert_eq!(d.core.routes.len(), 1, "a legacy plan is a one-route plan");
        assert_eq!(d.core.routes[0].pairs, vec![(0, 0)]);
        let (_, s) = d.split("test").unwrap();
        assert_eq!(s.prefill_model, vec![ModelId(0)]);
        assert_eq!(s.decode_model, vec![ModelId(0)]);
    }

    /// The clock never runs back: an event or an arrival due before it
    /// ends the run with an error, in release builds too.
    #[test]
    fn occurrence_before_the_clock_is_an_error() {
        let behind = |d: &mut Driver, reqs: &[Request]| {
            d.core.now = SimTime::from_micros(10);
            let err = d.run_with_faults(reqs, &FaultScript::none()).unwrap_err();
            assert!(
                matches!(&err, Error::Simulation(m) if m.contains("before the clock")),
                "{err:?}"
            );
        };
        let mut d = testbed(|_| {});
        d.core
            .queue
            .push(SimTime::from_micros(5), EventKind::ServiceResumed);
        behind(&mut d, &[]);
        let late = Request::new(RequestId(0), SimTime::from_micros(5), 256, 8);
        behind(&mut testbed(|_| {}), &[late]);
    }

    /// A decode plan whose intermediate boundaries cannot drain, or whose
    /// run end is not its event's time, ends the run with an error, in
    /// release builds too.
    #[test]
    fn a_corrupted_decode_plan_is_an_error() {
        let corrupt = |edit: fn(&mut crate::exec::executor::DecodePlan), want: &str| {
            let mut d = testbed(|_| {});
            let (core, s) = d.split("test").unwrap();
            let (req, key) = seed_request(core, 0);
            s.decodes[0].batch.waiting.push_back(WaitingSeq {
                key,
                tokens: u64::from(req.prompt_len),
                remaining: req.output_len - 1,
                resume: None,
            });
            decode::admit_and_kick(core, s, 0).unwrap();
            edit(s.decodes[0].plan.as_mut().expect("a live plan"));
            let err = d.run_with_faults(&[], &FaultScript::none()).unwrap_err();
            assert!(
                matches!(&err, Error::Simulation(m) if m.contains(want)),
                "{err:?}"
            );
        };
        corrupt(|p| p.crossed = p.boundaries(), "0 boundaries left");
        corrupt(|p| p.start += SimDuration::from_micros(1), "fired at");
    }

    /// Each tenant's route is built from its matrix's support and mapped to
    /// global replicas through each group's slot. The oracle is the dense
    /// build: every positive cell in row-major order, placed by a position
    /// search over the plan's phase indices. Random plans of one to three
    /// tenants, with their groups shuffled, must give the same pairs and
    /// the same first 10,000 picks per route.
    #[test]
    fn tenant_routes_match_the_dense_oracle() {
        use crate::estimate::tests::random_rates;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7e4a47);
        let cluster = presets::a5000_cluster(80);
        let model = ModelSpec::llama_7b();
        for case in 0..200 {
            let tenants = rng.gen_range(1..=3u32);
            let (mut groups, mut per_model, mut catalog) = (Vec::new(), Vec::new(), Vec::new());
            for k in 1..=tenants {
                let (p, d) = (rng.gen_range(1..=12), rng.gen_range(1..=12));
                for g in 0..p + d {
                    let phase = if g < p { Phase::Prefill } else { Phase::Decode };
                    let gpus = vec![GpuId(groups.len() as u32)];
                    let spec = GroupSpec::single_stage(phase, gpus, model.num_layers);
                    groups.push(spec.unwrap().with_model(ModelId(k)));
                }
                per_model.push(ModelRouting {
                    model: ModelId(k),
                    routing: RoutingMatrix::new(random_rates(&mut rng, p, d)).unwrap(),
                    share: 1.0 / f64::from(tenants),
                });
                catalog.push(ServedModel::llama_7b_chat(
                    ModelId(k),
                    1.0 / f64::from(tenants),
                ));
            }
            groups.shuffle(&mut rng);
            let plan = DeploymentPlan::new_multi(groups, per_model).unwrap();
            let cfg = SimConfig::new(model.clone())
                .with_catalog(catalog.into_iter().collect::<Result<_>>().unwrap());
            let mut d = Driver::new_split(&cluster, &plan, cfg).unwrap();
            let (all_p, all_d) = (plan.prefill_indices(), plan.decode_indices());
            for (ri, m) in plan.models().into_iter().enumerate() {
                let (pidx, didx) = (plan.prefill_indices_for(m), plan.decode_indices_for(m));
                let (mut weights, mut pairs) = (Vec::new(), Vec::new());
                for (li, row) in plan.routing_for(m).unwrap().rates().iter().enumerate() {
                    for (lj, &w) in row.iter().enumerate() {
                        if w > 0.0 {
                            weights.push(w);
                            let row = all_p.iter().position(|&g| g == pidx[li]).unwrap();
                            let col = all_d.iter().position(|&g| g == didx[lj]).unwrap();
                            pairs.push((row, col));
                        }
                    }
                }
                let route = &mut d.core.routes[ri];
                assert_eq!(route.pairs, pairs, "case {case} model {m}");
                let mut oracle = StrideRouter::new(weights).unwrap();
                for pick in 0..10_000 {
                    assert_eq!(
                        route.router.next(),
                        oracle.next(),
                        "case {case} pick {pick}"
                    );
                }
            }
        }
    }

    #[test]
    fn legacy_plan_serves_every_model_tag_on_its_one_route() {
        let run = |model: ModelId| {
            testbed(|_| {})
                .run_with_faults(&requests(12, |_| model), &FaultScript::none())
                .unwrap()
        };
        let base = run(ModelId(0));
        let tagged = run(ModelId(5));
        assert_eq!(tagged.num_completed(), 12);
        let retagged: Vec<RequestRecord> = tagged
            .records()
            .iter()
            .map(|r| {
                let mut r = *r;
                r.request.model = ModelId(0);
                r
            })
            .collect();
        assert_eq!(retagged, base.records());
    }

    #[test]
    fn multi_model_plan_rejects_requests_for_unserved_models() {
        let mut d = multi_testbed();
        let reqs = requests(4, |i| if i == 3 { ModelId(3) } else { alternating(i) });
        let err = d.run_with_faults(&reqs, &FaultScript::none()).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn zero_share_tenant_is_routed_and_guarded_by_its_own_route() {
        // Model 2 has no share of the aggregate matrix, so no cell of that
        // matrix reaches its replicas; its own route alone decides whether
        // its stalled requests can drain and whether its replica may be
        // quarantined.
        let secs = SimTime::from_secs_f64;
        let fault = |at: f64, kind| TimedFault { at: secs(at), kind };
        let script = FaultScript::new(
            vec![
                fault(0.1, FaultKind::PrefillDown(0)),
                fault(1.0, FaultKind::Pause { until: secs(2.0) }),
            ],
            SimDuration::from_millis(200),
        );
        let reqs: Vec<Request> = [(0, 0.5, 2), (1, 1.5, 1), (2, 1.5, 2), (3, 1.6, 2)]
            .into_iter()
            .map(|(id, at, m)| Request::new(RequestId(id), secs(at), 256, 8).with_model(ModelId(m)))
            .collect();
        let m = multi_testbed_with([1.0, 0.0], |_| {})
            .run_with_faults(&reqs, &script)
            .unwrap();
        // Model 1's only prefill replica is believed dead from 0.3 s, so its
        // request stalls for good; model 2's requests stalled by the pause
        // drain through model 2's live route when service resumes.
        assert_eq!(m.for_model(ModelId(2)).num_completed(), 3);
        assert_eq!(m.for_model(ModelId(1)).num_completed(), 0);
        assert_eq!(m.num_dropped(), 1);
        assert!(m.recovery().per_model.iter().all(|c| c.balanced()));

        // Quarantining model 2's only (slow) prefill replica would empty
        // its route, so the straggler guard never does.
        let slow = FaultScript::new(
            vec![fault(0.0, FaultKind::PrefillSlow(1, 8.0))],
            SimDuration::from_millis(200),
        );
        let m = multi_testbed_with([1.0, 0.0], |cfg| cfg.quarantine = Some(Quarantine::at(2.0)))
            .run_with_faults(&requests(8, alternating), &slow)
            .unwrap();
        assert_eq!(m.num_completed(), 8);
        assert_eq!(m.recovery().quarantines, 0);
    }

    #[test]
    fn multi_model_plan_routes_each_tenant_to_its_own_replicas() {
        let mut d = multi_testbed();
        let routes: Vec<(ModelId, Vec<(usize, usize)>)> = d
            .core
            .routes
            .iter()
            .map(|r| (r.model, r.pairs.clone()))
            .collect();
        assert_eq!(
            routes,
            vec![(ModelId(1), vec![(0, 0)]), (ModelId(2), vec![(1, 1)])]
        );
        {
            let (_, s) = d.split("test").unwrap();
            assert_eq!(s.prefill_model, vec![ModelId(1), ModelId(2)]);
            assert_eq!(s.decode_model, vec![ModelId(1), ModelId(2)]);
        }
        let reqs = requests(8, alternating);
        let m = d.run_with_faults(&reqs, &FaultScript::none()).unwrap();
        assert_eq!(m.num_completed(), 8);
        for r in m.records() {
            let expect = match r.request.model {
                ModelId(1) => 0,
                ModelId(2) => 1,
                other => panic!("unexpected model {other}"),
            };
            assert_eq!(r.prefill_replica, expect, "prefill crossed tenants");
            assert_eq!(r.decode_replica, expect, "decode crossed tenants");
        }
        let per = &m.recovery().per_model;
        assert_eq!(per.len(), 2);
        for c in per {
            assert!(c.balanced());
            assert_eq!(c.submitted, 4);
            assert_eq!(c.completed, 4);
        }
        // the per-model views add back up to the aggregate
        let m1 = m.for_model(ModelId(1));
        let m2 = m.for_model(ModelId(2));
        assert_eq!(m1.num_completed() + m2.num_completed(), m.num_completed());
    }

    /// The served model of each tagged request in `log`, by request id.
    fn model_tags(log: &TraceLog) -> std::collections::BTreeMap<RequestId, ModelId> {
        log.events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::ModelTag { request, model } => Some((request, model)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn traces_tag_requests_with_their_model_only_when_tracking() {
        let mut d = multi_testbed_with([0.5, 0.5], |cfg| cfg.telemetry = true);
        let reqs = requests(4, alternating);
        d.run_with_faults(&reqs, &FaultScript::none()).unwrap();
        let log = d.take_trace().expect("telemetry was on");
        let tags = model_tags(&log);
        assert_eq!(tags.len(), 4, "every arrival carries exactly one tag");
        for r in &reqs {
            assert_eq!(tags.get(&r.id), Some(&r.model));
        }
        for model in [ModelId(1), ModelId(2)] {
            assert_eq!(tags.values().filter(|&&m| m == model).count(), 2);
        }

        // Single-model runs emit no tags at all, keeping traces identical to
        // pre-catalog builds.
        let mut legacy = testbed(|cfg| cfg.telemetry = true);
        let req = Request::new(RequestId(0), SimTime::ZERO, 256, 8);
        legacy
            .run_with_faults(&[req], &FaultScript::none())
            .unwrap();
        let log = legacy.take_trace().expect("telemetry was on");
        assert!(model_tags(&log).is_empty());
    }
}
