//! The shared event-loop driver.
//!
//! One discrete-event loop serves both serving topologies:
//!
//! * [`Topology::Split`] — phase-split replica pairs with KV transfer over
//!   the inter-replica fabric (the ThunderServe engine);
//! * [`Topology::Colocated`] — identical-role replicas serving both phases
//!   (the vLLM/HexGen-style baselines).
//!
//! The driver owns everything topology-agnostic: the event queue, the
//! routes (one [`StrideRouter`] per served model; see [`Route`]) and the
//! believed host liveness that masks them, per-request bookkeeping, the
//! admission/shed policy, and the whole fault layer (trigger → heartbeat
//! detection → drain/requeue/re-prefill → recovery accounting). Topology
//! state lives behind the enum and is only consulted where behaviour
//! genuinely differs (KV transfer exists only under `Split`, behind
//! `exec/kv.rs`; a work item serializes both phases only under
//! `Colocated`). Fault handling is
//! written once against the [`ReplicaExecutor`] trait, which is how the
//! colocated baselines get fault injection and [`RecoveryCounters`] for
//! free.
//!
//! # Performance architecture
//!
//! Three structural decisions keep the loop fast on day-scale traces
//! without changing a single output bit:
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
//! * **Decode-step coalescing.** One [`EventKind::DecodeStepDone`] is
//!   scheduled per planned decode *run* (a [`DecodePlan`]) instead of one
//!   per step; intermediate step boundaries are materialized retroactively
//!   (in bulk when telemetry is off) when an interrupt or the finish
//!   boundary needs the batch state. Each step time is priced once per
//!   replica, batch size and context into the replica's [`StepTables`]
//!   prefix sums, so a plan is an O(1) description and any boundary costs
//!   two lookups. The plan's *virtual push time* (`prev_boundary`, and
//!   [`DecodePlan::vpush`] for the in-progress step)
//!   reproduces the per-step schedule's `(at, seq, pushed_at)` ordering
//!   against genuinely simultaneous rival events, so the coalesced loop
//!   replays the exact same event interleaving the per-step loop would
//!   have. The per-step path survives as a compatibility mode
//!   ([`crate::config::SimConfig::decode_coalescing`] off, or straggler
//!   quarantine on — the detector needs per-step samples).

use super::executor::{
    ColocatedExecutor, DecodeExecutor, DecodeWork, DrainedWork, PrefillExecutor, ReplicaExecutor,
    Work,
};
#[cfg(doc)]
use super::executor::{DecodePlan, StepTables};
use super::kv::{KvTransport, Transfer};
use super::seq::{AdmitOutcome, Pending, PrefillJob, WaitingSeq};
use crate::config::{PrefillPolicy, SimConfig, STRAGGLER_MIN_SAMPLES};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{FaultKind, FaultScript, TimedFault};
use crate::metrics::{Metrics, ModelConservation, RecoveryCounters, RequestRecord};
use crate::router::StrideRouter;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use ts_cluster::Cluster;
use ts_common::{
    derive_seed, seeded_rng, DeploymentPlan, Error, GroupSpec, ModelId, Request, RequestId, Result,
    SimDuration, SimTime, Slab, SlabKey,
};
use ts_costmodel::ReplicaCostModel;
use ts_telemetry::{
    HealthState, PressureTally, Recorder, Role, StreamingPlane, TraceEvent, TraceKind, TraceLog,
    TraceSink,
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
    routes: Vec<Route>,
    /// The coordinator's belief about host liveness (hosts numbered as in
    /// [`GrayState`]): updated at fault *detection* (downs) and immediately
    /// on healing (ups). Routing masks follow beliefs, not ground truth —
    /// that is the detection window.
    believed_dead: Vec<bool>,
    pub(super) queue: EventQueue,
    /// Per-request state, slab-allocated; an entry lives from arrival to
    /// completion/drop/rejection.
    pub(super) reqs: Slab<ReqState>,
    records: Vec<RequestRecord>,
    dropped: usize,
    rejected: usize,
    pub(super) now: SimTime,
    faults: Vec<TimedFault>,
    pub(super) recovery_enabled: bool,
    /// Arrivals (and requeues) stalled because no live route exists or the
    /// service is paused; shed beyond `cfg.shed_threshold`.
    stalled: VecDeque<PrefillJob>,
    paused_until: Option<SimTime>,
    pub(super) recovery: RecoveryCounters,
    /// Requests affected by each fault (fault time, outstanding ids); a
    /// fault's time-to-recover is recorded when its set empties.
    affected: Vec<(SimTime, BTreeSet<RequestId>)>,
    /// Request-lifecycle trace recorder; `Some` iff
    /// [`SimConfig::telemetry`] is on. Instrumentation only observes —
    /// it never schedules events, draws randomness or mutates simulation
    /// state, so the `None` path stays bit-identical.
    trace: Option<Recorder>,
    /// Streaming observability plane; `Some` iff [`SimConfig::streaming`]
    /// is set. Fed the same event stream as the recorder but folds it
    /// online (sketches, windows, burn monitors) instead of buffering.
    /// Boxed: the plane is a few hundred bytes of aggregation state that
    /// would otherwise bloat every `Core` on the stack.
    stream: Option<Box<StreamingPlane>>,
    /// Per-replica pressure tally; `Some` iff [`SimConfig::pressure`] is
    /// on. Fed the same event stream, but it is not an [`observing`]
    /// consumer: it needs no retroactive decode replay.
    pressure: Option<PressureTally>,
    /// Gray-failure state, indexed by *host*: prefill replicas first, then
    /// decode replicas (colocated: the replica index). The RNG is drawn
    /// from only when a gray fault or a jitter knob is active, so the
    /// default path stays bit-identical.
    pub(super) gray: GrayState,
    /// Whether per-model conservation is tracked — true iff the catalog
    /// ([`SimConfig::models`]) is non-empty, so single-model runs carry
    /// zero extra bookkeeping and their [`RecoveryCounters`] stay
    /// byte-identical.
    track_models: bool,
    /// Per-model (dropped, rejected) counts, folded into
    /// [`RecoveryCounters::per_model`] at the end of the run. Untouched
    /// when `track_models` is off.
    model_losses: HashMap<ModelId, (usize, usize)>,
    /// The run's arrival trace, sorted by `(arrival, original order)`;
    /// merged lazily against the event queue instead of being heap
    /// entries.
    arrivals: Vec<Request>,
    /// Cursor into `arrivals`.
    next_arrival: usize,
    /// Count of occurrences dispatched (arrivals + queued events) — the
    /// denominator of the events/sec benchmark.
    events_processed: u64,
    /// `pushed_at` stamp of the occurrence being dispatched (zero for
    /// arrivals); consulted by the coalesced-decode tie rule.
    event_pushed_at: SimTime,
    /// Latest fire time folded in from cancelled decode-plan events and,
    /// at the end of the run, from the fabric's superseded completion
    /// estimates. The makespan counts these cancelled fire times; the
    /// per-step loop popped such events and advanced `now` past them.
    phantom_horizon: SimTime,
    /// Coalesced decode finish events deferred behind a same-instant rival
    /// (replica, original seq, original pushed_at), newest last. A stack,
    /// not an `Option`: a rival dispatched inline may itself defer.
    held_decode: Vec<(usize, u64, SimTime)>,
    /// Recycled buffer for one admission pass's decisions.
    admit_buf: Vec<AdmitOutcome>,
    /// Recycled buffer for the sequences one decode step finishes.
    finished_buf: Vec<(SlabKey, SimDuration)>,
}

/// Per-host gray-failure bookkeeping: flaky-heartbeat masking, straggler
/// detection EWMAs and quarantine state, plus the seeded RNG every
/// stochastic mitigation decision (beat loss, retry jitter) draws from.
pub(super) struct GrayState {
    /// Seeded RNG for beat-loss draws and retry jitter; deterministic per
    /// [`SimConfig::fault_seed`].
    pub(super) rng: StdRng,
    /// Number of prefill-only hosts — decode replica `j` is host
    /// `prefill_hosts + j`. Zero when colocated, where replica `k` is host
    /// `k` in either role.
    prefill_hosts: usize,
    /// Per-host heartbeat loss probability (0 = healthy).
    flaky: Vec<f64>,
    /// Hosts currently masked out of routing by a missed beat.
    flaky_dead: Vec<bool>,
    /// Hosts with a pending [`EventKind::FlakyBeat`] event (beats stop
    /// rescheduling when no requests are outstanding, and restart on the
    /// next arrival, so the event queue always drains).
    flaky_scheduled: Vec<bool>,
    /// Whether any host has a nonzero loss probability (cheap arrival-path
    /// guard).
    flaky_any: bool,
    /// Hosts quarantined by the straggler detector.
    quarantined: Vec<bool>,
    /// Earliest readmission time per quarantined host; probes scheduled
    /// before a later re-quarantine see a larger value and go stale.
    quarantine_until: Vec<Option<SimTime>>,
    /// EWMA of the observed/expected iteration-time ratio per host.
    slow_ewma: Vec<f64>,
    /// Completed-iteration samples feeding the EWMA per host.
    slow_samples: Vec<u32>,
    /// Heartbeat window, copied from the fault script at run start (one
    /// [`EventKind::FlakyBeat`] fires per window).
    beat_period: SimDuration,
}

impl GrayState {
    fn new(seed: u64, prefill_hosts: usize, total_hosts: usize) -> Self {
        GrayState {
            rng: seeded_rng(derive_seed(seed, 0x6772_6179)),
            prefill_hosts,
            flaky: vec![0.0; total_hosts],
            flaky_dead: vec![false; total_hosts],
            flaky_scheduled: vec![false; total_hosts],
            flaky_any: false,
            quarantined: vec![false; total_hosts],
            quarantine_until: vec![None; total_hosts],
            slow_ewma: vec![1.0; total_hosts],
            slow_samples: vec![0; total_hosts],
            beat_period: SimDuration::ZERO,
        }
    }

    /// Whether routing must avoid `host` (missed beat or quarantine).
    fn masked(&self, host: usize) -> bool {
        self.flaky_dead[host] || self.quarantined[host]
    }
}

/// One tenant's routing state: its requests draw their (prefill, decode)
/// pair from its own stride router over its own replicas, so tenants on a
/// shared pool never leak requests into each other's executors. A
/// single-model plan is one route over the aggregate matrix; a colocated
/// driver is one route over its replicas, with pairs `(k, k)`.
pub(crate) struct Route {
    model: ModelId,
    router: StrideRouter,
    /// (prefill, decode) replica coordinates per router index, in the
    /// *global* replica numbering of the plan.
    pairs: Vec<(usize, usize)>,
}

/// Phase-split topology state: prefill/decode executor pools plus the KV
/// transport between them.
pub(crate) struct SplitState {
    prefills: Vec<PrefillExecutor>,
    decodes: Vec<DecodeExecutor>,
    pub(super) kv: KvTransport,
    /// Transfers whose target died with no live alternative; re-dispatched
    /// when a decode replica comes back.
    parked: Vec<Transfer>,
    /// Model served by each prefill replica (plan group order).
    prefill_model: Vec<ModelId>,
    /// Model served by each decode replica.
    decode_model: Vec<ModelId>,
}

/// Colocated topology state: one executor pool serving both phases. The
/// fault script's `PrefillDown(i)`/`DecodeDown(i)` both mean "replica `i`
/// dies" here (and symmetrically for `*Up`); link faults are rejected
/// because there is no inter-replica fabric.
pub(crate) struct ColoState {
    replicas: Vec<ColocatedExecutor>,
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
    fn executor(&mut self, prefill: bool, i: usize) -> &mut dyn ReplicaExecutor {
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
    core: Core,
    topo: Topology,
}

/// Whether coalesced decode plans are active: the config knob is on and no
/// straggler quarantine demands per-step iteration samples.
fn coalescing_active(core: &Core) -> bool {
    core.cfg.decode_coalescing && core.cfg.quarantine.is_none()
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
            prefills.push(PrefillExecutor::new(
                ReplicaCostModel::new(
                    cluster,
                    cfg.spec_for(plan.groups[gi].model),
                    &plan.groups[gi],
                    &cfg.params,
                )?,
                cfg.prefill_policy,
            ));
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
        // One route per served model. A legacy plan's single route runs
        // over the aggregate matrix, whose coordinates are already global.
        let mut routes = Vec::new();
        for m in plan.models() {
            let routing = plan.routing_for(m).ok_or_else(|| {
                Error::InvalidConfig(format!("model {m} has no routing in the plan"))
            })?;
            let (router, local) = StrideRouter::from_matrix(routing.rates())?;
            let pairs = if plan.is_multi_model() {
                let pidx = plan.prefill_indices_for(m);
                let didx = plan.decode_indices_for(m);
                let to_global = |own: &[usize], all: &[usize], li: usize| -> Result<usize> {
                    all.iter().position(|&g| g == own[li]).ok_or_else(|| {
                        Error::InvalidConfig(format!(
                            "model {m} routes over a group not in the plan"
                        ))
                    })
                };
                local
                    .iter()
                    .map(|&(li, lj)| {
                        Ok((
                            to_global(&pidx, &prefill_idx, li)?,
                            to_global(&didx, &decode_idx, lj)?,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?
            } else {
                local
            };
            routes.push(Route {
                model: m,
                router,
                pairs,
            });
        }
        let kv = KvTransport::new(cluster, &cfg, plan, &prefills, &decodes, &prefill_model);
        let (np, nd) = (prefills.len(), decodes.len());
        Ok(Driver {
            core: Core::new(cfg, routes, np, np + nd),
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
            replicas.push(ColocatedExecutor::new(cost, cfg.prefill_policy));
        }
        let n = replicas.len();
        let route = Route {
            model: ModelId(0),
            router: StrideRouter::new(weights)?,
            pairs: (0..n).map(|k| (k, k)).collect(),
        };
        Ok(Driver {
            core: Core::new(cfg, vec![route], 0, n),
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

    /// Runs the trace with mid-flight fault injection. With an empty
    /// script this is a plain (fault-free) run.
    pub fn run_with_faults(
        &mut self,
        requests: &[Request],
        script: &FaultScript,
    ) -> Result<Metrics> {
        self.validate_script(script)?;
        if let Some(r) = requests
            .iter()
            .find(|r| self.core.route_of(r.model).is_none())
        {
            return Err(Error::InvalidConfig(format!(
                "request {} is for {}, which the plan does not serve",
                r.id, r.model
            )));
        }
        self.core.faults = script.faults.clone();
        self.core.recovery_enabled = script.recovery;
        self.core.gray.beat_period = script.detection_delay;

        // Arrivals are merged lazily from this sorted vector instead of
        // being heap entries. The stable sort keeps submission order among
        // simultaneous arrivals — the seq order the eager pushes gave them.
        self.core.arrivals = requests.to_vec();
        self.core.arrivals.sort_by_key(|r| r.arrival);
        self.core.next_arrival = 0;
        for (idx, f) in self.core.faults.iter().enumerate() {
            self.core
                .queue
                .push(f.at, EventKind::FaultTriggered { index: idx });
            // Detection only matters for deaths, and only when the engine
            // actually recovers; healing and pauses act at trigger time.
            let needs_detection =
                matches!(f.kind, FaultKind::PrefillDown(_) | FaultKind::DecodeDown(_));
            if needs_detection && script.recovery {
                self.core.queue.push(
                    f.at + script.detection_delay,
                    EventKind::FaultDetected { index: idx },
                );
            }
        }
        let submitted = requests.len();
        while let Some(next) = self.core.next_event() {
            match next {
                NextEvent::Arrival(req) => self.on_arrival(req),
                NextEvent::Queued(ev) => self.dispatch_event(ev)?,
            }
        }
        // Anything still in the system when events run dry was lost to a
        // fault it never recovered from (stalled, parked, frozen on a dead
        // replica).
        let leftovers = self.core.reqs.drain();
        if self.core.track_models {
            for (_, st) in &leftovers {
                self.core.model_losses.entry(st.req.model).or_default().0 += 1;
            }
        }
        self.core.dropped += leftovers.len();
        drop(leftovers);
        if self.core.records.len() + self.core.dropped + self.core.rejected != submitted {
            return Err(Error::Simulation(format!(
                "conservation violated: {} completed + {} dropped + {} rejected != {} submitted",
                self.core.records.len(),
                self.core.dropped,
                self.core.rejected,
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
            for (&m, &(dropped, rejected)) in &self.core.model_losses {
                let c = per.entry(m).or_insert_with(|| blank(m));
                c.dropped += dropped;
                c.rejected += rejected;
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
            self.core.model_losses.clear();
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
            self.core.dropped,
            self.core.rejected,
            horizon,
            std::mem::take(&mut self.core.recovery),
        ))
    }

    /// Dispatches one queued event to its handler.
    fn dispatch_event(&mut self, ev: Event) -> Result<()> {
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
                    colo_on_work_done(core, c, replica)?;
                }
            }
            EventKind::FaultTriggered { index } => self.on_fault_triggered(index)?,
            EventKind::FaultDetected { index } => self.on_fault_detected(index),
            EventKind::ServiceResumed => self.on_service_resumed(),
            EventKind::HedgeCheck { request } => {
                let (core, s) = self.split("HedgeCheck")?;
                split_on_hedge_check(core, s, request);
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

    /// Takes the streaming observability plane (sketches, windows, burn
    /// monitors) accumulated over the run; `None` when
    /// [`SimConfig::streaming`] is off. The plane's window clock stops at
    /// the last observed event — call
    /// [`StreamingPlane::advance_to`] to close windows out to a horizon.
    pub fn take_streaming(&mut self) -> Option<Box<StreamingPlane>> {
        self.core.stream.take()
    }

    /// Read access to the live streaming plane mid-run, `None` when
    /// [`SimConfig::streaming`] is off.
    pub fn streaming(&self) -> Option<&StreamingPlane> {
        self.core.stream.as_deref()
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

    fn validate_script(&self, script: &FaultScript) -> Result<()> {
        let factor_ok = |f: f64| f.is_finite() && f >= 1.0;
        let prob_ok = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        // A colocated replica is both the prefill and the decode replica of
        // its index.
        let (np, nd, colocated) = match &self.topo {
            Topology::Split(s) => (s.prefills.len(), s.decodes.len(), false),
            Topology::Colocated(c) => (c.replicas.len(), c.replicas.len(), true),
        };
        let hosts = self.core.believed_dead.len();
        for f in &script.faults {
            let ok = match f.kind {
                FaultKind::PrefillDown(i) | FaultKind::PrefillUp(i) => i < np,
                FaultKind::DecodeDown(j) | FaultKind::DecodeUp(j) => j < nd,
                FaultKind::LinkDown { .. }
                | FaultKind::LinkUp { .. }
                | FaultKind::LinkDegraded { .. }
                    if colocated =>
                {
                    return Err(Error::InvalidConfig(
                        "colocated replicas have no inter-replica links to fault".into(),
                    ))
                }
                FaultKind::LinkDown { prefill, decode } | FaultKind::LinkUp { prefill, decode } => {
                    prefill < np && decode < nd
                }
                FaultKind::Pause { .. } => true,
                FaultKind::PrefillSlow(i, factor) => i < np && factor_ok(factor),
                FaultKind::DecodeSlow(j, factor) => j < nd && factor_ok(factor),
                FaultKind::LinkDegraded {
                    prefill,
                    decode,
                    factor,
                } => prefill < np && decode < nd && factor_ok(factor),
                FaultKind::HeartbeatFlaky(h, p) => {
                    // Flaky heartbeats fire one beat event per detection
                    // window; a zero window would self-reschedule at the
                    // same instant forever.
                    if p > 0.0 && script.detection_delay == SimDuration::ZERO {
                        return Err(Error::InvalidConfig(
                            "HeartbeatFlaky requires a nonzero detection_delay (the beat window)"
                                .into(),
                        ));
                    }
                    h < hosts && prob_ok(p)
                }
            };
            if !ok {
                return Err(Error::InvalidConfig(format!(
                    "fault references a replica outside the plan \
                     or carries an invalid factor: {:?}",
                    f.kind
                )));
            }
        }
        Ok(())
    }

    fn on_arrival(&mut self, req: Request) {
        let (id, model) = (req.id, req.model);
        let key = self.core.reqs.insert(ReqState::new(req));
        trace(&mut self.core, TraceKind::Arrived { request: id });
        if self.core.track_models {
            trace(&mut self.core, TraceKind::ModelTag { request: id, model });
        }
        // Flaky heartbeat beats pause while no requests are outstanding (so
        // the event queue can drain); restart them with the new work.
        if self.core.gray.flaky_any {
            for node in 0..self.core.gray.flaky.len() {
                if self.core.gray.flaky[node] > 0.0 && !self.core.gray.flaky_scheduled[node] {
                    self.core.gray.flaky_scheduled[node] = true;
                    let at = self.core.now + self.core.gray.beat_period;
                    self.core.queue.push(at, EventKind::FlakyBeat { node });
                }
            }
        }
        let job = PrefillJob::fresh(key, &self.core.reqs[key].req);
        self.dispatch_job(job);
    }

    /// Routes a job to a live destination (a (prefill, decode) pair under
    /// `Split`, a replica under `Colocated`), or stalls/sheds it if the
    /// service is paused or no live route exists.
    fn dispatch_job(&mut self, job: PrefillJob) {
        let Some(st) = self.core.reqs.get(job.key) else {
            return;
        };
        let (rid, model, arrival) = (st.req.id, st.req.model, st.req.arrival);
        // SLO-class-aware shedding: a request whose TTFT deadline already
        // passed before its prefill could even be dispatched (it sat
        // stalled through a pause or dead-router window, or is being
        // requeued after a fault) is not worth serving. Fires only for
        // delayed dispatches — at arrival `now == arrival`, so an
        // on-time request is never shed. Re-prefills of sequences that
        // already produced their first token are exempt: their TTFT was
        // met.
        if let Some(d) = self.core.cfg.deadline {
            let ttft_met = st.pend.first_token_at.is_some();
            let deadline = arrival + d.slo.ttft.mul_f64(d.scale);
            if !ttft_met && self.core.now > deadline {
                reject_request(&mut self.core, job.key);
                self.core.recovery.deadline_shed += 1;
                trace(&mut self.core, TraceKind::DeadlineShed { request: rid });
                clear_affected(&mut self.core, rid);
                return;
            }
        }
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
        let (i, j) = route.pairs[route.router.next()];
        match topo {
            Topology::Split(s) => {
                if let Some(st) = core.reqs.get_mut(job.key) {
                    st.pend.prefill = i;
                    st.pend.decode = j;
                }
                let key = job.key;
                s.prefills[i].queue.enqueue(job);
                trace(
                    core,
                    TraceKind::Enqueued {
                        request: rid,
                        role: Role::Prefill,
                        replica: i,
                    },
                );
                trace(
                    core,
                    TraceKind::QueueDepth {
                        role: Role::Prefill,
                        replica: i,
                        depth: s.prefills[i].queue.queue.len(),
                    },
                );
                split_maybe_start_prefill(core, s, i);
                if let Some(h) = core.cfg.hedge {
                    core.queue
                        .push(core.now + h.timeout, EventKind::HedgeCheck { request: key });
                }
            }
            Topology::Colocated(c) => {
                if let Some(st) = core.reqs.get_mut(job.key) {
                    st.pend.prefill = i;
                    st.pend.decode = i;
                }
                c.replicas[i].prefill.enqueue(job);
                trace(
                    core,
                    TraceKind::Enqueued {
                        request: rid,
                        role: Role::Colocated,
                        replica: i,
                    },
                );
                trace(
                    core,
                    TraceKind::QueueDepth {
                        role: Role::Colocated,
                        replica: i,
                        depth: c.replicas[i].prefill.queue.len(),
                    },
                );
                colo_maybe_start_work(core, c, i);
            }
        }
    }

    // --- fault layer ------------------------------------------------------

    /// Applies a fault at its trigger time. A colocated replica hosts both
    /// phases, so either phase's fault (death, healing, slowdown) is the
    /// whole replica's.
    fn on_fault_triggered(&mut self, index: usize) -> Result<()> {
        trace(&mut self.core, TraceKind::FaultTriggered { index });
        match self.core.faults[index].kind {
            FaultKind::Pause { until } => {
                if until > self.core.now {
                    self.core.paused_until = Some(until);
                    self.core.queue.push(until, EventKind::ServiceResumed);
                }
            }
            // The host index already encodes the prefill/decode split.
            FaultKind::HeartbeatFlaky(node, p) => self.set_flaky(node, p),
            FaultKind::PrefillDown(i) => self.topo.executor(true, i).kill(),
            FaultKind::DecodeDown(j) => {
                if let Topology::Split(s) = &mut self.topo {
                    // The batch must freeze at its materially-advanced
                    // state: step boundaries strictly before the fault did
                    // complete under the per-step loop (their events were
                    // pre-death and current). The in-flight step dies with
                    // the replica; its scheduled fire time is folded into
                    // the phantom horizon because the per-step loop would
                    // still have popped (and advanced `now` past) the
                    // stale event.
                    split_catch_up_decode(&mut self.core, s, j);
                    split_cancel_decode_plan(&mut self.core, s, j);
                }
                self.topo.executor(false, j).kill();
            }
            FaultKind::PrefillUp(i) => self.on_replica_up(true, i),
            FaultKind::DecodeUp(j) => self.on_replica_up(false, j),
            FaultKind::PrefillSlow(i, factor) => match &mut self.topo {
                Topology::Split(s) => s.prefills[i].slow_factor = factor,
                Topology::Colocated(c) => c.replicas[i].slow_factor = factor,
            },
            FaultKind::DecodeSlow(j, factor) => match &mut self.topo {
                Topology::Split(s) => {
                    // A coalesced plan priced its remaining boundaries at
                    // the old speed; the per-step loop would have priced
                    // every step after the in-flight one at the new speed.
                    // Catch up, apply the factor, and re-plan carrying the
                    // already-committed in-flight boundary.
                    split_catch_up_decode(&mut self.core, s, j);
                    s.decodes[j].slow_factor = factor;
                    if coalescing_active(&self.core) && s.decodes[j].plan.is_some() {
                        split_replan_decode(&mut self.core, s, j);
                    }
                }
                Topology::Colocated(c) => c.replicas[j].slow_factor = factor,
            },
            FaultKind::LinkDown { prefill, decode } => {
                let (core, s) = self.split("LinkDown")?;
                s.kv.link_down(core, prefill, decode);
            }
            FaultKind::LinkUp { prefill, decode } => {
                let (_, s) = self.split("LinkUp")?;
                s.kv.link_up(prefill, decode);
            }
            FaultKind::LinkDegraded {
                prefill,
                decode,
                factor,
            } => {
                let (core, s) = self.split("LinkDegraded")?;
                s.kv.degrade(core, prefill, decode, factor);
            }
        }
        Ok(())
    }

    /// Heals replica `i` (a prefill replica when `prefill`, else a decode
    /// replica). Work frozen at death never re-runs on its own (its
    /// completion events are stale), so it is restarted or declared lost;
    /// decode sequences frozen at death lost their KV either way.
    fn on_replica_up(&mut self, prefill: bool, i: usize) {
        if let (false, Topology::Split(s)) = (prefill, &mut self.topo) {
            // Healing an *alive* decode replica (an Up without a Down)
            // still bumps the epoch and clears the plan, so settle the plan
            // first exactly as a death would.
            split_catch_up_decode(&mut self.core, s, i);
            split_cancel_decode_plan(&mut self.core, s, i);
        }
        let replica = self.topo.executor(prefill, i);
        replica.revive(self.core.now);
        let drained = replica.drain_lost();
        let host = self.core.host_of(prefill, i);
        self.core.believed_dead[host] = false;
        refresh_router(&mut self.core);
        if !self.core.recovery_enabled {
            self.drop_drained(drained);
            return;
        }
        self.recover_drained(drained, None);
        if let (false, Topology::Split(s)) = (prefill, &mut self.topo) {
            for t in std::mem::take(&mut s.parked) {
                split_redispatch_transfer(&mut self.core, s, t);
            }
        }
        self.drain_stalled();
    }

    /// A death is detected: the coordinator masks the replica out of
    /// routing and recovers its frozen work onto survivors.
    fn on_fault_detected(&mut self, index: usize) {
        trace(&mut self.core, TraceKind::FaultDetected { index });
        let TimedFault { at, kind } = self.core.faults[index];
        let (prefill, i) = match kind {
            FaultKind::PrefillDown(i) => (true, i),
            FaultKind::DecodeDown(j) => (false, j),
            _ => return,
        };
        let replica = self.topo.executor(prefill, i);
        if replica.is_alive() {
            return; // blipped back up before detection; healed already
        }
        let drained = replica.drain_lost();
        let host = self.core.host_of(prefill, i);
        self.core.believed_dead[host] = true;
        refresh_router(&mut self.core);
        self.recover_drained(drained, Some(at));
    }

    /// Recovers drained work onto survivors: queued/in-flight prefill jobs
    /// are requeued as-is, lost decode sequences are re-prefilled over
    /// their full context. `fault_at` registers the affected set for
    /// time-to-recover accounting (detection path only). Jobs whose slab
    /// entry is gone (a hedge ghost of a request that already resolved)
    /// are dropped on the floor.
    fn recover_drained(&mut self, drained: DrainedWork, fault_at: Option<SimTime>) {
        let mut jobs: Vec<PrefillJob> = Vec::new();
        for job in drained.prefill_jobs {
            let Some(st) = self.core.reqs.get(job.key) else {
                continue;
            };
            let rid = st.req.id;
            self.core.recovery.requeued_requests += 1;
            trace(&mut self.core, TraceKind::Requeued { request: rid });
            jobs.push(job);
        }
        for lost in drained.lost_seqs {
            let Some(st) = self.core.reqs.get(lost.key) else {
                continue;
            };
            let rid = st.req.id;
            self.core.recovery.reprefilled_tokens += lost.tokens;
            trace(
                &mut self.core,
                TraceKind::Reprefill {
                    request: rid,
                    tokens: lost.tokens,
                },
            );
            jobs.push(PrefillJob {
                key: lost.key,
                tokens: lost.tokens,
                remaining: lost.remaining,
                resume: lost.resume,
            });
        }
        if let Some(at) = fault_at {
            let ids: BTreeSet<RequestId> = jobs
                .iter()
                .filter_map(|j| self.core.reqs.get(j.key).map(|st| st.req.id))
                .collect();
            if !ids.is_empty() {
                self.core.affected.push((at, ids));
            }
        }
        for job in &jobs {
            // A requeued/re-prefilled job must be able to launch its KV
            // transfer again: clear the hedging duplicate-launch guard, or
            // the recovered prefill's completion would be discarded.
            if let Some(st) = self.core.reqs.get_mut(job.key) {
                st.pend.kv_launched = false;
                st.pend.hedge = None;
            }
        }
        for job in jobs {
            self.dispatch_job(job);
        }
    }

    /// Drops drained work without recovery (the no-recovery arm of a
    /// healing event: the work was lost for good).
    fn drop_drained(&mut self, drained: DrainedWork) {
        for job in drained.prefill_jobs {
            drop_request(&mut self.core, job.key);
        }
        for lost in drained.lost_seqs {
            if self.core.reqs.contains(lost.key) {
                drop_request(&mut self.core, lost.key);
            }
        }
    }

    fn drain_stalled(&mut self) {
        let routable = self.core.routes.iter().any(|r| r.router.num_enabled() > 0);
        if self.core.paused_until.is_some() || !routable {
            return;
        }
        let stalled = std::mem::take(&mut self.core.stalled);
        for job in stalled {
            self.dispatch_job(job);
        }
    }

    fn on_service_resumed(&mut self) {
        // Pauses can be extended by a later Pause fault; only resume at the
        // latest deadline.
        if let Some(until) = self.core.paused_until {
            if until > self.core.now {
                return;
            }
        }
        self.core.paused_until = None;
        trace(&mut self.core, TraceKind::ServiceResumed);
        self.drain_stalled();
    }

    // --- gray-failure mitigation layer -----------------------------------

    /// The telemetry (role, replica) of host `node` under this topology.
    fn host_role(&self, node: usize) -> (Role, usize) {
        let prefill_hosts = self.core.gray.prefill_hosts;
        match &self.topo {
            Topology::Split(_) if node < prefill_hosts => (Role::Prefill, node),
            Topology::Split(_) => (Role::Decode, node - prefill_hosts),
            Topology::Colocated(_) => (Role::Colocated, node),
        }
    }

    /// Applies a [`FaultKind::HeartbeatFlaky`] trigger: records the loss
    /// probability, starts the beat clock if needed, and — on healing —
    /// readmits a host stuck masked by a false positive.
    fn set_flaky(&mut self, node: usize, p: f64) {
        self.core.gray.flaky[node] = p;
        if p > 0.0 {
            self.core.gray.flaky_any = true;
            if !self.core.gray.flaky_scheduled[node] {
                self.core.gray.flaky_scheduled[node] = true;
                let at = self.core.now + self.core.gray.beat_period;
                self.core.queue.push(at, EventKind::FlakyBeat { node });
            }
        } else {
            self.core.gray.flaky_any = self.core.gray.flaky.iter().any(|&q| q > 0.0);
            if self.core.gray.flaky_dead[node] {
                self.readmit_flaky(node);
            }
        }
    }

    /// One heartbeat window elapsed for `node`: draw whether the beat was
    /// lost and mask/readmit accordingly, then reschedule while requests
    /// remain (beats pause on an idle system so the event queue drains;
    /// [`Driver::on_arrival`] restarts them).
    fn on_flaky_beat(&mut self, node: usize) {
        let p = self.core.gray.flaky[node];
        if p <= 0.0 {
            self.core.gray.flaky_scheduled[node] = false;
            return;
        }
        let lost = self.core.gray.rng.gen_range(0.0..1.0) < p;
        if lost && !self.core.gray.flaky_dead[node] {
            self.core.gray.flaky_dead[node] = true;
            self.core.recovery.quarantines += 1;
            let (role, replica) = self.host_role(node);
            trace(&mut self.core, TraceKind::Quarantined { role, replica });
            refresh_router(&mut self.core);
        } else if !lost && self.core.gray.flaky_dead[node] {
            self.readmit_flaky(node);
        }
        if self.core.reqs.is_empty() {
            self.core.gray.flaky_scheduled[node] = false;
            return;
        }
        let at = self.core.now + self.core.gray.beat_period;
        self.core.queue.push(at, EventKind::FlakyBeat { node });
    }

    /// A delivered beat (or a healing fault) readmits a host masked by a
    /// flaky-heartbeat false positive.
    fn readmit_flaky(&mut self, node: usize) {
        self.core.gray.flaky_dead[node] = false;
        self.core.recovery.readmissions += 1;
        let (role, replica) = self.host_role(node);
        trace(&mut self.core, TraceKind::Readmitted { role, replica });
        refresh_router(&mut self.core);
        if self.core.recovery_enabled {
            self.drain_stalled();
        }
    }

    /// A quarantine probation ended: readmit the replica unless a later
    /// re-quarantine pushed its expiry out (stale probe). The straggler
    /// detector restarts from scratch — if the replica is still slow it
    /// re-quarantines after [`STRAGGLER_MIN_SAMPLES`] fresh iterations.
    fn on_readmit_probe(&mut self, prefill: bool, replica: usize) {
        let host = self.core.host_of(prefill, replica);
        let Some(until) = self.core.gray.quarantine_until[host] else {
            return;
        };
        if self.core.now < until {
            return; // superseded by a re-quarantine
        }
        self.core.gray.quarantined[host] = false;
        self.core.gray.quarantine_until[host] = None;
        self.core.gray.slow_ewma[host] = 1.0;
        self.core.gray.slow_samples[host] = 0;
        self.core.recovery.readmissions += 1;
        let (role, replica) = self.host_role(host);
        trace(&mut self.core, TraceKind::Readmitted { role, replica });
        refresh_router(&mut self.core);
        if self.core.recovery_enabled {
            self.drain_stalled();
        }
    }
}

impl Core {
    fn new(cfg: SimConfig, routes: Vec<Route>, prefill_hosts: usize, total_hosts: usize) -> Self {
        let trace = cfg.telemetry.then(Recorder::new);
        let pressure = cfg.pressure.then(PressureTally::new);
        let stream = cfg.streaming.clone().map(|sc| {
            let mut plane = StreamingPlane::new(sc);
            for m in &cfg.models {
                plane.register_tenant(m.id, m.slo);
            }
            Box::new(plane)
        });
        let gray = GrayState::new(cfg.fault_seed, prefill_hosts, total_hosts);
        let track_models = !cfg.models.is_empty();
        Core {
            cfg,
            routes,
            believed_dead: vec![false; total_hosts],
            queue: EventQueue::new(),
            reqs: Slab::new(),
            records: Vec::new(),
            dropped: 0,
            rejected: 0,
            now: SimTime::ZERO,
            faults: Vec::new(),
            recovery_enabled: true,
            stalled: VecDeque::new(),
            paused_until: None,
            recovery: RecoveryCounters::default(),
            affected: Vec::new(),
            trace,
            stream,
            pressure,
            gray,
            track_models,
            model_losses: HashMap::new(),
            arrivals: Vec::new(),
            next_arrival: 0,
            events_processed: 0,
            event_pushed_at: SimTime::ZERO,
            phantom_horizon: SimTime::ZERO,
            held_decode: Vec::new(),
            admit_buf: Vec::new(),
            finished_buf: Vec::new(),
        }
    }

    /// Pops the next occurrence — the cursor arrival or the queue head,
    /// whichever is earlier — advancing the clock and stamping
    /// [`Core::event_pushed_at`]. Ties go to the arrival: under the eager
    /// scheme arrivals were pushed at setup, before any simulation event,
    /// so they carried the smaller sequence numbers.
    fn next_event(&mut self) -> Option<NextEvent> {
        let arrival = self.arrivals.get(self.next_arrival).map(|r| r.arrival);
        let queued = self.queue.peek().map(|e| e.at);
        let take_arrival = match (arrival, queued) {
            (Some(a), Some(q)) => a <= q,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_arrival {
            let req = self.arrivals[self.next_arrival];
            self.next_arrival += 1;
            debug_assert!(req.arrival >= self.now, "arrival in the past");
            self.now = req.arrival;
            self.queue.set_now(self.now);
            self.event_pushed_at = SimTime::ZERO;
            self.events_processed += 1;
            Some(NextEvent::Arrival(req))
        } else {
            let ev = self.queue.pop()?;
            debug_assert!(ev.at >= self.now, "event in the past");
            self.now = ev.at;
            self.queue.set_now(self.now);
            self.event_pushed_at = ev.pushed_at;
            self.events_processed += 1;
            Some(NextEvent::Queued(ev))
        }
    }

    /// Removes and returns the deferred decode-finish stamp for replica
    /// `j`, if one is held.
    fn take_held_decode(&mut self, j: usize) -> Option<(u64, SimTime)> {
        let pos = self.held_decode.iter().position(|h| h.0 == j)?;
        let (_, seq, pushed_at) = self.held_decode.swap_remove(pos);
        Some((seq, pushed_at))
    }

    /// The host index of a replica (prefills first, then decodes; colocated
    /// hosts and replicas coincide whatever the `prefill` flag).
    fn host_of(&self, prefill: bool, replica: usize) -> usize {
        if prefill {
            replica
        } else {
            self.gray.prefill_hosts + replica
        }
    }

    /// The route serving requests for `model`: the only route of a
    /// one-route plan whatever the model, otherwise that tenant's route;
    /// `None` when a multi-model plan does not serve `model`.
    fn route_of(&self, model: ModelId) -> Option<usize> {
        if self.routes.len() == 1 {
            return Some(0);
        }
        self.routes.iter().position(|r| r.model == model)
    }
}

/// Records a trace event at the current simulation time; a no-op of a few
/// branches when every consumer is off.
#[inline]
pub(super) fn trace(core: &mut Core, kind: TraceKind) {
    let at = core.now;
    trace_at(core, at, kind);
}

/// Records a trace event stamped at `at`, which may lie in the future (a
/// KV wire start scheduled behind a busy uplink); the recorder re-sorts by
/// timestamp at finalization, while the streaming plane folds in event
/// order (its window clock advances on a high-water mark, so a future
/// stamp just opens the window early — deterministically). The pressure
/// tally folds in event order too; the samples it reads (queue depth,
/// batch occupancy) are always stamped at or before `now`, in order per
/// replica.
#[inline]
pub(super) fn trace_at(core: &mut Core, at: SimTime, kind: TraceKind) {
    if let Some(tally) = core.pressure.as_mut() {
        tally.observe(at, &kind);
    }
    if let Some(plane) = core.stream.as_mut() {
        plane.observe(at, &kind);
    }
    if let Some(rec) = core.trace.as_mut() {
        rec.record(TraceEvent { at, kind });
    }
}

/// Whether any per-event consumer (trace recorder or streaming plane) is
/// attached — the gate for observation-only work the pressure tally does
/// not need: retroactive decode materialization, which re-emits each
/// coalesced step's unchanged batch occupancy.
fn observing(core: &Core) -> bool {
    core.trace.is_some() || core.stream.is_some()
}

/// Whether any consumer of queue-depth samples (recorder, streaming plane
/// or pressure tally) is attached — the gate for sites that must read a
/// queue length only to emit its sample.
fn sampling(core: &Core) -> bool {
    observing(core) || core.pressure.is_some()
}

/// Whether the full trace recorder is attached. Emission sites whose
/// events the streaming plane ignores (prefill-start markers, KV wire
/// byte accounting, stall markers) gate on this instead of [`observing`],
/// so a streaming-only run skips constructing them entirely — part of
/// keeping the plane's overhead within the committed `BENCH_obs.json`
/// budget.
pub(super) fn tracing(core: &Core) -> bool {
    core.trace.is_some()
}

/// Whether burn-gated hedging currently *suppresses* a hedge launch: the
/// gate is on and the streaming plane reports fully healthy SLO burn.
/// Ungated hedging (the default) is untouched and bit-identical.
fn hedge_suppressed(core: &Core) -> bool {
    if !core.cfg.hedge.is_some_and(|h| h.burn_gated) {
        return false;
    }
    match core.stream.as_deref() {
        Some(plane) => plane.global_signal().state == HealthState::Healthy,
        None => false,
    }
}

// --- topology-agnostic helpers (free functions over Core) ----------------

/// Removes `key` from the slab and books the loss as a rejection (counted
/// per-model when the catalog is non-empty). The trace event and any
/// policy-specific accounting stay with the caller, which knows *why* the
/// request was rejected. A dead key is a no-op: the loss was already
/// booked when the entry went away.
fn reject_request(core: &mut Core, key: SlabKey) {
    let Some(st) = core.reqs.remove(key) else {
        return;
    };
    if core.track_models {
        core.model_losses.entry(st.req.model).or_default().1 += 1;
    }
    core.rejected += 1;
}

fn stall_or_shed(core: &mut Core, job: PrefillJob) {
    if core.stalled.len() < core.cfg.shed_threshold {
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
    if core.track_models {
        core.model_losses.entry(st.req.model).or_default().0 += 1;
    }
    core.dropped += 1;
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

/// Applies one admission pass's decisions, in order: evictions become
/// drops, admissions resolve fault-recovery tracking (and, under
/// telemetry, mark the sequence's decode-batch join on `replica`).
/// Returns whether anything was admitted.
fn apply_admit_outcomes(
    core: &mut Core,
    outcomes: &[AdmitOutcome],
    role: Role,
    replica: usize,
) -> bool {
    let mut admitted = false;
    for &o in outcomes {
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
    admitted
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

// --- split-topology handlers ---------------------------------------------

fn split_maybe_start_prefill(core: &mut Core, s: &mut SplitState, i: usize) {
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
    let (total, avg_ctx) = p.queue.take_launch(&mut batch);
    if tracing(core) {
        for job in &batch {
            // A hedge ghost (its request already resolved) prefills without
            // a slab entry; it has no id to trace.
            if let Some(st) = core.reqs.get(job.key) {
                let rid = st.req.id;
                trace(
                    core,
                    TraceKind::PrefillStart {
                        request: rid,
                        role: Role::Prefill,
                        replica: i,
                        tokens: job.tokens,
                    },
                );
            }
        }
    }
    if sampling(core) {
        let depth = p.queue.queue.len();
        trace(
            core,
            TraceKind::QueueDepth {
                role: Role::Prefill,
                replica: i,
                depth,
            },
        );
    }
    // Batch pricing goes through the executor's one-entry memo: traces
    // with repeated prompt lengths form the same batch shape over and
    // over, and both pricing functions are pure in `(total, avg_ctx)`.
    let (mut latency, mut bottleneck) = match p.price_memo {
        Some((t, c, lat, bot)) if t == total && c == avg_ctx => (lat, bot),
        _ => {
            let lat = p.cost.prefill_latency(total, avg_ctx);
            // Pipeline parallelism: the next batch may enter once the
            // slowest stage has processed this one; the batch itself
            // completes after the full pipeline latency.
            let bot = p.cost.prefill_bottleneck(total, avg_ctx);
            p.price_memo = Some((total, avg_ctx, lat, bot));
            (lat, bot)
        }
    };
    // Straggler fault: iteration times stretch. Skipped entirely at the
    // healthy factor of exactly 1 so the default path never rounds
    // through the multiply.
    if p.slow_factor != 1.0 {
        latency = latency.mul_f64(p.slow_factor);
        bottleneck = bottleneck.mul_f64(p.slow_factor);
    }
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
    let batch = s.prefills[i]
        .in_flight
        .pop_front()
        .ok_or_else(|| Error::Simulation("prefill done with nothing in flight".into()))?;
    observe_straggler(core, Role::Prefill, i, s.prefills[i].slow_factor);
    let now = core.now;
    let mut batch = batch;
    for job in batch.drain(..) {
        // Hedged duplicates race, first completion wins: the loser finds
        // the request finished (single-token outputs) or its KV transfer
        // already launched, and is discarded here.
        let (rid, newly_first, jdec, loser) = {
            let Some(st) = core.reqs.get_mut(job.key) else {
                continue;
            };
            let rid = st.req.id;
            let pend = &mut st.pend;
            if pend.kv_launched {
                continue;
            }
            // Re-prefills keep their original first-token time: TTFT was
            // already paid, recovery shows up in inter-token gaps instead.
            let newly_first = pend.first_token_at.is_none();
            if newly_first {
                pend.first_token_at = Some(now);
            }
            // The winner of a hedge race fixes the (prefill, decode) pair;
            // the loser's still-queued copy is cancelled below (an
            // in-flight copy is discarded at its own completion instead).
            let mut loser = None;
            if let Some((hp, hd)) = pend.hedge.take() {
                if hp == i {
                    core.recovery.hedges_won += 1;
                    loser = Some(pend.prefill);
                    pend.prefill = hp;
                    pend.decode = hd;
                } else {
                    loser = Some(hp);
                }
            }
            if job.remaining != 0 {
                pend.kv_launched = true;
            }
            (rid, newly_first, pend.decode, loser)
        };
        trace(
            core,
            TraceKind::PrefillEnd {
                request: rid,
                role: Role::Prefill,
                replica: i,
            },
        );
        if newly_first {
            trace(core, TraceKind::FirstToken { request: rid });
        }
        if let Some(li) = loser {
            if li != i {
                s.prefills[li].queue.remove(job.key);
            }
        }
        if job.remaining == 0 {
            // Single-token output: the prefill already produced it.
            finish(core, job.key, now, SimDuration::ZERO)?;
            continue;
        }
        s.kv.launch(
            core,
            Transfer {
                from: i,
                to: jdec,
                job,
                attempt: 1,
            },
            SimDuration::ZERO,
        );
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
        split_redispatch_transfer(core, s, t);
        return Ok(());
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
    split_catch_up_decode(core, s, t.to);
    s.decodes[t.to].batch.waiting.push_back(WaitingSeq {
        key,
        tokens: t.job.tokens,
        remaining: t.job.remaining,
        resume: t.job.resume,
    });
    let admitted = split_admit_waiting(core, s, t.to);
    split_kick_decode(core, s, t.to, admitted);
    Ok(())
}

/// The live decode replica with the most free KV memory (lowest index
/// breaks ties) among those serving the model of prefill replica `from` —
/// KV caches are model-specific. Callers catch up every decode batch first.
fn kv_target(s: &SplitState, from: usize) -> Option<usize> {
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
fn split_redispatch_transfer(core: &mut Core, s: &mut SplitState, mut t: Transfer) {
    // The free-KV scan reads every decode batch; their owed boundaries
    // must land first.
    split_catch_up_all_decodes(core, s);
    let Some(j2) = kv_target(s, t.from) else {
        s.parked.push(t);
        return;
    };
    let Some(st) = core.reqs.get_mut(t.job.key) else {
        return; // resolved while parked
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
}

// --- decode planning / coalescing ----------------------------------------

/// Admits waiting sequences on decode replica `j` and applies the
/// outcomes. Returns whether anything was admitted (a grown batch obliges
/// a re-plan under coalescing).
fn split_admit_waiting(core: &mut Core, s: &mut SplitState, j: usize) -> bool {
    let d = &mut s.decodes[j];
    if !d.is_alive() {
        return false;
    }
    let mut outcomes = std::mem::take(&mut core.admit_buf);
    let reqs = &core.reqs;
    d.batch.admit(
        &d.cost,
        &core.cfg,
        core.now,
        |key| reqs.get(key).and_then(|st| st.pend.first_token_at),
        &mut outcomes,
    );
    let admitted = apply_admit_outcomes(core, &outcomes, Role::Decode, j);
    core.admit_buf = outcomes;
    trace(
        core,
        TraceKind::BatchOccupancy {
            role: Role::Decode,
            replica: j,
            active: s.decodes[j].batch.active.len(),
        },
    );
    admitted
}

/// Starts or extends decode work on replica `j` after its batch state
/// changed. With a plan already in flight, a grown batch forces a re-plan
/// under coalescing (the per-step compatibility path just waits for the
/// in-flight step, exactly like the old `stepping` guard); with no plan
/// and a non-empty batch, a fresh run is planned.
fn split_kick_decode(core: &mut Core, s: &mut SplitState, j: usize, admitted: bool) {
    let d = &s.decodes[j];
    if !d.is_alive() || d.batch.active.is_empty() {
        return;
    }
    if d.plan.is_some() {
        if admitted && coalescing_active(core) {
            split_replan_decode(core, s, j);
        }
        return;
    }
    split_plan_decode(core, s, j);
}

/// Plans a decode run for replica `j` starting now and schedules its
/// run-end event. Under coalescing the run extends to the earliest finish
/// boundary (the batch is constant until then, so every boundary is
/// priced exactly as the per-step loop would: the integer average context
/// grows by exactly 1 per step); the compatibility path plans one step.
fn split_plan_decode(core: &mut Core, s: &mut SplitState, j: usize) {
    let d = &mut s.decodes[j];
    debug_assert!(d.plan.is_none(), "planning over a live plan");
    let batch = d.batch.active.len() as u64;
    let steps_to_finish = if coalescing_active(core) {
        d.batch
            .active
            .iter()
            .map(|a| a.remaining)
            .min()
            .unwrap_or(1)
            .max(1)
    } else {
        1
    };
    let kind = EventKind::DecodeStepDone {
        replica: j,
        epoch: d.epoch(),
    };
    d.work.plans += 1;
    let ctx0 = d.batch.avg_context();
    let plan = d.plan_run(
        batch,
        ctx0,
        u64::from(steps_to_finish),
        core.now,
        false,
        |end| core.queue.push_cancellable(end, kind),
    );
    d.plan = Some(plan);
}

/// Re-plans replica `j`'s coalesced run after its batch grew or its speed
/// changed. The in-progress step's end boundary was committed when that
/// step began (the per-step loop fixed its latency then, and newly
/// admitted sequences receive their first token at it, because the
/// per-step advance covers the whole batch at a step's end) and is
/// carried verbatim; boundaries after it are re-priced against the new
/// batch and straggler factor. The scheduled event moves to the new final
/// boundary, keeping its original `(seq, pushed_at)` stamps.
fn split_replan_decode(core: &mut Core, s: &mut SplitState, j: usize) {
    let d = &mut s.decodes[j];
    let Some(old) = d.plan.take() else {
        return;
    };
    // Read before pricing: a new straggler factor drops the tables.
    let first = old.front(&d.tables);
    debug_assert!(first >= core.now, "carried boundary in the past");
    let batch = d.batch.active.len() as u64;
    let steps_to_finish = d
        .batch
        .active
        .iter()
        .map(|a| a.remaining)
        .min()
        .unwrap_or(1)
        .max(1);
    let kind = EventKind::DecodeStepDone {
        replica: j,
        epoch: d.epoch(),
    };
    d.work.replans += 1;
    // Context as of the carried boundary's end: the whole (new) batch
    // gains one token there.
    let ctx0 = d.batch.avg_context() + 1;
    let mut plan = d.plan_run(
        batch,
        ctx0,
        u64::from(steps_to_finish - 1),
        first,
        true,
        |end| match core.queue.reschedule(old.token, end, kind) {
            Some(tok) => tok,
            None => {
                // The run-end event was already popped and is being held
                // behind a same-instant rival (this re-plan runs inside
                // that rival's inline dispatch): re-queue it with its
                // original stamps so it pops again in the right order.
                match core.take_held_decode(j) {
                    Some((seq, pushed_at)) => core.queue.reinsert(end, kind, seq, pushed_at),
                    None => core.queue.push_cancellable(end, kind),
                }
            }
        },
    );
    plan.prev_boundary = old.prev_boundary;
    d.plan = Some(plan);
}

/// Cancels replica `j`'s scheduled run-end event and clears the plan,
/// ahead of a kill/revive (both of which reset the plan without touching
/// the queue). The per-step loop always had exactly one decode event in
/// flight — the in-progress step's end — and popped it (advancing `now`
/// past it) even once stale; its fire time folds into the phantom horizon
/// so the reported makespan stays identical.
fn split_cancel_decode_plan(core: &mut Core, s: &mut SplitState, j: usize) {
    let d = &s.decodes[j];
    let Some(plan) = d.plan.as_ref() else {
        return;
    };
    let in_progress_end = plan.front(&d.tables);
    core.phantom_horizon = core.phantom_horizon.max(in_progress_end);
    core.queue.cancel(plan.token);
    s.decodes[j].plan = None;
}

/// Materializes every plan boundary of replica `j` that has elapsed:
/// boundaries strictly before `now`, plus a boundary exactly at `now`
/// when the event being dispatched was pushed after that step began (the
/// per-step loop would have popped the step's own event first — smaller
/// sequence number). The final boundary never catches up here; it is the
/// scheduled event's fire time and is handled by
/// [`Driver::on_decode_finish`].
fn split_catch_up_decode(core: &mut Core, s: &mut SplitState, j: usize) {
    let d = &s.decodes[j];
    let Some(plan) = d.plan.as_ref() else {
        return;
    };
    let m = plan.elapsed(&d.tables, core.now, core.event_pushed_at);
    if m > 0 {
        split_materialize(core, s, j, m);
    }
}

/// Catches up every decode replica (paths that scan cross-replica batch
/// state: transfer re-dispatch, hedging probes).
fn split_catch_up_all_decodes(core: &mut Core, s: &mut SplitState) {
    for j in 0..s.decodes.len() {
        split_catch_up_decode(core, s, j);
    }
}

/// Materializes the next `m` boundaries of replica `j`'s plan. Unless a
/// recorder or streaming plane is attached this is one arithmetic pass —
/// batch membership is constant across a plan, so per sequence only the
/// first gap differs and the remaining gaps share one maximum, the last
/// of them (step time never decreases as context grows); otherwise each
/// boundary replays individually to emit its retroactive trace events.
/// The pressure tally needs no replay: each replayed boundary only repeats
/// the occupancy already sampled, which moves neither its integral nor
/// its peak.
fn split_materialize(core: &mut Core, s: &mut SplitState, j: usize, m: u64) {
    let d = &mut s.decodes[j];
    d.work.steps_crossed += m;
    if !observing(core) {
        let plan = d.plan.as_mut().expect("materialize without plan");
        debug_assert!(m < plan.remaining(), "materializing the final boundary");
        let first = plan.front(&d.tables);
        let shared_max = plan.shared_max_gap(&d.tables, m);
        let last = plan.boundary(&d.tables, plan.crossed + m - 1);
        let batch = d.batch.active.len() as u64;
        for a in &mut d.batch.active {
            debug_assert!(
                u64::from(a.remaining) > m,
                "an intermediate coalesced boundary must not finish a sequence"
            );
            a.context += m;
            a.remaining -= m as u32;
            let first_gap = first.saturating_since(a.last_token_at);
            a.max_gap = a.max_gap.max(first_gap).max(shared_max);
            a.last_token_at = last;
        }
        d.batch.kv_used += batch * m;
        plan.crossed += m;
        plan.prev_boundary = last;
    } else {
        for _ in 0..m {
            let b = {
                let d = &mut s.decodes[j];
                let plan = d.plan.as_mut().expect("materialize without plan");
                debug_assert!(plan.remaining() > 1, "materializing the final boundary");
                let b = plan.front(&d.tables);
                plan.crossed += 1;
                plan.prev_boundary = b;
                b
            };
            split_materialize_boundary(core, s, j, b);
        }
    }
}

/// Retroactively replays one coalesced intermediate step that ended at
/// `at`, emitting the trace events the per-step loop would have: the step
/// record, the batch update, then the (unchanged) occupancy the no-op
/// admission pass reported.
fn split_materialize_boundary(core: &mut Core, s: &mut SplitState, j: usize, at: SimTime) {
    let d = &mut s.decodes[j];
    trace_at(
        core,
        at,
        TraceKind::DecodeStep {
            role: Role::Decode,
            replica: j,
            batch: d.batch.active.len(),
        },
    );
    d.batch.materialize_step(at);
    trace_at(
        core,
        at,
        TraceKind::BatchOccupancy {
            role: Role::Decode,
            replica: j,
            active: d.batch.active.len(),
        },
    );
}

/// Discards a held (deferred) decode-finish stamp for replica `j`.
fn drop_held_decode(core: &mut Core, j: usize, seq: u64) {
    core.held_decode.retain(|h| !(h.0 == j && h.1 == seq));
}

impl Driver {
    /// Handles a decode run-end event for `replica`. The coalesced event's
    /// heap stamps date from plan creation, but the per-step loop would
    /// have pushed the final step's event at the penultimate boundary (the
    /// plan's *virtual* push time) — so any same-instant rival the
    /// per-step loop would have popped first is dispatched first, with
    /// this finish held. A held finish can be re-queued (a rival re-plans
    /// this replica) or invalidated (a rival kills/revives it); otherwise
    /// the finish boundary runs: materialize intermediates, advance the
    /// batch, record finishes, admit, and plan the next run.
    fn on_decode_finish(&mut self, replica: usize, ev: Event) -> Result<()> {
        let seq = ev.seq;
        loop {
            let vpush = {
                let (core, s) = self.split("DecodeStepDone")?;
                let d = &s.decodes[replica];
                let Some(plan) = d.plan.as_ref() else {
                    // A rival dispatched below killed or revived the
                    // replica, cancelling the plan: this pop is stale.
                    drop_held_decode(core, replica, seq);
                    return Ok(());
                };
                if ev.token() != Some(plan.token) {
                    // A rival's re-plan consumed the held stamp and
                    // re-queued the run-end event: this pop is obsolete.
                    drop_held_decode(core, replica, seq);
                    return Ok(());
                }
                plan.vpush(&d.tables)
            };
            if ev.pushed_at == vpush {
                // The stamps are real (a per-step-schedule push): the heap
                // already ordered this event correctly.
                break;
            }
            let Some(rival) = self.qualifying_rival(vpush) else {
                break;
            };
            if !self
                .core
                .held_decode
                .iter()
                .any(|h| h.0 == replica && h.1 == seq)
            {
                self.core.held_decode.push((replica, seq, ev.pushed_at));
            }
            self.dispatch_event(rival)?;
            if !self
                .core
                .held_decode
                .iter()
                .any(|h| h.0 == replica && h.1 == seq)
            {
                return Ok(()); // consumed: re-queued by a rival's re-plan
            }
        }
        drop_held_decode(&mut self.core, replica, seq);
        let (core, s) = self.split("DecodeStepDone")?;
        let pending = s.decodes[replica]
            .plan
            .as_ref()
            .map_or(0, |p| p.remaining());
        if pending > 1 {
            split_materialize(core, s, replica, pending - 1);
        }
        let d = &mut s.decodes[replica];
        let plan = d.plan.take().expect("checked above");
        debug_assert_eq!(plan.remaining(), 1, "intermediates drained");
        debug_assert_eq!(plan.end(&d.tables), core.now, "finish boundary mismatch");
        d.work.steps_crossed += 1;
        observe_straggler(core, Role::Decode, replica, s.decodes[replica].slow_factor);
        trace(
            core,
            TraceKind::DecodeStep {
                role: Role::Decode,
                replica,
                batch: s.decodes[replica].batch.active.len(),
            },
        );
        let mut finished = std::mem::take(&mut core.finished_buf);
        s.decodes[replica].batch.advance(core.now, &mut finished);
        for &(key, gap) in &finished {
            finish(core, key, core.now, gap)?;
        }
        core.finished_buf = finished;
        split_admit_waiting(core, s, replica);
        split_kick_decode(core, s, replica, false);
        Ok(())
    }

    /// The next queued event, popped, when it shares this instant with the
    /// decode finish being dispatched and the per-step loop would have
    /// fired it first: its effective push time (its own stamp, or the
    /// virtual push time of another replica's live plan) is no later than
    /// `vpush`. Deferring to an epoch-stale rival is harmless — its
    /// dispatch is a no-op.
    fn qualifying_rival(&mut self, vpush: SimTime) -> Option<Event> {
        let now = self.core.now;
        debug_assert!(
            self.core
                .arrivals
                .get(self.core.next_arrival)
                .is_none_or(|r| r.arrival > now),
            "same-instant arrivals drain before queued events"
        );
        let head = *self.core.queue.peek()?;
        if head.at != now {
            return None;
        }
        let eff = match head.kind {
            EventKind::DecodeStepDone { replica: r2, .. } => {
                let Topology::Split(s) = &self.topo else {
                    return None;
                };
                let d = &s.decodes[r2];
                match d.plan.as_ref() {
                    Some(p) if head.token() == Some(p.token) => p.vpush(&d.tables),
                    _ => head.pushed_at,
                }
            }
            _ => head.pushed_at,
        };
        if eff <= vpush {
            self.core.queue.pop()
        } else {
            None
        }
    }
}

// --- routing masks ---------------------------------------------------------

/// Route `ri`'s mask: whether each of its (prefill, decode) pairs is
/// routable under current liveness beliefs and gray-failure masking
/// (flaky-heartbeat false positives and straggler quarantine). `extra`
/// additionally masks one host — used to test whether a prospective
/// quarantine would leave a route empty, without committing it.
fn router_mask(core: &Core, ri: usize, extra: Option<usize>) -> Vec<bool> {
    let live = |h: usize| !core.believed_dead[h] && !core.gray.masked(h) && extra != Some(h);
    core.routes[ri]
        .pairs
        .iter()
        .map(|&(i, j)| live(core.host_of(true, i)) && live(core.host_of(false, j)))
        .collect()
}

/// Re-derives every route's mask (see [`router_mask`]).
fn refresh_router(core: &mut Core) {
    for ri in 0..core.routes.len() {
        let mask = router_mask(core, ri, None);
        core.routes[ri].router.apply_mask(&mask);
    }
}

// --- straggler detection & hedging ----------------------------------------

/// Feeds one completed iteration on `replica` (of `role`), which ran
/// `ratio` times slower than expected, into its host's EWMA, and
/// quarantines the host when the detector trips — enough samples and the
/// EWMA at or above the threshold — unless doing so would leave some route
/// with no live pair (a degraded replica still beats no replica).
/// Quarantine masks the host out of routing, counts it, and schedules the
/// readmission probe at `now + readmit_after`.
fn observe_straggler(core: &mut Core, role: Role, replica: usize, ratio: f64) {
    let Some(quarantine) = core.cfg.quarantine else {
        return;
    };
    let prefill = role == Role::Prefill;
    let host = core.host_of(prefill, replica);
    if core.gray.quarantined[host] {
        return;
    }
    const ALPHA: f64 = 0.5;
    let g = &mut core.gray;
    g.slow_ewma[host] = if g.slow_samples[host] == 0 {
        ratio
    } else {
        ALPHA * ratio + (1.0 - ALPHA) * g.slow_ewma[host]
    };
    g.slow_samples[host] = g.slow_samples[host].saturating_add(1);
    let tripped =
        g.slow_samples[host] >= STRAGGLER_MIN_SAMPLES && g.slow_ewma[host] >= quarantine.threshold;
    if !tripped {
        return;
    }
    if (0..core.routes.len()).any(|ri| !router_mask(core, ri, Some(host)).contains(&true)) {
        return;
    }
    core.gray.quarantined[host] = true;
    let until = core.now + quarantine.readmit_after;
    core.gray.quarantine_until[host] = Some(until);
    core.recovery.quarantines += 1;
    trace(core, TraceKind::Quarantined { role, replica });
    core.queue
        .push(until, EventKind::ReadmitProbe { prefill, replica });
    refresh_router(core);
}

/// The hedge timer for `request` matured. If the request is still waiting
/// on prefill, launch a duplicate prefill on an alternate pair
/// (first completion wins); if its KV transfer is stuck in flight, cancel
/// and re-send it. No-op when the request already delivered its KV,
/// finished, or was hedged once before.
fn split_on_hedge_check(core: &mut Core, s: &mut SplitState, request: SlabKey) {
    let Some(st) = core.reqs.get(request) else {
        return; // finished, shed or dropped
    };
    let p = &st.pend;
    if p.kv_done_at.is_some() || p.hedge.is_some() {
        return;
    }
    if hedge_suppressed(core) {
        return; // SLO budget not burning: keep the duplicate-work budget
    }
    if p.kv_launched {
        split_hedge_transfer(core, s, request);
    } else {
        split_hedge_prefill(core, s, request);
    }
}

/// Launches a duplicate prefill for a stuck request on an alternate
/// (prefill, decode) pair drawn from its route. The duplicate carries the
/// same work unit (a re-prefill covers more than the prompt). Ties are
/// broken deterministically: route draws advance the stride router in its
/// usual order, and the first live pair with a *different* prefill replica
/// wins.
fn split_hedge_prefill(core: &mut Core, s: &mut SplitState, request: SlabKey) {
    let Some(st) = core.reqs.get(request) else {
        return;
    };
    let primary = st.pend.prefill;
    let rid = st.req.id;
    let model = st.req.model;
    let job = s.prefills[primary]
        .queue
        .queue
        .iter()
        .find(|j| j.key == request)
        .copied()
        .or_else(|| {
            s.prefills[primary]
                .in_flight
                .iter()
                .flatten()
                .find(|j| j.key == request)
                .copied()
        });
    let Some(job) = job else {
        return; // a fault moved it; the requeue already acted as a retry
    };
    // The alternate comes from the request's own route, so a hedge never
    // lands on another model's replicas.
    let ri = core
        .route_of(model)
        .expect("run_with_faults rejects requests for unserved models");
    let route = &mut core.routes[ri];
    let mut alt = None;
    for _ in 0..route.pairs.len() {
        if route.router.num_enabled() == 0 {
            break;
        }
        let (i, j) = route.pairs[route.router.next()];
        // Prefill replica `i` is host `i`.
        if i != primary && s.prefills[i].is_alive() && !core.believed_dead[i] {
            alt = Some((i, j));
            break;
        }
    }
    let Some((hi, hj)) = alt else {
        return; // no live alternative prefill replica
    };
    if let Some(st) = core.reqs.get_mut(request) {
        st.pend.hedge = Some((hi, hj));
    }
    core.recovery.hedges_launched += 1;
    trace(
        core,
        TraceKind::HedgeLaunched {
            request: rid,
            role: Role::Prefill,
            replica: hi,
        },
    );
    s.prefills[hi].queue.enqueue(job);
    split_maybe_start_prefill(core, s, hi);
}

/// Cancels a stuck KV transfer and re-sends it (attempt + 1) to
/// [`kv_target`], the death re-dispatch target — possibly the same
/// replica. The superseded attempt's completion goes stale via its attempt
/// number, so a duplicate delivery is impossible.
fn split_hedge_transfer(core: &mut Core, s: &mut SplitState, request: SlabKey) {
    let Some(t) = core.reqs.get(request).and_then(|st| st.transfer) else {
        return; // completion already delivered
    };
    s.kv.cancel(core, request);
    // Free-KV capacity is read at `now`, so every coalesced batch must be
    // materialized up to `now` first.
    split_catch_up_all_decodes(core, s);
    let mut t = t;
    t.attempt += 1;
    if let Some(j2) = kv_target(s, t.from) {
        t.to = j2;
    }
    let rid = if let Some(st) = core.reqs.get_mut(request) {
        st.pend.decode = t.to;
        st.pend.hedge = Some((t.from, t.to));
        st.req.id
    } else {
        return;
    };
    core.recovery.hedges_launched += 1;
    trace(
        core,
        TraceKind::HedgeLaunched {
            request: rid,
            role: Role::Decode,
            replica: t.to,
        },
    );
    s.kv.launch(core, t, SimDuration::ZERO);
}

// --- colocated-topology handlers -----------------------------------------

fn colo_maybe_start_work(core: &mut Core, c: &mut ColoState, ri: usize) {
    // Admission runs even while the engine is busy: decode slots free up
    // as sequences finish regardless of what work item is in flight.
    {
        let r = &mut c.replicas[ri];
        if !r.is_alive() {
            return;
        }
        let mut outcomes = std::mem::take(&mut core.admit_buf);
        let reqs = &core.reqs;
        r.batch.admit(
            &r.cost,
            &core.cfg,
            core.now,
            |key| reqs.get(key).and_then(|st| st.pend.first_token_at),
            &mut outcomes,
        );
        apply_admit_outcomes(core, &outcomes, Role::Colocated, ri);
        core.admit_buf = outcomes;
    }
    trace(
        core,
        TraceKind::BatchOccupancy {
            role: Role::Colocated,
            replica: ri,
            active: c.replicas[ri].batch.active.len(),
        },
    );
    let r = &mut c.replicas[ri];
    if r.current.is_some() {
        return;
    }
    let has_prefill = !r.prefill.is_empty();
    let has_decode = !r.batch.active.is_empty();
    // Whole batches take priority over decode; chunks strictly alternate
    // with decode steps when both kinds of work exist.
    let chunked = matches!(core.cfg.prefill_policy, PrefillPolicy::Chunked { .. });
    let run_decode = has_decode && (!has_prefill || (chunked && r.decode_turn));
    if run_decode {
        let batch = r.batch.active.len() as u64;
        trace(
            core,
            TraceKind::DecodeStep {
                role: Role::Colocated,
                replica: ri,
                batch: batch as usize,
            },
        );
        let mut latency = r.cost.decode_step_latency(batch, r.batch.avg_context());
        if r.slow_factor != 1.0 {
            latency = latency.mul_f64(r.slow_factor);
        }
        r.current = Some(Work::DecodeStep);
        r.decode_turn = false;
        core.queue.push(
            core.now + latency,
            EventKind::WorkDone {
                replica: ri,
                epoch: r.epoch(),
            },
        );
        return;
    }
    if !has_prefill {
        return;
    }
    let mut finishing = Vec::new();
    let (tokens, avg) = r.prefill.take_launch(&mut finishing);
    if tracing(core) {
        for job in &finishing {
            let Some(st) = core.reqs.get(job.key) else {
                continue;
            };
            let request = st.req.id;
            trace(
                core,
                TraceKind::PrefillStart {
                    request,
                    role: Role::Colocated,
                    replica: ri,
                    tokens: job.tokens,
                },
            );
        }
    }
    if sampling(core) {
        let depth = r.prefill.queue.len();
        trace(
            core,
            TraceKind::QueueDepth {
                role: Role::Colocated,
                replica: ri,
                depth,
            },
        );
    }
    let mut latency = r.cost.prefill_latency(tokens, avg);
    if r.slow_factor != 1.0 {
        latency = latency.mul_f64(r.slow_factor);
    }
    r.current = Some(Work::Prefill { finishing });
    r.decode_turn = chunked;
    core.queue.push(
        core.now + latency,
        EventKind::WorkDone {
            replica: ri,
            epoch: r.epoch(),
        },
    );
}

fn colo_on_work_done(core: &mut Core, c: &mut ColoState, ri: usize) -> Result<()> {
    observe_straggler(core, Role::Colocated, ri, c.replicas[ri].slow_factor);
    let work = c.replicas[ri]
        .current
        .take()
        .ok_or_else(|| Error::Simulation("WorkDone with no work".into()))?;
    match work {
        Work::Prefill { finishing } => {
            for job in finishing {
                let now = core.now;
                let (rid, newly_first) = {
                    let st = core
                        .reqs
                        .get_mut(job.key)
                        .ok_or_else(|| Error::Simulation(format!("unknown request {}", job.key)))?;
                    // Re-prefills keep their original first-token time
                    // (fault recovery); fresh prefills set it now.
                    let newly_first = st.pend.first_token_at.is_none();
                    if newly_first {
                        st.pend.first_token_at = Some(now);
                    }
                    (st.req.id, newly_first)
                };
                trace(
                    core,
                    TraceKind::PrefillEnd {
                        request: rid,
                        role: Role::Colocated,
                        replica: ri,
                    },
                );
                if newly_first {
                    trace(core, TraceKind::FirstToken { request: rid });
                }
                if job.remaining == 0 {
                    finish(core, job.key, now, SimDuration::ZERO)?;
                } else {
                    // KV is already local: straight to the waiting queue.
                    c.replicas[ri].batch.waiting.push_back(WaitingSeq {
                        key: job.key,
                        tokens: job.tokens,
                        remaining: job.remaining,
                        resume: job.resume,
                    });
                }
            }
        }
        Work::DecodeStep => {
            let mut finished = std::mem::take(&mut core.finished_buf);
            c.replicas[ri].batch.advance(core.now, &mut finished);
            for &(key, gap) in &finished {
                finish(core, key, core.now, gap)?;
            }
            core.finished_buf = finished;
        }
    }
    colo_maybe_start_work(core, c, ri);
    Ok(())
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::config::Quarantine;
    use ts_cluster::presets;
    use ts_common::{
        GpuId, ModelRouting, ModelSpec, ParallelConfig, Phase, RoutingMatrix, ServedModel,
        StageSpec,
    };

    pub(crate) fn testbed(cfg_edit: impl FnOnce(&mut SimConfig)) -> Driver {
        let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
        let model = ModelSpec::llama_13b();
        let group = |phase, ids: [u32; 4]| {
            GroupSpec::new(
                phase,
                ParallelConfig::new(4, 1).unwrap(),
                vec![StageSpec {
                    gpus: ids.iter().map(|&i| GpuId(i)).collect(),
                    layers: model.num_layers,
                }],
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
            GroupSpec::new(
                phase,
                ParallelConfig::new(2, 1).unwrap(),
                vec![StageSpec {
                    gpus: ids.iter().map(|&i| GpuId(i)).collect(),
                    layers: model.num_layers,
                }],
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

    #[test]
    fn traces_tag_requests_with_their_model_only_when_tracking() {
        let mut d = multi_testbed_with([0.5, 0.5], |cfg| cfg.telemetry = true);
        let reqs = requests(4, alternating);
        d.run_with_faults(&reqs, &FaultScript::none()).unwrap();
        let log = d.take_trace().expect("telemetry was on");
        let tags = log.model_tags();
        assert_eq!(tags.len(), 4, "every arrival carries exactly one tag");
        for r in &reqs {
            assert_eq!(tags.get(&r.id), Some(&r.model));
        }
        assert_eq!(log.requests_for_model(ModelId(1)).len(), 2);
        assert_eq!(log.requests_for_model(ModelId(2)).len(), 2);

        // Single-model runs emit no tags at all, keeping traces identical to
        // pre-catalog builds.
        let mut legacy = testbed(|cfg| cfg.telemetry = true);
        let req = Request::new(RequestId(0), SimTime::ZERO, 256, 8);
        legacy
            .run_with_faults(&[req], &FaultScript::none())
            .unwrap();
        let log = legacy.take_trace().expect("telemetry was on");
        assert!(log.model_tags().is_empty());
    }
}
