//! Replica executors: the phase-specific halves of the execution core.
//!
//! A [`ReplicaExecutor`] owns one replica's work state and implements the
//! liveness/epoch/drain contract the shared driver's fault layer is written
//! against. Three concrete executors exist:
//!
//! * [`PrefillExecutor`] — prefill-only replica of the phase-split engine
//!   (pipelined batches, whole-batch or chunked);
//! * [`DecodeExecutor`] — decode-only replica of the phase-split engine
//!   (continuous batching over a [`BatchCore`]);
//! * [`ColocatedExecutor`] — a vLLM/HexGen-style replica serving both
//!   phases on one set of GPUs, with prefill-priority or chunked
//!   scheduling ([`PrefillPolicy`]).

use super::seq::{BatchCore, PrefillJob, PrefillQueue, ResumeState};
use crate::config::PrefillPolicy;
use crate::event::EventToken;
use std::collections::VecDeque;
use ts_common::{SimDuration, SimTime, SlabKey};
use ts_costmodel::{DecodeStageSeries, ReplicaCostModel};

/// What a colocated replica is currently executing.
#[derive(Debug, Clone)]
pub enum Work {
    /// Processing a chunk of prompt tokens; jobs in `finishing` complete
    /// their prefill when this work item ends.
    Prefill {
        /// Jobs whose prefill completes with this work item.
        finishing: Vec<PrefillJob>,
    },
    /// One step of the continuous decode batch.
    DecodeStep,
}

/// A decode sequence whose KV cache died with its replica; the driver
/// re-prefills its full context on a survivor (or drops it without
/// recovery).
#[derive(Debug, Clone, Copy)]
pub struct LostSeq {
    /// Slab handle of the request.
    pub key: SlabKey,
    /// Context tokens that must be re-prefilled (prompt + generated).
    pub tokens: u64,
    /// Decode steps still to run.
    pub remaining: u32,
    /// Gap-tracking state to resume from.
    pub resume: Option<ResumeState>,
}

/// Work recovered from a failed (or revived) replica by
/// [`ReplicaExecutor::drain_lost`].
#[derive(Debug, Default)]
pub struct DrainedWork {
    /// Prefill jobs that were queued or in flight: re-routable as-is (the
    /// driver counts them as requeued).
    pub prefill_jobs: Vec<PrefillJob>,
    /// Decode sequences whose KV cache was lost: must be re-prefilled over
    /// their full context (the driver counts the re-prefilled tokens).
    pub lost_seqs: Vec<LostSeq>,
}

impl DrainedWork {
    /// Whether nothing was recovered.
    pub fn is_empty(&self) -> bool {
        self.prefill_jobs.is_empty() && self.lost_seqs.is_empty()
    }
}

/// A planned decode run on a decode-capable replica: the step boundaries
/// the continuous batch will cross if nothing interrupts it, ending at the
/// first boundary where at least one sequence finishes.
///
/// Under decode-step coalescing the driver schedules **one** event (at the
/// final boundary) per run instead of one per step; the intermediate
/// boundaries are materialized lazily — retroactively, in batches — when an
/// interrupt or the finish boundary needs the batch state. Under the
/// per-step compatibility path a plan holds exactly one step.
#[derive(Debug)]
pub struct DecodePlan {
    /// Step-end boundaries, ascending. Already-materialized boundaries are
    /// popped from the front; the last entry is the scheduled event's fire
    /// time and the first boundary at which a sequence can finish.
    pub steps: VecDeque<SimTime>,
    /// The virtual push time of the in-progress (front) step: the sim time
    /// at which the per-step scheduler would have pushed that step's event
    /// (the previous boundary, or the plan's creation time). Used to order
    /// coalesced events against genuinely simultaneous rivals exactly as
    /// the per-step schedule would have.
    pub prev_boundary: SimTime,
    /// Cancellation token of the scheduled run-end event.
    pub token: EventToken,
}

/// The liveness/epoch/drain contract every replica executor implements;
/// the driver's fault layer is written once against this trait.
///
/// # Contract
///
/// * Completion events are stamped with [`ReplicaExecutor::epoch`] at
///   scheduling time; [`ReplicaExecutor::event_is_current`] rejects events
///   scheduled before the most recent death or revival, so stale
///   completions of a crashed replica never fire.
/// * [`ReplicaExecutor::kill`] loses capacity immediately but freezes work
///   in place — the coordinator only learns of the death one heartbeat
///   detection delay later, and until then keeps routing to the corpse.
/// * [`ReplicaExecutor::drain_lost`] removes the frozen work exactly once
///   (at detection, or at revival for work frozen through an outage) and
///   hands it to the driver as re-routable prefill jobs plus lost decode
///   sequences.
pub trait ReplicaExecutor {
    /// Ground-truth liveness (the coordinator's belief may lag).
    fn is_alive(&self) -> bool;

    /// Current liveness epoch; bumped on every death and revival.
    fn epoch(&self) -> u64;

    /// Whether a completion event stamped with `epoch` is still current.
    fn event_is_current(&self, epoch: u64) -> bool {
        self.is_alive() && self.epoch() == epoch
    }

    /// Fails the replica: capacity is lost now, queued and in-flight work
    /// freezes in place until [`ReplicaExecutor::drain_lost`] collects it.
    fn kill(&mut self);

    /// Restores the replica at time `now` with empty work state (frozen
    /// work must still be collected via [`ReplicaExecutor::drain_lost`]).
    fn revive(&mut self, now: SimTime);

    /// Removes and returns all work held by this replica (queued, in
    /// flight, and resident decode sequences), resetting its accounting.
    fn drain_lost(&mut self) -> DrainedWork;
}

/// A prefill-only replica: a work queue feeding a pipelined batch engine.
#[derive(Debug)]
pub struct PrefillExecutor {
    /// Cost model of the replica's GPU group.
    pub cost: ReplicaCostModel,
    /// Queued prefill jobs (with chunked-prefill progress).
    pub queue: PrefillQueue,
    /// Batches currently flowing through the pipeline (FIFO: completion
    /// events fire in launch order because stage times are batch-agnostic
    /// in ordering).
    pub in_flight: VecDeque<Vec<PrefillJob>>,
    /// Earliest time the first pipeline stage can accept a new batch.
    pub next_free: SimTime,
    /// Whether a slot-free wakeup is already scheduled.
    pub wakeup_scheduled: bool,
    /// Gray-failure straggler factor: batch iteration times multiply by
    /// this (exactly 1.0 = healthy; the driver skips the multiply then so
    /// the healthy path stays bit-identical).
    pub slow_factor: f64,
    /// One-entry memo of `(total_tokens, avg_context) -> (latency,
    /// bottleneck)` for batch pricing. Day traces with fixed-length
    /// prompts price the same batch shape hundreds of thousands of
    /// times, and both pricing functions are pure in these arguments
    /// over an immutable cost model, so replaying the cached pair is
    /// exact.
    pub price_memo: Option<(u64, u64, SimDuration, SimDuration)>,
    /// Retired batch buffers, recycled by batch formation so steady-state
    /// prefill launches do not allocate per batch.
    pub spare_batches: Vec<Vec<PrefillJob>>,
    alive: bool,
    epoch: u64,
}

impl PrefillExecutor {
    /// A fresh, live executor over `cost` whose queue is ordered for
    /// `policy`.
    pub fn new(cost: ReplicaCostModel, policy: PrefillPolicy) -> Self {
        PrefillExecutor {
            cost,
            queue: PrefillQueue::new(policy),
            in_flight: VecDeque::new(),
            next_free: SimTime::ZERO,
            wakeup_scheduled: false,
            slow_factor: 1.0,
            price_memo: None,
            spare_batches: Vec::new(),
            alive: true,
            epoch: 0,
        }
    }
}

impl ReplicaExecutor for PrefillExecutor {
    fn is_alive(&self) -> bool {
        self.alive
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn kill(&mut self) {
        self.alive = false;
        self.epoch += 1; // invalidates every scheduled completion
        self.wakeup_scheduled = false;
        // Queued and in-flight work freezes in place until the heartbeat
        // monitor notices (FaultDetected).
    }

    fn revive(&mut self, now: SimTime) {
        self.alive = true;
        self.epoch += 1;
        self.next_free = now;
        self.wakeup_scheduled = false;
    }

    fn drain_lost(&mut self) -> DrainedWork {
        let mut prefill_jobs: Vec<PrefillJob> = self.in_flight.drain(..).flatten().collect();
        prefill_jobs.extend(self.queue.drain_all());
        DrainedWork {
            prefill_jobs,
            lost_seqs: Vec::new(),
        }
    }
}

/// A decode-only replica: a continuous batch over a [`BatchCore`].
#[derive(Debug)]
pub struct DecodeExecutor {
    /// Cost model of the replica's GPU group.
    pub cost: ReplicaCostModel,
    /// KV memory accounting, active batch and admission queue.
    pub batch: BatchCore,
    /// The planned decode run currently in progress, if any. The driver
    /// cancels the plan's scheduled event before any path that clears this
    /// through [`ReplicaExecutor::kill`] / [`ReplicaExecutor::revive`].
    pub plan: Option<DecodePlan>,
    /// Gray-failure straggler factor: decode step times multiply by this
    /// (exactly 1.0 = healthy; the driver skips the multiply then so the
    /// healthy path stays bit-identical).
    pub slow_factor: f64,
    /// Retired plan step buffer, recycled by the planner so the hot loop
    /// (roughly one plan per served request) does not allocate per plan.
    pub spare_steps: VecDeque<SimTime>,
    /// One-entry memo of `batch size -> ` the hoisted single-stage step
    /// series at that size. Replicas see a handful of distinct batch
    /// sizes over a whole day trace, and the series is a pure function
    /// of the immutable cost model and the batch size, so replaying the
    /// cached copy is exact. `None` until the first single-stage plan
    /// (multi-stage pipelines never populate it).
    pub step_series_memo: Option<(u64, DecodeStageSeries)>,
    alive: bool,
    epoch: u64,
}

impl DecodeExecutor {
    /// A fresh, live executor over `cost` with its KV capacity.
    pub fn new(cost: ReplicaCostModel) -> Self {
        let kv_capacity = cost.kv_capacity_tokens();
        DecodeExecutor {
            cost,
            batch: BatchCore::new(kv_capacity),
            plan: None,
            slow_factor: 1.0,
            spare_steps: VecDeque::new(),
            step_series_memo: None,
            alive: true,
            epoch: 0,
        }
    }
}

impl ReplicaExecutor for DecodeExecutor {
    fn is_alive(&self) -> bool {
        self.alive
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn kill(&mut self) {
        self.alive = false;
        self.epoch += 1;
        self.plan = None;
        // KV cache and batches are lost, but the coordinator keeps routing
        // here until detection.
    }

    fn revive(&mut self, _now: SimTime) {
        self.alive = true;
        self.epoch += 1;
        self.plan = None;
    }

    fn drain_lost(&mut self) -> DrainedWork {
        self.batch.kv_used = 0;
        let active = std::mem::take(&mut self.batch.active);
        let waiting = std::mem::take(&mut self.batch.waiting);
        let mut lost_seqs = Vec::new();
        for a in active {
            lost_seqs.push(LostSeq {
                key: a.key,
                tokens: a.context,
                remaining: a.remaining,
                resume: Some(ResumeState {
                    last_token_at: a.last_token_at,
                    max_gap: a.max_gap,
                }),
            });
        }
        for w in waiting {
            lost_seqs.push(LostSeq {
                key: w.key,
                tokens: w.tokens,
                remaining: w.remaining,
                resume: w.resume,
            });
        }
        DrainedWork {
            prefill_jobs: Vec::new(),
            lost_seqs,
        }
    }
}

/// A colocated replica serving both phases on one set of GPUs: a prefill
/// queue and a continuous decode batch contending for the same engine, so
/// long prompts stall ongoing decodes — the interference phase splitting
/// removes.
#[derive(Debug)]
pub struct ColocatedExecutor {
    /// Cost model of the replica's GPU group.
    pub cost: ReplicaCostModel,
    /// Queued prefill work (with chunked-prefill progress).
    pub prefill: PrefillQueue,
    /// KV memory accounting, active decode batch and admission queue.
    pub batch: BatchCore,
    /// The work item currently occupying the engine, if any.
    pub current: Option<Work>,
    /// Under chunked scheduling, alternate prefill chunks and decode steps.
    pub decode_turn: bool,
    /// Gray-failure straggler factor applied to both phases' iteration
    /// times (a colocated replica slows down as a whole; exactly 1.0 =
    /// healthy, skipped by the driver).
    pub slow_factor: f64,
    alive: bool,
    epoch: u64,
}

impl ColocatedExecutor {
    /// A fresh, live executor over `cost` whose prefill queue is ordered
    /// for `policy`.
    pub fn new(cost: ReplicaCostModel, policy: PrefillPolicy) -> Self {
        let kv_capacity = cost.kv_capacity_tokens();
        ColocatedExecutor {
            cost,
            prefill: PrefillQueue::new(policy),
            batch: BatchCore::new(kv_capacity),
            current: None,
            decode_turn: false,
            slow_factor: 1.0,
            alive: true,
            epoch: 0,
        }
    }
}

impl ReplicaExecutor for ColocatedExecutor {
    fn is_alive(&self) -> bool {
        self.alive
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn kill(&mut self) {
        self.alive = false;
        self.epoch += 1;
        // The in-progress work item and all queues freeze in place (the
        // stale WorkDone completion is rejected by the epoch check).
    }

    fn revive(&mut self, _now: SimTime) {
        self.alive = true;
        self.epoch += 1;
    }

    fn drain_lost(&mut self) -> DrainedWork {
        let mut prefill_jobs = Vec::new();
        if let Some(Work::Prefill { finishing }) = self.current.take() {
            prefill_jobs.extend(finishing);
        }
        self.current = None;
        self.decode_turn = false;
        prefill_jobs.extend(self.prefill.drain_all());
        self.batch.kv_used = 0;
        let active = std::mem::take(&mut self.batch.active);
        let waiting = std::mem::take(&mut self.batch.waiting);
        let mut lost_seqs = Vec::new();
        for a in active {
            lost_seqs.push(LostSeq {
                key: a.key,
                tokens: a.context,
                remaining: a.remaining,
                resume: Some(ResumeState {
                    last_token_at: a.last_token_at,
                    max_gap: a.max_gap,
                }),
            });
        }
        for w in waiting {
            lost_seqs.push(LostSeq {
                key: w.key,
                tokens: w.tokens,
                remaining: w.remaining,
                resume: w.resume,
            });
        }
        DrainedWork {
            prefill_jobs,
            lost_seqs,
        }
    }
}
