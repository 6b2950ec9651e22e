//! Replica executors: the phase-specific halves of the execution core.
//!
//! A [`ReplicaExecutor`] owns one replica's work state and implements the
//! liveness/epoch/drain contract the shared driver's fault layer is written
//! against. Three concrete executors exist:
//!
//! * [`PrefillExecutor`] — prefill-only replica of the phase-split engine
//!   (pipelined FCFS batches);
//! * [`DecodeExecutor`] — decode-only replica of the phase-split engine
//!   (continuous batching over a [`BatchCore`]);
//! * [`ColocatedExecutor`] — a vLLM/HexGen-style replica serving both
//!   phases on one set of GPUs, prefill batches ahead of decode steps.

use super::seq::{BatchCore, PrefillJob, PrefillQueue, ResumeState};
use crate::event::EventToken;
use std::collections::VecDeque;
use std::sync::Arc;
use ts_common::{Error, Result, SimDuration, SimTime, SlabKey};
use ts_costmodel::{DecodeStepSeries, ReplicaCostModel};
use ts_telemetry::profile;

/// What a colocated replica is currently executing.
#[derive(Debug, Clone)]
pub enum Work {
    /// Processing a prefill batch; jobs in `finishing` complete their
    /// prefill when this work item ends.
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

/// Decode-planner work counters of a simulation.
///
/// Machine-independent: a change to the planner shows up here exactly. The
/// crossed count does not depend on how boundaries are priced, so it pins
/// that two planners replay the same steps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeWork {
    /// Runs planned from a batch with no plan in flight.
    pub plans: u64,
    /// Runs re-planned in flight, after the batch grew or the replica's
    /// speed changed.
    pub replans: u64,
    /// Step times priced into the step-time tables.
    pub steps_priced: u64,
    /// Step boundaries crossed: materialized intermediate boundaries plus
    /// run ends.
    pub steps_crossed: u64,
}

impl std::ops::AddAssign for DecodeWork {
    fn add_assign(&mut self, o: DecodeWork) {
        self.plans += o.plans;
        self.replans += o.replans;
        self.steps_priced += o.steps_priced;
        self.steps_crossed += o.steps_crossed;
    }
}

/// A run whose steps all stay below this many microseconds (about 71
/// simulated minutes each) sums exactly in `u64` over any span it can hold
/// (fewer than 2^32 entries), so its wrapping prefix differences are the
/// true sums.
const EXACT_STEP_US: u64 = 1 << 32;

/// Contexts per priced block. Runs start and end on multiples of it, and a
/// table miss prices whole blocks through
/// [`DecodeStepSeries::latency_block`].
const BLOCK: u64 = 64;

/// Step times of consecutive contexts `lo..hi()` at one batch size, held
/// as contiguous wrapping `u64` prefix sums (integer microseconds):
/// `prefix[i]` is the sum of the steps at contexts `lo..lo + i` plus an
/// arbitrary base. `lo` and `hi()` lie on block edges.
#[derive(Debug, Default)]
struct StepRun {
    lo: u64,
    prefix: Vec<u64>,
    /// Largest step time in the run.
    max_step: u64,
}

impl StepRun {
    fn empty(lo: u64) -> Self {
        StepRun {
            lo,
            prefix: vec![0],
            max_step: 0,
        }
    }

    /// One past the last context the run covers.
    fn hi(&self) -> u64 {
        self.lo + self.prefix.len() as u64 - 1
    }

    /// Prices the blocks from `hi()` up to the block edge `to` at
    /// straggler factor `slow` and appends them, counting the entries
    /// into `priced`.
    fn price_to(&mut self, series: &DecodeStepSeries, slow: f64, to: u64, priced: &mut u64) {
        self.prefix.reserve(to.saturating_sub(self.hi()) as usize);
        let mut block = [SimDuration::ZERO; BLOCK as usize];
        while self.hi() < to {
            series.latency_block(self.hi(), &mut block);
            debug_assert!(block.windows(2).all(|w| w[0] <= w[1]), "step time fell");
            *priced += BLOCK;
            let mut sum = self.prefix[self.prefix.len() - 1];
            for latency in block {
                let us = if slow != 1.0 {
                    latency.mul_f64(slow)
                } else {
                    latency
                }
                .as_micros();
                self.max_step = self.max_step.max(us);
                sum = sum.wrapping_add(us);
                self.prefix.push(sum);
            }
        }
    }

    /// Appends `next`, which starts where this run ends, re-based by one
    /// wrapping offset onto this run's last prefix sum.
    fn append(&mut self, next: &StepRun) {
        debug_assert_eq!(self.hi(), next.lo, "appended run does not touch");
        let offset = self.prefix[self.prefix.len() - 1].wrapping_sub(next.prefix[0]);
        self.prefix
            .extend(next.prefix[1..].iter().map(|p| p.wrapping_add(offset)));
        self.max_step = self.max_step.max(next.max_step);
    }
}

/// A decode replica's step times, priced once per `(batch, context)` and
/// kept as contiguous prefix sums, so any span of a run's boundaries costs
/// two lookups.
///
/// Each entry is `DecodeStepSeries::latency(ctx)`, scaled by
/// `SimDuration::mul_f64(slow)` only when the straggler factor is not
/// exactly 1.0: the float operations the per-step loop performs, so every
/// boundary matches it bit for bit. Tables cover the contexts plans visit,
/// widened to whole blocks of `BLOCK` (64) contexts (one run per connected
/// range), so a miss prices at most `2 * (BLOCK - 1)` entries beyond the
/// plan's own contexts. A miss extends a run at its back in place, and
/// merges the runs it reaches by re-basing each onto the run before it.
/// Tables are dropped when a run is priced at a different straggler factor
/// than the entries; until then they still serve the plan priced at the
/// old factor.
#[derive(Debug)]
pub struct StepTables {
    /// Straggler factor the entries were priced at.
    slow: f64,
    /// Step-time series by batch size, built at a batch size's first miss.
    series: Vec<Option<DecodeStepSeries>>,
    /// Every run, grouped by ascending batch size and sorted by context
    /// within a group, so a read reaches a run's sums through one index.
    /// Runs of one batch size never overlap or touch (touching runs merge).
    runs: Vec<StepRun>,
    /// `starts[b]..starts[b + 1]` are the runs of batch size `b`; the last
    /// entry is `runs.len()`.
    starts: Vec<usize>,
}

impl Default for StepTables {
    fn default() -> Self {
        StepTables {
            slow: 1.0,
            series: Vec::new(),
            runs: Vec::new(),
            starts: Vec::new(),
        }
    }
}

impl StepTables {
    /// Makes sure the steps at contexts `ctx0..ctx0 + steps` are priced for
    /// `batch` at straggler factor `slow`, pricing the missing blocks
    /// (their entries counted into `priced`), and returns the index of the
    /// run holding them. A miss is timed under the profiler scope
    /// `sim.price_decode`.
    fn ensure(
        &mut self,
        cost: &ReplicaCostModel,
        slow: f64,
        batch: u64,
        ctx0: u64,
        steps: u64,
        priced: &mut u64,
    ) -> usize {
        let StepTables {
            slow: tables_slow,
            series,
            runs,
            starts,
        } = self;
        if slow != *tables_slow {
            runs.clear();
            starts.clear();
            *tables_slow = slow;
        }
        let b = batch as usize;
        if starts.len() < b + 2 {
            starts.resize(b + 2, runs.len());
        }
        let (first, end) = (starts[b], starts[b + 1]);
        let group = &runs[first..end];
        let (lo, hi) = (ctx0, ctx0 + steps);
        let i = group.partition_point(|r| r.hi() < lo);
        if group.get(i).is_some_and(|r| r.lo <= lo && hi <= r.hi()) {
            return first + i;
        }
        let _g = profile::scope("sim.price_decode");
        if series.len() <= b {
            series.resize_with(b + 1, || None);
        }
        let series = &*series[b].get_or_insert_with(|| cost.decode_step_series(batch));
        // Widen the span to block edges. The group's runs i..j overlap or
        // touch it: the first extends at its back if it starts no later,
        // and every other one is appended after the blocks priced up to it.
        let (lo, hi) = (lo / BLOCK * BLOCK, hi.div_ceil(BLOCK) * BLOCK);
        let i = first + group.partition_point(|r| r.hi() < lo);
        let j = i + runs[i..end].iter().take_while(|r| r.lo <= hi).count();
        let (mut run, next) = match runs.get_mut(i) {
            Some(r) if i < j && r.lo <= lo => (std::mem::take(r), i + 1),
            _ => (StepRun::empty(lo), i),
        };
        for other in &runs[next..j] {
            run.price_to(series, slow, other.lo, priced);
            run.append(other);
        }
        run.price_to(series, slow, hi, priced);
        runs.splice(i..j, [run]);
        // Runs i..j became one: later groups move by the difference.
        for s in &mut starts[b + 1..] {
            *s = *s + 1 - (j - i);
        }
        i
    }

    /// The steps from context `ctx0` in run `run`.
    fn segment(&self, run: usize, ctx0: u64) -> Segment<'_> {
        let r = &self.runs[run];
        Segment {
            prefix: &r.prefix[(ctx0 - r.lo) as usize..],
            exact: r.max_step < EXACT_STEP_US,
        }
    }
}

/// The consecutive step times of one run from a plan's first context: a
/// slice of the run's prefix sums, resolved once per query.
#[derive(Debug, Clone, Copy)]
struct Segment<'a> {
    prefix: &'a [u64],
    /// Whether every step of the run is below [`EXACT_STEP_US`].
    exact: bool,
}

impl Segment<'_> {
    /// The segment of a plan that prices no step.
    const EMPTY: Segment<'static> = Segment {
        prefix: &[0],
        exact: true,
    };

    /// Sum of the first `k` step times, saturating at the largest
    /// duration.
    fn span(self, k: u64) -> SimDuration {
        let k = k as usize;
        let us = if self.exact {
            self.prefix[k].wrapping_sub(self.prefix[0])
        } else {
            let mut sum = 0u64;
            for w in self.prefix[..=k].windows(2) {
                sum = sum.saturating_add(w[1].wrapping_sub(w[0]));
                if sum == u64::MAX {
                    break;
                }
            }
            sum
        };
        SimDuration::from_micros(us)
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
///
/// The plan stores no boundaries. Its priced segment is `steps` steps of
/// one batch size from average context `ctx0`, starting at `start`;
/// a re-plan first carries the in-progress step's end, which is then the
/// segment's start. Boundary `g` (counted from the plan's first, crossed
/// ones included) is `start` plus the sum of the segment's first
/// `g + 1 - carried` step times, the difference of two prefix sums in the
/// replica's [`StepTables`]. Each query resolves the plan's run once and
/// reads that run's prefix slice, so every read is O(1) and a catch-up
/// search O(log k). Step time never decreases as context grows, so the
/// gaps between consecutive boundaries never shrink either.
#[derive(Debug, Clone, Copy)]
pub struct DecodePlan {
    /// Index of the table run holding the segment's steps.
    run: usize,
    /// Whether the first boundary is carried from the plan this one
    /// replaced; it is then `start`.
    pub carried: bool,
    /// When the priced segment starts.
    pub start: SimTime,
    /// Average context of the segment's first step.
    pub ctx0: u64,
    /// Steps priced in the segment.
    pub steps: u64,
    /// Boundaries already materialized.
    pub crossed: u64,
    /// The virtual push time of the in-progress (first uncrossed) step:
    /// the sim time at which the per-step scheduler would have pushed that
    /// step's event (the previous boundary, or the plan's creation time).
    /// Used to order coalesced events against genuinely simultaneous
    /// rivals exactly as the per-step schedule would have.
    pub prev_boundary: SimTime,
    /// Cancellation token of the scheduled run-end event.
    pub token: EventToken,
}

impl DecodePlan {
    /// Boundaries in the plan, crossed ones included.
    pub fn boundaries(&self) -> u64 {
        u64::from(self.carried) + self.steps
    }

    /// Boundaries not yet crossed (the last is the run end).
    pub fn remaining(&self) -> u64 {
        self.boundaries() - self.crossed
    }

    /// The plan's priced steps in `tables`.
    fn segment<'a>(&self, tables: &'a StepTables) -> Segment<'a> {
        if self.steps == 0 {
            return Segment::EMPTY;
        }
        tables.segment(self.run, self.ctx0)
    }

    /// Boundary `g` of the plan whose steps are `seg`.
    fn boundary_in(&self, seg: Segment<'_>, g: u64) -> SimTime {
        self.start + seg.span(g + 1 - u64::from(self.carried))
    }

    /// Boundary `g`, counted from the plan's first.
    pub fn boundary(&self, tables: &StepTables, g: u64) -> SimTime {
        self.boundary_in(self.segment(tables), g)
    }

    /// The in-progress step's end: the first uncrossed boundary.
    pub fn front(&self, tables: &StepTables) -> SimTime {
        self.boundary(tables, self.crossed)
    }

    /// The run end: the scheduled event's fire time.
    pub fn end(&self, tables: &StepTables) -> SimTime {
        self.boundary(tables, self.boundaries() - 1)
    }

    /// The virtual push time of the scheduled run-end event: the per-step
    /// loop would have pushed the final step's event when the previous step
    /// ended — the penultimate boundary, or the in-progress step's start
    /// when only the final step remains.
    pub fn vpush(&self, tables: &StepTables) -> SimTime {
        if self.remaining() >= 2 {
            self.boundary(tables, self.boundaries() - 2)
        } else {
            self.prev_boundary
        }
    }

    /// How many uncrossed boundaries have elapsed at `now`, for an event
    /// pushed at `pushed_at`: those strictly before `now`, plus one exactly
    /// at `now` when the event was pushed after that step began (the
    /// per-step loop would have popped the step's own event first). The
    /// run end never counts.
    pub fn elapsed(&self, tables: &StepTables, now: SimTime, pushed_at: SimTime) -> u64 {
        // Uncrossed boundaries 0..last are the intermediates.
        let last = self.remaining().saturating_sub(1);
        if last == 0 {
            return 0;
        }
        let seg = self.segment(tables);
        let at = |i: u64| self.boundary_in(seg, self.crossed + i);
        // Boundaries are nondecreasing: find the first intermediate not
        // before `now`, galloping from the front (usually little has
        // elapsed) and then bisecting.
        let mut m = 0;
        if at(0) < now {
            let (mut lo, mut hi) = (0, 1);
            while hi < last && at(hi) < now {
                lo = hi;
                hi = (2 * hi).min(last);
            }
            // at(lo) < now, and at(hi) >= now unless hi == last.
            m = lo + 1;
            while m < hi {
                let mid = m + (hi - m) / 2;
                if at(mid) < now {
                    m = mid + 1;
                } else {
                    hi = mid;
                }
            }
        }
        if m < last && at(m) == now {
            let prev = if m == 0 {
                self.prev_boundary
            } else {
                at(m - 1)
            };
            if pushed_at > prev {
                return m + 1;
            }
        }
        m
    }

    /// The largest gap between consecutive boundaries among the next `m`
    /// uncrossed ones. Gaps are step times of growing contexts, so the last
    /// gap is the largest unless the boundaries saturate at the end of
    /// time.
    pub fn shared_max_gap(&self, tables: &StepTables, m: u64) -> SimDuration {
        if m < 2 {
            return SimDuration::ZERO;
        }
        let seg = self.segment(tables);
        let at = |g: u64| self.boundary_in(seg, g);
        let c = self.crossed;
        let last = at(c + m - 1);
        if last < SimTime::MAX {
            return last.saturating_since(at(c + m - 2));
        }
        (1..m)
            .map(|i| at(c + i).saturating_since(at(c + i - 1)))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
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
    /// Cost model of the replica's GPU group, shared with the KV transport,
    /// which builds each pair's route from it.
    pub cost: Arc<ReplicaCostModel>,
    /// Queued prefill jobs.
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
    /// A fresh, live executor over `cost`.
    pub fn new(cost: ReplicaCostModel) -> Self {
        PrefillExecutor {
            cost: Arc::new(cost),
            queue: PrefillQueue::default(),
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
    /// Cost model of the replica's GPU group, shared with the KV transport,
    /// which builds each pair's route from it.
    pub cost: Arc<ReplicaCostModel>,
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
    /// Step-time prefix sums every plan of this replica reads.
    pub tables: StepTables,
    /// Planner work counters.
    pub work: DecodeWork,
    alive: bool,
    epoch: u64,
}

impl DecodeExecutor {
    /// A fresh, live executor over `cost` with its KV capacity.
    pub fn new(cost: ReplicaCostModel) -> Self {
        let kv_capacity = cost.kv_capacity_tokens();
        DecodeExecutor {
            cost: Arc::new(cost),
            batch: BatchCore::new(kv_capacity),
            plan: None,
            slow_factor: 1.0,
            tables: StepTables::default(),
            work: DecodeWork::default(),
            alive: true,
            epoch: 0,
        }
    }
}

impl DecodeExecutor {
    /// Plans a run of `steps` steps at `batch` from average context `ctx0`,
    /// starting at `start` (the carried head boundary when `carried`),
    /// pricing any missing step times at the current straggler factor.
    /// `schedule` receives the run end and returns the scheduled event's
    /// token. The plan's virtual push time starts at `start`.
    ///
    /// # Errors
    /// A plan with no boundaries (no steps and no carried boundary) is an
    /// [`Error::Simulation`]; nothing is scheduled then.
    pub fn plan_run(
        &mut self,
        batch: u64,
        ctx0: u64,
        steps: u64,
        start: SimTime,
        carried: bool,
        schedule: impl FnOnce(SimTime) -> EventToken,
    ) -> Result<DecodePlan> {
        if steps == 0 && !carried {
            return Err(Error::Simulation(format!(
                "a plan with no boundaries, at {start:?}"
            )));
        }
        let (run, end) = if steps > 0 {
            let run = self.tables.ensure(
                &self.cost,
                self.slow_factor,
                batch,
                ctx0,
                steps,
                &mut self.work.steps_priced,
            );
            (run, start + self.tables.segment(run, ctx0).span(steps))
        } else {
            (0, start)
        };
        Ok(DecodePlan {
            run,
            carried,
            start,
            ctx0,
            steps,
            crossed: 0,
            prev_boundary: start,
            token: schedule(end),
        })
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
        DrainedWork {
            prefill_jobs: Vec::new(),
            lost_seqs: self.batch.drain_lost(),
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
    /// Queued prefill work.
    pub prefill: PrefillQueue,
    /// KV memory accounting, active decode batch and admission queue.
    pub batch: BatchCore,
    /// The work item currently occupying the engine, if any.
    pub current: Option<Work>,
    /// Gray-failure straggler factor applied to both phases' iteration
    /// times (a colocated replica slows down as a whole; exactly 1.0 =
    /// healthy, skipped by the driver).
    pub slow_factor: f64,
    /// One-entry memo of `(total_tokens, avg_context) -> (latency,
    /// bottleneck)` for prefill pricing, as on [`PrefillExecutor`].
    pub price_memo: Option<(u64, u64, SimDuration, SimDuration)>,
    alive: bool,
    epoch: u64,
}

impl ColocatedExecutor {
    /// A fresh, live executor over `cost` with its KV capacity.
    pub fn new(cost: ReplicaCostModel) -> Self {
        let kv_capacity = cost.kv_capacity_tokens();
        ColocatedExecutor {
            cost,
            prefill: PrefillQueue::default(),
            batch: BatchCore::new(kv_capacity),
            current: None,
            slow_factor: 1.0,
            price_memo: None,
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
        prefill_jobs.extend(self.prefill.drain_all());
        DrainedWork {
            prefill_jobs,
            lost_seqs: self.batch.drain_lost(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, EventQueue};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ts_cluster::presets;
    use ts_common::{GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, StageSpec};
    use ts_costmodel::ModelParams;

    /// Decode cost models on 8×A5000 (two 4-GPU nodes), LLaMA-7B: tp 1, 2
    /// and 4, one stage or two joined by an intra- or inter-node link.
    fn cost_models() -> Vec<ReplicaCostModel> {
        let cluster = presets::a5000_cluster(8);
        let model = ModelSpec::llama_7b();
        let shapes: [&[&[u32]]; 6] = [
            &[&[0]],
            &[&[0, 1]],
            &[&[0, 1, 2, 3]],
            &[&[0], &[4]],
            &[&[0, 1], &[2, 3]],
            &[&[0, 1, 2, 3], &[4, 5, 6, 7]],
        ];
        shapes
            .iter()
            .map(|stages| {
                let pp = stages.len();
                let first = model.num_layers / pp;
                let group = GroupSpec::new(
                    Phase::Decode,
                    ParallelConfig::new(stages[0].len(), pp).unwrap(),
                    stages
                        .iter()
                        .enumerate()
                        .map(|(i, gpus)| StageSpec {
                            gpus: gpus.iter().map(|&g| GpuId(g)).collect(),
                            layers: if i == 0 {
                                first
                            } else {
                                model.num_layers - first
                            },
                        })
                        .collect(),
                )
                .unwrap();
                ReplicaCostModel::new(&cluster, &model, &group, &ModelParams::default()).unwrap()
            })
            .collect()
    }

    /// The per-boundary loop coalesced plans priced with before step
    /// tables: every boundary re-prices its step from the cost model and
    /// adds it to the previous boundary. Returns the plan's boundaries
    /// (the carried head first) and the step times.
    fn oracle_plan(
        cost: &ReplicaCostModel,
        slow: f64,
        (batch, ctx0, steps): (u64, u64, u64),
        start: SimTime,
        carried: bool,
    ) -> (Vec<SimTime>, Vec<SimDuration>) {
        let mut bounds = Vec::new();
        if carried {
            bounds.push(start);
        }
        let mut lat = Vec::new();
        let mut at = start;
        for ctx in ctx0..ctx0 + steps {
            let mut latency = cost.decode_step_latency(batch, ctx);
            if slow != 1.0 {
                latency = latency.mul_f64(slow);
            }
            at += latency;
            bounds.push(at);
            lat.push(latency);
        }
        (bounds, lat)
    }

    /// The per-boundary catch-up scan over the uncrossed boundaries `rem`.
    fn oracle_elapsed(rem: &[SimTime], prev: SimTime, now: SimTime, pushed_at: SimTime) -> u64 {
        let mut m = 0usize;
        while m + 1 < rem.len() && rem[m] < now {
            m += 1;
        }
        if m + 1 < rem.len() && rem[m] == now {
            let prev = if m == 0 { prev } else { rem[m - 1] };
            if pushed_at > prev {
                m += 1;
            }
        }
        m as u64
    }

    /// The per-boundary max-gap scan over the first `m` of `rem`.
    fn oracle_shared_max(rem: &[SimTime], m: usize) -> SimDuration {
        (1..m)
            .map(|i| rem[i].saturating_since(rem[i - 1]))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Checks every table-backed read of `plan` against the oracle's
    /// boundaries, crossing the plan in random strides.
    fn check_plan(
        rng: &mut StdRng,
        d: &DecodeExecutor,
        mut plan: DecodePlan,
        bounds: &[SimTime],
        ctx: &str,
    ) {
        assert_eq!(plan.boundaries(), bounds.len() as u64, "{ctx}");
        for (g, &b) in bounds.iter().enumerate() {
            assert_eq!(plan.boundary(&d.tables, g as u64), b, "{ctx} boundary {g}");
        }
        assert_eq!(plan.end(&d.tables), *bounds.last().unwrap(), "{ctx} end");
        while plan.remaining() > 1 {
            let rem = &bounds[plan.crossed as usize..];
            let vpush = if rem.len() >= 2 {
                bounds[bounds.len() - 2]
            } else {
                plan.prev_boundary
            };
            assert_eq!(plan.vpush(&d.tables), vpush, "{ctx} vpush");
            let pick = |rng: &mut StdRng| rem[rng.gen_range(0..rem.len())];
            let now = match rng.gen_range(0..4u32) {
                0 => pick(rng),
                1 => SimTime::from_micros(pick(rng).as_micros().saturating_add(1)),
                2 => SimTime::from_micros(pick(rng).as_micros().saturating_sub(1)),
                _ => plan.prev_boundary,
            };
            let pushed_at = match rng.gen_range(0..3u32) {
                0 => plan.prev_boundary,
                1 => pick(rng),
                _ => now,
            };
            let m = plan.elapsed(&d.tables, now, pushed_at);
            assert_eq!(
                m,
                oracle_elapsed(rem, plan.prev_boundary, now, pushed_at),
                "{ctx} catch-up at {now:?} pushed {pushed_at:?}"
            );
            let k = rng.gen_range(0..rem.len());
            assert_eq!(
                plan.shared_max_gap(&d.tables, k as u64),
                oracle_shared_max(rem, k),
                "{ctx} shared max over {k}"
            );
            // Cross at least one boundary so the walk ends.
            let m = m.max(1);
            assert_eq!(
                plan.shared_max_gap(&d.tables, m),
                oracle_shared_max(rem, m as usize),
                "{ctx} shared max over {m}"
            );
            plan.crossed += m;
            plan.prev_boundary = rem[m as usize - 1];
        }
    }

    #[test]
    fn table_plans_match_the_per_boundary_loop_bit_for_bit() {
        let costs = cost_models();
        // 1e9 and 1e15 make steps too long for exact wrapping sums; 1e15
        // and 1e300 saturate the boundaries.
        let slows = [1.0, 1.37, 4.0, 1e9, 1e15, 1e300];
        let mut rng = StdRng::seed_from_u64(0x5eed_7ab1e);
        let mut queue = EventQueue::new();
        let kind = EventKind::ServiceResumed;
        let (mut plans, mut carried_plans, mut multi_stage, mut saturated) = (0, 0, 0, 0);
        for case in 0..2_000 {
            let ci = rng.gen_range(0..costs.len());
            let cost = &costs[ci];
            let mut d = DecodeExecutor::new(cost.clone());
            // A few plans per replica, at nearby contexts and often the same
            // batch, so later plans hit, extend and merge earlier runs.
            let mut batch = rng.gen_range(1..=256u64);
            let mut ctx0 = rng.gen_range(1..=16_384u64);
            let mut last: Option<(DecodePlan, Vec<SimTime>)> = None;
            for p in 0..rng.gen_range(1..=4u32) {
                let slow = slows[rng.gen_range(0..slows.len())];
                if slow != d.slow_factor {
                    // The plan priced at the old factor reads its own
                    // entries until the next plan is priced.
                    if let Some((plan, bounds)) = &last {
                        for (g, &b) in bounds.iter().enumerate() {
                            assert_eq!(plan.boundary(&d.tables, g as u64), b);
                        }
                    }
                    d.slow_factor = slow;
                }
                if rng.gen_bool(0.3) {
                    batch = rng.gen_range(1..=256u64);
                }
                ctx0 = (ctx0 + rng.gen_range(0..1_200u64))
                    .saturating_sub(600)
                    .clamp(1, 16_384);
                let carried = rng.gen_bool(0.5);
                let steps = rng.gen_range(1..=512u64) - u64::from(carried);
                let start = SimTime::from_micros(rng.gen_range(0..1u64 << 40));
                let plan = d
                    .plan_run(batch, ctx0, steps, start, carried, |end| {
                        queue.push_cancellable(end, kind)
                    })
                    .unwrap();
                let (bounds, lat) = oracle_plan(cost, slow, (batch, ctx0, steps), start, carried);
                assert!(
                    lat.windows(2).all(|w| w[0] <= w[1]),
                    "step time fell as context grew"
                );
                let ctx = format!(
                    "case {case} plan {p}: cost {ci} batch {batch} ctx0 {ctx0} \
                     steps {steps} carried {carried} slow {slow}"
                );
                check_plan(&mut rng, &d, plan, &bounds, &ctx);
                plans += 1;
                carried_plans += u64::from(carried);
                multi_stage += u64::from(cost.num_stages() > 1);
                saturated += u64::from(*bounds.last().unwrap() == SimTime::MAX);
                last = Some((plan, bounds));
            }
        }
        // The draws cover every axis.
        assert!(plans >= 4_000, "{plans} plans");
        assert!(carried_plans >= 1_000 && multi_stage >= 1_000 && saturated >= 500);
    }

    /// Block-priced runs at batch 4, with the runs' `(lo, hi)` after each
    /// plan. A plan of 100..110 opens the run 64..128 (64 entries). A plan
    /// inside it prices nothing. A plan of 40..50 widens to 0..64, which
    /// touches the run: a new run prices that block and appends the old
    /// one (128). A plan of 300..305 opens a second run 256..320 (192).
    /// A plan of 120..220 widens to 64..256: the first run extends at its
    /// back over the two blocks 128..256 and appends the second run (320).
    /// A plan of all 320 contexts then prices nothing and one of 310..330
    /// extends the run by the block 320..384 (384). A plan at batch 2 opens
    /// a group of runs before batch 4's (448), which batch 4 still hits.
    /// A new straggler factor drops the tables, so 100..110 at batch 4
    /// prices its block again (512).
    #[test]
    fn tables_price_each_block_once_per_factor() {
        let cost = cost_models().swap_remove(0);
        let mut d = DecodeExecutor::new(cost);
        let mut queue = EventQueue::new();
        let mut plan = |d: &mut DecodeExecutor, batch: u64, ctx0: u64, steps: u64| {
            let plan = d
                .plan_run(batch, ctx0, steps, SimTime::ZERO, false, |end| {
                    queue.push_cancellable(end, EventKind::ServiceResumed)
                })
                .unwrap();
            let oracle = (ctx0..ctx0 + steps).fold(SimTime::ZERO, |at, ctx| {
                at + d
                    .cost
                    .decode_step_latency(batch, ctx)
                    .mul_f64(d.slow_factor)
            });
            assert_eq!(plan.end(&d.tables), oracle, "batch {batch} ctx0 {ctx0}");
            let t = &d.tables;
            let runs: Vec<(u64, u64, u64)> = (0..t.starts.len() - 1)
                .flat_map(|b| {
                    t.runs[t.starts[b]..t.starts[b + 1]]
                        .iter()
                        .map(move |r| (b as u64, r.lo, r.hi()))
                })
                .collect();
            (d.work.steps_priced, runs)
        };
        assert_eq!(plan(&mut d, 4, 100, 10), (64, vec![(4, 64, 128)]));
        assert_eq!(plan(&mut d, 4, 102, 5), (64, vec![(4, 64, 128)]));
        assert_eq!(plan(&mut d, 4, 40, 10), (128, vec![(4, 0, 128)]));
        assert_eq!(
            plan(&mut d, 4, 300, 5),
            (192, vec![(4, 0, 128), (4, 256, 320)])
        );
        assert_eq!(plan(&mut d, 4, 120, 100), (320, vec![(4, 0, 320)]));
        assert_eq!(plan(&mut d, 4, 0, 320), (320, vec![(4, 0, 320)]));
        assert_eq!(plan(&mut d, 4, 310, 20), (384, vec![(4, 0, 384)]));
        let both = vec![(2, 64, 128), (4, 0, 384)];
        assert_eq!(plan(&mut d, 2, 100, 10), (448, both.clone()));
        assert_eq!(plan(&mut d, 4, 200, 100), (448, both));
        d.slow_factor = 2.0;
        assert_eq!(plan(&mut d, 4, 100, 10), (512, vec![(4, 64, 128)]));
    }

    /// A fresh plan of no steps has no boundary: an error in release
    /// builds too, with nothing scheduled. A carried boundary alone is a
    /// plan.
    #[test]
    fn a_plan_with_no_boundaries_is_an_error() {
        let mut d = DecodeExecutor::new(cost_models().swap_remove(0));
        let mut queue = EventQueue::new();
        let mut plan = |d: &mut DecodeExecutor, carried| {
            d.plan_run(4, 100, 0, SimTime::ZERO, carried, |end| {
                queue.push_cancellable(end, EventKind::ServiceResumed)
            })
        };
        let err = plan(&mut d, false).unwrap_err();
        assert!(
            matches!(&err, Error::Simulation(m) if m.contains("a plan with no boundaries")),
            "{err:?}"
        );
        assert!(plan(&mut d, true).is_ok());
        assert_eq!(queue.len(), 1, "the failed plan scheduled nothing");
    }
}
