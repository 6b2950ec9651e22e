//! The discrete-event queue.
//!
//! Events are totally ordered by `(time, sequence)`: the sequence number is
//! a monotonically increasing tiebreaker, so simultaneous events fire in
//! insertion order and runs are exactly reproducible.
//!
//! # Determinism guarantee
//!
//! [`EventQueue::push`] stamps each event with the next value of an
//! internal counter, and [`EventQueue::pop`] orders by `(at, seq)`. Two
//! events pushed at the same [`SimTime`] therefore always pop in the order
//! they were pushed — on every run, on every platform. The whole
//! simulator's reproducibility (bit-identical metrics for identical
//! inputs) reduces to this property plus the determinism of
//! [`crate::router::StrideRouter`]; nothing else in the engine breaks
//! ties.
//!
//! Every queued event has a distinct `(at, seq)`: a push and the timer take
//! a fresh `seq`, [`EventQueue::reschedule`] keeps the event's own, and
//! [`EventQueue::reinsert`] reuses only the `seq` of an event that has
//! already popped. So any correct min-heap pops the same sequence; the
//! heap's layout cannot show in the output.
//!
//! # Structure
//!
//! The queue is an indexed 4-ary implicit heap rather than `std`'s binary
//! `BinaryHeap`. The heap holds 24-byte keys — `(at, seq)` plus a payload
//! id — compared as one `u128`; each payload (the event kind, its push
//! time, a generation and the key's heap position) lives in a side vector
//! indexed by the id, and ids are recycled through a free list. Every sift
//! moves a hole, not an entry, and writes the position of each key it
//! moves, so any queued event can be found in O(1) and removed or moved in
//! O(log n). The event loop is pop-heavy (every push is eventually
//! popped), and a 4-ary layout halves the tree depth, so sift-down — the
//! pop cost — touches fewer cache lines per level for the same number of
//! comparisons; it picks the least of four children without branches.
//! [`QueueWork`] counts the heap's work exactly.
//!
//! # Cancellation
//!
//! [`EventQueue::push_cancellable`] returns an [`EventToken`]: the payload
//! id and its generation. The generation bumps whenever the event pops, is
//! cancelled or is rescheduled, so a token is current exactly while its
//! generation matches. [`EventQueue::cancel`] removes the key at its
//! recorded position; a coalesced decode plan's run-end event relies on
//! it. A cancelled event never fires, so it neither costs a dispatch nor
//! advances simulated time; the driver folds the fire times the makespan
//! must still count into its phantom horizon. [`EventQueue::reschedule`]
//! rewrites a cancellable event's time in place and sifts it up or down,
//! *preserving its original `(seq, pushed_at)` stamps*, which is what keeps
//! a replanned coalesced decode event ordered exactly like the per-step
//! event it stands for. Neither leaves anything behind in the heap: every
//! entry leaves it exactly once.
//!
//! # The timer slot
//!
//! The flow fabric's one [`EventKind::KvFlowDone`] is re-armed at the
//! fabric's earliest completion estimate after every fabric change. It
//! lives in a slot beside the heap instead of in it:
//! [`EventQueue::set_timer`] stamps it with a fresh `seq` and `pushed_at`,
//! exactly as cancelling it and pushing it afresh would, and
//! [`EventQueue::clear_timer`] disarms it. [`EventQueue::peek`] and
//! [`EventQueue::pop`] take the earlier of the heap root and the slot by
//! `(at, seq)`, so the pop order is the cancel-and-push order, and a
//! re-arm costs no sift.
//!
//! # Push-time stamps
//!
//! Each event records `pushed_at` — the simulated time the loop was
//! dispatching when the event was scheduled ([`EventQueue::set_now`] is
//! called by the run loop before each dispatch; setup-time pushes stamp
//! zero). Handlers use it to decide whether a simultaneous rival event was
//! scheduled before or after a coalesced event's virtual push time; see
//! `exec::decode`.

use std::hint::select_unpredictable;
use ts_common::{SimTime, SlabKey};

/// What happens when an event fires.
///
/// Request-scoped variants carry the request's dense [`SlabKey`] into the
/// driver's state slab — events never own request payloads, so the whole
/// kind is `Copy`. (Arrivals are not events at all: the run loop merges the
/// time-sorted arrival list with the queue lazily.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Prefill replica `replica` finished its current batch.
    PrefillDone {
        /// Index into the engine's prefill replica list.
        replica: usize,
        /// Liveness epoch of the replica when the batch launched. A replica
        /// death bumps the epoch, so completions scheduled before the fault
        /// are recognized as stale and discarded.
        epoch: u64,
    },
    /// Prefill replica `replica`'s first pipeline stage freed up: with
    /// pipeline parallelism a new batch can enter while earlier batches
    /// drain through later stages.
    PrefillSlotFree {
        /// Index into the engine's prefill replica list.
        replica: usize,
        /// Liveness epoch at scheduling time (see [`EventKind::PrefillDone`]).
        epoch: u64,
    },
    /// The KV cache of `request` finished its transfer to decode replica
    /// `replica`.
    KvTransferDone {
        /// Index into the engine's decode replica list.
        replica: usize,
        /// The request whose cache arrived.
        request: SlabKey,
        /// Transfer attempt number. Link faults cause retries; a retry bumps
        /// the attempt in the engine's transfer registry so completions of
        /// superseded attempts are discarded.
        attempt: u32,
    },
    /// A delayed (backed-off) KV transfer enters the flow-level fabric.
    /// Only scheduled under [`crate::config::KvTransfer::Fabric`];
    /// immediate launches start their flow inline.
    KvFlowLaunch {
        /// The request whose KV cache starts moving.
        request: SlabKey,
        /// Transfer attempt number this launch belongs to (see
        /// [`EventKind::KvTransferDone`]); a superseding retry makes the
        /// launch stale.
        attempt: u32,
    },
    /// The flow-level fabric's one timer: its earliest completion estimate
    /// is due. The fabric names the flow; the timer lives in the queue's
    /// timer slot and is re-armed after every fabric change.
    KvFlowDone,
    /// Decode replica `replica` finished one decode step — or, with decode
    /// coalescing, the final step of its planned multi-step run (the
    /// intermediate steps are materialized retroactively; see
    /// `exec::decode`).
    DecodeStepDone {
        /// Index into the engine's decode replica list.
        replica: usize,
        /// Liveness epoch at scheduling time (see [`EventKind::PrefillDone`]).
        epoch: u64,
    },
    /// Colocated replica `replica` finished its current work item.
    WorkDone {
        /// Index into the colocated engine's replica list.
        replica: usize,
        /// Liveness epoch at scheduling time (see [`EventKind::PrefillDone`]).
        epoch: u64,
    },
    /// Fault `index` of the active fault script takes effect (replica or
    /// link goes down/up, or a service pause begins). The capacity change is
    /// immediate; recovery waits for [`EventKind::FaultDetected`].
    FaultTriggered {
        /// Index into the fault script's fault list.
        index: usize,
    },
    /// The heartbeat monitor notices fault `index` (one detection delay
    /// after the fault): the engine masks routing away from the dead
    /// replica and re-queues its in-flight work. Scheduled only with
    /// recovery enabled, and only for a loss whose replica is still down
    /// then ([`crate::fault::Detection`]).
    FaultDetected {
        /// Index into the fault script's fault list.
        index: usize,
    },
    /// A service pause (reload blackout) ended; stalled arrivals re-enter
    /// the coordinator.
    ServiceResumed,
    /// The hedging timer for `request` matured: if its prefill or KV
    /// transfer is still outstanding, the engine launches a duplicate on an
    /// alternate replica pair (first completion wins). Only scheduled when
    /// [`crate::config::SimConfig::hedge`] is set.
    HedgeCheck {
        /// The request whose progress the timer inspects.
        request: SlabKey,
    },
    /// A heartbeat window elapsed for a node with flaky heartbeats
    /// ([`crate::fault::FaultKind::HeartbeatFlaky`]): the engine draws from
    /// the seeded fault RNG to decide whether this beat was lost, masking or
    /// readmitting the node in routing accordingly. Self-reschedules while
    /// the node's loss probability is above zero.
    FlakyBeat {
        /// Host index (prefill replicas first, then decode replicas; plain
        /// replica index for colocated engines).
        node: usize,
    },
    /// A quarantine probation period ended: the straggler detector
    /// re-admits the replica into routing (optimistically; it re-quarantines
    /// if still slow). Stale probes — scheduled before a later re-quarantine
    /// — are discarded by comparing against the recorded quarantine expiry.
    ReadmitProbe {
        /// Whether the replica is a prefill (`true`) or decode (`false`)
        /// replica; ignored for colocated engines.
        prefill: bool,
        /// Index into the respective replica list.
        replica: usize,
    },
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Fire time.
    pub at: SimTime,
    /// Insertion-order tiebreaker.
    pub seq: u64,
    /// Simulated time when the event was scheduled (zero for setup-time
    /// pushes). Rescheduling preserves the original stamp.
    pub pushed_at: SimTime,
    /// Payload.
    pub kind: EventKind,
    /// The token the event was scheduled under, if it was cancellable.
    token: Option<EventToken>,
}

impl Event {
    /// The cancellation-token identity this event was scheduled under, if
    /// it was pushed cancellable. After the event pops the token is stale
    /// for queue operations, but it still serves as an identity: the driver
    /// compares it against a plan's recorded token to recognize whether a
    /// popped coalesced decode event still speaks for the current plan.
    pub fn token(&self) -> Option<EventToken> {
        self.token
    }
}

/// Handle to a cancellable scheduled event (see
/// [`EventQueue::push_cancellable`]). Generation-checked: once the event
/// fires, is cancelled, or is superseded by a reschedule, old tokens become
/// inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventToken {
    id: u32,
    gen: u32,
}

/// The heap key of one queued event: its `(at, seq)` order and the id of
/// its payload.
#[derive(Debug, Clone, Copy)]
struct Key {
    /// Fire time, in microseconds.
    at: u64,
    seq: u64,
    id: u32,
}

impl Key {
    /// `(at, seq)` as one integer: `a` pops before `b` iff
    /// `a.rank() < b.rank()`.
    #[inline(always)]
    fn rank(&self) -> u128 {
        (u128::from(self.at) << 64) | u128::from(self.seq)
    }
}

/// Everything about a queued event but its order, indexed by its id.
#[derive(Debug, Clone, Copy)]
struct Payload {
    kind: EventKind,
    pushed_at: SimTime,
    /// Bumped whenever the event pops, is cancelled or is rescheduled: a
    /// token is current exactly while its generation matches, which also
    /// means the event is queued.
    gen: u32,
    /// Index of the event's key in the heap while it is queued.
    pos: u32,
    /// Whether the event was pushed with a token.
    cancellable: bool,
}

/// Work counters of an [`EventQueue`]'s heap (the timer slot never enters
/// it).
///
/// Machine-independent: a change to the heap or to how the driver uses it
/// shows up here exactly. Every entry leaves the heap exactly once, so a
/// drained queue has `removed == pushed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueWork {
    /// Entries inserted: pushes, cancellable pushes and reinserts.
    pub pushed: u64,
    /// Entries removed: pops and cancels.
    pub removed: u64,
    /// Levels the sifts moved a hole through, over every operation.
    pub sift_levels: u64,
    /// The most entries the heap held at once.
    pub peak_len: u64,
}

/// A deterministic min-time event queue (indexed 4-ary heap plus one timer
/// slot).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: Vec<Key>,
    /// Payloads by id; ids not in the heap are on `free`.
    payloads: Vec<Payload>,
    free: Vec<u32>,
    /// The armed timer, outside the heap.
    timer: Option<Event>,
    seq: u64,
    now: SimTime,
    work: QueueWork,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the simulated time stamped onto subsequent pushes. The run loop
    /// calls this before dispatching each event.
    #[inline]
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Schedules `kind` at `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        self.insert(at, self.seq, self.now, kind, false);
        self.seq += 1;
    }

    /// Schedules `kind` at `at` and returns a token for O(log n)
    /// cancellation or rescheduling.
    pub fn push_cancellable(&mut self, at: SimTime, kind: EventKind) -> EventToken {
        let token = self.insert(at, self.seq, self.now, kind, true);
        self.seq += 1;
        token
    }

    /// Cancels the event behind `token`. Returns whether the token was
    /// still current (the event had not fired, been cancelled, or been
    /// superseded). The event's key leaves the heap at once.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(p) = self.payloads.get(token.id as usize) else {
            return false;
        };
        if p.gen != token.gen {
            return false;
        }
        self.remove_at(p.pos as usize);
        self.release(token.id);
        true
    }

    /// Moves the event behind `token` to fire at `at` with payload `kind`,
    /// preserving its original `(seq, pushed_at)` ordering stamps — the
    /// rescheduled event keeps exactly the queue position (relative to
    /// simultaneous rivals) that the original would have had at its new
    /// time. Returns the replacement token, or `None` if the token was
    /// stale.
    pub fn reschedule(
        &mut self,
        token: EventToken,
        at: SimTime,
        kind: EventKind,
    ) -> Option<EventToken> {
        let p = self.payloads.get_mut(token.id as usize)?;
        if p.gen != token.gen {
            return None;
        }
        p.gen = p.gen.wrapping_add(1);
        p.kind = kind;
        let (pos, gen) = (p.pos as usize, p.gen);
        let old = self.heap[pos];
        let key = Key {
            at: at.as_micros(),
            ..old
        };
        if key.rank() < old.rank() {
            self.sift_up(pos, key);
        } else {
            self.sift_down(pos, key);
        }
        Some(EventToken { id: token.id, gen })
    }

    /// Re-inserts a just-popped cancellable event with explicit `(seq,
    /// pushed_at)` ordering stamps, returning a fresh token. Used by the
    /// driver for the one corner where [`EventQueue::reschedule`] cannot
    /// apply: a coalesced decode event has already popped (its token is
    /// stale) when a simultaneous rival, dispatched inline ahead of it,
    /// replans the same replica. Reinserting with the original stamps keeps
    /// the replanned event ordered against other simultaneous events
    /// exactly as the per-step schedule would have ordered it.
    pub fn reinsert(
        &mut self,
        at: SimTime,
        kind: EventKind,
        seq: u64,
        pushed_at: SimTime,
    ) -> EventToken {
        debug_assert!(seq < self.seq, "reinsert stamps must come from a past push");
        self.insert(at, seq, pushed_at, kind, true)
    }

    /// Arms the timer slot at `at` with payload `kind`, replacing any armed
    /// timer. The timer takes the next `seq` and the current push time, as
    /// a fresh [`EventQueue::push`] would: re-armed at an unchanged time,
    /// it still pops after every event pushed since it was last armed.
    pub fn set_timer(&mut self, at: SimTime, kind: EventKind) {
        self.timer = Some(Event {
            at,
            seq: self.seq,
            pushed_at: self.now,
            kind,
            token: None,
        });
        self.seq += 1;
    }

    /// Disarms the timer slot (a no-op when it is empty).
    pub fn clear_timer(&mut self) {
        self.timer = None;
    }

    /// Whether the armed timer comes before the heap root; false without a
    /// timer.
    fn timer_first(&self) -> bool {
        match (&self.timer, self.heap.first()) {
            (Some(t), Some(root)) => (t.at.as_micros(), t.seq) < (root.at, root.seq),
            (timer, _) => timer.is_some(),
        }
    }

    /// The earliest queued event, without removing it.
    pub fn peek(&self) -> Option<Event> {
        if self.timer_first() {
            self.timer
        } else {
            self.heap.first().map(|&key| self.event(key))
        }
    }

    /// The fire time of the earliest queued event.
    #[inline]
    pub fn peek_at(&self) -> Option<SimTime> {
        let root = self.heap.first().map(|k| SimTime::from_micros(k.at));
        match (root, self.timer) {
            (Some(r), Some(t)) => Some(r.min(t.at)),
            (r, t) => r.or(t.map(|t| t.at)),
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        if self.timer_first() {
            return self.timer.take();
        }
        let key = *self.heap.first()?;
        let ev = self.event(key);
        self.remove_at(0);
        self.release(key.id);
        Some(ev)
    }

    /// Number of pending (non-cancelled) events, the armed timer included.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.timer.is_some())
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The heap's work so far.
    pub fn work(&self) -> QueueWork {
        self.work
    }

    /// The queued event behind `key`.
    fn event(&self, key: Key) -> Event {
        let p = &self.payloads[key.id as usize];
        Event {
            at: SimTime::from_micros(key.at),
            seq: key.seq,
            pushed_at: p.pushed_at,
            kind: p.kind,
            token: p.cancellable.then_some(EventToken {
                id: key.id,
                gen: p.gen,
            }),
        }
    }

    /// Queues an event under a recycled or new payload id and returns its
    /// token (unused for plain pushes).
    fn insert(
        &mut self,
        at: SimTime,
        seq: u64,
        pushed_at: SimTime,
        kind: EventKind,
        cancellable: bool,
    ) -> EventToken {
        let payload = Payload {
            kind,
            pushed_at,
            gen: 0,
            pos: 0,
            cancellable,
        };
        let (id, gen) = match self.free.pop() {
            Some(id) => {
                let p = &mut self.payloads[id as usize];
                *p = Payload {
                    gen: p.gen,
                    ..payload
                };
                (id, p.gen)
            }
            None => {
                let id = u32::try_from(self.payloads.len()).expect("too many queued events");
                self.payloads.push(payload);
                (id, 0)
            }
        };
        let i = self.heap.len();
        let key = Key {
            at: at.as_micros(),
            seq,
            id,
        };
        self.heap.push(key);
        self.work.pushed += 1;
        self.work.peak_len = self.work.peak_len.max(self.heap.len() as u64);
        self.sift_up(i, key);
        EventToken { id, gen }
    }

    /// Retires payload `id` after its key left the heap: its tokens go
    /// stale and the id is free for reuse.
    fn release(&mut self, id: u32) {
        let p = &mut self.payloads[id as usize];
        p.gen = p.gen.wrapping_add(1);
        self.free.push(id);
    }

    /// Removes the key at heap index `i`, filling the hole with the last
    /// key and sifting that up or down.
    fn remove_at(&mut self, i: usize) {
        let last = self.heap.pop().expect("remove from an empty heap");
        self.work.removed += 1;
        if i == self.heap.len() {
            return;
        }
        if i > 0 && last.rank() < self.heap[(i - 1) / 4].rank() {
            self.sift_up(i, last);
        } else {
            self.sift_down(i, last);
        }
    }

    /// Writes `key` at heap index `i` and records the position.
    #[inline(always)]
    fn place(&mut self, i: usize, key: Key) {
        self.heap[i] = key;
        self.payloads[key.id as usize].pos = i as u32;
    }

    /// Lands `key` from the hole at index `i` upward.
    ///
    /// Hole-based: ancestors slide down into the vacancy and `key` lands
    /// once at its final index, instead of swapping at every level.
    fn sift_up(&mut self, mut i: usize, key: Key) {
        let rank = key.rank();
        let mut levels = 0;
        while i > 0 {
            let parent = (i - 1) / 4;
            let above = self.heap[parent];
            if rank >= above.rank() {
                break;
            }
            self.place(i, above);
            i = parent;
            levels += 1;
        }
        self.place(i, key);
        self.work.sift_levels += levels;
    }

    /// Lands `key` from the hole at index `i` downward (hole-based, like
    /// [`EventQueue::sift_up`]).
    fn sift_down(&mut self, mut i: usize, key: Key) {
        let rank = key.rank();
        let len = self.heap.len();
        let mut levels = 0;
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let (best, best_rank) = if first + 4 <= len {
                // A full family: a branch-free tournament, since which
                // child wins is a coin flip to the branch predictor.
                let h = &self.heap[first..first + 4];
                let (r0, r1, r2, r3) = (h[0].rank(), h[1].rank(), h[2].rank(), h[3].rank());
                let (a, ra) = select_unpredictable(r1 < r0, (first + 1, r1), (first, r0));
                let (b, rb) = select_unpredictable(r3 < r2, (first + 3, r3), (first + 2, r2));
                select_unpredictable(rb < ra, (b, rb), (a, ra))
            } else {
                let mut best = first;
                let mut best_rank = self.heap[first].rank();
                for c in first + 1..len {
                    let r = self.heap[c].rank();
                    if r < best_rank {
                        best = c;
                        best_rank = r;
                    }
                }
                (best, best_rank)
            };
            if best_rank >= rank {
                break;
            }
            self.place(i, self.heap[best]);
            i = best;
            levels += 1;
        }
        self.place(i, key);
        self.work.sift_levels += levels;
    }

    /// Asserts the heap order and the index: every queued payload's
    /// position points at a key carrying its id, and every other id is
    /// free.
    #[cfg(test)]
    fn check_index(&self) {
        for (i, k) in self.heap.iter().enumerate().skip(1) {
            assert!(
                self.heap[(i - 1) / 4].rank() < k.rank(),
                "heap order at {i}"
            );
        }
        let mut queued = vec![true; self.payloads.len()];
        for &id in &self.free {
            assert!(queued[id as usize], "id {id} freed twice");
            queued[id as usize] = false;
        }
        let live = queued.iter().filter(|&&q| q).count();
        assert_eq!(live, self.heap.len(), "queued payloads vs heap keys");
        for (id, p) in self.payloads.iter().enumerate() {
            if queued[id] {
                assert_eq!(
                    self.heap[p.pos as usize].id as usize, id,
                    "position of {id}"
                );
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(
            SimTime::from_micros(30),
            EventKind::PrefillDone {
                replica: 2,
                epoch: 0,
            },
        );
        q.push(
            SimTime::from_micros(10),
            EventKind::PrefillDone {
                replica: 0,
                epoch: 0,
            },
        );
        q.push(
            SimTime::from_micros(20),
            EventKind::PrefillDone {
                replica: 1,
                epoch: 0,
            },
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_micros())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        for r in 0..5 {
            q.push(
                SimTime::from_micros(7),
                EventKind::DecodeStepDone {
                    replica: r,
                    epoch: 0,
                },
            );
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::DecodeStepDone { replica, .. } => replica,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn same_time_ties_break_by_insertion_order_across_runs() {
        // Two events at the same SimTime must pop in push order, and the
        // whole pop sequence must be identical across independent runs
        // (bit-identical reproduction depends on this).
        let run = || {
            let mut q = EventQueue::new();
            // Interleave ties at t=5 with events at other times.
            q.push(SimTime::from_micros(9), EventKind::ServiceResumed);
            q.push(
                SimTime::from_micros(5),
                EventKind::PrefillDone {
                    replica: 0,
                    epoch: 0,
                },
            );
            q.push(
                SimTime::from_micros(5),
                EventKind::WorkDone {
                    replica: 1,
                    epoch: 0,
                },
            );
            q.push(
                SimTime::from_micros(1),
                EventKind::FaultTriggered { index: 0 },
            );
            q.push(
                SimTime::from_micros(5),
                EventKind::DecodeStepDone {
                    replica: 2,
                    epoch: 0,
                },
            );
            std::iter::from_fn(move || q.pop())
                .map(|e| (e.at.as_micros(), e.kind))
                .collect::<Vec<_>>()
        };
        let first = run();
        let kinds_at_5: Vec<&EventKind> = first
            .iter()
            .filter(|(t, _)| *t == 5)
            .map(|(_, k)| k)
            .collect();
        assert!(matches!(
            kinds_at_5[0],
            EventKind::PrefillDone { replica: 0, .. }
        ));
        assert!(matches!(
            kinds_at_5[1],
            EventKind::WorkDone { replica: 1, .. }
        ));
        assert!(matches!(
            kinds_at_5[2],
            EventKind::DecodeStepDone { replica: 2, .. }
        ));
        for _ in 0..10 {
            assert_eq!(run(), first, "pop order must not vary across runs");
        }
    }

    #[test]
    fn len_tracks_population() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(
            SimTime::ZERO,
            EventKind::PrefillDone {
                replica: 0,
                epoch: 0,
            },
        );
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_removes_without_firing() {
        let mut q = EventQueue::new();
        let t = q.push_cancellable(SimTime::from_micros(5), EventKind::ServiceResumed);
        q.push(
            SimTime::from_micros(7),
            EventKind::PrefillDone {
                replica: 0,
                epoch: 0,
            },
        );
        assert_eq!(q.len(), 2);
        assert!(q.cancel(t));
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(t), "double cancel is inert");
        let ev = q.pop().unwrap();
        assert_eq!(ev.at.as_micros(), 7, "cancelled event never surfaces");
        assert!(q.pop().is_none());
    }

    #[test]
    fn fired_tokens_go_stale() {
        let mut q = EventQueue::new();
        let t = q.push_cancellable(SimTime::from_micros(5), EventKind::ServiceResumed);
        assert!(q.pop().is_some());
        assert!(!q.cancel(t), "token of a fired event is stale");
        // The slot is recycled; the old token must not cancel the new event.
        let t2 = q.push_cancellable(SimTime::from_micros(9), EventKind::ServiceResumed);
        assert!(!q.cancel(t));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(t2));
    }

    #[test]
    fn reschedule_preserves_seq_and_pushed_at() {
        let mut q = EventQueue::new();
        q.set_now(SimTime::from_micros(3));
        let t = q.push_cancellable(SimTime::from_micros(10), EventKind::ServiceResumed);
        q.set_now(SimTime::from_micros(4));
        q.push(
            SimTime::from_micros(20),
            EventKind::PrefillDone {
                replica: 0,
                epoch: 0,
            },
        );
        // Move the cancellable event to the same instant as the plain one:
        // its original (earlier) seq must still win the tie, and its
        // pushed_at must still read 3.
        let t = q
            .reschedule(t, SimTime::from_micros(20), EventKind::ServiceResumed)
            .expect("token current");
        assert!(!q.cancel(EventToken {
            id: t.id,
            gen: t.gen.wrapping_sub(1)
        }));
        let first = q.pop().unwrap();
        assert_eq!(first.kind, EventKind::ServiceResumed);
        assert_eq!(first.pushed_at.as_micros(), 3);
        let second = q.pop().unwrap();
        assert!(matches!(second.kind, EventKind::PrefillDone { .. }));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn reinsert_restores_popped_ordering_stamps() {
        let mut q = EventQueue::new();
        q.set_now(SimTime::from_micros(2));
        let _early = q.push_cancellable(SimTime::from_micros(10), EventKind::ServiceResumed);
        let popped = q.pop().unwrap();
        // A later push gets a later seq...
        q.push(
            SimTime::from_micros(10),
            EventKind::PrefillDone {
                replica: 0,
                epoch: 0,
            },
        );
        // ...but reinserting the popped event with its original stamps puts
        // it back in front at the same instant, with pushed_at preserved.
        let t = q.reinsert(
            SimTime::from_micros(10),
            EventKind::ServiceResumed,
            popped.seq,
            popped.pushed_at,
        );
        let first = q.pop().unwrap();
        assert_eq!(first.kind, EventKind::ServiceResumed);
        assert_eq!(first.seq, popped.seq);
        assert_eq!(first.pushed_at.as_micros(), 2);
        assert!(!q.cancel(t), "token of the re-fired event is stale");
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::PrefillDone { .. }
        ));
    }

    #[test]
    fn peek_skips_cancelled_events() {
        let mut q = EventQueue::new();
        let t = q.push_cancellable(SimTime::from_micros(1), EventKind::ServiceResumed);
        q.push(
            SimTime::from_micros(2),
            EventKind::PrefillDone {
                replica: 7,
                epoch: 0,
            },
        );
        q.cancel(t);
        let ev = q.peek().expect("one live event");
        assert_eq!(ev.at.as_micros(), 2);
        assert!(matches!(ev.kind, EventKind::PrefillDone { replica: 7, .. }));
    }

    /// The fabric re-arms its timer after every change, even at an
    /// unchanged time: the re-armed timer must pop after an event pushed
    /// between the two arms, as a cancel-and-push would order it.
    #[test]
    fn timer_rearmed_at_the_same_time_pops_after_events_pushed_between() {
        let mut q = EventQueue::new();
        let at = SimTime::from_micros(50);
        q.set_timer(at, EventKind::KvFlowDone);
        q.set_now(SimTime::from_micros(10));
        q.push(at, EventKind::ServiceResumed);
        assert_eq!(q.peek().unwrap().kind, EventKind::KvFlowDone);
        q.set_now(SimTime::from_micros(20));
        q.set_timer(at, EventKind::KvFlowDone);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek().unwrap().kind, EventKind::ServiceResumed);
        assert_eq!(q.pop().unwrap().kind, EventKind::ServiceResumed);
        let timer = q.pop().unwrap();
        assert_eq!(timer.kind, EventKind::KvFlowDone);
        assert_eq!(timer.pushed_at.as_micros(), 20, "restamped at the re-arm");
        assert_eq!(timer.token(), None);
        assert!(q.pop().is_none() && q.is_empty());
    }

    #[test]
    fn cleared_timer_never_fires() {
        let mut q = EventQueue::new();
        q.set_timer(SimTime::from_micros(1), EventKind::KvFlowDone);
        q.push(SimTime::from_micros(2), EventKind::ServiceResumed);
        q.clear_timer();
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().kind, EventKind::ServiceResumed);
        assert!(q.pop().is_none());
    }

    /// Every entry leaves the heap exactly once: pops and cancels balance
    /// the pushes, a reschedule moves an entry without adding one, and the
    /// timer slot stays out of the count.
    #[test]
    fn queue_work_counts_each_entry_in_and_out_once() {
        let mut q = EventQueue::new();
        let a = q.push_cancellable(SimTime::from_micros(5), EventKind::ServiceResumed);
        let b = q.push_cancellable(SimTime::from_micros(6), EventKind::ServiceResumed);
        q.push(SimTime::from_micros(7), EventKind::ServiceResumed);
        q.set_timer(SimTime::from_micros(1), EventKind::KvFlowDone);
        let at = SimTime::from_micros(9);
        assert!(q.reschedule(a, at, EventKind::ServiceResumed).is_some());
        assert!(q.cancel(b));
        assert_eq!(std::iter::from_fn(|| q.pop()).count(), 3);
        let w = q.work();
        assert_eq!((w.pushed, w.removed, w.peak_len), (3, 3, 3));
    }

    /// Model-based property sweep: under random interleaved push /
    /// push_cancellable / cancel / reschedule / reinsert / pop and timer
    /// set / clear / restamp, the queue pops exactly the live events of a
    /// reference model, in `(at, seq)` order, with their kinds and push
    /// stamps. After every op, `peek` names the event the next `pop`
    /// returns and the heap's index holds. Runs as a seeded deterministic
    /// sweep over many xorshift-driven op sequences.
    #[test]
    fn random_ops_match_reference_model() {
        struct Rng(u64);
        impl Rng {
            fn next(&mut self) -> u64 {
                let mut x = self.0;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.0 = x;
                x
            }
        }
        /// One modelled event; its kind names its index in the model.
        #[derive(Clone, Copy)]
        struct Entry {
            at: u64,
            seq: u64,
            pushed_at: u64,
            live: bool,
        }
        let kind = |mi: usize| EventKind::FaultTriggered { index: mi };
        let next_due = |model: &[Entry]| {
            model
                .iter()
                .enumerate()
                .filter(|(_, e)| e.live)
                .min_by_key(|(_, e)| (e.at, e.seq))
                .map(|(i, e)| (e.at, e.seq, e.pushed_at, kind(i)))
        };
        let seen = |e: Event| (e.at.as_micros(), e.seq, e.pushed_at.as_micros(), e.kind);

        for seed in 1u64..=64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut q = EventQueue::new();
            let mut model: Vec<Entry> = Vec::new();
            let mut tokens: Vec<(EventToken, usize)> = Vec::new();
            // The model entry of the armed timer.
            let mut timer: Option<usize> = None;
            // The last popped cancellable event, not yet re-queued.
            let mut reinsertable: Option<Event> = None;
            let mut next_seq = 0u64;
            let mut now = 0u64;
            let mut peeked = None;
            let ops = 40 + (rng.next() % 160) as usize;
            for _ in 0..ops {
                match rng.next() % 10 {
                    0 => {
                        let at = rng.next() % 100;
                        q.push(SimTime::from_micros(at), kind(model.len()));
                        model.push(Entry {
                            at,
                            seq: next_seq,
                            pushed_at: now,
                            live: true,
                        });
                        next_seq += 1;
                    }
                    1 => {
                        let at = rng.next() % 100;
                        let t = q.push_cancellable(SimTime::from_micros(at), kind(model.len()));
                        tokens.push((t, model.len()));
                        model.push(Entry {
                            at,
                            seq: next_seq,
                            pushed_at: now,
                            live: true,
                        });
                        next_seq += 1;
                    }
                    2 => {
                        if tokens.is_empty() {
                            continue;
                        }
                        let i = (rng.next() as usize) % tokens.len();
                        let (t, mi) = tokens.swap_remove(i);
                        assert_eq!(q.cancel(t), model[mi].live, "seed {seed}");
                        model[mi].live = false;
                    }
                    3 => {
                        if tokens.is_empty() {
                            continue;
                        }
                        let slot = (rng.next() as usize) % tokens.len();
                        let at = rng.next() % 100;
                        let (t, mi) = tokens[slot];
                        match q.reschedule(t, SimTime::from_micros(at), kind(mi)) {
                            Some(nt) => {
                                assert!(model[mi].live, "seed {seed}");
                                model[mi].at = at; // seq and pushed_at preserved
                                tokens[slot] = (nt, mi);
                            }
                            None => {
                                assert!(!model[mi].live, "seed {seed}");
                                tokens.swap_remove(slot);
                            }
                        }
                    }
                    4 => {
                        // Re-queue a popped run-end event with its stamps,
                        // as `decode::replan` does.
                        let Some(ev) = reinsertable.take() else {
                            continue;
                        };
                        let at = rng.next() % 100;
                        let t = q.reinsert(
                            SimTime::from_micros(at),
                            kind(model.len()),
                            ev.seq,
                            ev.pushed_at,
                        );
                        tokens.push((t, model.len()));
                        model.push(Entry {
                            at,
                            seq: ev.seq,
                            pushed_at: ev.pushed_at.as_micros(),
                            live: true,
                        });
                    }
                    5 | 6 => {
                        // Set at a fresh time, or restamp at the armed
                        // timer's time (a fresh time when none is armed).
                        let armed = timer.filter(|&mi| model[mi].live).map(|mi| model[mi].at);
                        let at = match armed {
                            Some(at) if rng.next().is_multiple_of(2) => at,
                            _ => rng.next() % 100,
                        };
                        q.set_timer(SimTime::from_micros(at), kind(model.len()));
                        if let Some(mi) = timer {
                            model[mi].live = false;
                        }
                        timer = Some(model.len());
                        model.push(Entry {
                            at,
                            seq: next_seq,
                            pushed_at: now,
                            live: true,
                        });
                        next_seq += 1;
                    }
                    7 => {
                        q.clear_timer();
                        if let Some(mi) = timer.take() {
                            model[mi].live = false;
                        }
                    }
                    _ => {
                        let want = next_due(&model);
                        let got = q.pop();
                        assert_eq!(got, peeked, "seed {seed}: pop differs from peek");
                        assert_eq!(got.map(seen), want, "seed {seed}");
                        if let Some(ev) = got {
                            let EventKind::FaultTriggered { index } = ev.kind else {
                                unreachable!()
                            };
                            model[index].live = false;
                            now = ev.at.as_micros();
                            q.set_now(ev.at);
                            if ev.token().is_some() {
                                reinsertable = Some(ev);
                            }
                        }
                    }
                }
                peeked = q.peek();
                assert_eq!(peeked.map(seen), next_due(&model), "seed {seed}: peek");
                q.check_index();
                let live = model.iter().filter(|e| e.live).count();
                assert_eq!(q.len(), live, "seed {seed}");
                let w = q.work();
                assert_eq!((w.pushed - w.removed) as usize, q.heap.len(), "seed {seed}");
            }
            // Drain: remaining live events must surface in (at, seq) order.
            let mut rest: Vec<(u64, u64)> = model
                .iter()
                .filter(|e| e.live)
                .map(|e| (e.at, e.seq))
                .collect();
            rest.sort_unstable();
            let drained: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
                .map(|e| (e.at.as_micros(), e.seq))
                .collect();
            assert_eq!(drained, rest, "seed {seed}");
            let w = q.work();
            assert_eq!(w.removed, w.pushed, "seed {seed}: every entry leaves once");
        }
    }
}
