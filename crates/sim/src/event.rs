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
//! # Structure
//!
//! The queue is a 4-ary implicit heap rather than `std`'s binary
//! `BinaryHeap`: the event loop is pop-heavy (every push is eventually
//! popped, plus tombstones), and a 4-ary layout halves the tree depth, so
//! sift-down — the pop cost — touches fewer cache lines per level for the
//! same number of comparisons. Ordering is exactly `(at, seq)`.
//!
//! # Cancellation
//!
//! [`EventQueue::push_cancellable`] returns an [`EventToken`] backed by a
//! generation-checked side table. [`EventQueue::cancel`] is O(1): it bumps
//! the slot's generation, turning the heap entry into a tombstone that
//! [`EventQueue::pop`] discards when it surfaces. A coalesced decode plan's
//! run-end event relies on it. A cancelled event never fires, so it
//! neither costs a dispatch nor advances simulated time; the driver folds
//! the fire times the makespan must still count into its phantom horizon.
//! [`EventQueue::reschedule`] moves a cancellable event to a new time
//! while *preserving its original `(seq, pushed_at)` stamps*, which is what
//! keeps a replanned coalesced decode event ordered exactly like the
//! per-step event it stands for.
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
//! re-arm costs neither a sift nor a tombstone.
//!
//! # Push-time stamps
//!
//! Each event records `pushed_at` — the simulated time the loop was
//! dispatching when the event was scheduled ([`EventQueue::set_now`] is
//! called by the run loop before each dispatch; setup-time pushes stamp
//! zero). Handlers use it to decide whether a simultaneous rival event was
//! scheduled before or after a coalesced event's virtual push time; see
//! `exec::decode`.

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
    /// Cancellation slot, or `NO_SLOT`.
    slot: u32,
    /// Generation of `slot` this entry belongs to.
    slot_gen: u32,
}

const NO_SLOT: u32 = u32::MAX;

impl Event {
    /// The cancellation-token identity this event was scheduled under, if
    /// it was pushed cancellable. After the event pops the token is stale
    /// for queue operations, but it still serves as an identity: the driver
    /// compares it against a plan's recorded token to recognize whether a
    /// popped coalesced decode event still speaks for the current plan.
    pub fn token(&self) -> Option<EventToken> {
        (self.slot != NO_SLOT).then_some(EventToken {
            slot: self.slot,
            gen: self.slot_gen,
        })
    }
}

/// Handle to a cancellable scheduled event (see
/// [`EventQueue::push_cancellable`]). Generation-checked: once the event
/// fires, is cancelled, or is superseded by a reschedule, old tokens become
/// inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventToken {
    slot: u32,
    gen: u32,
}

#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    /// Current generation; heap entries with an older generation are
    /// tombstones.
    gen: u32,
    /// Whether the current generation has a live heap entry (false once
    /// cancelled or fired; the slot is then reusable).
    live: bool,
    /// Original `seq` of the entry occupying this slot, preserved across
    /// reschedules.
    seq: u64,
    /// Original `pushed_at` of the entry, preserved across reschedules.
    pushed_at: SimTime,
}

/// A deterministic min-time event queue (4-ary indexed heap plus one timer
/// slot).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: Vec<Event>,
    /// The armed timer, outside the heap.
    timer: Option<Event>,
    seq: u64,
    /// Count of live (non-tombstoned) heap entries.
    live: usize,
    now: SimTime,
    slots: Vec<SlotMeta>,
    free_slots: Vec<u32>,
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
        let ev = Event {
            at,
            seq: self.seq,
            pushed_at: self.now,
            kind,
            slot: NO_SLOT,
            slot_gen: 0,
        };
        self.seq += 1;
        self.live += 1;
        self.sift_up(ev);
    }

    /// Schedules `kind` at `at` and returns a token for O(1) cancellation
    /// or rescheduling.
    pub fn push_cancellable(&mut self, at: SimTime, kind: EventKind) -> EventToken {
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slots.len()).expect("too many cancellation slots");
                self.slots.push(SlotMeta {
                    gen: 0,
                    live: false,
                    seq: 0,
                    pushed_at: SimTime::ZERO,
                });
                s
            }
        };
        let meta = &mut self.slots[slot as usize];
        debug_assert!(!meta.live, "free list pointed at a live slot");
        meta.live = true;
        meta.seq = self.seq;
        meta.pushed_at = self.now;
        let token = EventToken {
            slot,
            gen: meta.gen,
        };
        let ev = Event {
            at,
            seq: self.seq,
            pushed_at: self.now,
            kind,
            slot,
            slot_gen: meta.gen,
        };
        self.seq += 1;
        self.live += 1;
        self.sift_up(ev);
        token
    }

    /// Cancels the event behind `token`. Returns whether the token was
    /// still current (the event had not fired, been cancelled, or been
    /// superseded). O(1): the heap entry becomes a tombstone discarded at
    /// pop.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(meta) = self.slots.get_mut(token.slot as usize) else {
            return false;
        };
        if meta.gen != token.gen || !meta.live {
            return false;
        }
        meta.gen = meta.gen.wrapping_add(1);
        meta.live = false;
        self.free_slots.push(token.slot);
        self.live -= 1;
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
        let meta = self.slots.get_mut(token.slot as usize)?;
        if meta.gen != token.gen || !meta.live {
            return None;
        }
        meta.gen = meta.gen.wrapping_add(1);
        let token = EventToken {
            slot: token.slot,
            gen: meta.gen,
        };
        let ev = Event {
            at,
            seq: meta.seq,
            pushed_at: meta.pushed_at,
            kind,
            slot: token.slot,
            slot_gen: token.gen,
        };
        self.sift_up(ev);
        Some(token)
    }

    /// Re-inserts a just-popped cancellable event with explicit `(seq,
    /// pushed_at)` ordering stamps, returning a fresh token. Used by the
    /// driver for the one corner where [`EventQueue::reschedule`] cannot
    /// apply: a coalesced decode event has already popped (its slot is
    /// dead) when a simultaneous rival, dispatched inline ahead of it,
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
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slots.len()).expect("too many cancellation slots");
                self.slots.push(SlotMeta {
                    gen: 0,
                    live: false,
                    seq: 0,
                    pushed_at: SimTime::ZERO,
                });
                s
            }
        };
        let meta = &mut self.slots[slot as usize];
        debug_assert!(!meta.live, "free list pointed at a live slot");
        meta.live = true;
        meta.seq = seq;
        meta.pushed_at = pushed_at;
        let token = EventToken {
            slot,
            gen: meta.gen,
        };
        let ev = Event {
            at,
            seq,
            pushed_at,
            kind,
            slot,
            slot_gen: meta.gen,
        };
        self.live += 1;
        self.sift_up(ev);
        token
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
            slot: NO_SLOT,
            slot_gen: 0,
        });
        self.seq += 1;
    }

    /// Disarms the timer slot (a no-op when it is empty).
    pub fn clear_timer(&mut self) {
        self.timer = None;
    }

    /// Discards tombstones at the heap root.
    fn clean_root(&mut self) {
        while let Some(root) = self.heap.first() {
            if root.slot != NO_SLOT && self.slots[root.slot as usize].gen != root.slot_gen {
                self.remove_root();
            } else {
                break;
            }
        }
    }

    /// Whether the armed timer comes before the (clean) heap root; false
    /// without a timer.
    fn timer_first(&self) -> bool {
        match (&self.timer, self.heap.first()) {
            (Some(t), Some(root)) => Self::before(t, root),
            (timer, _) => timer.is_some(),
        }
    }

    /// The earliest live event, without removing it.
    pub fn peek(&mut self) -> Option<&Event> {
        self.clean_root();
        if self.timer_first() {
            self.timer.as_ref()
        } else {
            self.heap.first()
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.clean_root();
        if self.timer_first() {
            return self.timer.take();
        }
        let ev = *self.heap.first()?;
        self.remove_root();
        if ev.slot != NO_SLOT {
            let meta = &mut self.slots[ev.slot as usize];
            debug_assert!(meta.live && meta.gen == ev.slot_gen);
            meta.gen = meta.gen.wrapping_add(1);
            meta.live = false;
            self.free_slots.push(ev.slot);
        }
        self.live -= 1;
        Some(ev)
    }

    /// Number of pending (non-cancelled) events, the armed timer included.
    pub fn len(&self) -> usize {
        self.live + usize::from(self.timer.is_some())
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn before(a: &Event, b: &Event) -> bool {
        (a.at, a.seq) < (b.at, b.seq)
    }

    /// Inserts `ev` as a new leaf and restores the heap property upward.
    ///
    /// Hole-based: ancestors slide down into the vacancy and `ev` lands
    /// once at its final slot, instead of swapping (a 64-byte event) at
    /// every level. The comparison sequence — and therefore the final
    /// layout and every subsequent pop — is identical to the swap form.
    fn sift_up(&mut self, ev: Event) {
        let mut i = self.heap.len();
        self.heap.push(ev);
        while i > 0 {
            let parent = (i - 1) / 4;
            if Self::before(&ev, &self.heap[parent]) {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = ev;
    }

    /// Removes the root and restores the heap property downward
    /// (hole-based, like [`EventQueue::sift_up`]).
    fn remove_root(&mut self) {
        let last = self.heap.pop().expect("remove_root on empty heap");
        if self.heap.is_empty() {
            return;
        }
        let len = self.heap.len();
        let mut i = 0;
        loop {
            let first_child = 4 * i + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let end = (first_child + 4).min(len);
            for c in first_child + 1..end {
                if Self::before(&self.heap[c], &self.heap[best]) {
                    best = c;
                }
            }
            if Self::before(&self.heap[best], &last) {
                self.heap[i] = self.heap[best];
                i = best;
            } else {
                break;
            }
        }
        self.heap[i] = last;
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
            slot: t.slot,
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
    fn peek_skips_tombstones() {
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

    /// Model-based property sweep: under random interleaved push /
    /// push_cancellable / cancel / reschedule / pop and timer set / clear /
    /// restamp, the queue pops exactly the live events of a reference
    /// model, in `(at, seq)` order. Runs as a seeded deterministic sweep
    /// over many xorshift-driven op sequences.
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

        for seed in 1u64..=64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut q = EventQueue::new();
            // Reference: Vec of (at, seq, live-flag); tokens index into it.
            let mut model: Vec<(u64, u64, bool)> = Vec::new();
            let mut tokens: Vec<(EventToken, usize)> = Vec::new();
            // The model entry of the armed timer.
            let mut timer: Option<usize> = None;
            let mut next_seq = 0u64;
            let ops = 40 + (rng.next() % 160) as usize;
            for _ in 0..ops {
                match rng.next() % 9 {
                    0 => {
                        let at = rng.next() % 100;
                        q.push(SimTime::from_micros(at), EventKind::ServiceResumed);
                        model.push((at, next_seq, true));
                        next_seq += 1;
                    }
                    1 => {
                        let at = rng.next() % 100;
                        let t =
                            q.push_cancellable(SimTime::from_micros(at), EventKind::ServiceResumed);
                        model.push((at, next_seq, true));
                        tokens.push((t, model.len() - 1));
                        next_seq += 1;
                    }
                    2 => {
                        if tokens.is_empty() {
                            continue;
                        }
                        let i = (rng.next() as usize) % tokens.len();
                        let (t, mi) = tokens.swap_remove(i);
                        let was_live = model[mi].2;
                        assert_eq!(q.cancel(t), was_live, "seed {seed}");
                        model[mi].2 = false;
                    }
                    3 => {
                        if tokens.is_empty() {
                            continue;
                        }
                        let slot = (rng.next() as usize) % tokens.len();
                        let at = rng.next() % 100;
                        let (t, mi) = tokens[slot];
                        match q.reschedule(t, SimTime::from_micros(at), EventKind::ServiceResumed) {
                            Some(nt) => {
                                assert!(model[mi].2, "seed {seed}");
                                model[mi].0 = at; // seq preserved
                                tokens[slot] = (nt, mi);
                            }
                            None => {
                                assert!(!model[mi].2, "seed {seed}");
                                tokens.swap_remove(slot);
                            }
                        }
                    }
                    5 | 6 => {
                        // Set at a fresh time, or restamp at the armed
                        // timer's time (a fresh time when none is armed).
                        let armed = timer.filter(|&mi| model[mi].2).map(|mi| model[mi].0);
                        let at = match armed {
                            Some(at) if rng.next().is_multiple_of(2) => at,
                            _ => rng.next() % 100,
                        };
                        q.set_timer(SimTime::from_micros(at), EventKind::KvFlowDone);
                        if let Some(mi) = timer {
                            model[mi].2 = false;
                        }
                        model.push((at, next_seq, true));
                        timer = Some(model.len() - 1);
                        next_seq += 1;
                    }
                    7 => {
                        q.clear_timer();
                        if let Some(mi) = timer.take() {
                            model[mi].2 = false;
                        }
                    }
                    _ => {
                        let got = q.pop().map(|e| (e.at.as_micros(), e.seq));
                        let want = model
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| e.2)
                            .min_by_key(|(_, e)| (e.0, e.1))
                            .map(|(i, e)| (i, e.0, e.1));
                        match (got, want) {
                            (Some(g), Some((wi, wat, wseq))) => {
                                assert_eq!(g, (wat, wseq), "seed {seed}");
                                model[wi].2 = false;
                            }
                            (None, None) => {}
                            (g, w) => panic!("seed {seed}: pop mismatch: {g:?} vs {w:?}"),
                        }
                    }
                }
                assert_eq!(q.len(), model.iter().filter(|e| e.2).count(), "seed {seed}");
            }
            // Drain: remaining live events must surface in (at, seq) order.
            let mut rest: Vec<(u64, u64)> =
                model.iter().filter(|e| e.2).map(|e| (e.0, e.1)).collect();
            rest.sort_unstable();
            let drained: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
                .map(|e| (e.at.as_micros(), e.seq))
                .collect();
            assert_eq!(drained, rest, "seed {seed}");
        }
    }
}
