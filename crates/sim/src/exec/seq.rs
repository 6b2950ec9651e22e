//! Shared per-sequence bookkeeping for every executor.
//!
//! Both the phase-split and the colocated engines used to carry private
//! copies of these structs; they now live here once. The lifecycle is the
//! same everywhere:
//!
//! 1. an arrival becomes a [`PrefillJob`] (fresh, or a re-prefill of lost
//!    context after a fault),
//! 2. a completed prefill becomes a [`WaitingSeq`] queued for decode
//!    admission,
//! 3. admission turns it into an [`ActiveSeq`] inside a [`BatchCore`],
//!    which tracks KV memory and per-token gap statistics until the
//!    sequence finishes.
//!
//! All of these carry the request's dense [`SlabKey`] into the driver's
//! request slab rather than the request payload or its id: the structs stay
//! `Copy` and 8-byte-keyed, and every per-event lookup is an array index
//! instead of a hash probe. The id (for traces and records) and the payload
//! live in the slab entry.

use super::executor::LostSeq;
use crate::config::{MAX_DECODE_BATCH, MAX_PREFILL_BATCH_TOKENS};
use std::collections::VecDeque;
use ts_common::{Request, SimDuration, SimTime, SlabKey};

/// Per-request routing decision and timing bookkeeping held by the driver.
///
/// For the phase-split topology `prefill` and `decode` index distinct
/// replica lists; for the colocated topology they are the same replica.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// Index of the prefill replica serving this request.
    pub prefill: usize,
    /// Index of the decode replica serving this request.
    pub decode: usize,
    /// When the first output token was produced (set once; re-prefills
    /// after a fault keep the original TTFT).
    pub first_token_at: Option<SimTime>,
    /// When the KV transfer was first enqueued on the sender (set once, at
    /// prefill completion; `None` for colocated or single-token requests).
    pub kv_enqueued_at: Option<SimTime>,
    /// When the KV bytes last started moving on the wire (re-stamped by
    /// retries, so delivery sees the successful attempt's start).
    pub kv_wire_started_at: Option<SimTime>,
    /// When the KV cache was delivered to the decode replica.
    pub kv_done_at: Option<SimTime>,
    /// Whether a prefill completion already launched this request's KV
    /// transfer. Guards against duplicate launches when a hedged prefill
    /// copy finishes second (first completion wins); reset when a fault
    /// forces a re-prefill.
    pub kv_launched: bool,
    /// The (prefill, decode) pair of an in-flight hedged duplicate, if one
    /// was launched; `None` until the hedge timer fires and again once the
    /// race resolves.
    pub hedge: Option<(usize, usize)>,
}

impl Pending {
    /// Fresh bookkeeping for a request routed to `(prefill, decode)`.
    pub fn new(prefill: usize, decode: usize) -> Self {
        Pending {
            prefill,
            decode,
            first_token_at: None,
            kv_enqueued_at: None,
            kv_wire_started_at: None,
            kv_done_at: None,
            kv_launched: false,
            hedge: None,
        }
    }
}

/// Decode-side progress carried across a fault: a re-prefilled sequence
/// resumes its token-gap accounting instead of starting fresh, so the
/// recovery stall shows up in ITL metrics.
#[derive(Debug, Clone, Copy)]
pub struct ResumeState {
    /// When this sequence's previous token was emitted.
    pub last_token_at: SimTime,
    /// Longest inter-token gap observed before the fault.
    pub max_gap: SimDuration,
}

/// A unit of prefill work: a fresh request (prompt prefill) or a recovered
/// sequence being re-prefilled over its full lost context.
#[derive(Debug, Clone, Copy)]
pub struct PrefillJob {
    /// Slab handle of the request being served.
    pub key: SlabKey,
    /// Tokens to prefill: the prompt for fresh requests, the whole lost
    /// context (prompt + generated) for recovered ones.
    pub tokens: u64,
    /// Decode steps still owed after this prefill.
    pub remaining: u32,
    /// Gap-tracking state carried across a fault, if any.
    pub resume: Option<ResumeState>,
}

impl PrefillJob {
    /// A fresh (non-recovery) job for the request stored under `key`.
    pub fn fresh(key: SlabKey, req: &Request) -> Self {
        PrefillJob {
            key,
            tokens: req.prompt_len as u64,
            remaining: req.decode_steps(),
            resume: None,
        }
    }
}

/// A sequence whose KV cache is resident and which is waiting for a slot in
/// the continuous decode batch.
#[derive(Debug, Clone, Copy)]
pub struct WaitingSeq {
    /// Slab handle of the request.
    pub key: SlabKey,
    /// Context tokens whose KV is resident (prompt, or full re-prefilled
    /// context for recovered sequences).
    pub tokens: u64,
    /// Decode steps still to run.
    pub remaining: u32,
    /// Gap-tracking state carried across a fault, if any.
    pub resume: Option<ResumeState>,
}

/// A sequence inside the continuous decode batch.
#[derive(Debug, Clone, Copy)]
pub struct ActiveSeq {
    /// Slab handle of the request.
    pub key: SlabKey,
    /// Tokens currently in this sequence's KV cache (prompt + generated).
    pub context: u64,
    /// Decode steps still to run.
    pub remaining: u32,
    /// When this sequence's previous token was emitted.
    pub last_token_at: SimTime,
    /// Longest inter-token gap observed so far.
    pub max_gap: SimDuration,
}

/// Outcome of one admission pass, in the exact order decisions were made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The sequence joined the active batch.
    Admitted(SlabKey),
    /// The sequence can never fit in KV memory and was evicted.
    Dropped(SlabKey),
}

/// The continuous-batching core of a decode-capable replica: KV memory
/// accounting plus the active batch and its admission queue.
///
/// This is the single copy of the batching/ITL logic both engines used to
/// duplicate; the executors own one each and the driver calls
/// [`BatchCore::admit`] / [`BatchCore::advance`].
#[derive(Debug, Default)]
pub struct BatchCore {
    /// KV capacity of the replica in tokens.
    pub kv_capacity: u64,
    /// KV tokens currently resident.
    pub kv_used: u64,
    /// Sequences in the continuous batch.
    pub active: Vec<ActiveSeq>,
    /// Sequences waiting for admission, FCFS.
    pub waiting: VecDeque<WaitingSeq>,
    /// The active count last sampled as a batch-occupancy trace event;
    /// `None` before the first sample.
    pub sampled: Option<usize>,
}

impl BatchCore {
    /// An empty core with the given KV capacity.
    pub fn new(kv_capacity: u64) -> Self {
        BatchCore {
            kv_capacity,
            ..Default::default()
        }
    }

    /// Admits waiting sequences in FCFS order while memory and batch-size
    /// limits allow. Oversized sequences that can never fit are dropped.
    /// Writes the decisions in order into `out` (cleared first, so a caller
    /// can recycle one buffer); the caller applies their side effects (drop
    /// accounting, recovery bookkeeping).
    pub fn admit(
        &mut self,
        now: SimTime,
        first_token_at: impl Fn(SlabKey) -> Option<SimTime>,
        out: &mut Vec<AdmitOutcome>,
    ) {
        out.clear();
        loop {
            let Some(front) = self.waiting.front().copied() else {
                return;
            };
            let need = front.tokens + 1;
            let total_need = front.tokens + 1 + front.remaining as u64;
            if total_need > self.kv_capacity {
                // can never fit: drop
                self.waiting.pop_front();
                out.push(AdmitOutcome::Dropped(front.key));
                continue;
            }
            if self.active.len() as u64 >= MAX_DECODE_BATCH
                || self.kv_used + need > self.kv_capacity
            {
                return;
            }
            self.waiting.pop_front();
            self.kv_used += need;
            let first = first_token_at(front.key).unwrap_or(now);
            let (last_token_at, max_gap) = match front.resume {
                Some(r) => (r.last_token_at, r.max_gap),
                None => (first, SimDuration::ZERO),
            };
            self.active.push(ActiveSeq {
                key: front.key,
                context: need,
                remaining: front.remaining,
                last_token_at,
                max_gap,
            });
            out.push(AdmitOutcome::Admitted(front.key));
        }
    }

    /// Runs one decode step over the active batch at time `now`: every
    /// sequence gains one token of context, KV grows, inter-token gaps are
    /// tracked, and finished sequences are removed. Writes
    /// `(key, max_token_gap)` for each sequence that finished into
    /// `finished` (cleared first, so a caller can recycle one buffer).
    pub fn advance(&mut self, now: SimTime, finished: &mut Vec<(SlabKey, SimDuration)>) {
        finished.clear();
        let mut idx = 0;
        while idx < self.active.len() {
            let a = &mut self.active[idx];
            a.context += 1;
            a.remaining -= 1;
            self.kv_used += 1;
            let gap = now.saturating_since(a.last_token_at);
            a.max_gap = a.max_gap.max(gap);
            a.last_token_at = now;
            if a.remaining == 0 {
                let done = self.active.swap_remove(idx);
                self.kv_used -= done.context;
                finished.push((done.key, done.max_gap));
            } else {
                idx += 1;
            }
        }
    }

    /// Evacuates the batch (its replica died or was revived): frees all KV
    /// memory and returns every sequence to re-prefill, active ones over
    /// their full context with their gap state, then the waiting ones as
    /// they were queued.
    pub fn drain_lost(&mut self) -> Vec<LostSeq> {
        self.kv_used = 0;
        let active = self.active.drain(..).map(|a| LostSeq {
            key: a.key,
            tokens: a.context,
            remaining: a.remaining,
            resume: Some(ResumeState {
                last_token_at: a.last_token_at,
                max_gap: a.max_gap,
            }),
        });
        let waiting = self.waiting.drain(..).map(|w| LostSeq {
            key: w.key,
            tokens: w.tokens,
            remaining: w.remaining,
            resume: w.resume,
        });
        active.chain(waiting).collect()
    }

    /// Mean context length of the active batch (caller must ensure the
    /// batch is non-empty) — the input to the decode step cost model.
    pub fn avg_context(&self) -> u64 {
        let batch = self.active.len() as u64;
        self.active.iter().map(|a| a.context).sum::<u64>() / batch
    }
}

/// A prefill work queue, shared by prefill and colocated executors: jobs
/// are served first come, first served, in whole-request batches.
#[derive(Debug, Default)]
pub struct PrefillQueue {
    /// Queued jobs in arrival order.
    pub queue: VecDeque<PrefillJob>,
}

impl PrefillQueue {
    /// Whether no work is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues `job` behind every queued one.
    pub fn enqueue(&mut self, job: PrefillJob) {
        self.queue.push_back(job);
    }

    /// Takes the next launch's work into `jobs` (cleared first, so a
    /// caller can recycle one buffer per replica): a whole-request batch
    /// in queue order until the next job would exceed
    /// [`MAX_PREFILL_BATCH_TOKENS`]; at least one job is always taken.
    /// Returns the prompt tokens the launch processes and the context
    /// length to price it at.
    pub fn take_launch(&mut self, jobs: &mut Vec<PrefillJob>) -> (u64, u64) {
        jobs.clear();
        let mut tokens = 0u64;
        while let Some(front) = self.queue.front() {
            let t = front.tokens;
            if !jobs.is_empty() && tokens + t > MAX_PREFILL_BATCH_TOKENS {
                break;
            }
            tokens += t;
            jobs.push(self.queue.pop_front().unwrap());
        }
        (tokens, tokens / jobs.len() as u64)
    }

    /// Drains every queued job (fault evacuation).
    pub fn drain_all(&mut self) -> Vec<PrefillJob> {
        self.queue.drain(..).collect()
    }

    /// Removes one queued job by request key (hedge-loser cancellation).
    /// Returns whether a job was found.
    pub fn remove(&mut self, key: SlabKey) -> bool {
        let Some(pos) = self.queue.iter().position(|j| j.key == key) else {
            return false;
        };
        self.queue.remove(pos);
        true
    }
}
