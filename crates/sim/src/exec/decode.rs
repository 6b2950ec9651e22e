//! Decode planning and step coalescing on phase-split decode replicas.
//!
//! One [`EventKind::DecodeStepDone`] is scheduled per planned decode *run*
//! (a [`DecodePlan`]) instead of one per step; intermediate step
//! boundaries are materialized retroactively, in one bulk pass, when an
//! interrupt or the finish boundary needs the batch state.
//! Step times are priced once per replica, batch size and context, a whole
//! block of contexts at a time, into the contiguous prefix sums of the
//! replica's [`StepTables`], so a plan is an O(1) description, any boundary
//! costs two lookups into its run's slice and a catch-up search O(log k)
//! of them. A finish whose plan disagrees with its event, and a plan,
//! re-plan, catch-up or rival deferral that breaks a planning invariant,
//! is an [`Error::Simulation`], in release builds too. The plan's *virtual
//! push time* (`prev_boundary`, and [`DecodePlan::vpush`] for the
//! in-progress step) reproduces the per-step schedule's
//! `(at, seq, pushed_at)` ordering against genuinely simultaneous rival
//! events, so the coalesced loop replays the exact event interleaving the
//! per-step loop would have. The per-step path survives as a
//! compatibility mode ([`SimConfig::decode_coalescing`] off, or straggler
//! quarantine on — the detector needs per-step samples).
//!
//! This module owns the plan lifecycle (plan, re-plan, cancel, catch up,
//! finish) and the stack of finish events held behind a same-instant
//! rival; the driver calls it wherever a decode batch is read or changed.

use super::driver::{admit_waiting, finish_step, Core, Driver, SplitState, Topology};
use super::executor::{DecodeExecutor, ReplicaExecutor};
#[cfg(doc)]
use super::executor::{DecodePlan, StepTables};
use super::gray::observe_straggler;
use super::seq::BatchCore;
#[cfg(doc)]
use crate::config::SimConfig;
use crate::event::{Event, EventKind};
use ts_common::{Error, Result, SimTime};
use ts_telemetry::Role;

/// Whether coalesced decode plans are active: the config knob is on and no
/// straggler quarantine demands per-step iteration samples.
pub(super) fn coalescing_active(core: &Core) -> bool {
    core.cfg.decode_coalescing && core.cfg.quarantine.is_none()
}

/// Decode steps until the first sequence of `batch` finishes (at least 1).
fn steps_to_finish(batch: &BatchCore) -> u32 {
    batch
        .active
        .iter()
        .map(|a| a.remaining)
        .min()
        .unwrap_or(1)
        .max(1)
}

/// Admits waiting sequences on decode replica `j`, then starts or extends
/// its decode work. With a plan already in flight, a grown batch forces a
/// re-plan under coalescing (the per-step compatibility path just waits
/// for the in-flight step, exactly like the old `stepping` guard); with no
/// plan and a non-empty batch, a fresh run is planned.
pub(super) fn admit_and_kick(core: &mut Core, s: &mut SplitState, j: usize) -> Result<()> {
    let d = &mut s.decodes[j];
    if !d.is_alive() {
        return Ok(());
    }
    let admitted = admit_waiting(core, Role::Decode, j, &mut d.batch);
    if d.batch.active.is_empty() {
        return Ok(());
    }
    if d.plan.is_some() {
        if admitted && coalescing_active(core) {
            replan(core, s, j)?;
        }
        return Ok(());
    }
    plan(core, s, j)
}

/// Plans a decode run for replica `j` starting now and schedules its
/// run-end event. Under coalescing the run extends to the earliest finish
/// boundary (the batch is constant until then, so every boundary is
/// priced exactly as the per-step loop would: the integer average context
/// grows by exactly 1 per step); the compatibility path plans one step.
/// Planning over a live plan is an [`Error::Simulation`].
fn plan(core: &mut Core, s: &mut SplitState, j: usize) -> Result<()> {
    let d = &mut s.decodes[j];
    if d.plan.is_some() {
        return Err(Error::Simulation(format!(
            "decode replica {j}: planning over a live plan"
        )));
    }
    let batch = d.batch.active.len() as u64;
    let steps = if coalescing_active(core) {
        steps_to_finish(&d.batch)
    } else {
        1
    };
    let kind = EventKind::DecodeStepDone {
        replica: j,
        epoch: d.epoch(),
    };
    d.work.plans += 1;
    let ctx0 = d.batch.avg_context();
    let plan = d.plan_run(batch, ctx0, u64::from(steps), core.now, false, |end| {
        core.queue.push_cancellable(end, kind)
    })?;
    d.plan = Some(plan);
    Ok(())
}

/// Re-plans replica `j`'s coalesced run after its batch grew or its speed
/// changed. The in-progress step's end boundary was committed when that
/// step began (the per-step loop fixed its latency then, and newly
/// admitted sequences receive their first token at it, because the
/// per-step advance covers the whole batch at a step's end) and is
/// carried verbatim; boundaries after it are re-priced against the new
/// batch and straggler factor. The scheduled event moves to the new final
/// boundary, keeping its original `(seq, pushed_at)` stamps. A carried
/// boundary before `now` is an [`Error::Simulation`].
pub(super) fn replan(core: &mut Core, s: &mut SplitState, j: usize) -> Result<()> {
    let d = &mut s.decodes[j];
    let Some(old) = d.plan.take() else {
        return Ok(());
    };
    // Read before pricing: a new straggler factor drops the tables.
    let first = old.front(&d.tables);
    if first < core.now {
        return Err(Error::Simulation(format!(
            "decode replica {j}: carried boundary in the past, {first:?} before {:?}",
            core.now
        )));
    }
    let batch = d.batch.active.len() as u64;
    let steps = steps_to_finish(&d.batch);
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
        u64::from(steps - 1),
        first,
        true,
        |end| match core.queue.reschedule(old.token, end, kind) {
            Some(tok) => tok,
            None => {
                // The run-end event was already popped and is being held
                // behind a same-instant rival (this re-plan runs inside
                // that rival's inline dispatch): re-queue it with its
                // original stamps so it pops again in the right order.
                match take_held(core, j) {
                    Some((seq, pushed_at)) => core.queue.reinsert(end, kind, seq, pushed_at),
                    None => core.queue.push_cancellable(end, kind),
                }
            }
        },
    )?;
    plan.prev_boundary = old.prev_boundary;
    d.plan = Some(plan);
    Ok(())
}

/// Cancels replica `j`'s scheduled run-end event and clears the plan,
/// ahead of a kill/revive (both of which reset the plan without touching
/// the queue). The per-step loop always had exactly one decode event in
/// flight — the in-progress step's end — and popped it (advancing `now`
/// past it) even once stale; its fire time folds into the phantom horizon
/// so the reported makespan stays identical.
pub(super) fn cancel_plan(core: &mut Core, s: &mut SplitState, j: usize) {
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
pub(super) fn catch_up(core: &Core, s: &mut SplitState, j: usize) -> Result<()> {
    let d = &mut s.decodes[j];
    let Some(plan) = d.plan.as_ref() else {
        return Ok(());
    };
    let m = plan.elapsed(&d.tables, core.now, core.event_pushed_at);
    if m > 0 {
        materialize(d, m)?;
    }
    Ok(())
}

/// Catches up every decode replica (paths that scan cross-replica batch
/// state: transfer re-dispatch, hedging probes).
pub(super) fn catch_up_all(core: &Core, s: &mut SplitState) -> Result<()> {
    for j in 0..s.decodes.len() {
        catch_up(core, s, j)?;
    }
    Ok(())
}

/// Materializes the next `m` boundaries of decode replica `d`'s plan in one
/// arithmetic pass: batch membership is constant across a plan, so per
/// sequence only the first gap differs and the remaining gaps share one
/// maximum, the last of them (step time never decreases as context
/// grows). An intermediate boundary changes no batch occupancy, so it
/// emits no trace event and the pressure tally needs no replay.
/// Materializing the final boundary, or an intermediate one that would
/// finish a sequence, is an [`Error::Simulation`].
fn materialize(d: &mut DecodeExecutor, m: u64) -> Result<()> {
    d.work.steps_crossed += m;
    let plan = d.plan.as_mut().expect("materialize without plan");
    if m >= plan.remaining() {
        return Err(Error::Simulation(format!(
            "materializing the final boundary: {m} of {} left",
            plan.remaining()
        )));
    }
    let first = plan.front(&d.tables);
    let shared_max = plan.shared_max_gap(&d.tables, m);
    let last = plan.boundary(&d.tables, plan.crossed + m - 1);
    let batch = d.batch.active.len() as u64;
    for a in &mut d.batch.active {
        if u64::from(a.remaining) <= m {
            return Err(Error::Simulation(format!(
                "an intermediate coalesced boundary must not finish a sequence: \
                 {} tokens left, {m} boundaries crossed",
                a.remaining
            )));
        }
        a.context += m;
        a.remaining -= m as u32;
        let first_gap = first.saturating_since(a.last_token_at);
        a.max_gap = a.max_gap.max(first_gap).max(shared_max);
        a.last_token_at = last;
    }
    d.batch.kv_used += batch * m;
    plan.crossed += m;
    plan.prev_boundary = last;
    Ok(())
}

/// Removes and returns the held decode-finish stamp for replica `j`, if
/// one is held.
fn take_held(core: &mut Core, j: usize) -> Option<(u64, SimTime)> {
    let pos = core.held_decode.iter().position(|h| h.0 == j)?;
    let (_, seq, pushed_at) = core.held_decode.swap_remove(pos);
    Some((seq, pushed_at))
}

/// Whether replica `j`'s finish event `seq` is held.
fn is_held(core: &Core, j: usize, seq: u64) -> bool {
    core.held_decode.iter().any(|h| h.0 == j && h.1 == seq)
}

/// Discards a held (deferred) decode-finish stamp for replica `j`.
fn drop_held(core: &mut Core, j: usize, seq: u64) {
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
    /// batch, record finishes, admit, and plan the next run. A plan with
    /// intermediates left after that, or whose run end is not `now`, is an
    /// [`Error::Simulation`], in release builds too.
    pub(super) fn on_decode_finish(&mut self, replica: usize, ev: Event) -> Result<()> {
        let seq = ev.seq;
        loop {
            let vpush = {
                let (core, s) = self.split("DecodeStepDone")?;
                let d = &s.decodes[replica];
                let Some(plan) = d.plan.as_ref() else {
                    // A rival dispatched below killed or revived the
                    // replica, cancelling the plan: this pop is stale.
                    drop_held(core, replica, seq);
                    return Ok(());
                };
                if ev.token() != Some(plan.token) {
                    // A rival's re-plan consumed the held stamp and
                    // re-queued the run-end event: this pop is obsolete.
                    drop_held(core, replica, seq);
                    return Ok(());
                }
                plan.vpush(&d.tables)
            };
            if ev.pushed_at == vpush {
                // The stamps are real (a per-step-schedule push): the heap
                // already ordered this event correctly.
                break;
            }
            let Some(rival) = self.qualifying_rival(vpush)? else {
                break;
            };
            if !is_held(&self.core, replica, seq) {
                self.core.held_decode.push((replica, seq, ev.pushed_at));
            }
            self.dispatch_event(rival)?;
            if !is_held(&self.core, replica, seq) {
                return Ok(()); // consumed: re-queued by a rival's re-plan
            }
        }
        drop_held(&mut self.core, replica, seq);
        let (core, s) = self.split("DecodeStepDone")?;
        let d = &mut s.decodes[replica];
        let pending = d.plan.as_ref().map_or(0, |p| p.remaining());
        if pending > 1 {
            materialize(d, pending - 1)?;
        }
        let plan = d.plan.take().expect("checked above");
        if plan.remaining() != 1 {
            return Err(Error::Simulation(format!(
                "decode replica {replica}: {} boundaries left at the run end, not 1",
                plan.remaining()
            )));
        }
        let end = plan.end(&d.tables);
        if end != core.now {
            return Err(Error::Simulation(format!(
                "decode replica {replica}: run end at {end:?} fired at {:?}",
                core.now
            )));
        }
        d.work.steps_crossed += 1;
        observe_straggler(core, Role::Decode, replica, d.slow_factor);
        finish_step(core, &mut d.batch)?;
        admit_and_kick(core, s, replica)
    }

    /// The next queued event, popped, when it shares this instant with the
    /// decode finish being dispatched and the per-step loop would have
    /// fired it first: its effective push time (its own stamp, or the
    /// virtual push time of another replica's live plan) is no later than
    /// `vpush`. Deferring to an epoch-stale rival is harmless — its
    /// dispatch is a no-op. An arrival still due at `now` is an
    /// [`Error::Simulation`]: same-instant arrivals drain first.
    fn qualifying_rival(&mut self, vpush: SimTime) -> Result<Option<Event>> {
        let now = self.core.now;
        if let Some(r) = self.core.arrivals.get(self.core.next_arrival) {
            if r.arrival <= now {
                return Err(Error::Simulation(format!(
                    "same-instant arrivals drain before queued events: request {} \
                     arrives at {:?}, the clock is {now:?}",
                    r.id, r.arrival
                )));
            }
        }
        let Some(head) = self.core.queue.peek() else {
            return Ok(None);
        };
        if head.at != now {
            return Ok(None);
        }
        let eff = match head.kind {
            EventKind::DecodeStepDone { replica: r2, .. } => {
                let Topology::Split(s) = &self.topo else {
                    return Ok(None);
                };
                let d = &s.decodes[r2];
                match d.plan.as_ref() {
                    Some(p) if head.token() == Some(p.token) => p.vpush(&d.tables),
                    _ => head.pushed_at,
                }
            }
            _ => head.pushed_at,
        };
        Ok(if eff <= vpush {
            self.core.queue.pop()
        } else {
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::driver::tests::{seed_request, testbed};
    use crate::exec::seq::WaitingSeq;
    use ts_common::{Request, SimDuration};

    /// Decode replica 0 of the test bed with one admitted sequence of 15
    /// tokens to go, under a live coalesced plan of 15 boundaries.
    fn planned() -> Driver {
        let mut d = testbed(|_| {});
        let (core, s) = d.split("test").unwrap();
        let (req, key) = seed_request(core, 0);
        s.decodes[0].batch.waiting.push_back(WaitingSeq {
            key,
            tokens: u64::from(req.prompt_len),
            remaining: req.output_len - 1,
            resume: None,
        });
        admit_and_kick(core, s, 0).unwrap();
        assert_eq!(s.decodes[0].plan.as_ref().unwrap().remaining(), 15);
        d
    }

    fn assert_sim_error(result: Result<()>, want: &str) {
        let err = result.unwrap_err();
        assert!(
            matches!(&err, Error::Simulation(m) if m.contains(want)),
            "{err:?}"
        );
    }

    /// Each decode-plan invariant is checked in release builds too: state
    /// corrupted to break it makes the step an [`Error::Simulation`].
    #[test]
    fn decode_plan_invariants_are_errors() {
        let mut d = planned();
        let (core, s) = d.split("test").unwrap();
        assert_sim_error(plan(core, s, 0), "planning over a live plan");

        let mut d = planned();
        let (core, s) = d.split("test").unwrap();
        core.now += SimDuration::from_secs(3_600);
        assert_sim_error(replan(core, s, 0), "carried boundary in the past");

        let mut d = planned();
        let (_, s) = d.split("test").unwrap();
        assert_sim_error(
            materialize(&mut s.decodes[0], 15),
            "materializing the final boundary",
        );

        let mut d = planned();
        let (_, s) = d.split("test").unwrap();
        s.decodes[0].batch.active[0].remaining = 2;
        assert_sim_error(
            materialize(&mut s.decodes[0], 2),
            "an intermediate coalesced boundary must not finish a sequence",
        );
        s.decodes[0].batch.active[0].remaining = 3;
        assert!(materialize(&mut s.decodes[0], 2).is_ok());

        let mut d = planned();
        d.core.arrivals = vec![Request::new(ts_common::RequestId(9), SimTime::ZERO, 8, 8)];
        assert_sim_error(
            d.qualifying_rival(SimTime::ZERO).map(drop),
            "same-instant arrivals drain before queued events",
        );
        d.core.next_arrival = 1;
        assert!(d.qualifying_rival(SimTime::ZERO).is_ok());
    }
}
