//! The colocated work loop.
//!
//! A colocated replica serves both phases on one set of GPUs, so one work
//! item — a prefill launch or one decode step — occupies its engine at a
//! time and long prompts stall ongoing decodes: the interference phase
//! splitting removes. Whole prefill batches run ahead of decode steps
//! (vLLM's prefill priority). The steps both topologies share
//! (enqueueing, launch pricing, prefill completion, admission and decode
//! finishes) are the driver's; this module only decides which work item
//! runs next and what its completion means.

use super::driver::{
    admit_waiting, end_prefill, finish_step, price_prefill, take_prefill_launch, Core,
};
use super::executor::{ColocatedExecutor, ReplicaExecutor, Work};
use super::gray::observe_straggler;
use super::seq::WaitingSeq;
use crate::event::EventKind;
use ts_common::{Error, Result};
use ts_telemetry::Role;

/// Colocated topology state: one executor pool serving both phases. The
/// fault script's `PrefillDown(i)`/`DecodeDown(i)` both mean "replica `i`
/// dies" here (and symmetrically for `*Up`); link faults are rejected
/// because there is no inter-replica fabric.
pub(crate) struct ColoState {
    pub(super) replicas: Vec<ColocatedExecutor>,
}

/// Admits waiting sequences on replica `ri` and, if its engine is idle,
/// starts the next work item. Admission runs even while the engine is
/// busy: decode slots free up as sequences finish regardless of what work
/// item is in flight.
pub(super) fn maybe_start_work(core: &mut Core, c: &mut ColoState, ri: usize) {
    let r = &mut c.replicas[ri];
    if !r.is_alive() {
        return;
    }
    admit_waiting(core, Role::Colocated, ri, &mut r.batch);
    if r.current.is_some() {
        return;
    }
    // Whole prefill batches take priority over decode.
    let latency = if !r.prefill.is_empty() {
        let mut finishing = Vec::new();
        let (tokens, ctx) =
            take_prefill_launch(core, Role::Colocated, ri, &mut r.prefill, &mut finishing);
        let (latency, _) = price_prefill(&r.cost, &mut r.price_memo, r.slow_factor, tokens, ctx);
        r.current = Some(Work::Prefill { finishing });
        latency
    } else if !r.batch.active.is_empty() {
        let batch = r.batch.active.len() as u64;
        let mut latency = r.cost.decode_step_latency(batch, r.batch.avg_context());
        if r.slow_factor != 1.0 {
            latency = latency.mul_f64(r.slow_factor);
        }
        r.current = Some(Work::DecodeStep);
        latency
    } else {
        return;
    };
    core.queue.push(
        core.now + latency,
        EventKind::WorkDone {
            replica: ri,
            epoch: r.epoch(),
        },
    );
}

/// Replica `ri`'s work item completed: a prefill launch hands its
/// finished jobs to the decode batch (the KV is already local), a decode
/// step advances the batch; then the next work item starts.
pub(super) fn on_work_done(core: &mut Core, c: &mut ColoState, ri: usize) -> Result<()> {
    let r = &mut c.replicas[ri];
    observe_straggler(core, Role::Colocated, ri, r.slow_factor);
    let work = r
        .current
        .take()
        .ok_or_else(|| Error::Simulation("WorkDone with no work".into()))?;
    match work {
        Work::Prefill { finishing } => {
            for job in finishing {
                if end_prefill(core, Role::Colocated, ri, &job)? {
                    r.batch.waiting.push_back(WaitingSeq {
                        key: job.key,
                        tokens: job.tokens,
                        remaining: job.remaining,
                        resume: job.resume,
                    });
                }
            }
        }
        Work::DecodeStep => finish_step(core, &mut r.batch)?,
    }
    maybe_start_work(core, c, ri);
    Ok(())
}
