//! Gray-failure mitigation: flaky heartbeats, straggler quarantine and
//! hedging.
//!
//! [`GrayState`] owns the per-host mitigation state and the seeded RNG
//! flaky heartbeats draw beat loss from. Hosts number the
//! prefill replicas first, then the decode replicas; a colocated replica
//! is one host in either role. The driver consults the state through
//! [`GrayState::masked`] when it derives routing masks, and calls in here
//! when a heartbeat window, a readmission probe or a hedge timer fires and
//! when an iteration completes ([`observe_straggler`]).
//!
//! The RNG is drawn from only by flaky heartbeats, so every other path
//! stays bit-identical.

use super::decode;
use super::driver::{
    kv_target, refresh_router, router_mask, split_maybe_start_prefill, trace, Core, Driver,
    SplitState,
};
use super::executor::ReplicaExecutor;
use crate::config::{FAULT_SEED, STRAGGLER_MIN_SAMPLES};
use crate::event::EventKind;
#[cfg(doc)]
use crate::fault::FaultKind;
use rand::rngs::StdRng;
use rand::Rng;
use ts_common::{derive_seed, seeded_rng, Result, SimDuration, SimTime, SlabKey};
use ts_telemetry::{Role, TraceKind};

/// Per-host gray-failure bookkeeping: flaky-heartbeat masking, straggler
/// detection EWMAs and quarantine state, plus the seeded RNG beat-loss
/// draws come from.
pub(super) struct GrayState {
    /// Seeded RNG for beat-loss draws, seeded from
    /// [`crate::config::FAULT_SEED`].
    rng: StdRng,
    /// Number of prefill-only hosts — decode replica `j` is host
    /// `prefill_hosts + j`. `None` when colocated, where replica `k` is
    /// host `k` in either role.
    prefill_hosts: Option<usize>,
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
    /// Healthy state for `total_hosts` hosts, the first `prefill_hosts` of
    /// them prefill replicas (`None` for colocated replicas).
    pub(super) fn new(prefill_hosts: Option<usize>, total_hosts: usize) -> Self {
        GrayState {
            rng: seeded_rng(derive_seed(FAULT_SEED, 0x6772_6179)),
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

    /// Sets the heartbeat window (the fault script's detection delay).
    pub(super) fn set_beat_period(&mut self, period: SimDuration) {
        self.beat_period = period;
    }

    /// Whether routing must avoid `host` (missed beat or quarantine).
    pub(super) fn masked(&self, host: usize) -> bool {
        self.flaky_dead[host] || self.quarantined[host]
    }

    /// The host index of a replica (prefills first, then decodes; colocated
    /// hosts and replicas coincide whatever the `prefill` flag).
    pub(super) fn host_of(&self, prefill: bool, replica: usize) -> usize {
        match self.prefill_hosts {
            Some(np) if !prefill => np + replica,
            _ => replica,
        }
    }

    /// The telemetry (role, replica) of host `node`.
    fn host_role(&self, node: usize) -> (Role, usize) {
        match self.prefill_hosts {
            None => (Role::Colocated, node),
            Some(np) if node < np => (Role::Prefill, node),
            Some(np) => (Role::Decode, node - np),
        }
    }
}

/// Schedules `node`'s next heartbeat window unless one is pending.
fn schedule_beat(core: &mut Core, node: usize) {
    if !core.gray.flaky_scheduled[node] {
        core.gray.flaky_scheduled[node] = true;
        let at = core.now + core.gray.beat_period;
        core.queue.push(at, EventKind::FlakyBeat { node });
    }
}

/// Restarts the beats of flaky hosts with new work: beats pause while no
/// requests are outstanding, so the event queue can drain.
pub(super) fn restart_beats(core: &mut Core) {
    if !core.gray.flaky_any {
        return;
    }
    for node in 0..core.gray.flaky.len() {
        if core.gray.flaky[node] > 0.0 {
            schedule_beat(core, node);
        }
    }
}

impl Driver {
    /// Applies a [`FaultKind::HeartbeatFlaky`] trigger: records the loss
    /// probability, starts the beat clock if needed, and — on healing —
    /// readmits a host stuck masked by a false positive.
    pub(super) fn set_flaky(&mut self, node: usize, p: f64) {
        let gray = &mut self.core.gray;
        gray.flaky[node] = p;
        if p > 0.0 {
            gray.flaky_any = true;
            schedule_beat(&mut self.core, node);
        } else {
            gray.flaky_any = gray.flaky.iter().any(|&q| q > 0.0);
            if gray.flaky_dead[node] {
                self.readmit_flaky(node);
            }
        }
    }

    /// One heartbeat window elapsed for `node`: draw whether the beat was
    /// lost and mask/readmit accordingly, then reschedule while requests
    /// remain (beats pause on an idle system so the event queue drains;
    /// [`restart_beats`] restarts them).
    pub(super) fn on_flaky_beat(&mut self, node: usize) {
        let p = self.core.gray.flaky[node];
        if p <= 0.0 {
            self.core.gray.flaky_scheduled[node] = false;
            return;
        }
        let lost = self.core.gray.rng.gen_range(0.0..1.0) < p;
        if lost && !self.core.gray.flaky_dead[node] {
            self.core.gray.flaky_dead[node] = true;
            self.core.recovery.quarantines += 1;
            let (role, replica) = self.core.gray.host_role(node);
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
        self.readmit(node);
    }

    /// A quarantine probation ended: readmit the replica unless a later
    /// re-quarantine pushed its expiry out (stale probe). The straggler
    /// detector restarts from scratch — if the replica is still slow it
    /// re-quarantines after [`STRAGGLER_MIN_SAMPLES`] fresh iterations.
    pub(super) fn on_readmit_probe(&mut self, prefill: bool, replica: usize) {
        let gray = &mut self.core.gray;
        let host = gray.host_of(prefill, replica);
        let Some(until) = gray.quarantine_until[host] else {
            return;
        };
        if self.core.now < until {
            return; // superseded by a re-quarantine
        }
        gray.quarantined[host] = false;
        gray.quarantine_until[host] = None;
        gray.slow_ewma[host] = 1.0;
        gray.slow_samples[host] = 0;
        self.readmit(host);
    }

    /// Counts and traces `host`'s readmission, unmasks it in routing and,
    /// with recovery on, drains stalled work.
    fn readmit(&mut self, host: usize) {
        self.core.recovery.readmissions += 1;
        let (role, replica) = self.core.gray.host_role(host);
        trace(&mut self.core, TraceKind::Readmitted { role, replica });
        refresh_router(&mut self.core);
        if self.core.recovery_enabled {
            self.drain_stalled();
        }
    }
}

/// Feeds one completed iteration on `replica` (of `role`), which ran
/// `ratio` times slower than expected, into its host's EWMA, and
/// quarantines the host when the detector trips — enough samples and the
/// EWMA at or above the threshold — unless doing so would leave some route
/// with no live pair (a degraded replica still beats no replica).
/// Quarantine masks the host out of routing, counts it, and schedules the
/// readmission probe at `now + readmit_after`.
pub(super) fn observe_straggler(core: &mut Core, role: Role, replica: usize, ratio: f64) {
    let Some(quarantine) = core.cfg.quarantine else {
        return;
    };
    let prefill = role == Role::Prefill;
    let host = core.gray.host_of(prefill, replica);
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
pub(super) fn on_hedge_check(core: &mut Core, s: &mut SplitState, request: SlabKey) -> Result<()> {
    let Some(st) = core.reqs.get(request) else {
        return Ok(()); // finished, shed or dropped
    };
    let p = &st.pend;
    if p.kv_done_at.is_some() || p.hedge.is_some() {
        return Ok(());
    }
    if p.kv_launched {
        hedge_transfer(core, s, request)?;
    } else {
        hedge_prefill(core, s, request);
    }
    Ok(())
}

/// Launches a duplicate prefill for a stuck request on an alternate
/// (prefill, decode) pair drawn from its route. The duplicate carries the
/// same work unit (a re-prefill covers more than the prompt). Ties are
/// broken deterministically: route draws advance the stride router in its
/// usual order, and the first live pair with a *different* prefill replica
/// wins.
fn hedge_prefill(core: &mut Core, s: &mut SplitState, request: SlabKey) {
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
fn hedge_transfer(core: &mut Core, s: &mut SplitState, request: SlabKey) -> Result<()> {
    let Some(mut t) = core.reqs.get(request).and_then(|st| st.transfer) else {
        return Ok(()); // completion already delivered
    };
    s.kv.cancel(core, request);
    // Free-KV capacity is read at `now`, so every coalesced batch must be
    // materialized up to `now` first.
    decode::catch_up_all(core, s)?;
    t.attempt += 1;
    if let Some(j2) = kv_target(s, t.from) {
        t.to = j2;
    }
    let rid = if let Some(st) = core.reqs.get_mut(request) {
        st.pend.decode = t.to;
        st.pend.hedge = Some((t.from, t.to));
        st.req.id
    } else {
        return Ok(());
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
    Ok(())
}
