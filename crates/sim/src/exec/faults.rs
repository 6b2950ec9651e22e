//! The fault layer: script validation, fault triggers, heartbeat
//! detection, recovery of drained work and the stall queue.
//!
//! A fault acts on ground truth at its trigger time; the coordinator's
//! beliefs (the routing masks) change only at detection, one heartbeat
//! delay later, or at once on healing. Which losses are detected is decided
//! from the script before the run ([`Driver::detections`]). Recovery is
//! written once against the [`ReplicaExecutor`] trait: queued and in-flight
//! prefill jobs are requeued, decode sequences whose KV died are
//! re-prefilled over their full context, and work that cannot be routed
//! waits in the stall queue
//! (shed beyond [`crate::config::SHED_THRESHOLD`]). This is how
//! the colocated baselines get fault injection and
//! [`crate::metrics::RecoveryCounters`] on the same terms as the
//! phase-split topology.

use super::decode;
use super::driver::{
    drop_request, refresh_router, split_redispatch_transfer, trace, Driver, Topology,
};
use super::executor::DrainedWork;
#[cfg(doc)]
use super::executor::ReplicaExecutor;
use super::seq::PrefillJob;
use crate::event::EventKind;
use crate::fault::{Detection, FaultKind, FaultScript, TimedFault};
use std::collections::BTreeSet;
use ts_common::{Error, RequestId, Result, SimDuration, SimTime};
use ts_telemetry::TraceKind;

impl Driver {
    /// Rejects a script that names a replica or host outside the plan,
    /// carries an invalid factor or probability, or faults a link the
    /// topology does not have.
    pub(super) fn validate_script(&self, script: &FaultScript) -> Result<()> {
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

    /// The replica losses a run of `script` detects, after validating it. A
    /// `PrefillDown`/`DecodeDown` fault at `t` is detected at
    /// `t + detection_delay` if its replica is still down then, with the
    /// script's faults applied in `(at, index)` order — the order the event
    /// queue pops them in, detections included. A colocated replica hosts
    /// both phases, so either kind names the whole replica. Only script
    /// faults change replica liveness, so this is decided before the run.
    /// The detections come in detection order.
    pub fn detections(&self, script: &FaultScript) -> Result<Vec<Detection>> {
        self.validate_script(script)?;
        let colocated = matches!(self.topo, Topology::Colocated(_));
        // The replica a liveness fault names, and whether it kills it.
        let liveness = |kind: FaultKind| match kind {
            FaultKind::PrefillDown(i) => Some(((!colocated, i), true)),
            FaultKind::PrefillUp(i) => Some(((!colocated, i), false)),
            FaultKind::DecodeDown(j) => Some(((false, j), true)),
            FaultKind::DecodeUp(j) => Some(((false, j), false)),
            _ => None,
        };
        let faults = &script.faults;
        let mut order: Vec<usize> = (0..faults.len()).collect();
        order.sort_by_key(|&j| faults[j].at);
        let mut down = BTreeSet::new();
        let mut applied = 0;
        let mut detections = Vec::new();
        for &i in &order {
            let Some((replica, true)) = liveness(faults[i].kind) else {
                continue;
            };
            let at = faults[i].at + script.detection_delay;
            while let Some(&j) = order.get(applied) {
                if (faults[j].at, j) > (at, i) {
                    break;
                }
                if let Some((r, dies)) = liveness(faults[j].kind) {
                    if dies {
                        down.insert(r);
                    } else {
                        down.remove(&r);
                    }
                }
                applied += 1;
            }
            if down.contains(&replica) {
                detections.push(Detection { at, fault: i });
            }
        }
        Ok(detections)
    }

    /// Applies a fault at its trigger time. A colocated replica hosts both
    /// phases, so either phase's fault (death, healing, slowdown) is the
    /// whole replica's.
    pub(super) fn on_fault_triggered(&mut self, index: usize) -> Result<()> {
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
                    decode::catch_up(&self.core, s, j)?;
                    decode::cancel_plan(&mut self.core, s, j);
                }
                self.topo.executor(false, j).kill();
            }
            FaultKind::PrefillUp(i) => self.on_replica_up(true, i)?,
            FaultKind::DecodeUp(j) => self.on_replica_up(false, j)?,
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
                    decode::catch_up(&self.core, s, j)?;
                    s.decodes[j].slow_factor = factor;
                    if decode::coalescing_active(&self.core) && s.decodes[j].plan.is_some() {
                        decode::replan(&mut self.core, s, j)?;
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
    fn on_replica_up(&mut self, prefill: bool, i: usize) -> Result<()> {
        if let (false, Topology::Split(s)) = (prefill, &mut self.topo) {
            // Healing an *alive* decode replica (an Up without a Down)
            // still bumps the epoch and clears the plan, so settle the plan
            // first exactly as a death would.
            decode::catch_up(&self.core, s, i)?;
            decode::cancel_plan(&mut self.core, s, i);
        }
        let replica = self.topo.executor(prefill, i);
        replica.revive(self.core.now);
        let drained = replica.drain_lost();
        let host = self.core.gray.host_of(prefill, i);
        self.core.believed_dead[host] = false;
        refresh_router(&mut self.core);
        if !self.core.recovery_enabled {
            self.drop_drained(drained);
            return Ok(());
        }
        self.recover_drained(drained, None);
        if let (false, Topology::Split(s)) = (prefill, &mut self.topo) {
            for t in std::mem::take(&mut s.parked) {
                split_redispatch_transfer(&mut self.core, s, t)?;
            }
        }
        self.drain_stalled();
        Ok(())
    }

    /// A death is detected: the coordinator masks the replica out of
    /// routing and recovers its frozen work onto survivors. Only the
    /// losses [`Driver::detections`] lists are scheduled for detection, so
    /// the replica is down; a live one is an invariant violation.
    pub(super) fn on_fault_detected(&mut self, index: usize) -> Result<()> {
        trace(&mut self.core, TraceKind::FaultDetected { index });
        let TimedFault { at, kind } = self.core.faults[index];
        let (prefill, i) = match kind {
            FaultKind::PrefillDown(i) => (true, i),
            FaultKind::DecodeDown(j) => (false, j),
            _ => {
                return Err(Error::Simulation(format!(
                    "fault {index} is not a replica loss: {kind:?}"
                )))
            }
        };
        let replica = self.topo.executor(prefill, i);
        if replica.is_alive() {
            return Err(Error::Simulation(format!(
                "fault {index} detected on a live replica: {kind:?}"
            )));
        }
        let drained = replica.drain_lost();
        let host = self.core.gray.host_of(prefill, i);
        self.core.believed_dead[host] = true;
        refresh_router(&mut self.core);
        self.recover_drained(drained, Some(at));
        Ok(())
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
            drop_request(&mut self.core, lost.key);
        }
    }

    /// Re-dispatches the stall queue once the service runs and some route
    /// is live again.
    pub(super) fn drain_stalled(&mut self) {
        let routable = self.core.routes.iter().any(|r| r.router.num_enabled() > 0);
        if self.core.paused_until.is_some() || !routable {
            return;
        }
        let stalled = std::mem::take(&mut self.core.stalled);
        for job in stalled {
            self.dispatch_job(job);
        }
    }

    /// A pause ended (unless a later pause extended it): resume service
    /// and drain the stall queue.
    pub(super) fn on_service_resumed(&mut self) {
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
}
