//! Simulation configuration.

use ts_common::{Error, ModelId, ModelSpec, Result, ServedModel, SimDuration};
use ts_costmodel::ModelParams;
use ts_kvcache::codec::KvWirePrecision;

/// Token budget per prefill batch: requests are batched FCFS until the next
/// one would exceed this many prompt tokens (DistServe-style prefill
/// batching; batching past GPU saturation only hurts TTFT).
pub const MAX_PREFILL_BATCH_TOKENS: u64 = 4096;

/// Upper bound on concurrent decode sequences per replica (in addition to
/// the KV memory limit).
pub const MAX_DECODE_BATCH: u64 = 256;

/// Arrivals that may stall in the coordinator while no route to a live
/// replica pair exists (whole-phase loss, reload blackout). Arrivals beyond
/// this are rejected outright — a distinct outcome from requests dropped
/// mid-service.
pub const SHED_THRESHOLD: usize = 256;

/// Seed of the engine's fault RNG, drawn from only by flaky-heartbeat beat
/// loss ([`crate::fault::FaultKind::HeartbeatFlaky`]).
pub const FAULT_SEED: u64 = 0x7453_4752_4159;

/// Iterations a replica must look slow before straggler quarantine kicks in.
pub const STRAGGLER_MIN_SAMPLES: u32 = 3;

/// Base delay of the capped exponential backoff applied when a KV transfer
/// fails on a faulted link: attempt `n` retries after `base * 2^(n-2)`,
/// capped at [`KV_RETRY_BACKOFF_CAP`].
pub const KV_RETRY_BACKOFF_BASE: SimDuration = SimDuration::from_millis(25);

/// Upper bound on a single KV-transfer retry delay.
pub const KV_RETRY_BACKOFF_CAP: SimDuration = SimDuration::from_millis(1600);

/// How prefill→decode KV transfers are modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvTransfer {
    /// Each transfer is priced on its replica pair's link model and
    /// serializes on the sender's uplink (the default; it keeps the paper
    /// figures bit-identical).
    Serialized,
    /// Transfers run as flows on the `ts-net` fabric: concurrent flows
    /// share NIC uplinks/downlinks and inter-node links max-min fairly
    /// instead of serializing per sender.
    Fabric,
}

/// Knobs controlling a simulation run, read by both topologies.
///
/// Every field is public and the `with_*` builders are plain setters. A
/// setting that could not take effect is either unrepresentable (paired
/// knobs are one value each) or rejected: given a
/// [`Quarantine::threshold`] that is not finite and above 1, both
/// [`crate::Simulation`] constructors return [`Error::InvalidConfig`]
/// before building anything.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The served model. For multi-model runs this remains the *default*
    /// model — the spec used for any group or request whose [`ModelId`] is
    /// absent from [`SimConfig::models`] — so every single-model code path
    /// is untouched by the catalog.
    pub model: ModelSpec,
    /// The served-model catalog of a multi-tenant run. Empty (the default)
    /// means single-model serving: every request and group resolves to
    /// [`SimConfig::model`] exactly as before the catalog existed.
    pub models: Vec<ServedModel>,
    /// Cost-model efficiency parameters.
    pub params: ModelParams,
    /// Wire precision of prefill→decode KV transfers.
    pub kv_precision: KvWirePrecision,
    /// How KV transfers are modelled: serialized per sender (the default)
    /// or as flows on the contended network fabric.
    pub kv_transfer: KvTransfer,
    /// Request-lifecycle tracing: when true the engine records span events
    /// (arrival, queueing, prefill, KV transfer, decode, faults) into an
    /// in-memory [`ts_telemetry::Recorder`], retrievable after the run via
    /// [`crate::Simulation::take_trace`]. Off by default; the off path does
    /// no telemetry work at all and keeps results bit-identical — tracing
    /// observes the simulation, it never schedules events or draws
    /// randomness.
    pub telemetry: bool,
    /// Per-replica pressure tally: when true the engine integrates every
    /// replica's queue depth and batch occupancy online into a
    /// [`ts_telemetry::PressureTally`], retrievable after the run via
    /// [`crate::Simulation::take_pressure`]. Unlike
    /// [`SimConfig::telemetry`] it keeps no events. Off by default; like
    /// the recorder it only observes, so results stay bit-identical.
    pub pressure: bool,
    /// Gray-failure mitigation: hedged re-dispatch of stuck requests (see
    /// [`Hedge`]). `None` (the default) disables hedging and keeps results
    /// bit-identical.
    pub hedge: Option<Hedge>,
    /// Gray-failure mitigation: straggler quarantine (see [`Quarantine`]).
    /// `None` (the default) disables detection.
    pub quarantine: Option<Quarantine>,
    /// Decode-step coalescing on disaggregated decode replicas: schedule
    /// one event per planned multi-step decode run instead of one per step,
    /// materializing the intermediate steps retroactively when anything
    /// needs to observe the batch mid-run. Output-bit-identical to the
    /// per-step schedule (the regression suite pins this) and roughly a
    /// mean-batch-size reduction in event volume. `false` forces the
    /// per-step path — the compatibility arm the bit-identity tests compare
    /// against. [`SimConfig::quarantine`] runs the per-step path whatever
    /// this says (see [`Quarantine`]).
    pub decode_coalescing: bool,
}

/// Straggler quarantine: a replica whose observed-vs-expected
/// iteration-time ratio (an EWMA) stays at or above `threshold` for
/// [`STRAGGLER_MIN_SAMPLES`] iterations is removed from routing and
/// readmitted optimistically `readmit_after` later (it re-quarantines if
/// still slow).
///
/// Detection samples every decode step, so a run with quarantine on takes
/// the per-step decode path whatever [`SimConfig::decode_coalescing`] says.
/// The output is identical either way; only the event count differs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quarantine {
    /// Ratio at which a replica counts as slow; finite and above 1 (a
    /// healthy replica's ratio is exactly 1).
    pub threshold: f64,
    /// How long a quarantined replica sits out before readmission.
    pub readmit_after: SimDuration,
}

impl Quarantine {
    /// Quarantine at `threshold` with the default five-second readmission
    /// delay.
    pub fn at(threshold: f64) -> Self {
        Quarantine {
            threshold,
            readmit_after: SimDuration::from_secs(5),
        }
    }
}

/// Hedged re-dispatch: a request whose first token has not appeared
/// `timeout` after dispatch gets a duplicate prefill launched on an
/// alternate replica pair (first completion wins, the loser is cancelled);
/// a request whose KV transfer is still on the wire gets the transfer
/// cancelled and re-dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hedge {
    /// How long after dispatch a request counts as stuck.
    pub timeout: SimDuration,
}

impl Hedge {
    /// Hedging after `timeout`.
    pub fn after(timeout: SimDuration) -> Self {
        Hedge { timeout }
    }
}

impl SimConfig {
    /// Default configuration for a model: 4-bit KV wire compression and
    /// serialized KV transfers.
    pub fn new(model: ModelSpec) -> Self {
        SimConfig {
            model,
            models: Vec::new(),
            params: ModelParams::default(),
            kv_precision: KvWirePrecision::DEFAULT_COMPRESSED,
            kv_transfer: KvTransfer::Serialized,
            telemetry: false,
            pressure: false,
            hedge: None,
            quarantine: None,
            decode_coalescing: true,
        }
    }

    /// The one check that every setting can take effect (the cases are
    /// listed on [`SimConfig`]). Both [`crate::Simulation`] constructors
    /// run it first.
    pub(crate) fn validate(&self) -> Result<()> {
        match self.quarantine {
            Some(q) if !(q.threshold.is_finite() && q.threshold > 1.0) => {
                Err(Error::InvalidConfig(format!(
                    "straggler threshold must be finite and > 1, got {}",
                    q.threshold
                )))
            }
            _ => Ok(()),
        }
    }

    /// Returns a copy serving the given model catalog (multi-tenant mode).
    /// An empty catalog restores single-model behaviour.
    pub fn with_catalog(mut self, models: Vec<ServedModel>) -> Self {
        self.models = models;
        self
    }

    /// The spec serving `model`: its catalog entry, or the default
    /// [`SimConfig::model`] when the catalog is empty or does not list it.
    pub fn spec_for(&self, model: ModelId) -> &ModelSpec {
        self.models
            .iter()
            .find(|m| m.id == model)
            .map_or(&self.model, |m| &m.spec)
    }

    /// Returns a copy with uncompressed (fp16) KV transfers.
    pub fn with_f16_kv(mut self) -> Self {
        self.kv_precision = KvWirePrecision::F16;
        self
    }

    /// Returns a copy with the given KV precision.
    pub fn with_kv_precision(mut self, p: KvWirePrecision) -> Self {
        self.kv_precision = p;
        self
    }

    /// Returns a copy whose KV transfers run on the contended flow fabric
    /// (`true`) or serialize per sender (`false`).
    pub fn with_network_contention(mut self, on: bool) -> Self {
        self.kv_transfer = if on {
            KvTransfer::Fabric
        } else {
            KvTransfer::Serialized
        };
        self
    }

    /// Returns a copy with request-lifecycle tracing enabled (or disabled).
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Returns a copy with the per-replica pressure tally enabled (or
    /// disabled); see [`SimConfig::pressure`].
    pub fn with_pressure(mut self, on: bool) -> Self {
        self.pressure = on;
        self
    }

    /// Returns a copy with the given hedged re-dispatch.
    pub fn with_hedge(mut self, hedge: Hedge) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Returns a copy with the given straggler quarantine.
    pub fn with_quarantine(mut self, quarantine: Quarantine) -> Self {
        self.quarantine = Some(quarantine);
        self
    }

    /// Returns a copy with decode-step coalescing enabled or disabled (see
    /// [`SimConfig::decode_coalescing`]; `false` is the per-step
    /// compatibility path).
    pub fn with_decode_coalescing(mut self, on: bool) -> Self {
        self.decode_coalescing = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_int4() {
        let c = SimConfig::new(ModelSpec::llama_7b());
        assert_eq!(c.kv_precision, KvWirePrecision::DEFAULT_COMPRESSED);
        assert_eq!(c.kv_transfer, KvTransfer::Serialized);
        assert!(!c.telemetry);
    }

    #[test]
    fn catalog_resolution_defaults_to_the_single_model() {
        let c = SimConfig::new(ModelSpec::llama_13b());
        assert!(c.models.is_empty());
        assert_eq!(c.spec_for(ModelId(0)), &ModelSpec::llama_13b());
        let c = c.with_catalog(vec![ServedModel::llama_7b_chat(ModelId(1), 1.0).unwrap()]);
        assert_eq!(c.spec_for(ModelId(1)), &ModelSpec::llama_7b());
        // Unknown ids still resolve to the default model.
        assert_eq!(c.spec_for(ModelId(9)), &ModelSpec::llama_13b());
    }

    #[test]
    fn telemetry_builder() {
        let c = SimConfig::new(ModelSpec::llama_7b()).with_telemetry(true);
        assert!(c.telemetry);
        assert!(!c.pressure, "the tally is a knob of its own");
        assert!(!c.with_telemetry(false).telemetry);
        assert!(
            SimConfig::new(ModelSpec::llama_7b())
                .with_pressure(true)
                .pressure
        );
    }

    #[test]
    fn network_contention_builder_picks_the_transfer_model() {
        let c = SimConfig::new(ModelSpec::llama_7b()).with_network_contention(true);
        assert_eq!(c.kv_transfer, KvTransfer::Fabric);
        let c = c.with_network_contention(false);
        assert_eq!(c.kv_transfer, KvTransfer::Serialized);
    }

    #[test]
    fn with_f16_switches_precision() {
        let c = SimConfig::new(ModelSpec::llama_7b()).with_f16_kv();
        assert_eq!(c.kv_precision, KvWirePrecision::F16);
    }

    #[test]
    fn mitigation_knobs_default_off() {
        let c = SimConfig::new(ModelSpec::llama_7b());
        assert_eq!(c.hedge, None);
        assert_eq!(c.quarantine, None);
        let quarantine = Quarantine {
            threshold: 2.0,
            readmit_after: SimDuration::from_secs(3),
        };
        let c = c
            .with_hedge(Hedge::after(SimDuration::from_millis(900)))
            .with_quarantine(quarantine);
        assert_eq!(
            c.hedge,
            Some(Hedge {
                timeout: SimDuration::from_millis(900)
            })
        );
        assert_eq!(c.quarantine, Some(quarantine));
        assert_eq!(Quarantine::at(2.0).readmit_after, SimDuration::from_secs(5));
        assert!(c.validate().is_ok());
    }

    /// Runs `cfg` through both `Simulation` constructors on a one-pair
    /// split plan and a one-replica colocated fleet, returning what each
    /// made of it.
    fn construct_both(cfg: SimConfig) -> [ts_common::Result<()>; 2] {
        use crate::Simulation;
        use ts_common::{DeploymentPlan, GpuId, GroupSpec, Phase, RoutingMatrix};
        let cluster = ts_cluster::presets::a5000_cluster(4);
        let group = |phase, gpu| {
            GroupSpec::single_stage(phase, vec![GpuId(gpu)], cfg.model.num_layers).unwrap()
        };
        let plan = DeploymentPlan::new(
            vec![group(Phase::Prefill, 0), group(Phase::Decode, 1)],
            RoutingMatrix::uniform(1, 1),
        )
        .unwrap();
        let groups = [group(Phase::Prefill, 0)];
        [
            Simulation::new(&cluster, &plan, cfg.clone()).map(drop),
            Simulation::colocated(&cluster, &groups, cfg).map(drop),
        ]
    }

    fn assert_rejected(cfg: SimConfig) {
        for got in construct_both(cfg) {
            assert!(
                matches!(got, Err(Error::InvalidConfig(_))),
                "expected InvalidConfig, got {got:?}"
            );
        }
    }

    #[test]
    fn valid_settings_build_on_both_topologies() {
        let cfg = SimConfig::new(ModelSpec::llama_7b())
            .with_quarantine(Quarantine::at(1.5))
            .with_hedge(Hedge::after(SimDuration::from_millis(400)));
        for got in construct_both(cfg) {
            assert!(got.is_ok(), "{got:?}");
        }
    }

    #[test]
    fn straggler_threshold_at_or_below_one_rejected() {
        for threshold in [1.0, 0.5, f64::NAN, f64::INFINITY] {
            assert_rejected(
                SimConfig::new(ModelSpec::llama_7b()).with_quarantine(Quarantine::at(threshold)),
            );
        }
    }
}
