//! The serving engine.
//!
//! Simulates a [`DeploymentPlan`] end to end: requests arrive at the
//! coordinator, are routed to a (prefill, decode) replica pair by the
//! orchestration matrix, batched FCFS on the prefill replica, their KV cache
//! is shipped over the (possibly contended) inter-replica link, and they
//! join the decode replica's continuous batch until all output tokens are
//! generated. All durations come from [`ts_costmodel`]; all scheduling is
//! deterministic.
//!
//! [`Simulation`] is a thin facade over the shared machinery in
//! [`crate::exec`]: the event loop, routing, admission/shed policy and the
//! whole fault layer. Its two constructors pick the topology:
//! [`Simulation::new`] builds the phase-split one
//! ([`crate::exec::PrefillExecutor`] pools feeding
//! [`crate::exec::DecodeExecutor`] pools over the KV-transfer fabric) and
//! [`Simulation::colocated`] the vLLM/HexGen-style one
//! ([`crate::exec::ColocatedExecutor`] replicas serving both phases). Both
//! read the same [`SimConfig`] and reject, through one check, any setting
//! that could not take effect.
//!
//! # Fault injection
//!
//! [`Simulation::run_with_faults`] additionally consumes a
//! [`FaultScript`]: replicas and links can die (and heal) *mid-run*.
//! Capacity is lost at the fault time, but the coordinator only reacts one
//! heartbeat detection delay later — between the two, work lands on the dead
//! replica and is silently lost, as in a real deployment. A loss the
//! replica heals from before the delay runs out is never detected
//! ([`Simulation::detections`] lists the ones that are). On detection
//! (with recovery enabled) routing is masked away from the dead replica,
//! queued and in-flight prefill batches are re-routed to survivors, and
//! decode sequences whose KV cache died are re-prefilled from scratch on a
//! surviving pair (the lost work is accounted in
//! [`crate::metrics::RecoveryCounters`]). KV transfers completing over a
//! downed link retry with capped exponential backoff while the script
//! still brings that link back up, and are dropped otherwise. While no
//! live route exists, arrivals stall up to
//! [`crate::config::SHED_THRESHOLD`] and are rejected beyond it.

use crate::config::SimConfig;
use crate::exec::driver::Driver;
use crate::fault::{Detection, FaultScript};
use crate::metrics::Metrics;
use ts_cluster::Cluster;
use ts_common::{DeploymentPlan, GroupSpec, Request, Result};

/// A discrete-event serving simulation, phase-split or colocated.
pub struct Simulation {
    driver: Driver,
}

impl Simulation {
    /// Builds a phase-split simulation for `plan` on `cluster`.
    ///
    /// # Errors
    /// Returns [`ts_common::Error::InvalidConfig`] for a `cfg` setting that
    /// could not take effect (listed on [`SimConfig`]) or for malformed
    /// routing, and
    /// [`ts_common::Error::Infeasible`] if any group cannot hold the model.
    pub fn new(cluster: &Cluster, plan: &DeploymentPlan, cfg: SimConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Simulation {
            driver: Driver::new_split(cluster, plan, cfg)?,
        })
    }

    /// Builds a colocated simulation over `groups`, each replica serving
    /// both phases on its own GPUs as vLLM- and HexGen-like systems do; the
    /// groups' `phase` fields are ignored. Requests are routed proportional
    /// to each replica's decode throughput capacity. When a replica has
    /// both prefill and decode work, whole FCFS prefill batches run first
    /// (vLLM's default prefill priority), so long prompts stall ongoing
    /// decodes — the interference phase splitting removes.
    ///
    /// Fault scripts mean the same as on the phase-split engine, with the
    /// same [`crate::metrics::RecoveryCounters`], so failure experiments
    /// compare against colocated baselines on equal footing. A colocated
    /// replica hosts both phases, so `PrefillDown(i)` and `DecodeDown(i)`
    /// both mean "replica `i` dies" (likewise for `*Up`); link faults are
    /// rejected because there is no inter-replica KV fabric.
    ///
    /// # Errors
    /// Returns [`ts_common::Error::InvalidConfig`] for a `cfg` setting that
    /// could not take effect (listed on [`SimConfig`]), and
    /// [`ts_common::Error::Infeasible`]
    /// if any group cannot hold the model or `groups` is empty.
    pub fn colocated(cluster: &Cluster, groups: &[GroupSpec], cfg: SimConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Simulation {
            driver: Driver::new_colocated(cluster, groups, cfg)?,
        })
    }

    /// Runs the trace to completion and returns the metrics.
    ///
    /// A simulation runs once: its clock, executors and queues end where
    /// the run left them. Build a new simulation for another run.
    ///
    /// # Errors
    /// Returns [`ts_common::Error::Simulation`] if internal invariants are
    /// violated or if this simulation has already run.
    pub fn run(&mut self, requests: &[Request]) -> Result<Metrics> {
        self.run_with_faults(requests, &FaultScript::none())
    }

    /// Runs the trace with mid-flight fault injection. With an empty script
    /// this is exactly [`Simulation::run`], and like it runs once per
    /// simulation.
    ///
    /// # Errors
    /// Returns [`ts_common::Error::InvalidConfig`] for out-of-range replica
    /// indices in the script (and link faults on a colocated simulation),
    /// and [`ts_common::Error::Simulation`] on invariant violations or if
    /// this simulation has already run.
    pub fn run_with_faults(
        &mut self,
        requests: &[Request],
        script: &FaultScript,
    ) -> Result<Metrics> {
        self.driver.run_with_faults(requests, script)
    }

    /// The replica losses a run of `script` detects, in detection order.
    /// A `PrefillDown`/`DecodeDown` fault at `t` is detected at
    /// `t + detection_delay` if its replica is still down then, with the
    /// script's faults applied in `(at, index)` order; a colocated replica
    /// is one replica for either kind. With recovery on, these are exactly
    /// the losses [`Simulation::run_with_faults`] acts on.
    ///
    /// # Errors
    /// Returns [`ts_common::Error::InvalidConfig`] for a script
    /// [`Simulation::run_with_faults`] would reject.
    pub fn detections(&self, script: &FaultScript) -> Result<Vec<Detection>> {
        self.driver.detections(script)
    }

    /// Takes the telemetry recorded so far, finalized into a time-sorted
    /// [`ts_telemetry::TraceLog`]. Returns `None` unless the simulation was
    /// built with [`SimConfig::with_telemetry`] enabled (or if the trace was
    /// already taken). Call after [`Simulation::run`] to get the full run.
    pub fn take_trace(&mut self) -> Option<ts_telemetry::TraceLog> {
        self.driver.take_trace()
    }

    /// Takes the per-replica pressure tally (queue depth and batch
    /// occupancy, integrated online). Returns `None` unless the simulation
    /// was built with [`SimConfig::with_pressure`] (or if the tally was
    /// already taken).
    pub fn take_pressure(&mut self) -> Option<ts_telemetry::PressureTally> {
        self.driver.take_pressure()
    }

    /// Total number of discrete events dispatched so far. The benchmark
    /// harness divides by wall time for an events/sec figure.
    pub fn events_processed(&self) -> u64 {
        self.driver.events_processed()
    }

    /// The KV flow fabric's reallocation work so far: changes, flows
    /// visited, filling rounds and cells scanned. `None` unless this is a phase-split simulation with
    /// [`crate::config::KvTransfer::Fabric`].
    pub fn fabric_work(&self) -> Option<ts_net::FabricWork> {
        self.driver.fabric_work()
    }

    /// The stride routers' work so far: picks and the credit levels they
    /// topped up, summed over the served models' routes.
    pub fn router_work(&self) -> crate::RouterWork {
        self.driver.router_work()
    }

    /// The event queue's heap work so far: entries pushed and removed,
    /// sift levels and the peak heap length. After a run every entry has
    /// left the heap exactly once, so `removed == pushed`.
    pub fn queue_work(&self) -> crate::QueueWork {
        self.driver.queue_work()
    }

    /// The decode planner's work so far: runs planned and re-planned, step
    /// times priced and step boundaries crossed. Zero for colocated simulations, whose
    /// replicas step one event at a time.
    pub fn decode_work(&self) -> crate::exec::DecodeWork {
        self.driver.decode_work()
    }

    /// The KV transport's work so far: (prefill, decode) pair records
    /// built, each on the pair's first use by a transfer, a link fault or
    /// a degradation. Zero after setup and for colocated simulations.
    pub fn kv_work(&self) -> crate::exec::KvWork {
        self.driver.kv_work()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_common::{
        GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, RoutingMatrix, SimTime, SloKind,
        SloSpec, StageSpec,
    };
    use ts_workload::{generator::generate, spec};

    fn group(phase: Phase, gpus: &[u32], tp: usize, pp: usize, layers: usize) -> GroupSpec {
        let per = layers / pp;
        let stages = (0..pp)
            .map(|s| StageSpec {
                gpus: gpus[s * tp..(s + 1) * tp]
                    .iter()
                    .map(|&g| GpuId(g))
                    .collect(),
                layers: if s + 1 == pp {
                    layers - per * (pp - 1)
                } else {
                    per
                },
            })
            .collect();
        GroupSpec::new(phase, ParallelConfig::new(tp, pp).unwrap(), stages).unwrap()
    }

    /// 4xA40 prefill + 4x3090Ti decode on the Appendix-H testbed.
    fn testbed(bw: f64) -> (ts_cluster::Cluster, DeploymentPlan, SimConfig) {
        let cluster = presets::network_case_cluster(bw);
        let model = ModelSpec::llama_13b();
        let plan = DeploymentPlan::new(
            vec![
                group(Phase::Prefill, &[0, 1, 2, 3], 2, 2, model.num_layers),
                group(Phase::Decode, &[4, 5, 6, 7], 2, 2, model.num_layers),
            ],
            RoutingMatrix::uniform(1, 1),
        )
        .unwrap();
        (cluster, plan, SimConfig::new(model))
    }

    #[test]
    fn plan_naming_a_missing_gpu_is_an_error() {
        let (cluster, _, cfg) = testbed(presets::ETH_40GBPS);
        let layers = cfg.model.num_layers;
        let groups = vec![
            group(Phase::Prefill, &[0, 1, 2, 3], 2, 2, layers),
            group(Phase::Decode, &[4, 5, 6, 999], 2, 2, layers),
        ];
        let plan = DeploymentPlan::new(groups.clone(), RoutingMatrix::uniform(1, 1)).unwrap();
        let err = Simulation::new(&cluster, &plan, cfg.clone()).err();
        assert!(
            matches!(&err, Some(ts_common::Error::InvalidConfig(e)) if e.contains("999")),
            "{err:?}"
        );
        assert!(Simulation::colocated(&cluster, &groups, cfg).is_err());
    }

    #[test]
    fn every_request_completes() {
        let (cluster, plan, cfg) = testbed(presets::ETH_40GBPS);
        let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
        let reqs = generate(&spec::coding(0.5), ts_common::SimDuration::from_secs(60), 1);
        let m = sim.run(&reqs).unwrap();
        assert_eq!(m.num_completed(), reqs.len());
        assert_eq!(m.num_dropped(), 0);
        assert_eq!(m.num_rejected(), 0);
        assert!(!m.recovery().any());
    }

    #[test]
    fn records_are_causally_ordered() {
        let (cluster, plan, cfg) = testbed(presets::ETH_40GBPS);
        let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
        let reqs = generate(
            &spec::conversation(0.5),
            ts_common::SimDuration::from_secs(60),
            2,
        );
        let m = sim.run(&reqs).unwrap();
        for r in m.records() {
            assert!(r.first_token_at >= r.request.arrival);
            assert!(r.finished_at >= r.first_token_at);
            if r.request.decode_steps() > 0 {
                assert!(r.finished_at > r.first_token_at);
            }
        }
    }

    #[test]
    fn deterministic_runs() {
        let (cluster, plan, cfg) = testbed(presets::ETH_40GBPS);
        let reqs = generate(&spec::coding(1.0), ts_common::SimDuration::from_secs(30), 3);
        let m1 = Simulation::new(&cluster, &plan, cfg.clone())
            .unwrap()
            .run(&reqs)
            .unwrap();
        let m2 = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run(&reqs)
            .unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn higher_rate_worsens_latency() {
        let (cluster, plan, cfg) = testbed(presets::ETH_40GBPS);
        let lo_r = generate(
            &spec::coding(0.3),
            ts_common::SimDuration::from_secs(120),
            4,
        );
        let hi_r = generate(
            &spec::coding(4.0),
            ts_common::SimDuration::from_secs(120),
            4,
        );
        let lo = Simulation::new(&cluster, &plan, cfg.clone())
            .unwrap()
            .run(&lo_r)
            .unwrap();
        let hi = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run(&hi_r)
            .unwrap();
        let p_lo = lo.latency_percentile(SloKind::Ttft, 0.9).unwrap();
        let p_hi = hi.latency_percentile(SloKind::Ttft, 0.9).unwrap();
        assert!(p_hi > p_lo, "{p_hi} <= {p_lo}");
    }

    #[test]
    fn kv_compression_reduces_e2e_on_slow_links() {
        // Table 8 / Figure 18 shape: on a bandwidth-starved link, 4-bit KV
        // transfers beat fp16 end to end.
        let (cluster, plan, cfg) = testbed(presets::ETH_5GBPS);
        let reqs = generate(
            &spec::fixed(1024, 64, 0.5),
            ts_common::SimDuration::from_secs(120),
            5,
        );
        let m4 = Simulation::new(&cluster, &plan, cfg.clone())
            .unwrap()
            .run(&reqs)
            .unwrap();
        let m16 = Simulation::new(&cluster, &plan, cfg.with_f16_kv())
            .unwrap()
            .run(&reqs)
            .unwrap();
        let e4 = m4.mean_latency(SloKind::E2e).unwrap();
        let e16 = m16.mean_latency(SloKind::E2e).unwrap();
        assert!(e4 < e16, "4-bit {e4} should beat fp16 {e16}");
    }

    #[test]
    fn a_second_run_is_refused() {
        let (cluster, plan, cfg) = testbed(presets::ETH_40GBPS);
        let reqs = generate(&spec::coding(0.5), ts_common::SimDuration::from_secs(10), 1);
        let mut sim = Simulation::new(&cluster, &plan, cfg.clone()).unwrap();
        sim.run(&reqs).unwrap();
        let err = sim.run(&reqs).unwrap_err();
        assert!(matches!(err, ts_common::Error::Simulation(_)), "{err:?}");
        let mut colo = Simulation::colocated(&cluster, &plan.groups, cfg).unwrap();
        colo.run_with_faults(&reqs, &FaultScript::none()).unwrap();
        let err = colo
            .run_with_faults(&reqs, &FaultScript::none())
            .unwrap_err();
        assert!(matches!(err, ts_common::Error::Simulation(_)), "{err:?}");
    }

    #[test]
    fn single_token_outputs_skip_decode() {
        let (cluster, plan, cfg) = testbed(presets::ETH_40GBPS);
        let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
        let reqs = generate(
            &spec::fixed(512, 1, 1.0),
            ts_common::SimDuration::from_secs(20),
            6,
        );
        let m = sim.run(&reqs).unwrap();
        assert_eq!(m.num_completed(), reqs.len());
        for r in m.records() {
            assert_eq!(r.finished_at, r.first_token_at);
        }
    }

    /// The decode planner's work counters on a scripted run. Tables price
    /// whole blocks of 64 contexts. Request 0 decodes alone: one plan of 8
    /// steps at batch 1 from context 129, which prices the block 128..192
    /// (64 entries). Request 1 plans 32 steps at batch 1 from context 513
    /// (the block 512..576, 128). Request 2 joins it: a re-plan prices the
    /// 3 steps after the carried boundary at batch 2 from context 295 (the
    /// block 256..320, 192). Request 1's last 18 steps from context 527,
    /// after request 2 finishes, and request 3, which repeats request 0's
    /// shape, lie inside priced blocks. The per-step path crosses the same
    /// 48 boundaries with one plan each and visits contexts 129..137,
    /// 513..524 and 527..545 at batch 1 and 295..298 at batch 2: the same
    /// three blocks, 192 entries.
    #[test]
    fn decode_work_is_pinned_on_a_scripted_run() {
        use crate::DecodeWork;
        use ts_common::RequestId;
        let (cluster, plan, cfg) = testbed(presets::ETH_40GBPS);
        let reqs = [
            Request::new(RequestId(0), SimTime::ZERO, 128, 9),
            Request::new(RequestId(1), SimTime::from_secs_f64(5.0), 512, 33),
            Request::new(RequestId(2), SimTime::from_secs_f64(5.3), 64, 5),
            Request::new(RequestId(3), SimTime::from_secs_f64(10.0), 128, 9),
        ];
        let work = |cfg: SimConfig| {
            let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
            assert_eq!(sim.run(&reqs).unwrap().num_completed(), 4);
            sim.decode_work()
        };
        assert_eq!(
            work(cfg.clone()),
            DecodeWork {
                plans: 4,
                replans: 1,
                steps_priced: 192,
                steps_crossed: 48,
            }
        );
        assert_eq!(
            work(cfg.with_decode_coalescing(false)),
            DecodeWork {
                plans: 48,
                replans: 0,
                steps_priced: 192,
                steps_crossed: 48,
            }
        );
    }

    /// A 2 × 2 plan routes over four cells of 1/4: one pick per arrival,
    /// and a pick scans one level when all four share a credit (the first
    /// of every four), two otherwise.
    #[test]
    fn router_work_is_pinned_on_a_two_by_two_run() {
        use crate::RouterWork;
        let (cluster, _, cfg) = testbed(presets::ETH_40GBPS);
        let layers = cfg.model.num_layers;
        let plan = DeploymentPlan::new(
            vec![
                group(Phase::Prefill, &[0, 1], 2, 1, layers),
                group(Phase::Prefill, &[2, 3], 2, 1, layers),
                group(Phase::Decode, &[4, 5], 2, 1, layers),
                group(Phase::Decode, &[6, 7], 2, 1, layers),
            ],
            RoutingMatrix::uniform(2, 2),
        )
        .unwrap();
        let reqs = generate(
            &spec::conversation(1.0),
            ts_common::SimDuration::from_secs(30),
            3,
        );
        let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
        // Setup visits the support's four cells.
        let setup = RouterWork {
            cells: 4,
            ..RouterWork::default()
        };
        assert_eq!(sim.router_work(), setup);
        sim.run(&reqs).unwrap();
        // 23 picks: 6 of them scan one level, 17 scan two.
        let work = RouterWork {
            cells: 4,
            picks: 23,
            levels_scanned: 40,
        };
        assert_eq!((reqs.len(), sim.router_work()), (23, work));
    }

    /// The KV transport builds a (prefill, decode) pair's state on the
    /// pair's first use, not at setup. On a 1,024-replica fleet whose
    /// prefill replica `i` feeds decode replicas `i` and `i + 1 (mod 512)`
    /// — 1,024 of 262,144 pairs — setup builds none, and a fault-free run
    /// builds exactly the routed pairs its transfers used.
    #[test]
    fn kv_pairs_are_built_on_first_use_on_a_fleet() {
        use crate::KvWork;
        use std::collections::BTreeSet;
        let n = 512;
        let (cluster, plan, model) = fleet(n);
        let mut sim = Simulation::new(&cluster, &plan, SimConfig::new(model)).unwrap();
        assert_eq!(sim.kv_work(), KvWork::default(), "setup builds no pair");
        let reqs: Vec<Request> = (0..3_000u64)
            .map(|i| {
                let at = SimTime::from_micros(i * 1_500);
                Request::new(ts_common::RequestId(i), at, 256, 64)
            })
            .collect();
        let m = sim.run(&reqs).unwrap();
        assert_eq!(m.num_completed(), reqs.len());
        let used: BTreeSet<(usize, usize)> = m
            .records()
            .iter()
            .map(|r| (r.prefill_replica, r.decode_replica))
            .collect();
        assert!(used.iter().all(|&(i, j)| j == i || j == (i + 1) % n));
        assert_eq!(used.len(), 2 * n, "the stride router visits every cell");
        assert_eq!(sim.kv_work().pairs_built, used.len() as u64);
    }

    /// `fleet_1m`'s plan on `2n` A5000 tp=1 replicas serving LLaMA-7B:
    /// prefill replica `i` feeds decode replicas `i` and `i + 1 (mod n)`,
    /// `2n` of the `n²` cells.
    fn fleet(n: usize) -> (ts_cluster::Cluster, DeploymentPlan, ModelSpec) {
        let model = ModelSpec::llama_7b();
        let cluster = presets::a5000_cluster(2 * n);
        let groups = (0..2 * n)
            .map(|g| {
                let phase = if g < n { Phase::Prefill } else { Phase::Decode };
                group(phase, &[g as u32], 1, 1, model.num_layers)
            })
            .collect();
        let share = 1.0 / (2 * n) as f64;
        let rates = (0..n)
            .map(|i| {
                let mut row = vec![0.0; n];
                row[i] += share;
                row[(i + 1) % n] += share;
                row
            })
            .collect();
        let plan = DeploymentPlan::new(groups, RoutingMatrix::new(rates).unwrap()).unwrap();
        (cluster, plan, model)
    }

    /// Setup on the fleet visits the 1,024 routed cells, not the 262,144
    /// dense ones: the router is built from the plan's support, and the KV
    /// transport builds no pair. The dense adapter visits every cell.
    #[test]
    fn fleet_setup_visits_only_the_support() {
        let (cluster, plan, model) = fleet(512);
        let sim = Simulation::new(&cluster, &plan, SimConfig::new(model)).unwrap();
        assert_eq!(sim.router_work().cells, 1_024);
        assert_eq!(sim.kv_work().pairs_built, 0);
        let (dense, _) = crate::router::StrideRouter::from_matrix(plan.routing.rates()).unwrap();
        assert_eq!(dense.work().cells, 262_144);
    }

    #[test]
    fn slo_attainment_monotone_in_scale() {
        let (cluster, plan, cfg) = testbed(presets::ETH_40GBPS);
        let reqs = generate(
            &spec::conversation(1.5),
            ts_common::SimDuration::from_secs(90),
            7,
        );
        let m = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run(&reqs)
            .unwrap();
        let base = SloSpec::new(
            ts_common::SimDuration::from_millis(800),
            ts_common::SimDuration::from_millis(80),
            ts_common::SimDuration::from_secs(8),
        );
        let mut prev = 0.0;
        for s in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let a = m.joint_attainment(&base.scaled(s));
            assert!(
                a >= prev - 1e-12,
                "attainment must not decrease: {a} < {prev}"
            );
            prev = a;
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{Detection, FaultKind, FaultScript, TimedFault};
    use ts_cluster::presets;
    use ts_common::{GpuId, GroupSpec, ModelSpec, Phase, RoutingMatrix, SimDuration, SimTime};
    use ts_workload::{generator::generate, spec};

    /// 4xA40 prefill (one tp=4 replica) + two 2x3090Ti decode replicas, so
    /// a decode replica can die while a survivor picks up its work.
    fn failover_testbed() -> (ts_cluster::Cluster, DeploymentPlan, SimConfig) {
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let model = ModelSpec::llama_13b();
        let group = |phase, ids: &[u32]| {
            GroupSpec::single_stage(
                phase,
                ids.iter().map(|&i| GpuId(i)).collect(),
                model.num_layers,
            )
            .unwrap()
        };
        let plan = DeploymentPlan::new(
            vec![
                group(Phase::Prefill, &[0, 1, 2, 3]),
                group(Phase::Decode, &[4, 5]),
                group(Phase::Decode, &[6, 7]),
            ],
            RoutingMatrix::uniform(1, 2),
        )
        .unwrap();
        (cluster, plan, SimConfig::new(model))
    }

    fn fault(at_s: f64, kind: FaultKind) -> TimedFault {
        TimedFault {
            at: SimTime::from_secs_f64(at_s),
            kind,
        }
    }

    #[test]
    fn empty_script_matches_plain_run() {
        let (cluster, plan, cfg) = failover_testbed();
        let reqs = generate(&spec::coding(1.0), SimDuration::from_secs(40), 11);
        let plain = Simulation::new(&cluster, &plan, cfg.clone())
            .unwrap()
            .run(&reqs)
            .unwrap();
        let scripted = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run_with_faults(&reqs, &FaultScript::none())
            .unwrap();
        assert_eq!(plain, scripted);
    }

    #[test]
    fn decode_death_mid_run_recovers_on_survivor() {
        let (cluster, plan, cfg) = failover_testbed();
        // Long outputs keep every decode replica saturated, so the fault is
        // guaranteed to strike sequences mid-decode.
        let reqs = generate(&spec::fixed(512, 256, 2.0), SimDuration::from_secs(60), 12);
        let script = FaultScript::new(
            vec![fault(20.0, FaultKind::DecodeDown(0))],
            SimDuration::from_millis(500),
        );
        let run = || {
            Simulation::new(&cluster, &plan, cfg.clone())
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap()
        };
        let m = run();
        // The fault struck mid-decode: some sequences lost KV and were
        // re-prefilled, and every affected request still completed.
        assert!(
            m.recovery().reprefilled_tokens > 0,
            "expected lost KV to be re-prefilled: {:?}",
            m.recovery()
        );
        assert_eq!(
            m.num_completed() + m.num_dropped() + m.num_rejected(),
            reqs.len()
        );
        assert_eq!(
            m.num_completed(),
            reqs.len(),
            "survivor should absorb all work"
        );
        assert!(m.recovery().max_time_to_recover().is_some());
        // Every post-fault decode ran on the survivor.
        for r in m.records() {
            if r.finished_at > SimTime::from_secs_f64(21.0) {
                assert_eq!(r.decode_replica, 1, "dead replica decoded a request");
            }
        }
        // Deterministic across identical runs.
        assert_eq!(m, run());
    }

    #[test]
    fn recovery_beats_no_recovery() {
        let (cluster, plan, cfg) = failover_testbed();
        let reqs = generate(&spec::fixed(512, 256, 2.0), SimDuration::from_secs(60), 13);
        let script = FaultScript::new(
            vec![fault(20.0, FaultKind::DecodeDown(0))],
            SimDuration::from_millis(500),
        );
        let with = Simulation::new(&cluster, &plan, cfg.clone())
            .unwrap()
            .run_with_faults(&reqs, &script)
            .unwrap();
        let without = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run_with_faults(&reqs, &script.clone().without_recovery())
            .unwrap();
        assert!(
            without.num_dropped() > 0,
            "no-recovery should lose requests"
        );
        assert!(with.num_completed() > without.num_completed());
        assert_eq!(
            without.num_completed() + without.num_dropped() + without.num_rejected(),
            reqs.len()
        );
    }

    #[test]
    fn prefill_death_requeues_to_nowhere_and_sheds() {
        // Single prefill replica dies and never returns: arrivals stall up
        // to the shed threshold, the rest are rejected, nothing panics.
        let (cluster, plan, cfg) = failover_testbed();
        let reqs = generate(&spec::coding(1.5), SimDuration::from_secs(300), 14);
        let script = FaultScript::new(
            vec![fault(15.0, FaultKind::PrefillDown(0))],
            SimDuration::from_millis(500),
        );
        let m = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run_with_faults(&reqs, &script)
            .unwrap();
        assert!(m.num_rejected() > 0, "whole-phase loss must shed load");
        // The stall queue holds exactly the threshold when events dry up,
        // and its leftovers count as dropped.
        assert!(m.num_dropped() >= crate::config::SHED_THRESHOLD);
        assert_eq!(
            m.num_completed() + m.num_dropped() + m.num_rejected(),
            reqs.len()
        );
        assert!(m.recovery().requeued_requests > 0);
    }

    #[test]
    fn replica_blip_restores_service() {
        let (cluster, plan, cfg) = failover_testbed();
        let reqs = generate(&spec::fixed(512, 128, 2.0), SimDuration::from_secs(60), 15);
        // Detection lands inside the outage; the arrivals that piled up on
        // the dead replica are requeued (to the stall queue: it is the only
        // prefill) and drain when the replica returns at t=25.
        let script = FaultScript::new(
            vec![
                fault(15.0, FaultKind::PrefillDown(0)),
                fault(25.0, FaultKind::PrefillUp(0)),
            ],
            SimDuration::from_secs_f64(2.0),
        );
        let m = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run_with_faults(&reqs, &script)
            .unwrap();
        // Everything eventually completes once the replica returns.
        assert_eq!(m.num_completed(), reqs.len(), "{:?}", m.recovery());
        assert!(m.recovery().requeued_requests > 0);
    }

    #[test]
    fn detections_apply_faults_in_queue_order() {
        let (cluster, plan, cfg) = failover_testbed();
        let sim = Simulation::new(&cluster, &plan, cfg).unwrap();
        let script = FaultScript::new(
            vec![
                // A blip that heals before the delay runs out.
                fault(1.0, FaultKind::DecodeDown(0)),
                fault(1.3, FaultKind::DecodeUp(0)),
                // A heal at exactly the detection time pops after it.
                fault(2.0, FaultKind::DecodeDown(1)),
                fault(2.5, FaultKind::DecodeUp(1)),
                // Down, up and down again: the replica is down at the first
                // fault's detection time, and at the second's.
                fault(5.0, FaultKind::PrefillDown(0)),
                fault(5.2, FaultKind::PrefillUp(0)),
                fault(5.4, FaultKind::PrefillDown(0)),
                // Another replica's heal does not count.
                fault(7.0, FaultKind::DecodeDown(0)),
                fault(7.2, FaultKind::DecodeUp(1)),
            ],
            SimDuration::from_millis(500),
        );
        let at = |i: usize| script.faults[i].at + script.detection_delay;
        let expect = |faults: &[usize]| -> Vec<Detection> {
            faults
                .iter()
                .map(|&fault| Detection {
                    at: at(fault),
                    fault,
                })
                .collect()
        };
        assert_eq!(sim.detections(&script).unwrap(), expect(&[2, 4, 6, 7]));

        // Faults out of time order are applied in `(at, index)` order:
        // reversed, the heal at 2.5 s precedes the loss in the script, so it
        // pops before that loss's detection.
        let mut reversed = script.clone();
        reversed.faults.reverse();
        let n = reversed.faults.len();
        let mut got: Vec<usize> = sim
            .detections(&reversed)
            .unwrap()
            .iter()
            .map(|d| n - 1 - d.fault)
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![4, 6, 7]);

        // A script the run would reject is rejected here too.
        let bad = FaultScript::new(
            vec![fault(1.0, FaultKind::DecodeDown(9))],
            SimDuration::ZERO,
        );
        assert!(matches!(
            sim.detections(&bad),
            Err(ts_common::Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn only_detected_losses_are_traced_as_detections() {
        let (cluster, plan, cfg) = failover_testbed();
        let reqs = generate(&spec::fixed(512, 128, 2.0), SimDuration::from_secs(30), 17);
        let script = FaultScript::new(
            vec![
                fault(5.0, FaultKind::DecodeDown(0)),
                fault(5.2, FaultKind::DecodeUp(0)),
                fault(10.0, FaultKind::DecodeDown(1)),
            ],
            SimDuration::from_millis(500),
        );
        let mut sim = Simulation::new(&cluster, &plan, cfg.with_telemetry(true)).unwrap();
        let detections = sim.detections(&script).unwrap();
        assert_eq!(detections.iter().map(|d| d.fault).collect::<Vec<_>>(), [2]);
        sim.run_with_faults(&reqs, &script).unwrap();
        let traced: Vec<(SimTime, usize)> = sim
            .take_trace()
            .unwrap()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                ts_telemetry::TraceKind::FaultDetected { index } => Some((e.at, index)),
                _ => None,
            })
            .collect();
        assert_eq!(traced, [(detections[0].at, 2)]);
    }

    #[test]
    fn link_fault_retries_with_backoff() {
        let (cluster, plan, cfg) = failover_testbed();
        let reqs = generate(&spec::coding(1.0), SimDuration::from_secs(60), 16);
        let script = FaultScript::new(
            vec![
                fault(
                    10.0,
                    FaultKind::LinkDown {
                        prefill: 0,
                        decode: 0,
                    },
                ),
                fault(
                    14.0,
                    FaultKind::LinkUp {
                        prefill: 0,
                        decode: 0,
                    },
                ),
            ],
            SimDuration::from_millis(100),
        );
        let m = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run_with_faults(&reqs, &script)
            .unwrap();
        assert!(
            m.recovery().kv_transfer_retries > 0,
            "transfers over the dead link must retry"
        );
        assert_eq!(m.num_completed(), reqs.len());
    }

    #[test]
    fn pause_stalls_arrivals_then_drains() {
        let (cluster, plan, cfg) = failover_testbed();
        let reqs = generate(&spec::coding(1.0), SimDuration::from_secs(60), 17);
        let script = FaultScript::new(
            vec![fault(
                20.0,
                FaultKind::Pause {
                    until: SimTime::from_secs_f64(28.0),
                },
            )],
            SimDuration::ZERO,
        );
        let m = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run_with_faults(&reqs, &script)
            .unwrap();
        // Default shed threshold is generous: the blackout queue drains.
        assert_eq!(m.num_completed(), reqs.len());
        // No request starts prefill during the blackout, so first tokens of
        // blackout arrivals land after the resume.
        for r in m.records() {
            let arr = r.request.arrival;
            if arr >= SimTime::from_secs_f64(20.0) && arr < SimTime::from_secs_f64(28.0) {
                assert!(r.first_token_at >= SimTime::from_secs_f64(28.0));
            }
        }
    }

    #[test]
    fn out_of_range_fault_is_rejected() {
        let (cluster, plan, cfg) = failover_testbed();
        let script = FaultScript::new(
            vec![fault(1.0, FaultKind::DecodeDown(7))],
            SimDuration::ZERO,
        );
        let err = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run_with_faults(&[], &script);
        assert!(err.is_err());
    }
}

#[cfg(test)]
mod fabric_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultScript, TimedFault};
    use ts_cluster::presets;
    use ts_common::{
        GpuId, GroupSpec, ModelId, ModelSpec, Phase, RoutingMatrix, ServedModel, SimDuration,
        SimTime,
    };
    use ts_kvcache::codec::KvWirePrecision;
    use ts_workload::{generator::generate, spec};

    /// 4xA40 prefill + two 2x3090Ti decode replicas on a slow (5 Gbps)
    /// fabric, so concurrent KV transfers genuinely contend.
    fn contended_testbed() -> (ts_cluster::Cluster, DeploymentPlan, SimConfig) {
        let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
        let model = ModelSpec::llama_13b();
        let group = |phase, ids: &[u32]| {
            GroupSpec::single_stage(
                phase,
                ids.iter().map(|&i| GpuId(i)).collect(),
                model.num_layers,
            )
            .unwrap()
        };
        let plan = DeploymentPlan::new(
            vec![
                group(Phase::Prefill, &[0, 1, 2, 3]),
                group(Phase::Decode, &[4, 5]),
                group(Phase::Decode, &[6, 7]),
            ],
            RoutingMatrix::uniform(1, 2),
        )
        .unwrap();
        (cluster, plan, SimConfig::new(model))
    }

    fn mean_wire_secs(m: &crate::metrics::Metrics) -> f64 {
        let moved: Vec<_> = m
            .records()
            .iter()
            .filter(|r| r.kv_done_at.is_some())
            .collect();
        assert!(!moved.is_empty(), "no transfers recorded");
        moved
            .iter()
            .map(|r| r.kv_wire_time.as_secs_f64())
            .sum::<f64>()
            / moved.len() as f64
    }

    #[test]
    fn fabric_run_completes_and_is_deterministic() {
        let (cluster, plan, cfg) = contended_testbed();
        let cfg = cfg.with_network_contention(true);
        let reqs = generate(&spec::coding(1.0), SimDuration::from_secs(40), 31);
        let run = || {
            Simulation::new(&cluster, &plan, cfg.clone())
                .unwrap()
                .run(&reqs)
                .unwrap()
        };
        let m = run();
        assert_eq!(m.num_completed(), reqs.len());
        for r in m.records() {
            if let Some(done) = r.kv_done_at {
                // The KV moves between prefill completion (= first token)
                // and the end of decode.
                assert!(done >= r.first_token_at, "{done} < {}", r.first_token_at);
                assert!(done <= r.finished_at);
            }
        }
        assert_eq!(m, run(), "fabric scheduling must stay deterministic");
    }

    /// A single-routing plan whose groups carry a catalog model id: the
    /// replicas serve LLaMA-13B while the default model is LLaMA-7B. The
    /// fabric flow and the traced bytes are sized by the sending replica's
    /// model, as the serialized wire and the estimator are.
    #[test]
    fn kv_bytes_are_sized_by_the_senders_model() {
        let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
        let m13 = ModelSpec::llama_13b();
        let group = |phase, ids: &[u32]| {
            GroupSpec::single_stage(phase, ids.iter().map(|&i| GpuId(i)).collect(), 40)
                .unwrap()
                .with_model(ModelId(1))
        };
        let plan = DeploymentPlan::new(
            vec![
                group(Phase::Prefill, &[0, 1, 2, 3]),
                group(Phase::Decode, &[4, 5]),
                group(Phase::Decode, &[6, 7]),
            ],
            RoutingMatrix::uniform(1, 2),
        )
        .unwrap();
        let catalog = vec![ServedModel::llama_13b_chat(ModelId(1), 1.0).unwrap()];
        let cfg = SimConfig::new(ModelSpec::llama_7b())
            .with_catalog(catalog)
            .with_network_contention(true)
            .with_telemetry(true);
        let reqs = generate(&spec::coding(1.0), SimDuration::from_secs(20), 33);
        let mut sim = Simulation::new(&cluster, &plan, cfg).unwrap();
        sim.run(&reqs).unwrap();
        let mut enqueued = 0;
        for e in sim.take_trace().unwrap().events() {
            if let ts_telemetry::TraceKind::KvEnqueued { request, bytes, .. } = e.kind {
                let prompt = reqs[request.index()].prompt_len;
                let want = KvWirePrecision::DEFAULT_COMPRESSED.wire_bytes(&m13, prompt.into(), 40);
                assert_eq!(bytes, want, "request {request}");
                enqueued += 1;
            }
        }
        assert!(enqueued > 0, "no KV transfer traced");
    }

    #[test]
    fn contention_grows_wire_time_with_load() {
        // More concurrent flows -> each gets a smaller max-min share -> the
        // per-transfer wire time stretches. The legacy serialization model
        // cannot show this (wire time is load-independent there).
        let (cluster, plan, cfg) = contended_testbed();
        let cfg = cfg.with_network_contention(true);
        let run = |rate: f64, seed: u64| {
            let reqs = generate(
                &spec::fixed(1024, 16, rate),
                SimDuration::from_secs(60),
                seed,
            );
            Simulation::new(&cluster, &plan, cfg.clone())
                .unwrap()
                .run(&reqs)
                .unwrap()
        };
        let lo = mean_wire_secs(&run(0.3, 32));
        let hi = mean_wire_secs(&run(4.0, 32));
        assert!(
            hi > lo,
            "wire time should grow with concurrent load: {hi} <= {lo}"
        );
    }

    #[test]
    fn kv_timing_is_recorded_on_the_legacy_path() {
        // Satellite: the timing decomposition rides the default (legacy)
        // model too, not just the fabric.
        let (cluster, plan, cfg) = contended_testbed();
        let reqs = generate(&spec::fixed(1024, 16, 1.0), SimDuration::from_secs(40), 34);
        let m = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run(&reqs)
            .unwrap();
        assert_eq!(m.num_completed(), reqs.len());
        for r in m.records() {
            let done = r.kv_done_at.expect("multi-token request must transfer");
            assert!(r.kv_wire_time > SimDuration::ZERO, "modeled wire time");
            assert!(done >= r.first_token_at && done <= r.finished_at);
        }
    }

    #[test]
    fn link_fault_mid_flow_retries_like_legacy() {
        // Satellite: a link dying under the fabric kills in-flight flows,
        // which re-enter through the same retry/backoff path (and the same
        // RecoveryCounters) as the legacy completion-time check.
        let (cluster, plan, cfg) = contended_testbed();
        let reqs = generate(&spec::fixed(1024, 64, 2.0), SimDuration::from_secs(60), 35);
        let script = FaultScript::new(
            vec![
                TimedFault {
                    at: SimTime::from_secs_f64(10.0),
                    kind: FaultKind::LinkDown {
                        prefill: 0,
                        decode: 0,
                    },
                },
                TimedFault {
                    at: SimTime::from_secs_f64(14.0),
                    kind: FaultKind::LinkUp {
                        prefill: 0,
                        decode: 0,
                    },
                },
            ],
            SimDuration::from_millis(100),
        );
        let run = |c: SimConfig| {
            Simulation::new(&cluster, &plan, c)
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap()
        };
        let fabric = run(cfg.clone().with_network_contention(true));
        let legacy = run(cfg);
        assert!(
            fabric.recovery().kv_transfer_retries > 0,
            "flows killed by the link fault must retry: {:?}",
            fabric.recovery()
        );
        assert!(legacy.recovery().kv_transfer_retries > 0);
        assert_eq!(fabric.num_completed(), reqs.len());
        assert_eq!(legacy.num_completed(), reqs.len());
        // Neither model loses or double-counts work.
        assert_eq!(fabric.recovery().requeued_requests, 0);
        assert_eq!(fabric.recovery().reprefilled_tokens, 0);
        // And the fabric run stays reproducible under faults.
        let again = Simulation::new(&cluster, &plan, {
            let (_, _, c) = contended_testbed();
            c.with_network_contention(true)
        })
        .unwrap()
        .run_with_faults(&reqs, &script)
        .unwrap();
        assert_eq!(fabric, again);
    }
}

#[cfg(test)]
mod gray_failure_tests {
    use super::*;
    use crate::config::{Hedge, Quarantine};
    use crate::fault::{FaultKind, FaultScript, TimedFault};
    use ts_cluster::presets;
    use ts_common::{
        GpuId, GroupSpec, ModelSpec, Phase, RoutingMatrix, SimDuration, SimTime, SloKind,
    };
    use ts_workload::{generator::generate, spec};

    fn group(model: &ModelSpec, phase: Phase, ids: &[u32]) -> GroupSpec {
        GroupSpec::single_stage(
            phase,
            ids.iter().map(|&i| GpuId(i)).collect(),
            model.num_layers,
        )
        .unwrap()
    }

    /// One tp=4 prefill replica + two tp=2 decode replicas: the shape used
    /// by the hard-failure tests, reused here for decode-side gray faults.
    fn gray_testbed() -> (ts_cluster::Cluster, DeploymentPlan, SimConfig) {
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let model = ModelSpec::llama_13b();
        let plan = DeploymentPlan::new(
            vec![
                group(&model, Phase::Prefill, &[0, 1, 2, 3]),
                group(&model, Phase::Decode, &[4, 5]),
                group(&model, Phase::Decode, &[6, 7]),
            ],
            RoutingMatrix::uniform(1, 2),
        )
        .unwrap();
        (cluster, plan, SimConfig::new(model))
    }

    /// Two tp=2 prefill replicas + two tp=2 decode replicas, so a stuck
    /// prefill has somewhere to hedge to.
    fn hedge_testbed() -> (ts_cluster::Cluster, DeploymentPlan, SimConfig) {
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let model = ModelSpec::llama_13b();
        let plan = DeploymentPlan::new(
            vec![
                group(&model, Phase::Prefill, &[0, 1]),
                group(&model, Phase::Prefill, &[2, 3]),
                group(&model, Phase::Decode, &[4, 5]),
                group(&model, Phase::Decode, &[6, 7]),
            ],
            RoutingMatrix::uniform(2, 2),
        )
        .unwrap();
        (cluster, plan, SimConfig::new(model))
    }

    fn fault(at_s: f64, kind: FaultKind) -> TimedFault {
        TimedFault {
            at: SimTime::from_secs_f64(at_s),
            kind,
        }
    }

    fn conserved(m: &Metrics, n: usize) {
        assert_eq!(
            m.num_completed() + m.num_dropped() + m.num_rejected(),
            n,
            "request conservation violated: {:?}",
            m.recovery()
        );
    }

    #[test]
    fn default_knobs_stay_bit_identical() {
        // Acceptance gate: with no gray faults and no mitigation knobs the
        // new layer must be invisible — an empty fault script gives
        // bit-identical metrics, on both the legacy and the fabric engine.
        let (cluster, plan, cfg) = gray_testbed();
        let reqs = generate(&spec::coding(1.0), SimDuration::from_secs(40), 41);
        for fabric in [false, true] {
            let base = cfg.clone().with_network_contention(fabric);
            let plain = Simulation::new(&cluster, &plan, base.clone())
                .unwrap()
                .run(&reqs)
                .unwrap();
            let scripted = Simulation::new(&cluster, &plan, base)
                .unwrap()
                .run_with_faults(&reqs, &FaultScript::none())
                .unwrap();
            assert_eq!(plain, scripted, "fabric={fabric}");
            assert_eq!(plain.recovery().quarantines, 0);
            assert_eq!(plain.recovery().hedges_launched, 0);
        }
    }

    #[test]
    fn slowdown_stretches_latency_without_mitigation() {
        // A decode straggler with no detector configured: everything still
        // completes, just slower — the degradation alone changes no counts.
        let (cluster, plan, cfg) = gray_testbed();
        let reqs = generate(&spec::fixed(512, 128, 1.5), SimDuration::from_secs(60), 42);
        let script = FaultScript::new(
            vec![fault(0.01, FaultKind::DecodeSlow(0, 4.0))],
            SimDuration::from_millis(500),
        );
        let slow = Simulation::new(&cluster, &plan, cfg.clone())
            .unwrap()
            .run_with_faults(&reqs, &script)
            .unwrap();
        let healthy = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run(&reqs)
            .unwrap();
        assert_eq!(slow.num_completed(), reqs.len());
        let e = |m: &Metrics| m.mean_latency(SloKind::E2e).unwrap();
        assert!(
            e(&slow) > e(&healthy),
            "straggler must hurt E2E: {} <= {}",
            e(&slow),
            e(&healthy)
        );
        assert_eq!(slow.recovery().quarantines, 0, "no detector configured");
    }

    /// Absurd slowdowns are valid input: decode boundaries then saturate
    /// at the end of time, every request still completes, and the
    /// coalesced plans match the per-step loop.
    #[test]
    fn saturating_slowdowns_complete_every_request() {
        let model = ModelSpec::llama_7b();
        let cluster = presets::a5000_cluster(4);
        let plan = DeploymentPlan::new(
            vec![
                group(&model, Phase::Prefill, &[0, 1]),
                group(&model, Phase::Decode, &[2, 3]),
            ],
            RoutingMatrix::uniform(1, 1),
        )
        .unwrap();
        let reqs: Vec<Request> = (0..20)
            .map(|i| {
                let at = SimTime::from_micros(i * 250_000);
                Request::new(ts_common::RequestId(i), at, 256, 32)
            })
            .collect();
        for factor in [1e3, 1e9, 1e15, 1e300] {
            let script = FaultScript::new(
                vec![fault(1.0, FaultKind::DecodeSlow(0, factor))],
                SimDuration::from_millis(500),
            );
            let run = |coalescing: bool| {
                let cfg = SimConfig::new(model.clone()).with_decode_coalescing(coalescing);
                Simulation::new(&cluster, &plan, cfg)
                    .unwrap()
                    .run_with_faults(&reqs, &script)
                    .unwrap()
            };
            let m = run(true);
            assert_eq!(m.num_completed(), 20, "factor {factor}");
            let finish = |m: &Metrics| m.records().iter().map(|r| r.finished_at).max();
            assert_eq!(finish(&m), finish(&run(false)), "factor {factor}");
            if factor == 1e300 {
                assert_eq!(finish(&m), Some(SimTime::MAX));
            }
        }
    }

    #[test]
    fn straggler_is_quarantined_then_readmitted() {
        let (cluster, plan, cfg) = gray_testbed();
        let cfg = cfg.with_quarantine(Quarantine {
            threshold: 2.0,
            readmit_after: SimDuration::from_secs(4),
        });
        let reqs = generate(&spec::fixed(512, 128, 1.5), SimDuration::from_secs(60), 43);
        // Decode 0 runs 6x slow from t=5 and heals at t=30: the detector
        // must quarantine it, probe it while still slow (re-quarantine), and
        // finally readmit it for good.
        let script = FaultScript::new(
            vec![
                fault(5.0, FaultKind::DecodeSlow(0, 6.0)),
                fault(30.0, FaultKind::DecodeSlow(0, 1.0)),
            ],
            SimDuration::from_millis(500),
        );
        let run = || {
            Simulation::new(&cluster, &plan, cfg.clone())
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap()
        };
        let m = run();
        assert!(
            m.recovery().quarantines > 0,
            "detector must trip: {:?}",
            m.recovery()
        );
        assert!(
            m.recovery().readmissions > 0,
            "healed replica must be readmitted: {:?}",
            m.recovery()
        );
        conserved(&m, reqs.len());
        assert_eq!(m.num_completed(), reqs.len(), "quarantine loses no work");
        assert_eq!(m, run(), "mitigation must stay deterministic");
    }

    #[test]
    fn quarantine_improves_tail_latency_under_straggler() {
        let (cluster, plan, cfg) = gray_testbed();
        let reqs = generate(&spec::fixed(512, 128, 1.5), SimDuration::from_secs(90), 44);
        let script = FaultScript::new(
            vec![fault(5.0, FaultKind::DecodeSlow(0, 8.0))],
            SimDuration::from_millis(500),
        );
        let run = |c: SimConfig| {
            Simulation::new(&cluster, &plan, c)
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap()
        };
        let unmitigated = run(cfg.clone());
        let mitigated = run(cfg.with_quarantine(Quarantine {
            threshold: 2.0,
            readmit_after: SimDuration::from_secs(60),
        }));
        let p99 = |m: &Metrics| m.latency_percentile(SloKind::E2e, 0.99).unwrap();
        assert!(
            p99(&mitigated) < p99(&unmitigated),
            "routing away from the straggler must help the tail: {} >= {}",
            p99(&mitigated),
            p99(&unmitigated)
        );
        assert!(mitigated.recovery().quarantines > 0);
    }

    #[test]
    fn hedging_rescues_stuck_prefills() {
        let (cluster, plan, cfg) = hedge_testbed();
        let reqs = generate(&spec::coding(1.5), SimDuration::from_secs(60), 45);
        // Prefill 0 becomes a deep straggler: requests stuck behind it wait
        // tens of seconds unless hedged onto prefill 1.
        let script = FaultScript::new(
            vec![fault(5.0, FaultKind::PrefillSlow(0, 40.0))],
            SimDuration::from_millis(500),
        );
        let run = |c: SimConfig| {
            Simulation::new(&cluster, &plan, c)
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap()
        };
        let unhedged = run(cfg.clone());
        let hedged = run(cfg
            .clone()
            .with_hedge(Hedge::after(SimDuration::from_millis(400))));
        assert!(
            hedged.recovery().hedges_launched > 0,
            "stuck prefills must hedge: {:?}",
            hedged.recovery()
        );
        assert!(
            hedged.recovery().hedges_won > 0,
            "the healthy duplicate must win: {:?}",
            hedged.recovery()
        );
        conserved(&hedged, reqs.len());
        assert_eq!(
            hedged.num_completed(),
            reqs.len(),
            "hedging must not lose or double-complete requests"
        );
        let p99 = |m: &Metrics| m.latency_percentile(SloKind::Ttft, 0.99).unwrap();
        assert!(
            p99(&hedged) < p99(&unhedged),
            "hedging must cut tail TTFT: {} >= {}",
            p99(&hedged),
            p99(&unhedged)
        );
        // Deterministic across identical runs.
        let again = run(cfg.with_hedge(Hedge::after(SimDuration::from_millis(400))));
        assert_eq!(hedged, again);
    }

    #[test]
    fn a_link_that_never_heals_drops_instead_of_looping() {
        // Transfers retry on a down link only while the script still holds
        // a `LinkUp` for it. Link (0, 0) goes down twice and heals once in
        // between: transfers caught by the first outage retry and complete,
        // those caught by the second one are dropped, and the run
        // terminates with exact conservation on both wire models.
        let (cluster, plan, cfg) = gray_testbed();
        let reqs = generate(&spec::fixed(512, 32, 1.0), SimDuration::from_secs(40), 46);
        let link = FaultKind::LinkDown {
            prefill: 0,
            decode: 0,
        };
        let heal = FaultKind::LinkUp {
            prefill: 0,
            decode: 0,
        };
        let never_heals = FaultScript::new(
            vec![fault(5.0, link), fault(9.0, heal), fault(20.0, link)],
            SimDuration::from_millis(100),
        );
        let heals = FaultScript::new(
            vec![fault(5.0, link), fault(9.0, heal)],
            SimDuration::from_millis(100),
        );
        for fabric in [false, true] {
            let run = |script: &FaultScript| {
                Simulation::new(&cluster, &plan, cfg.clone().with_network_contention(fabric))
                    .unwrap()
                    .run_with_faults(&reqs, script)
                    .unwrap()
            };
            let m = run(&never_heals);
            conserved(&m, reqs.len());
            assert!(
                m.recovery().kv_transfer_retries > 0,
                "fabric={fabric}: the healed outage retries: {:?}",
                m.recovery()
            );
            assert!(
                m.num_dropped() > 0,
                "fabric={fabric}: the lasting outage drops its transfers"
            );
            assert_eq!(m, run(&never_heals), "fabric={fabric}");
            // A script that heals every link loses nothing.
            let healed = run(&heals);
            assert!(healed.recovery().kv_transfer_retries > 0, "fabric={fabric}");
            assert_eq!(healed.num_completed(), reqs.len(), "fabric={fabric}");
        }
    }

    #[test]
    fn flaky_heartbeat_masks_routing_and_conserves() {
        let (cluster, plan, cfg) = gray_testbed();
        let reqs = generate(&spec::fixed(512, 64, 1.5), SimDuration::from_secs(60), 49);
        // Decode replica 0 lives on host 1 (hosts count prefills first).
        // Its heartbeats drop 70% of windows from t=5 until the flap heals
        // at t=40; masking is a routing-only false positive, so no work is
        // lost — only shifted to the peer while masked.
        let script = FaultScript::new(
            vec![
                fault(5.0, FaultKind::HeartbeatFlaky(1, 0.7)),
                fault(40.0, FaultKind::HeartbeatFlaky(1, 0.0)),
            ],
            SimDuration::from_millis(500),
        );
        let run = || {
            Simulation::new(&cluster, &plan, cfg.clone())
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap()
        };
        let m = run();
        assert!(
            m.recovery().quarantines > 0,
            "lost beats must mask the node: {:?}",
            m.recovery()
        );
        assert!(
            m.recovery().readmissions > 0,
            "recovered beats must readmit the node: {:?}",
            m.recovery()
        );
        assert_eq!(m.num_completed(), reqs.len(), "{:?}", m.recovery());
        assert_eq!(m, run(), "flaky draws must be reproducible");
    }

    #[test]
    fn flaky_heartbeat_requires_detection_window() {
        let (cluster, plan, cfg) = gray_testbed();
        let script = FaultScript::new(
            vec![fault(1.0, FaultKind::HeartbeatFlaky(1, 0.5))],
            SimDuration::ZERO,
        );
        let err = Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run_with_faults(&[], &script);
        assert!(err.is_err(), "zero beat window must be rejected");
    }

    #[test]
    fn degraded_link_stretches_wire_time_on_both_models() {
        let (cluster, plan, cfg) = gray_testbed();
        let reqs = generate(&spec::fixed(1024, 16, 1.0), SimDuration::from_secs(40), 50);
        // Degrade both outgoing links of the single prefill replica so every
        // post-fault transfer is hit, on the legacy serialization model and
        // the flow fabric alike.
        let script = FaultScript::new(
            vec![
                fault(
                    0.01,
                    FaultKind::LinkDegraded {
                        prefill: 0,
                        decode: 0,
                        factor: 4.0,
                    },
                ),
                fault(
                    0.01,
                    FaultKind::LinkDegraded {
                        prefill: 0,
                        decode: 1,
                        factor: 4.0,
                    },
                ),
            ],
            SimDuration::from_millis(100),
        );
        for fabric in [false, true] {
            let c = cfg.clone().with_network_contention(fabric);
            let degraded = Simulation::new(&cluster, &plan, c.clone())
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap();
            let healthy = Simulation::new(&cluster, &plan, c)
                .unwrap()
                .run(&reqs)
                .unwrap();
            let wire = |m: &Metrics| {
                let moved: Vec<_> = m
                    .records()
                    .iter()
                    .filter(|r| r.kv_done_at.is_some())
                    .collect();
                assert!(!moved.is_empty());
                moved
                    .iter()
                    .map(|r| r.kv_wire_time.as_secs_f64())
                    .sum::<f64>()
                    / moved.len() as f64
            };
            assert!(
                wire(&degraded) > wire(&healthy),
                "fabric={fabric}: degraded link must slow transfers: {} <= {}",
                wire(&degraded),
                wire(&healthy)
            );
            assert_eq!(degraded.num_completed(), reqs.len());
        }
    }

    #[test]
    fn gray_faults_reject_bad_indices_and_factors() {
        let (cluster, plan, cfg) = gray_testbed();
        let bad = [
            FaultKind::DecodeSlow(7, 2.0),
            FaultKind::PrefillSlow(0, 0.5),
            FaultKind::DecodeSlow(0, f64::NAN),
            FaultKind::LinkDegraded {
                prefill: 0,
                decode: 9,
                factor: 2.0,
            },
            FaultKind::HeartbeatFlaky(0, 1.5),
            FaultKind::HeartbeatFlaky(9, 0.5),
        ];
        for kind in bad {
            let script = FaultScript::new(vec![fault(1.0, kind)], SimDuration::from_millis(500));
            let err = Simulation::new(&cluster, &plan, cfg.clone())
                .unwrap()
                .run_with_faults(&[], &script);
            assert!(err.is_err(), "{kind:?} must be rejected");
        }
    }
}
