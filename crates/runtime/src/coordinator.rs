//! A live, multi-threaded task coordinator.
//!
//! The paper's coordinator dispatches incoming requests across prefill and
//! decode replicas over a peer-to-peer network. This module implements that
//! dataflow with real threads: a dispatcher routes each request to a
//! (prefill, decode) worker pair according to the plan's routing matrix;
//! prefill workers "execute" for the cost-model duration (compressed by a
//! time scale so demos finish quickly), hand off to decode workers, and
//! completions stream back on a channel. It exists to demonstrate and test
//! the live serving path; quantitative experiments use the discrete-event
//! engine instead.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ts_cluster::Cluster;
use ts_common::ModelSpec;
use ts_common::{DeploymentPlan, Error, Request, Result};
use ts_costmodel::{ModelParams, ReplicaCostModel};
use ts_sim::router::StrideRouter;

/// Configuration of the live coordinator.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// Real seconds slept per simulated second of GPU work. `1e-3` makes a
    /// 2-second prefill take 2ms of wall clock.
    pub time_scale: f64,
    /// Decode batch size assumed when pacing decode work.
    pub decode_batch: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            time_scale: 1e-3,
            decode_batch: 16,
        }
    }
}

/// A served request with its measured (simulated-scale) latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedRequest {
    /// The original request.
    pub request: Request,
    /// Prefill replica index that served it.
    pub prefill_replica: usize,
    /// Decode replica index that served it.
    pub decode_replica: usize,
    /// Simulated seconds from submission to first token.
    pub ttft_s: f64,
    /// Simulated seconds from submission to completion.
    pub e2e_s: f64,
}

/// Aggregate live counters. Each lock holder makes one increment, so a
/// poisoned lock still holds valid counts and its guard is recovered.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    dispatched: u64,
    completed: u64,
}

struct PrefillJob {
    request: Request,
    submitted: Instant,
    decode: usize,
}

struct DecodeJob {
    request: Request,
    submitted: Instant,
    prefill: usize,
    first_token: Instant,
}

/// The running coordinator. Dropping it without calling
/// [`TaskCoordinator::shutdown`] detaches the workers (they exit once their
/// channels drain).
pub struct TaskCoordinator {
    submit_tx: Option<Sender<Request>>,
    done_rx: Receiver<CompletedRequest>,
    handles: Vec<JoinHandle<()>>,
    stats: Arc<Mutex<Stats>>,
}

impl TaskCoordinator {
    /// Spawns the dispatcher and one worker thread per replica.
    ///
    /// # Errors
    /// Propagates cost-model or routing construction failures.
    pub fn start(
        cluster: &Cluster,
        model: &ModelSpec,
        plan: &DeploymentPlan,
        params: &ModelParams,
        cfg: CoordinatorConfig,
    ) -> Result<Self> {
        let prefill_models: Vec<ReplicaCostModel> = plan
            .prefill_indices()
            .iter()
            .map(|&i| ReplicaCostModel::new(cluster, model, &plan.groups[i], params))
            .collect::<Result<_>>()?;
        let decode_models: Vec<ReplicaCostModel> = plan
            .decode_indices()
            .iter()
            .map(|&i| ReplicaCostModel::new(cluster, model, &plan.groups[i], params))
            .collect::<Result<_>>()?;
        let (router, coords) = StrideRouter::from_matrix(plan.routing.rates())?;
        if cfg.time_scale <= 0.0 {
            return Err(Error::InvalidConfig("time scale must be positive".into()));
        }

        let stats = Arc::new(Mutex::new(Stats::default()));
        let (submit_tx, submit_rx) = channel::<Request>();
        let (done_tx, done_rx) = channel::<CompletedRequest>();
        let mut handles = Vec::new();

        // Decode workers.
        let mut decode_txs = Vec::new();
        for (j, dm) in decode_models.into_iter().enumerate() {
            let (tx, rx) = channel::<DecodeJob>();
            decode_txs.push(tx);
            let done = done_tx.clone();
            let stats = Arc::clone(&stats);
            let scale = cfg.time_scale;
            let batch = cfg.decode_batch;
            handles.push(std::thread::spawn(move || {
                while let Ok(job) = rx.recv() {
                    let steps = job.request.decode_steps() as u64;
                    let ctx = job.request.prompt_len as u64 + job.request.output_len as u64 / 2;
                    let step = dm.decode_step_latency(batch, ctx).as_secs_f64();
                    let work = step * steps as f64;
                    sleep_scaled(work, scale);
                    let now = Instant::now();
                    let out = CompletedRequest {
                        request: job.request,
                        prefill_replica: job.prefill,
                        decode_replica: j,
                        ttft_s: (job.first_token - job.submitted).as_secs_f64() / scale,
                        e2e_s: (now - job.submitted).as_secs_f64() / scale,
                    };
                    stats
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .completed += 1;
                    if done.send(out).is_err() {
                        break;
                    }
                }
            }));
        }
        drop(done_tx);

        // Prefill workers.
        let mut prefill_txs = Vec::new();
        for (i, pm) in prefill_models.into_iter().enumerate() {
            let (tx, rx) = channel::<PrefillJob>();
            prefill_txs.push(tx);
            let decode_txs = decode_txs.clone();
            let scale = cfg.time_scale;
            handles.push(std::thread::spawn(move || {
                while let Ok(job) = rx.recv() {
                    let p = job.request.prompt_len as u64;
                    let work = pm.prefill_latency(p, p).as_secs_f64();
                    sleep_scaled(work, scale);
                    let first_token = Instant::now();
                    let dj = DecodeJob {
                        request: job.request,
                        submitted: job.submitted,
                        prefill: i,
                        first_token,
                    };
                    if decode_txs[job.decode].send(dj).is_err() {
                        break;
                    }
                }
            }));
        }
        drop(decode_txs);

        // Dispatcher.
        {
            let stats = Arc::clone(&stats);
            let mut router = router;
            handles.push(std::thread::spawn(move || {
                while let Ok(req) = submit_rx.recv() {
                    let (i, j) = coords[router.next()];
                    stats
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .dispatched += 1;
                    let job = PrefillJob {
                        request: req,
                        submitted: Instant::now(),
                        decode: j,
                    };
                    if prefill_txs[i].send(job).is_err() {
                        break;
                    }
                }
            }));
        }

        Ok(TaskCoordinator {
            submit_tx: Some(submit_tx),
            done_rx,
            handles,
            stats,
        })
    }

    /// Submits a request for serving.
    ///
    /// # Errors
    /// Returns [`Error::Runtime`] if the coordinator is shutting down.
    pub fn submit(&self, req: Request) -> Result<()> {
        self.submit_tx
            .as_ref()
            .ok_or_else(|| Error::Runtime("coordinator is shut down".into()))?
            .send(req)
            .map_err(|_| Error::Runtime("dispatcher is gone".into()))
    }

    /// Non-blocking drain of finished requests.
    pub fn poll_completed(&self) -> Vec<CompletedRequest> {
        self.done_rx.try_iter().collect()
    }

    /// Number of requests dispatched / completed so far.
    pub fn counters(&self) -> (u64, u64) {
        let s = *self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        (s.dispatched, s.completed)
    }

    /// Closes intake, waits for all in-flight requests, joins the workers
    /// and returns every remaining completion.
    pub fn shutdown(mut self) -> Vec<CompletedRequest> {
        self.submit_tx = None; // closes the submit channel
        let mut out = Vec::new();
        while let Ok(c) = self.done_rx.recv() {
            out.push(c);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        out
    }
}

fn sleep_scaled(sim_seconds: f64, scale: f64) {
    let real = sim_seconds * scale;
    if real > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(real));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets;
    use ts_common::{
        GpuId, GroupSpec, ParallelConfig, Phase, RequestId, RoutingMatrix, SimTime, StageSpec,
    };

    fn plan(model: &ModelSpec) -> (ts_cluster::Cluster, DeploymentPlan) {
        let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
        let group = |phase, ids: [u32; 4]| {
            GroupSpec::new(
                phase,
                ParallelConfig::new(2, 2).unwrap(),
                vec![
                    StageSpec {
                        gpus: vec![GpuId(ids[0]), GpuId(ids[1])],
                        layers: model.num_layers / 2,
                    },
                    StageSpec {
                        gpus: vec![GpuId(ids[2]), GpuId(ids[3])],
                        layers: model.num_layers - model.num_layers / 2,
                    },
                ],
            )
            .unwrap()
        };
        let plan = DeploymentPlan::new(
            vec![
                group(Phase::Prefill, [0, 1, 2, 3]),
                group(Phase::Decode, [4, 5, 6, 7]),
            ],
            RoutingMatrix::uniform(1, 1),
        )
        .unwrap();
        (cluster, plan)
    }

    #[test]
    fn serves_all_submitted_requests() {
        let model = ModelSpec::llama_13b();
        let (cluster, plan) = plan(&model);
        let coord = TaskCoordinator::start(
            &cluster,
            &model,
            &plan,
            &ModelParams::default(),
            CoordinatorConfig {
                time_scale: 1e-4,
                decode_batch: 16,
            },
        )
        .unwrap();
        for i in 0..20 {
            coord
                .submit(Request::new(RequestId(i), SimTime::ZERO, 512, 8))
                .unwrap();
        }
        let done = coord.shutdown();
        assert_eq!(done.len(), 20);
        for c in &done {
            assert!(c.ttft_s > 0.0);
            assert!(c.e2e_s >= c.ttft_s);
        }
    }

    #[test]
    fn counters_track_progress() {
        let model = ModelSpec::llama_13b();
        let (cluster, plan) = plan(&model);
        let coord = TaskCoordinator::start(
            &cluster,
            &model,
            &plan,
            &ModelParams::default(),
            CoordinatorConfig {
                time_scale: 1e-5,
                decode_batch: 16,
            },
        )
        .unwrap();
        for i in 0..5 {
            coord
                .submit(Request::new(RequestId(i), SimTime::ZERO, 128, 4))
                .unwrap();
        }
        let done = coord.shutdown();
        assert_eq!(done.len(), 5);
    }

    #[test]
    fn submit_after_shutdown_is_impossible_by_construction() {
        // shutdown consumes self, so this is a compile-time guarantee; check
        // the runtime path for a dropped dispatcher instead.
        let model = ModelSpec::llama_13b();
        let (cluster, plan) = plan(&model);
        let coord = TaskCoordinator::start(
            &cluster,
            &model,
            &plan,
            &ModelParams::default(),
            CoordinatorConfig {
                time_scale: 1e-5,
                decode_batch: 8,
            },
        )
        .unwrap();
        let done = coord.shutdown();
        assert!(done.is_empty());
    }
}
