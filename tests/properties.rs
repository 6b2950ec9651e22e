//! Invariant tests over the core data structures and algorithms.
//!
//! Each property is exercised as a deterministic sweep over seeded random
//! cases drawn from the in-tree `rand` shim, so every run checks the same
//! inputs and a failure reproduces exactly.

use rand::Rng;
use thunderserve::common::{
    derive_seed, seeded_rng, GpuId, Phase, Request, RequestId, SimDuration, SimTime,
};
use thunderserve::kvcache::quant::{decode_wire, encode_wire, quantize, QuantBits};
use thunderserve::scheduler::candidate::{Candidate, CandidateGroup};
use thunderserve::solver::cluster_by_bandwidth;
use thunderserve::solver::routing_dp::best_stage_order;
use thunderserve::solver::simplex::{LinearProgram, Relation};
use thunderserve::solver::transport::solve_orchestration;

const CASES: u64 = 24;

/// Quantization round-trip error is bounded by half a quantization step per
/// group, for any finite input.
#[test]
fn quant_round_trip_bounded() {
    for case in 0..CASES {
        let mut rng = seeded_rng(derive_seed(0xA11CE, case));
        let len = rng.gen_range(1..300);
        let values: Vec<f32> = (0..len)
            .map(|_| rng.gen_range(-1000.0f32..1000.0))
            .collect();
        let group_size = rng.gen_range(1usize..64);
        let bits = if rng.gen_bool(0.5) {
            QuantBits::Int4
        } else {
            QuantBits::Int8
        };
        let q = quantize(&values, bits, group_size);
        let back = q.dequantize();
        assert_eq!(back.len(), values.len());
        for (chunk, rchunk) in values.chunks(group_size).zip(back.chunks(group_size)) {
            let lo = chunk.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = chunk.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let step = (hi - lo) / bits.max_code() as f32;
            for (a, b) in chunk.iter().zip(rchunk) {
                assert!(
                    (a - b).abs() <= step / 2.0 + 1e-3,
                    "err {} exceeds half-step {}",
                    (a - b).abs(),
                    step / 2.0
                );
            }
        }
    }
}

/// Wire encode/decode is the identity on quantized tensors.
#[test]
fn quant_wire_round_trip() {
    for case in 0..CASES {
        let mut rng = seeded_rng(derive_seed(0xB0B, case));
        let len = rng.gen_range(0..200);
        let values: Vec<f32> = (0..len).map(|_| rng.gen_range(-50.0f32..50.0)).collect();
        let group_size = rng.gen_range(1usize..40);
        let q = quantize(&values, QuantBits::Int4, group_size);
        let decoded = decode_wire(&encode_wire(&q)).unwrap();
        assert_eq!(q, decoded);
    }
}

/// A corrupted wire buffer never panics the decoder. Each case encodes a
/// random tensor at every width, then truncates it, flips some of its bytes,
/// or splices in the header of another tensor or a forged one (zero or huge
/// group sizes, lengths up to `u64::MAX`). The decoder must return `Err` or
/// a well-formed tensor: its header, group metadata and packed codes account
/// for every byte, it dequantizes to its stated length, and it re-encodes to
/// exactly the bytes it was parsed from.
#[test]
fn quant_wire_survives_byte_mutations() {
    const HEADER: usize = 16;
    const WIDTHS: [QuantBits; 3] = [QuantBits::Int2, QuantBits::Int4, QuantBits::Int8];
    fn wire(rng: &mut impl Rng, bits: QuantBits) -> Vec<u8> {
        let len = rng.gen_range(0..150);
        let values: Vec<f32> = (0..len).map(|_| rng.gen_range(-50.0f32..50.0)).collect();
        encode_wire(&quantize(&values, bits, rng.gen_range(1usize..40)))
    }
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..1_000u64 {
        let mut rng = seeded_rng(derive_seed(0x3A7E, case));
        for bits in WIDTHS {
            let mut bytes = wire(&mut rng, bits);
            match case % 3 {
                0 => bytes.truncate(rng.gen_range(0..bytes.len())),
                1 => {
                    for _ in 0..rng.gen_range(1..5) {
                        let at = rng.gen_range(0..bytes.len());
                        bytes[at] ^= rng.gen_range(1u8..=255);
                    }
                }
                _ => {
                    let header: Vec<u8> = if rng.gen_bool(0.5) {
                        let other = WIDTHS[rng.gen_range(0..3usize)];
                        wire(&mut rng, other)[..HEADER].to_vec()
                    } else {
                        let width = [2u32, 4, 8, rng.gen()][rng.gen_range(0..4usize)];
                        let group = [0u32, 1, u32::MAX, rng.gen()][rng.gen_range(0..4usize)];
                        let len = [0u64, 1 << 61, u64::MAX, rng.gen_range(0..600)]
                            [rng.gen_range(0..4usize)];
                        [
                            &width.to_le_bytes()[..],
                            &group.to_le_bytes(),
                            &len.to_le_bytes(),
                        ]
                        .concat()
                    };
                    bytes[..HEADER].copy_from_slice(&header);
                }
            }
            match decode_wire(&bytes) {
                Ok(t) => {
                    let group = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
                    let shaped = HEADER
                        + 8 * t.len().div_ceil(group as usize)
                        + (t.len() * t.bits().bits() as usize).div_ceil(8);
                    assert_eq!(bytes.len(), shaped, "case {case}");
                    assert_eq!(t.dequantize().len(), t.len(), "case {case}");
                    assert_eq!(encode_wire(&t), bytes, "case {case}");
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
    }
    // Both outcomes occur, so neither check above is vacuous.
    assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
}

/// Whether `c`'s groups exactly cover `expected` with no duplicates.
fn is_partition_of(c: &Candidate, expected: &[GpuId]) -> bool {
    let mut all: Vec<GpuId> = c
        .groups
        .iter()
        .flat_map(|g| g.gpus.iter().copied())
        .collect();
    all.sort_unstable();
    let mut exp = expected.to_vec();
    exp.sort_unstable();
    all == exp
}

/// Tabu moves preserve the GPU partition.
#[test]
fn candidate_moves_preserve_partition() {
    let cluster = thunderserve::cluster::ClusterBuilder::new()
        .node("a", thunderserve::cluster::GpuModel::A40, 4)
        .node("b", thunderserve::cluster::GpuModel::Rtx3090Ti, 4)
        .build()
        .unwrap();
    let all: Vec<GpuId> = (0..8).map(GpuId).collect();
    let base = Candidate::new(vec![
        CandidateGroup::new(all[..4].to_vec(), Phase::Prefill),
        CandidateGroup::new(all[4..].to_vec(), Phase::Decode),
    ]);
    for case in 0..CASES {
        let seed = derive_seed(0xCAFE, case);
        let mut rng = seeded_rng(seed);
        let split_ratio = 0.05 + 0.9 * (case as f64 / CASES as f64);
        assert!(is_partition_of(&base.flip(0), &all));
        if let Some(c) = base.split(&cluster, 0, split_ratio, &mut rng) {
            assert!(is_partition_of(&c, &all));
        }
        if let Some(c) = base.merge(0, 1, &mut rng) {
            assert!(is_partition_of(&c, &all));
        }
        if let Some(c) = base.move_gpus(&cluster, 0, 1, &mut rng) {
            assert!(is_partition_of(&c, &all));
            assert!(c.groups.iter().all(|g| !g.gpus.is_empty()));
        }
    }
}

/// The orchestration LP always returns a feasible solution that matches a
/// generic simplex formulation's objective.
#[test]
fn transport_matches_simplex() {
    for case in 0..CASES {
        let mut rng = seeded_rng(derive_seed(0xD00D, case));
        let m = rng.gen_range(1usize..4);
        let n = rng.gen_range(1usize..4);
        let d: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let row: Vec<f64> = (0..m).map(|_| rng.gen_range(0.1..1.0)).collect();
        let col: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
        let orch = solve_orchestration(&d, &row, &col).unwrap();

        // feasibility
        let total: f64 = orch.rates.iter().flatten().sum();
        assert!((total - orch.mass).abs() < 1e-6);
        for i in 0..m {
            assert!(orch.rates[i].iter().sum::<f64>() <= row[i] + 1e-6);
        }
        for j in 0..n {
            assert!(orch.rates.iter().map(|r| r[j]).sum::<f64>() <= col[j] + 1e-6);
        }

        // optimality vs. generic simplex
        let mut lp = LinearProgram::new(m * n);
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] = d[i][j];
            }
        }
        lp.set_objective(c);
        lp.add_constraint(vec![1.0; m * n], Relation::Eq, orch.mass);
        for i in 0..m {
            let mut a = vec![0.0; m * n];
            for j in 0..n {
                a[i * n + j] = 1.0;
            }
            lp.add_constraint(a, Relation::Le, row[i]);
        }
        for j in 0..n {
            let mut a = vec![0.0; m * n];
            for i in 0..m {
                a[i * n + j] = 1.0;
            }
            lp.add_constraint(a, Relation::Le, col[j]);
        }
        let s = lp.solve().unwrap();
        assert!((s.value - orch.value).abs() < 1e-6);
    }
}

/// The routing DP's claimed bottleneck is achieved by its own order and
/// matches brute force for small sizes.
#[test]
fn routing_dp_is_optimal() {
    for case in 0..CASES {
        let mut rng = seeded_rng(derive_seed(0xD9, case));
        let n = rng.gen_range(2usize..6);
        let mut bw = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = rng.gen_range(1.0..100.0);
                bw[i][j] = v;
                bw[j][i] = v;
            }
        }
        let dp = best_stage_order(&bw).unwrap();
        let achieved = dp
            .order
            .windows(2)
            .map(|w| bw[w[0]][w[1]])
            .fold(f64::INFINITY, f64::min);
        assert_eq!(achieved, dp.bottleneck);

        fn perms(items: &mut Vec<usize>, k: usize, best: &mut f64, bw: &[Vec<f64>]) {
            if k == items.len() {
                let b = items
                    .windows(2)
                    .map(|w| bw[w[0]][w[1]])
                    .fold(f64::INFINITY, f64::min);
                *best = best.max(b);
                return;
            }
            for i in k..items.len() {
                items.swap(k, i);
                perms(items, k + 1, best, bw);
                items.swap(k, i);
            }
        }
        let mut brute = f64::NEG_INFINITY;
        perms(&mut (0..n).collect(), 0, &mut brute, &bw);
        assert_eq!(dp.bottleneck, brute);
    }
}

/// Clustering always yields a partition with exactly k groups.
#[test]
fn clustering_is_partition() {
    for case in 0..CASES {
        let mut rng = seeded_rng(derive_seed(0xC105, case));
        let n = rng.gen_range(2usize..12);
        let k_frac = rng.gen_range(0.01f64..1.0);
        let mut bw = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = rng.gen_range(1.0..100.0);
                bw[i][j] = v;
                bw[j][i] = v;
            }
            bw[i][i] = f64::INFINITY;
        }
        let k = ((n as f64 * k_frac).ceil() as usize).clamp(1, n);
        let groups = cluster_by_bandwidth(&bw, k).unwrap();
        assert_eq!(groups.len(), k);
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }
}

/// A KV transfer model for a conservation case: serialized on the
/// sender's uplink, or flows on the fabric.
fn draw_kv_transfer(rng: &mut impl Rng) -> thunderserve::sim::KvTransfer {
    use thunderserve::sim::KvTransfer;
    if rng.gen_bool(0.5) {
        KvTransfer::Serialized
    } else {
        KvTransfer::Fabric
    }
}

/// The simulator conserves requests for arbitrary small workloads under
/// every KV transfer model.
#[test]
fn simulator_conserves_requests() {
    let cluster = thunderserve::cluster::presets::network_case_cluster(
        thunderserve::cluster::presets::ETH_40GBPS,
    );
    let model = thunderserve::common::ModelSpec::llama_13b();
    let plan = {
        use thunderserve::common::{
            DeploymentPlan, GroupSpec, ParallelConfig, RoutingMatrix, StageSpec,
        };
        let group = |phase, ids: [u32; 4]| {
            GroupSpec::new(
                phase,
                ParallelConfig::new(2, 2).unwrap(),
                vec![
                    StageSpec {
                        gpus: vec![GpuId(ids[0]), GpuId(ids[1])],
                        layers: 20,
                    },
                    StageSpec {
                        gpus: vec![GpuId(ids[2]), GpuId(ids[3])],
                        layers: 20,
                    },
                ],
            )
            .unwrap()
        };
        DeploymentPlan::new(
            vec![
                group(Phase::Prefill, [0, 1, 2, 3]),
                group(Phase::Decode, [4, 5, 6, 7]),
            ],
            RoutingMatrix::uniform(1, 1),
        )
        .unwrap()
    };
    for case in 0..CASES {
        let mut rng = seeded_rng(derive_seed(0x5E4F, case));
        let n_reqs = rng.gen_range(1usize..40);
        let reqs: Vec<Request> = (0..n_reqs)
            .map(|i| {
                Request::new(
                    RequestId(i as u64),
                    SimTime::from_secs_f64(rng.gen_range(0.0..30.0)),
                    rng.gen_range(1..3000),
                    rng.gen_range(1..200),
                )
            })
            .collect();
        let mut sorted = reqs;
        sorted.sort_by_key(|r| r.arrival);
        let mut cfg = thunderserve::sim::config::SimConfig::new(model.clone());
        cfg.kv_transfer = draw_kv_transfer(&mut rng);
        let transfer = cfg.kv_transfer;
        let metrics = thunderserve::sim::engine::Simulation::new(&cluster, &plan, cfg)
            .unwrap()
            .run(&sorted)
            .unwrap();
        assert_eq!(
            metrics.num_completed() + metrics.num_dropped(),
            sorted.len(),
            "case {case} under {transfer:?}"
        );
        for r in metrics.records() {
            assert!(r.finished_at >= r.first_token_at);
            assert!(r.first_token_at >= r.request.arrival);
        }
    }
}

/// The colocated simulator conserves requests too — including under
/// mid-flight faults, where `completed + dropped + rejected == submitted`
/// must hold whether lost work is recovered or shed. (Both engines share
/// the execution core, but each topology drains lost work differently;
/// this sweeps the colocated paths.)
#[test]
fn colocated_simulator_conserves_requests() {
    use thunderserve::sim::engine::Simulation;
    use thunderserve::sim::fault::{FaultKind, FaultScript, TimedFault};
    let cluster = thunderserve::cluster::presets::paper_inhouse_cluster();
    let model = thunderserve::common::ModelSpec::llama_30b();
    let groups = {
        use thunderserve::common::GroupSpec;
        let g = |ids: [u32; 2]| {
            GroupSpec::single_stage(
                Phase::Prefill,
                ids.iter().map(|&i| GpuId(i)).collect(),
                model.num_layers,
            )
            .unwrap()
        };
        vec![g([0, 1]), g([2, 3])]
    };
    for case in 0..CASES {
        let mut rng = seeded_rng(derive_seed(0xC010, case));
        let n_reqs = rng.gen_range(1usize..40);
        let mut reqs: Vec<Request> = (0..n_reqs)
            .map(|i| {
                Request::new(
                    RequestId(i as u64),
                    SimTime::from_secs_f64(rng.gen_range(0.0..30.0)),
                    rng.gen_range(1..3000),
                    rng.gen_range(1..200),
                )
            })
            .collect();
        reqs.sort_by_key(|r| r.arrival);
        // One arm per case: no faults, a kill, a kill+revive blip, or a
        // kill without recovery — all mid-flight of the arrival window.
        let script = match case % 4 {
            0 => FaultScript::none(),
            1 => FaultScript::new(
                vec![TimedFault {
                    at: SimTime::from_secs_f64(rng.gen_range(1.0..25.0)),
                    kind: FaultKind::DecodeDown(0),
                }],
                SimDuration::from_millis(rng.gen_range(50..2000)),
            ),
            2 => {
                let down = rng.gen_range(1.0..15.0);
                FaultScript::new(
                    vec![
                        TimedFault {
                            at: SimTime::from_secs_f64(down),
                            kind: FaultKind::PrefillDown(1),
                        },
                        TimedFault {
                            at: SimTime::from_secs_f64(down + rng.gen_range(1.0..10.0)),
                            kind: FaultKind::PrefillUp(1),
                        },
                    ],
                    SimDuration::from_millis(rng.gen_range(50..2000)),
                )
            }
            _ => FaultScript::new(
                vec![TimedFault {
                    at: SimTime::from_secs_f64(rng.gen_range(1.0..25.0)),
                    kind: FaultKind::DecodeDown(1),
                }],
                SimDuration::from_millis(rng.gen_range(50..2000)),
            )
            .without_recovery(),
        };
        let metrics = Simulation::colocated(
            &cluster,
            &groups,
            thunderserve::sim::config::SimConfig::new(model.clone()),
        )
        .unwrap()
        .run_with_faults(&reqs, &script)
        .unwrap();
        assert_eq!(
            metrics.num_completed() + metrics.num_dropped() + metrics.num_rejected(),
            reqs.len(),
            "case {case}: conservation violated ({:?})",
            metrics.recovery()
        );
        for r in metrics.records() {
            assert!(r.finished_at >= r.first_token_at);
            assert!(r.first_token_at >= r.request.arrival);
        }
    }
}

/// Gray failures never break request conservation: under stragglers, flaky
/// heartbeats, degraded links and links the script never heals — with
/// hedging and quarantine armed — every submitted request is exactly one
/// of completed, dropped or rejected, and identical runs are
/// bit-identical. The repeat run attaches every observer (trace recorder,
/// pressure tally): observers never steer, under any drawn mix of
/// mitigations and faults.
#[test]
fn gray_failures_conserve_requests() {
    use thunderserve::sim::config::{Hedge, Quarantine, SimConfig};
    use thunderserve::sim::engine::Simulation;
    use thunderserve::sim::fault::{FaultKind, FaultScript, TimedFault};
    let cluster = thunderserve::cluster::presets::network_case_cluster(
        thunderserve::cluster::presets::ETH_40GBPS,
    );
    let model = thunderserve::common::ModelSpec::llama_13b();
    let plan = {
        use thunderserve::common::{DeploymentPlan, GroupSpec, RoutingMatrix};
        let g = |phase, ids: &[u32]| {
            GroupSpec::single_stage(
                phase,
                ids.iter().map(|&i| GpuId(i)).collect(),
                model.num_layers,
            )
            .unwrap()
        };
        DeploymentPlan::new(
            vec![
                g(Phase::Prefill, &[0, 1, 2, 3]),
                g(Phase::Decode, &[4, 5]),
                g(Phase::Decode, &[6, 7]),
            ],
            RoutingMatrix::uniform(1, 2),
        )
        .unwrap()
    };
    let mut never_healed_drops = 0;
    for case in 0..CASES {
        let mut rng = seeded_rng(derive_seed(0x6E47, case));
        let n_reqs = rng.gen_range(1usize..40);
        let mut reqs: Vec<Request> = (0..n_reqs)
            .map(|i| {
                Request::new(
                    RequestId(i as u64),
                    SimTime::from_secs_f64(rng.gen_range(0.0..30.0)),
                    rng.gen_range(1..3000),
                    rng.gen_range(1..200),
                )
            })
            .collect();
        reqs.sort_by_key(|r| r.arrival);
        let fault = |at: f64, kind| TimedFault {
            at: SimTime::from_secs_f64(at),
            kind,
        };
        // One arm per case: a decode straggler under quarantine, a flaky
        // heartbeat flapping through the run, a link that goes down and
        // never heals (sometimes after one healed outage), or everything
        // at once with hedging and another link that never heals. A
        // transfer on a link that never heals is dropped, not retried.
        let (script, mut cfg) = match case % 4 {
            0 => (
                FaultScript::new(
                    vec![fault(
                        rng.gen_range(1.0..15.0),
                        FaultKind::DecodeSlow(0, rng.gen_range(2.0..10.0)),
                    )],
                    SimDuration::from_millis(500),
                ),
                SimConfig::new(model.clone()).with_quarantine(Quarantine {
                    threshold: 1.5,
                    readmit_after: SimDuration::from_secs(3),
                }),
            ),
            1 => (
                FaultScript::new(
                    vec![fault(
                        rng.gen_range(1.0..15.0),
                        FaultKind::HeartbeatFlaky(1, rng.gen_range(0.2..0.9)),
                    )],
                    SimDuration::from_millis(rng.gen_range(200..2000)),
                ),
                SimConfig::new(model.clone()),
            ),
            2 => {
                let link = FaultKind::LinkDown {
                    prefill: 0,
                    decode: 0,
                };
                let heal = FaultKind::LinkUp {
                    prefill: 0,
                    decode: 0,
                };
                let down = rng.gen_range(1.0..15.0);
                let mut faults = vec![fault(down, link)];
                if rng.gen_bool(0.5) {
                    let up = down + rng.gen_range(0.5..5.0);
                    faults.push(fault(up, heal));
                    faults.push(fault(up + rng.gen_range(0.5..10.0), link));
                }
                (
                    FaultScript::new(faults, SimDuration::from_millis(100)),
                    SimConfig::new(model.clone()),
                )
            }
            _ => (
                FaultScript::new(
                    vec![
                        fault(
                            rng.gen_range(1.0..10.0),
                            FaultKind::DecodeSlow(1, rng.gen_range(2.0..8.0)),
                        ),
                        fault(
                            rng.gen_range(1.0..10.0),
                            FaultKind::LinkDegraded {
                                prefill: 0,
                                decode: 0,
                                factor: rng.gen_range(1.5..6.0),
                            },
                        ),
                        fault(
                            rng.gen_range(10.0..20.0),
                            FaultKind::HeartbeatFlaky(2, rng.gen_range(0.2..0.8)),
                        ),
                        fault(
                            rng.gen_range(5.0..25.0),
                            FaultKind::LinkDown {
                                prefill: 0,
                                decode: 1,
                            },
                        ),
                    ],
                    SimDuration::from_millis(rng.gen_range(200..1000)),
                ),
                SimConfig::new(model.clone())
                    .with_quarantine(Quarantine::at(1.5))
                    .with_hedge(Hedge::after(SimDuration::from_millis(
                        rng.gen_range(200..800),
                    ))),
            ),
        };
        // Under the fabric, link faults kill in-flight flows and
        // degradations re-share them live.
        cfg.kv_transfer = draw_kv_transfer(&mut rng);
        let run = |cfg: SimConfig| {
            Simulation::new(&cluster, &plan, cfg)
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap()
        };
        let metrics = run(cfg.clone());
        assert_eq!(
            metrics.num_completed() + metrics.num_dropped() + metrics.num_rejected(),
            reqs.len(),
            "case {case} under {:?}: conservation violated ({:?})",
            cfg.kv_transfer,
            metrics.recovery()
        );
        for r in metrics.records() {
            assert!(r.finished_at >= r.first_token_at);
            assert!(r.first_token_at >= r.request.arrival);
        }
        if case % 4 == 2 {
            // Nothing else in this arm loses a request.
            never_healed_drops += metrics.num_dropped();
        }
        let observed = cfg.with_telemetry(true).with_pressure(true);
        assert_eq!(
            metrics,
            run(observed),
            "case {case}: run must be bit-identical with every observer on"
        );
    }
    assert!(
        never_healed_drops > 0,
        "no drawn case dropped a transfer on a link that never heals"
    );
}

/// SLO scaling is monotone: a looser deadline never reduces attainment.
#[test]
fn slo_scaling_monotone() {
    use thunderserve::common::SloSpec;
    let base = SloSpec::new(
        SimDuration::from_millis(500),
        SimDuration::from_millis(50),
        SimDuration::from_secs(5),
    );
    for case in 0..CASES {
        let mut rng = seeded_rng(derive_seed(0x510, case));
        let scale_a = rng.gen_range(0.1f64..10.0);
        let scale_b = rng.gen_range(0.1f64..10.0);
        let (lo, hi) = if scale_a <= scale_b {
            (scale_a, scale_b)
        } else {
            (scale_b, scale_a)
        };
        let a = base.scaled(lo);
        let b = base.scaled(hi);
        assert!(a.ttft <= b.ttft);
        assert!(a.tpot <= b.tpot);
        assert!(a.e2e <= b.e2e);
    }
}

/// Arbitrary well-formed plans survive the text round trip.
#[test]
fn plan_text_round_trips() {
    use thunderserve::common::plan_io;
    use thunderserve::common::{DeploymentPlan, GroupSpec, RoutingMatrix};

    for case in 0..CASES {
        let mut rng = seeded_rng(derive_seed(0x914A, case));
        let num_prefill = rng.gen_range(1usize..4);
        let num_decode = rng.gen_range(1usize..4);
        let tp = 1usize << rng.gen_range(0u32..2);
        let layers = rng.gen_range(4usize..60);

        let mut next_gpu = 0u32;
        let mut mk_group = |phase| {
            let gpus = (0..tp)
                .map(|_| {
                    let id = GpuId(next_gpu);
                    next_gpu += 1;
                    id
                })
                .collect();
            GroupSpec::single_stage(phase, gpus, layers).unwrap()
        };
        let mut groups = Vec::new();
        for _ in 0..num_prefill {
            groups.push(mk_group(Phase::Prefill));
        }
        for _ in 0..num_decode {
            groups.push(mk_group(Phase::Decode));
        }
        // random routing summing to 1
        let mut rates = vec![vec![0.0f64; num_decode]; num_prefill];
        let mut total = 0.0;
        for row in rates.iter_mut() {
            for v in row.iter_mut() {
                *v = rng.gen_range(0.0..1.0);
                total += *v;
            }
        }
        for row in rates.iter_mut() {
            for v in row.iter_mut() {
                *v /= total;
            }
        }
        let plan = DeploymentPlan::new(groups, RoutingMatrix::new(rates).unwrap()).unwrap();
        let text = plan_io::to_text(&plan);
        let back = plan_io::from_text(&text).unwrap();
        // group structure identical; routing equal within text precision
        assert_eq!(&plan.groups, &back.groups);
        for i in 0..num_prefill {
            for j in 0..num_decode {
                assert!((plan.routing.rate(i, j) - back.routing.rate(i, j)).abs() < 1e-9);
            }
        }
    }
}

/// Seeded mutations of a two-model plan text: the parser returns `Err` or a
/// plan that renders and re-parses to the same text, every accepted
/// multi-model plan passes `new_multi`, and `Simulation::new` on the paper
/// cloud returns rather than panics.
#[test]
fn parsers_survive_text_mutations() {
    use thunderserve::common::{plan_io, DeploymentPlan, ModelId, ServedModel};
    use thunderserve::sim::config::SimConfig;
    use thunderserve::sim::engine::Simulation;

    const PLAN: &str = "thunderserve-plan v1
group prefill tp=1 pp=1 model=1
stage layers=32 gpus=0
group decode tp=1 pp=1 model=1
stage layers=32 gpus=1
group prefill tp=2 pp=1 model=2
stage layers=40 gpus=16,17
group decode tp=1 pp=2 model=2
stage layers=20 gpus=18
stage layers=20 gpus=19
group decode tp=1 pp=1 model=2
stage layers=40 gpus=20
routing 2x3
0.600000000000 0.000000000000 0.000000000000
0.000000000000 0.100000000000 0.300000000000
model 1 share=0.600000000000 routing 1x1
1.000000000000
model 2 share=0.400000000000 routing 1x2
0.250000000000 0.750000000000
";
    const EDGES: [&str; 8] = [
        "0",
        "4294967295",
        "18446744073709551615",
        "NaN",
        "inf",
        "-1",
        "0x0",
        "gpus=",
    ];
    fn mutate(rng: &mut impl Rng, text: &str) -> String {
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        for _ in 0..rng.gen_range(1..3u32) {
            let at = rng.gen_range(0..lines.len());
            match rng.gen_range(0..8u32) {
                // Half the mutations swap in an edge value, mostly keeping
                // the `key=` prefix so the line still reaches validation.
                0..=3 => {
                    let mut tokens: Vec<String> = lines[at].split(' ').map(String::from).collect();
                    let t = rng.gen_range(0..tokens.len());
                    let edge = EDGES[rng.gen_range(0..EDGES.len())];
                    tokens[t] = match tokens[t].split_once('=') {
                        Some((key, _)) if rng.gen_bool(0.75) => format!("{key}={edge}"),
                        _ => edge.to_string(),
                    };
                    lines[at] = tokens.join(" ");
                }
                4 => {
                    lines.remove(at);
                }
                5 => {
                    let copy = lines[at].clone();
                    lines.insert(rng.gen_range(0..=lines.len()), copy);
                }
                6 => {
                    let line = lines.remove(at);
                    lines.insert(rng.gen_range(0..=lines.len()), line);
                }
                _ => {
                    let mut bytes = std::mem::take(&mut lines[at]).into_bytes();
                    let b = rng.gen_range(0..bytes.len());
                    bytes[b] = b" 0129.,=-xneNa"[rng.gen_range(0..14usize)];
                    lines[at] = String::from_utf8(bytes).expect("ASCII in, ASCII out");
                }
            }
        }
        lines.join("\n")
    }

    let cluster = thunderserve::cluster::presets::paper_cloud_cluster();
    let catalog = vec![
        ServedModel::llama_7b_chat(ModelId(1), 0.6).unwrap(),
        ServedModel::llama_13b_chat(ModelId(2), 0.4).unwrap(),
    ];
    let cfg = SimConfig::new(catalog[0].spec.clone()).with_catalog(catalog);
    let base = plan_io::from_text(PLAN).unwrap();
    assert_eq!(plan_io::to_text(&base), PLAN, "the base plan is canonical");
    Simulation::new(&cluster, &base, cfg.clone()).expect("the base plan serves");

    let mut plans = [0usize; 2];
    for case in 0..10_000u64 {
        let mut rng = seeded_rng(derive_seed(0x9A25, case));
        let text = mutate(&mut rng, PLAN);
        match plan_io::from_text(&text) {
            Ok(plan) => {
                plans[0] += 1;
                let rendered = plan_io::to_text(&plan);
                let again = plan_io::from_text(&rendered)
                    .unwrap_or_else(|e| panic!("case {case}: {e}\n{rendered}"));
                assert_eq!(plan_io::to_text(&again), rendered, "case {case}");
                if plan.is_multi_model() {
                    let rebuilt =
                        DeploymentPlan::new_multi(plan.groups.clone(), plan.model_routing.clone());
                    assert!(rebuilt.is_ok(), "case {case}: {rebuilt:?}\n{text}");
                }
                // Ok or Err; a panic fails the sweep.
                let _ = Simulation::new(&cluster, &plan, cfg.clone());
            }
            Err(_) => plans[1] += 1,
        }
    }
    // Both outcomes occur, so neither check is vacuous.
    assert!(
        plans.iter().all(|&n| n > 100),
        "plans accepted/rejected {plans:?}"
    );
}

/// The single-model scheduling path is the exact special case of the
/// multi-model one: a one-entry default catalog through `schedule_multi`
/// yields a byte-identical plan and identical search counters to `schedule`,
/// across seeds.
#[test]
fn single_model_schedule_is_bit_identical_through_multi_path() {
    use thunderserve::common::{ModelId, ModelSpec, ServedModel, SloSpec};
    use thunderserve::scheduler::{Scheduler, SchedulerConfig};
    use thunderserve::workload::spec;
    let cluster = thunderserve::cluster::presets::a5000_cluster(8);
    let model = ModelSpec::llama_13b();
    let slo = SloSpec::new(
        SimDuration::from_secs(5),
        SimDuration::from_millis(300),
        SimDuration::from_secs(60),
    );
    for (case, w) in [spec::coding(2.0), spec::conversation(2.0)]
        .into_iter()
        .enumerate()
    {
        let mut cfg = SchedulerConfig::fast();
        cfg.seed = 8 + case as u64;
        let s = Scheduler::new(cfg);
        let single = s.schedule(&cluster, &model, &w, &slo).unwrap();
        let multi = s
            .schedule_multi(
                &cluster,
                &[ServedModel::single(model.clone(), slo)],
                std::slice::from_ref(&w),
            )
            .unwrap();
        assert_eq!(single.plan, multi.schedule.plan, "case {case}: plan drift");
        assert!(!multi.schedule.plan.is_multi_model());
        assert_eq!(multi.schedule.plan.models(), vec![ModelId(0)]);
        assert_eq!(
            single.estimated_attainment.to_bits(),
            multi.schedule.estimated_attainment.to_bits(),
            "case {case}: attainment drift"
        );
        assert_eq!(single.evaluations, multi.schedule.evaluations);
        assert_eq!(
            single.neighbors_generated,
            multi.schedule.neighbors_generated
        );
    }
}

/// A catalog with only the default model leaves single-model simulation
/// untouched: the run through the model-tracking machinery produces records
/// and recovery counters identical to the untracked run (modulo the new
/// per-model ledger itself, which must balance), on both engines, with and
/// without faults.
#[test]
fn single_model_metrics_survive_the_catalog_bit_identically() {
    use thunderserve::common::{DeploymentPlan, GroupSpec, ModelId, RoutingMatrix, ServedModel};
    use thunderserve::sim::config::{Hedge, Quarantine, SimConfig};
    use thunderserve::sim::engine::Simulation;
    use thunderserve::sim::fault::{FaultKind, FaultScript, TimedFault};
    let cluster = thunderserve::cluster::presets::network_case_cluster(
        thunderserve::cluster::presets::ETH_40GBPS,
    );
    let tenant = ServedModel::llama_13b_chat(ModelId(0), 1.0).unwrap();
    let (model, slo) = (tenant.spec.clone(), tenant.slo);
    let g = |phase, ids: &[u32]| {
        GroupSpec::single_stage(
            phase,
            ids.iter().map(|&i| GpuId(i)).collect(),
            model.num_layers,
        )
        .unwrap()
    };
    let plan = DeploymentPlan::new(
        vec![
            g(Phase::Prefill, &[0, 1]),
            g(Phase::Prefill, &[2, 3]),
            g(Phase::Decode, &[4, 5]),
            g(Phase::Decode, &[6, 7]),
        ],
        RoutingMatrix::uniform(2, 2),
    )
    .unwrap();
    let colo_groups = vec![g(Phase::Prefill, &[0, 1]), g(Phase::Prefill, &[2, 3])];
    for case in 0..CASES {
        let mut rng = seeded_rng(derive_seed(0xB17, case));
        let n_reqs = rng.gen_range(1usize..40);
        let mut reqs: Vec<Request> = (0..n_reqs)
            .map(|i| {
                Request::new(
                    RequestId(i as u64),
                    SimTime::from_secs_f64(rng.gen_range(0.0..30.0)),
                    rng.gen_range(1..3000),
                    rng.gen_range(1..200),
                )
            })
            .collect();
        reqs.sort_by_key(|r| r.arrival);
        let script = match case % 3 {
            0 => FaultScript::none(),
            1 => FaultScript::new(
                vec![TimedFault {
                    at: SimTime::from_secs_f64(rng.gen_range(1.0..20.0)),
                    kind: FaultKind::DecodeDown(0),
                }],
                SimDuration::from_millis(rng.gen_range(50..2000)),
            ),
            _ => FaultScript::new(
                vec![TimedFault {
                    at: SimTime::from_secs_f64(rng.gen_range(1.0..15.0)),
                    kind: FaultKind::DecodeSlow(0, rng.gen_range(2.0..8.0)),
                }],
                SimDuration::from_millis(500),
            ),
        };
        let base = || {
            let mut c = SimConfig::new(model.clone());
            if case % 3 == 2 {
                c = c
                    .with_quarantine(Quarantine::at(1.5))
                    .with_hedge(Hedge::after(SimDuration::from_millis(400)));
            }
            c
        };
        let tagged = || base().with_catalog(vec![ServedModel::single(model.clone(), slo)]);
        let check = |plain: thunderserve::sim::metrics::Metrics,
                     with_catalog: thunderserve::sim::metrics::Metrics| {
            assert_eq!(
                plain.records(),
                with_catalog.records(),
                "case {case}: records drifted under the catalog"
            );
            assert_eq!(plain.num_dropped(), with_catalog.num_dropped());
            assert_eq!(plain.num_rejected(), with_catalog.num_rejected());
            assert!(plain.recovery().per_model.is_empty());
            let per = &with_catalog.recovery().per_model;
            assert_eq!(per.len(), 1, "case {case}: one tenant, one ledger entry");
            assert!(per[0].balanced());
            assert_eq!(per[0].submitted, reqs.len());
            let mut scrubbed = with_catalog.recovery().clone();
            scrubbed.per_model.clear();
            assert_eq!(
                &scrubbed,
                plain.recovery(),
                "case {case}: recovery counters drifted under the catalog"
            );
        };
        check(
            Simulation::new(&cluster, &plan, base())
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap(),
            Simulation::new(&cluster, &plan, tagged())
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap(),
        );
        // Colocated engine: skip the split-only fault arms' replica indices
        // when they exceed the two colocated replicas (they don't here).
        check(
            Simulation::colocated(&cluster, &colo_groups, base())
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap(),
            Simulation::colocated(&cluster, &colo_groups, tagged())
                .unwrap()
                .run_with_faults(&reqs, &script)
                .unwrap(),
        );
    }
}

/// A two-tenant plan from `schedule_multi` serves tagged traffic end to end
/// on one shared pool: both models complete work, the per-model conservation
/// ledger balances for each, and identical runs are bit-identical.
#[test]
fn multi_model_plan_serves_both_tenants_end_to_end() {
    use thunderserve::common::{ModelId, ServedModel};
    use thunderserve::scheduler::{Scheduler, SchedulerConfig};
    use thunderserve::sim::config::SimConfig;
    use thunderserve::sim::engine::Simulation;
    use thunderserve::workload::generator::generate_multi_tenant;
    use thunderserve::workload::spec;
    let cluster = thunderserve::cluster::presets::a5000_cluster(12);
    let catalog = vec![
        ServedModel::llama_7b_chat(ModelId(1), 0.6).unwrap(),
        ServedModel::llama_13b_chat(ModelId(2), 0.4).unwrap(),
    ];
    let workloads = [spec::conversation(1.5), spec::coding(1.0)];
    let mut cfg = SchedulerConfig::fast();
    cfg.seed = 21;
    let r = Scheduler::new(cfg)
        .schedule_multi(&cluster, &catalog, &workloads)
        .unwrap();
    let plan = &r.schedule.plan;
    assert!(plan.is_multi_model());
    for m in &catalog {
        assert!(
            !plan.prefill_indices_for(m.id).is_empty(),
            "{} has no prefill groups",
            m.id
        );
        assert!(
            !plan.decode_indices_for(m.id).is_empty(),
            "{} has no decode groups",
            m.id
        );
    }
    let reqs = generate_multi_tenant(
        &[
            (ModelId(1), workloads[0].clone()),
            (ModelId(2), workloads[1].clone()),
        ],
        SimDuration::from_secs(20),
        97,
    );
    assert!(!reqs.is_empty());
    let sim_cfg = SimConfig::new(catalog[0].spec.clone()).with_catalog(catalog.clone());
    let run = || {
        Simulation::new(&cluster, plan, sim_cfg.clone())
            .unwrap()
            .run(&reqs)
            .unwrap()
    };
    let m = run();
    let per = &m.recovery().per_model;
    assert_eq!(per.len(), 2);
    for c in per {
        assert!(c.balanced(), "unbalanced ledger for {}: {c:?}", c.model);
        assert!(c.submitted > 0);
    }
    for id in [ModelId(1), ModelId(2)] {
        let view = m.for_model(id);
        assert!(
            view.num_completed() > 0,
            "tenant {id} completed nothing on the shared pool"
        );
        for rec in view.records() {
            assert_eq!(rec.request.model, id);
        }
    }
    assert_eq!(
        m.for_model(ModelId(1)).num_completed() + m.for_model(ModelId(2)).num_completed(),
        m.num_completed()
    );
    assert_eq!(m, run(), "multi-model run must be bit-identical");
}

/// Per-request invariants of the engine's latency metrics: the largest
/// inter-token gap is at least the mean gap (TPOT) and at most E2E.
#[test]
fn itl_bounds_hold() {
    use thunderserve::workload::generator::generate;
    let cluster = thunderserve::cluster::presets::network_case_cluster(
        thunderserve::cluster::presets::ETH_40GBPS,
    );
    let model = thunderserve::common::ModelSpec::llama_13b();
    let plan = {
        use thunderserve::common::{DeploymentPlan, GroupSpec, RoutingMatrix};
        let g = |phase, ids: [u32; 4]| {
            GroupSpec::single_stage(phase, ids.iter().map(|&i| GpuId(i)).collect(), 40).unwrap()
        };
        DeploymentPlan::new(
            vec![
                g(Phase::Prefill, [0, 1, 2, 3]),
                g(Phase::Decode, [4, 5, 6, 7]),
            ],
            RoutingMatrix::uniform(1, 1),
        )
        .unwrap()
    };
    for case in 0..12 {
        let seed = derive_seed(0x171, case);
        let rate = 0.5 + 2.5 * (case as f64 / 12.0);
        let w = thunderserve::workload::spec::fixed(512, 32, rate);
        let reqs = generate(&w, SimDuration::from_secs(20), seed);
        if reqs.is_empty() {
            continue;
        }
        let m = thunderserve::sim::engine::Simulation::new(
            &cluster,
            &plan,
            thunderserve::sim::config::SimConfig::new(model.clone()),
        )
        .unwrap()
        .run(&reqs)
        .unwrap();
        for r in m.records() {
            if r.request.decode_steps() > 0 {
                assert!(
                    r.max_token_gap >= r.tpot(),
                    "max gap {} < mean gap {}",
                    r.max_token_gap,
                    r.tpot()
                );
                assert!(r.max_token_gap <= r.e2e());
            } else {
                assert!(r.max_token_gap.is_zero());
            }
        }
    }
}
