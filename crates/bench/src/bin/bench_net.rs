//! Records flow-level KV-transfer contention numbers to `BENCH_net.json`,
//! seeding the repo's network-fabric perf trajectory.
//!
//! Drives `ts_net::FlowFabric` directly on the Appendix-H two-instance
//! cluster (4×A40 + 4×3090Ti over 5 Gbps): `n` KV transfers of a
//! 1024-token LLaMA-13B cache start simultaneously from the A40 node to
//! the 3090Ti node and the fabric is drained event by event, exactly as
//! the simulator does. Sweeps the concurrent-flow count against {4-bit,
//! fp16} wire precision. Everything is simulated time — results are
//! bit-reproducible, no wall-clock noise.
//!
//! Usage: `cargo run --release -p ts-bench --bin bench_net [out.json]`

use ts_cluster::presets;
use ts_common::{GpuId, ModelSpec, SimTime};
use ts_kvcache::codec::{KvCodec, KvWirePrecision};
use ts_net::FlowFabric;

const FLOW_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];
const TOKENS: u64 = 1024;

struct Arm {
    flows: usize,
    precision: &'static str,
    wire_bytes_per_flow: u64,
    mean_transfer_s: f64,
    max_transfer_s: f64,
}

/// Starts `n` simultaneous node-a → node-b flows and drains the fabric,
/// returning each flow's completion time.
fn drain(n: usize, codec: &KvCodec) -> Vec<SimTime> {
    let cluster = presets::network_case_cluster(presets::ETH_5GBPS);
    let mut fabric = FlowFabric::from_cluster(&cluster);
    let bytes = codec.wire_bytes(TOKENS) as f64;
    for i in 0..n {
        let from = GpuId((i % 4) as u32);
        let to = GpuId(4 + (i % 4) as u32);
        fabric.start(i as u64, from, to, bytes, SimTime::ZERO);
    }
    let mut done = vec![SimTime::ZERO; n];
    // Complete the earliest-due flow, exactly like the simulator's timer.
    while let Some((at, key)) = fabric.next_due() {
        fabric.complete_due(at);
        done[key as usize] = at;
    }
    done
}

fn measure(flows: usize, name: &'static str, precision: KvWirePrecision) -> Arm {
    let codec = KvCodec::new(ModelSpec::llama_13b(), precision);
    let times = drain(flows, &codec);
    let sum: f64 = times.iter().map(|t| t.as_secs_f64()).sum();
    let max = times.iter().map(|t| t.as_secs_f64()).fold(0.0f64, f64::max);
    Arm {
        flows,
        precision: name,
        wire_bytes_per_flow: codec.wire_bytes(TOKENS),
        mean_transfer_s: sum / flows as f64,
        max_transfer_s: max,
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_net.json".to_string());

    let mut arms = Vec::new();
    for flows in FLOW_SWEEP {
        for (name, p) in [
            ("int4", KvWirePrecision::DEFAULT_COMPRESSED),
            ("fp16", KvWirePrecision::F16),
        ] {
            let arm = measure(flows, name, p);
            println!(
                "{:>2} flows  {}  {:>12} B/flow  mean {:>8.4}s  max {:>8.4}s",
                arm.flows,
                arm.precision,
                arm.wire_bytes_per_flow,
                arm.mean_transfer_s,
                arm.max_transfer_s
            );
            arms.push(arm);
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"ts-net flow fabric: n simultaneous 1024-token LLaMA-13B KV transfers, A40 node -> 3090Ti node over 5 Gbps\",\n");
    json.push_str("  \"note\": \"simulated time (deterministic, no wall-clock). Mean transfer latency grows with concurrent-flow count under max-min sharing, and the fp16-vs-int4 gap widens with contention because every extra wire byte is paid at a shared rate.\",\n");
    json.push_str(&format!("  \"tokens_per_transfer\": {TOKENS},\n"));
    json.push_str("  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"flows\": {}, \"precision\": \"{}\", \"wire_bytes_per_flow\": {}, \"mean_transfer_s\": {:.6}, \"max_transfer_s\": {:.6}}}{}\n",
            a.flows,
            a.precision,
            a.wire_bytes_per_flow,
            a.mean_transfer_s,
            a.max_transfer_s,
            if i + 1 == arms.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    // The two qualitative properties the fabric exists to model — latency
    // grows with contention, the fp16-vs-int4 gap widens — live in the
    // shared gate, so CI enforces them on the committed artifact too.
    match ts_bench::gate::check("BENCH_net", &json, true) {
        Ok(r) => println!("gate: {} checks held", r.checks),
        Err(e) => {
            eprintln!("gate: {e}");
            std::process::exit(1);
        }
    }
    std::fs::write(&out, json).expect("write benchmark output");
    println!("wrote {out}");
}
