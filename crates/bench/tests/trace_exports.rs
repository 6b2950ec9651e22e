//! Byte pins of the quick telemetry demo's exports.
//!
//! `reproduce --trace` and `reproduce --metrics` write what this suite
//! digests: the Chrome trace-event JSON of [`trace_demo::run`]'s log, the
//! Prometheus text of its snapshot, and the time-weighted mean and peak of
//! every step series the log derives. Each is folded through FNV-1a, the
//! way `crates/sim/tests/bit_identity.rs` digests the simulator's outputs,
//! and compared with a constant recorded from the code that first wrote
//! this suite. A change that moves one of them changes an export.

use ts_bench::trace_demo;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

#[test]
fn quick_demo_exports_are_pinned() {
    let demo = trace_demo::run(true);
    let log = &demo.log;

    let chrome = ts_telemetry::chrome::export(log);
    let stats = ts_telemetry::validate_chrome_trace(&chrome).expect("valid Chrome trace");
    assert_eq!(stats.events, 1025);
    assert_eq!(fnv(chrome.as_bytes()), CHROME_FNV, "Chrome trace bytes");

    let prom = ts_telemetry::render_prometheus(&demo.snapshot);
    assert_eq!(fnv(prom.as_bytes()), PROMETHEUS_FNV, "Prometheus text");

    // Every series' mean over [0, end) and peak, as bits: each replica's
    // queue depth and batch occupancy, the in-flight KV bytes, each link.
    let end = log.end();
    let mut h = Fnv::new();
    let mut series = 0;
    let mut fold = |mean: f64, peak: f64| {
        h.u64(mean.to_bits());
        h.u64(peak.to_bits());
        series += 1;
    };
    let all = log.series();
    for r in all.replicas.values() {
        for s in [&r.queue_depth, &r.batch_occupancy] {
            fold(s.step().time_weighted_mean(end), s.step().peak());
        }
    }
    let kv = all.inflight_kv_bytes.step();
    fold(kv.time_weighted_mean(end), kv.peak());
    for l in all.links.values() {
        let u = l.utilization.step();
        fold(u.time_weighted_mean(end), u.peak());
    }
    assert_eq!(series, SERIES);
    assert_eq!(h.0, SERIES_FNV, "series means and peaks");
}

const CHROME_FNV: u64 = 0x3577_2efa_55e5_3455;
const PROMETHEUS_FNV: u64 = 0x7aa9_a727_014b_3138;
/// Three replicas with two series each, the in-flight KV bytes, three links.
const SERIES: usize = 10;
const SERIES_FNV: u64 = 0x0cef_5d1a_7fc0_7f82;
