//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`) and a
//! small structural validator for the exported format.
//!
//! The export writes the classic `{"traceEvents": [...]}` container:
//!
//! * **pid 1 "requests"** — one thread per request, complete (`X`) slices
//!   for each lifecycle phase (`queue`, `prefill`, `kv queue`, `kv wire`,
//!   `decode`) plus instant (`i`) markers for first token, retries and
//!   recovery events;
//! * **pid 2 "prefill replicas" / pid 3 "decode replicas"** — one thread
//!   per replica, a slice per prefill launch / per decode residency;
//! * **pid 4 "counters"** — counter (`C`) tracks for queue depth, batch
//!   occupancy, in-flight KV bytes and per-link utilization, plus global
//!   instant markers for faults.
//!
//! The exporter writes JSON by hand, with no serialization library;
//! [`validate_chrome_trace`] reads its output back with the workspace parser
//! ([`ts_common::json`]) precisely so the exporter cannot silently rot (it
//! runs in CI against `reproduce --trace` output).

use crate::event::{Role, TraceEvent, TraceKind};
use crate::log::TraceLog;
use crate::pressure::Sample;
use crate::series::{StepSeries, TraceSeries};
use ts_common::{json, RequestId, SimTime};

const PID_REQUESTS: u64 = 1;
const PID_PREFILL: u64 = 2;
const PID_DECODE: u64 = 3;
const PID_COUNTERS: u64 = 4;

fn push_meta(out: &mut String, pid: u64, tid: Option<u64>, key: &str, name: &str) {
    let tid_s = tid.unwrap_or(0);
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid_s},\"ts\":0,\"name\":\"{key}\",\
         \"args\":{{\"name\":\"{name}\"}}}},\n"
    ));
}

fn push_slice(
    out: &mut String,
    pid: u64,
    tid: u64,
    name: &str,
    cat: &str,
    start: SimTime,
    end: SimTime,
) {
    let ts = start.as_micros();
    let dur = end.saturating_since(start).as_micros();
    out.push_str(&format!(
        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
         \"name\":\"{name}\",\"cat\":\"{cat}\"}},\n"
    ));
}

fn push_instant(out: &mut String, pid: u64, tid: u64, name: &str, cat: &str, at: SimTime) {
    out.push_str(&format!(
        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{name}\",\
         \"cat\":\"{cat}\",\"s\":\"t\"}},\n",
        at.as_micros()
    ));
}

fn push_counter(out: &mut String, tid: u64, name: &str, at: SimTime, value: f64) {
    out.push_str(&format!(
        "{{\"ph\":\"C\",\"pid\":{PID_COUNTERS},\"tid\":{tid},\"ts\":{},\"name\":\"{name}\",\
         \"args\":{{\"value\":{value:.6}}}}},\n",
        at.as_micros()
    ));
}

/// Per-request phase slices: walks the request's events (in log order)
/// pairing starts with their closing events.
fn export_request<'a>(
    out: &mut String,
    request: RequestId,
    events: impl Iterator<Item = &'a TraceEvent>,
) {
    let tid = request.0;
    let mut queue_open: Option<SimTime> = None;
    let mut prefill_open: Option<SimTime> = None;
    let mut kv_enq: Option<SimTime> = None;
    let mut wire_open: Option<SimTime> = None;
    let mut decode_open: Option<SimTime> = None;
    for e in events {
        match e.kind {
            TraceKind::Enqueued { .. } => queue_open = Some(e.at),
            TraceKind::PrefillStart { .. } => {
                if let Some(start) = queue_open.take() {
                    push_slice(out, PID_REQUESTS, tid, "queue", "lifecycle", start, e.at);
                }
                prefill_open = Some(e.at);
            }
            TraceKind::PrefillEnd { .. } => {
                if let Some(start) = prefill_open.take() {
                    push_slice(out, PID_REQUESTS, tid, "prefill", "lifecycle", start, e.at);
                }
            }
            TraceKind::KvEnqueued { .. } => kv_enq = Some(e.at),
            TraceKind::KvWireStart { .. } => {
                if let Some(start) = kv_enq.take() {
                    push_slice(out, PID_REQUESTS, tid, "kv queue", "kv", start, e.at);
                }
                wire_open = Some(e.at);
            }
            TraceKind::KvDone { .. } => {
                if let Some(start) = wire_open.take() {
                    push_slice(out, PID_REQUESTS, tid, "kv wire", "kv", start, e.at);
                }
            }
            TraceKind::DecodeJoin { .. } => decode_open = Some(e.at),
            TraceKind::Finished { .. } => {
                if let Some(start) = decode_open.take() {
                    push_slice(out, PID_REQUESTS, tid, "decode", "lifecycle", start, e.at);
                }
                push_instant(out, PID_REQUESTS, tid, "finished", "lifecycle", e.at);
            }
            TraceKind::FirstToken { .. } => {
                push_instant(out, PID_REQUESTS, tid, "first token", "lifecycle", e.at)
            }
            TraceKind::KvRetry { .. } => {
                push_instant(out, PID_REQUESTS, tid, "kv retry", "kv", e.at)
            }
            TraceKind::Requeued { .. } => {
                push_instant(out, PID_REQUESTS, tid, "requeued", "recovery", e.at)
            }
            TraceKind::Reprefill { .. } => {
                push_instant(out, PID_REQUESTS, tid, "re-prefill", "recovery", e.at)
            }
            TraceKind::Dropped { .. } => {
                push_instant(out, PID_REQUESTS, tid, "dropped", "lifecycle", e.at)
            }
            TraceKind::Rejected { .. } => {
                push_instant(out, PID_REQUESTS, tid, "rejected", "lifecycle", e.at)
            }
            TraceKind::Stalled { .. } => {
                push_instant(out, PID_REQUESTS, tid, "stalled", "recovery", e.at)
            }
            _ => {}
        }
    }
}

/// Per-replica slices on the role tracks.
fn export_replica_tracks(out: &mut String, log: &TraceLog) {
    // Prefill launches: pair each request's PrefillStart with its next
    // PrefillEnd on the same replica.
    let mut open: Vec<(RequestId, usize, SimTime)> = Vec::new();
    for e in log.events() {
        match e.kind {
            TraceKind::PrefillStart {
                request, replica, ..
            } => open.push((request, replica, e.at)),
            TraceKind::PrefillEnd {
                request, replica, ..
            } => {
                if let Some(pos) = open
                    .iter()
                    .position(|&(r, i, _)| r == request && i == replica)
                {
                    let (_, _, start) = open.swap_remove(pos);
                    push_slice(
                        out,
                        PID_PREFILL,
                        replica as u64,
                        &format!("r{}", request.0),
                        "prefill",
                        start,
                        e.at,
                    );
                }
            }
            _ => {}
        }
    }
    // Decode residency: DecodeJoin → Finished/Dropped (or a later re-join
    // after recovery, whichever comes first).
    let mut joined: Vec<(RequestId, usize, SimTime)> = Vec::new();
    for e in log.events() {
        match e.kind {
            TraceKind::DecodeJoin {
                request, replica, ..
            } => {
                if let Some(pos) = joined.iter().position(|&(r, _, _)| r == request) {
                    let (_, i, start) = joined.swap_remove(pos);
                    push_slice(
                        out,
                        PID_DECODE,
                        i as u64,
                        &format!("r{}", request.0),
                        "decode",
                        start,
                        e.at,
                    );
                }
                joined.push((request, replica, e.at));
            }
            TraceKind::Finished { request } | TraceKind::Dropped { request } => {
                if let Some(pos) = joined.iter().position(|&(r, _, _)| r == request) {
                    let (_, i, start) = joined.swap_remove(pos);
                    push_slice(
                        out,
                        PID_DECODE,
                        i as u64,
                        &format!("r{}", request.0),
                        "decode",
                        start,
                        e.at,
                    );
                }
            }
            _ => {}
        }
    }
}

/// One counter track on the next thread id, unless the series is empty.
fn push_track<V: Sample>(out: &mut String, tid: &mut u64, name: &str, series: &StepSeries<V>) {
    if series.points().is_empty() {
        return;
    }
    for &(at, v) in series.points() {
        push_counter(out, *tid, name, at, v.to_f64());
    }
    *tid += 1;
}

/// Counter tracks and global fault markers.
fn export_counters(out: &mut String, log: &TraceLog, series: &TraceSeries) {
    let mut tid = 0u64;
    for (&(role, replica), r) in &series.replicas {
        let name = format!("queue depth {role}[{replica}]");
        push_track(out, &mut tid, &name, &r.queue_depth);
        let name = format!("batch {role}[{replica}]");
        push_track(out, &mut tid, &name, &r.batch_occupancy);
    }
    push_track(
        out,
        &mut tid,
        "inflight kv bytes",
        &series.inflight_kv_bytes,
    );
    for (link, l) in &series.links {
        let name = format!("link {link} {} util", l.kind);
        push_track(out, &mut tid, &name, &l.utilization);
    }
    for e in log.events() {
        match e.kind {
            TraceKind::FaultTriggered { index } => push_instant(
                out,
                PID_COUNTERS,
                0,
                &format!("fault {index} triggered"),
                "fault",
                e.at,
            ),
            TraceKind::FaultDetected { index } => push_instant(
                out,
                PID_COUNTERS,
                0,
                &format!("fault {index} detected"),
                "fault",
                e.at,
            ),
            _ => {}
        }
    }
}

/// Exports the log as Chrome trace-event JSON.
pub fn export(log: &TraceLog) -> String {
    let mut body = String::new();
    push_meta(&mut body, PID_REQUESTS, None, "process_name", "requests");
    push_meta(
        &mut body,
        PID_PREFILL,
        None,
        "process_name",
        "prefill replicas",
    );
    push_meta(
        &mut body,
        PID_DECODE,
        None,
        "process_name",
        "decode replicas",
    );
    push_meta(&mut body, PID_COUNTERS, None, "process_name", "counters");
    let series = log.series();
    for &(role, replica) in series.replicas.keys() {
        let pid = match role {
            Role::Prefill => PID_PREFILL,
            Role::Decode | Role::Colocated => PID_DECODE,
        };
        push_meta(
            &mut body,
            pid,
            Some(replica as u64),
            "thread_name",
            &format!("{role} {replica}"),
        );
    }
    // One sweep groups the log by request: a stable sort keeps each
    // request's events in log order, and requests come out ascending.
    let mut scoped: Vec<(RequestId, &TraceEvent)> = log
        .events()
        .iter()
        .filter_map(|e| Some((e.kind.request()?, e)))
        .collect();
    scoped.sort_by_key(|&(request, _)| request);
    for group in scoped.chunk_by(|a, b| a.0 == b.0) {
        let request = group[0].0;
        push_meta(
            &mut body,
            PID_REQUESTS,
            Some(request.0),
            "thread_name",
            &format!("request {}", request.0),
        );
        export_request(&mut body, request, group.iter().map(|&(_, e)| e));
    }
    export_replica_tracks(&mut body, log);
    export_counters(&mut body, log, &series);
    let body = body.trim_end().trim_end_matches(',').to_string();
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{body}\n]}}\n")
}

/// Structural statistics of a validated Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete (`X`) slices.
    pub slices: usize,
    /// Counter (`C`) samples.
    pub counters: usize,
    /// Instant (`i`) markers.
    pub instants: usize,
}

/// Validates Chrome trace-event JSON structurally: the document parses,
/// `traceEvents` is a non-empty array, and every event has a string `ph`
/// plus numeric `pid`/`tid`/`ts` (and numeric `dur` on `X` slices).
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceStats, String> {
    let doc = json::parse(json)?;
    if doc.as_object().is_none() {
        return Err("root is not an object".into());
    }
    let events = doc
        .get("traceEvents")
        .ok_or_else(|| "missing traceEvents".to_string())?
        .as_array()
        .ok_or_else(|| "traceEvents is not an array".to_string())?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut stats = ChromeTraceStats {
        events: events.len(),
        slices: 0,
        counters: 0,
        instants: 0,
    };
    for (i, e) in events.iter().enumerate() {
        if e.as_object().is_none() {
            return Err(format!("event {i} is not an object"));
        }
        let ph = e
            .get("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i}: ph missing or not a string"))?;
        for key in ["pid", "tid", "ts"] {
            if e.num(key).is_none() {
                return Err(format!(
                    "event {i} (ph={ph}): {key} missing or not a number"
                ));
            }
        }
        match ph {
            "X" => {
                if e.num("dur").is_none() {
                    return Err(format!("event {i}: X slice without numeric dur"));
                }
                stats.slices += 1;
            }
            "C" => stats.counters += 1,
            "i" => stats.instants += 1,
            "M" | "B" | "E" => {}
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
        if e.get("name").and_then(json::Value::as_str).is_none() && ph != "i" {
            return Err(format!("event {i}: name missing or not a string"));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::sink::{Recorder, TraceSink};

    fn tiny_log() -> TraceLog {
        let r = RequestId(3);
        let mut rec = Recorder::new();
        let ev = |us: u64, kind: TraceKind| TraceEvent {
            at: SimTime::from_micros(us),
            kind,
        };
        rec.record(ev(0, TraceKind::Arrived { request: r }));
        rec.record(ev(
            0,
            TraceKind::Enqueued {
                request: r,
                role: Role::Prefill,
                replica: 0,
            },
        ));
        rec.record(ev(
            5,
            TraceKind::PrefillStart {
                request: r,
                role: Role::Prefill,
                replica: 0,
                tokens: 64,
            },
        ));
        rec.record(ev(
            9,
            TraceKind::PrefillEnd {
                request: r,
                role: Role::Prefill,
                replica: 0,
            },
        ));
        rec.record(ev(9, TraceKind::FirstToken { request: r }));
        rec.record(ev(
            20,
            TraceKind::DecodeJoin {
                request: r,
                role: Role::Decode,
                replica: 1,
            },
        ));
        rec.record(ev(
            21,
            TraceKind::BatchOccupancy {
                role: Role::Decode,
                replica: 1,
                active: 1,
            },
        ));
        rec.record(ev(40, TraceKind::Finished { request: r }));
        rec.finish()
    }

    #[test]
    fn export_validates_round_trip() {
        let json = export(&tiny_log());
        let stats = validate_chrome_trace(&json).expect("exported trace must validate");
        assert!(stats.events > 0);
        assert!(stats.slices >= 3, "queue + prefill + decode slices");
        assert!(stats.counters >= 1, "batch occupancy counter");
        assert!(stats.instants >= 2, "first token + finished markers");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1}]}").is_err(),
            "missing tid/ts must fail"
        );
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":\"a\",\"ts\":0}]}"
        )
        .is_err());
    }

    #[test]
    fn validator_accepts_minimal_wellformed_trace() {
        let ok = "{\"traceEvents\":[{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":3,\"s\":\"g\"}]}";
        let stats = validate_chrome_trace(ok).unwrap();
        assert_eq!(stats.events, 1);
        assert_eq!(stats.instants, 1);
    }
}
