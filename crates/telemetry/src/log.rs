//! The finalized, time-sorted event log and everything derived from it:
//! per-request spans, per-replica/per-link step series and timelines.

use crate::event::{TraceEvent, TraceKind};
use crate::series::{LinkSeries, StepSeries, TraceSeries};
use std::collections::{BTreeSet, HashMap};
use ts_common::{RequestId, SimDuration, SimTime};

/// A time-sorted trace, produced by [`crate::Recorder::finish`].
#[derive(Debug, Default, Clone)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    end: SimTime,
}

/// The landmark instants of one request's journey, extracted from its
/// events. `kv_wire_start`/`kv_done` keep the *last* occurrence (retries
/// re-stamp the wire start; only the successful attempt delivers), while
/// `kv_enqueued` keeps the first — exactly the accounting the engine's
/// `RequestRecord` uses, so span-derived latencies reconcile bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpan {
    /// The request.
    pub request: RequestId,
    /// Arrival instant.
    pub arrived: SimTime,
    /// First output token, if prefill completed.
    pub first_token: Option<SimTime>,
    /// Completion instant, if the request finished.
    pub finished: Option<SimTime>,
    /// First KV-transfer enqueue on the sender, if any transfer ran.
    pub kv_enqueued: Option<SimTime>,
    /// Last wire start (the successful attempt's).
    pub kv_wire_start: Option<SimTime>,
    /// Last KV delivery at the decode replica.
    pub kv_done: Option<SimTime>,
    /// KV transfer retries observed.
    pub kv_retries: u32,
    /// Fault-recovery requeues observed.
    pub requeues: u32,
    /// Fault-recovery re-prefills observed.
    pub reprefills: u32,
    /// Hedged duplicate launches observed (gray-failure mitigation).
    pub hedges: u32,
}

impl RequestSpan {
    /// Time to first token, if produced.
    pub fn ttft(&self) -> Option<SimDuration> {
        self.first_token.map(|t| t.saturating_since(self.arrived))
    }

    /// End-to-end latency, if the request finished.
    pub fn e2e(&self) -> Option<SimDuration> {
        self.finished.map(|t| t.saturating_since(self.arrived))
    }

    /// Sender-side queue wait of the KV transfer (zero when no transfer
    /// ran), matching `RequestRecord::kv_queue_wait`.
    pub fn kv_queue_wait(&self) -> SimDuration {
        match (self.kv_enqueued, self.kv_wire_start) {
            (Some(enq), Some(wire)) => wire.saturating_since(enq),
            _ => SimDuration::ZERO,
        }
    }

    /// Wire time of the (successful) KV transfer attempt, matching
    /// `RequestRecord::kv_wire_time`.
    pub fn kv_wire_time(&self) -> SimDuration {
        match (self.kv_wire_start, self.kv_done) {
            (Some(wire), Some(done)) => done.saturating_since(wire),
            _ => SimDuration::ZERO,
        }
    }
}

impl TraceLog {
    /// Wraps a time-sorted event vector.
    pub(crate) fn new(events: Vec<TraceEvent>) -> Self {
        let end = events.last().map(|e| e.at).unwrap_or(SimTime::ZERO);
        TraceLog { events, end }
    }

    /// Every event, sorted by timestamp (stable in emission order).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events in the log.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Timestamp of the last event (the origin for an empty log).
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Every request id appearing in the log, ascending.
    pub fn request_ids(&self) -> Vec<RequestId> {
        let ids: BTreeSet<RequestId> = self
            .events
            .iter()
            .filter_map(|e| e.kind.request())
            .collect();
        ids.into_iter().collect()
    }

    /// Request ids that finished successfully, ascending.
    pub fn completed_requests(&self) -> Vec<RequestId> {
        let ids: BTreeSet<RequestId> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Finished { request } => Some(request),
                _ => None,
            })
            .collect();
        ids.into_iter().collect()
    }

    /// The events concerning one request, in time order.
    pub fn request_events(&self, request: RequestId) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.kind.request() == Some(request))
            .collect()
    }

    /// The landmark span of one request, or `None` if the log never saw it
    /// arrive.
    pub fn request_span(&self, request: RequestId) -> Option<RequestSpan> {
        let mut span: Option<RequestSpan> = None;
        for e in &self.events {
            if e.kind.request() != Some(request) {
                continue;
            }
            if span.is_none() {
                if let TraceKind::Arrived { .. } = e.kind {
                    span = Some(RequestSpan {
                        request,
                        arrived: e.at,
                        first_token: None,
                        finished: None,
                        kv_enqueued: None,
                        kv_wire_start: None,
                        kv_done: None,
                        kv_retries: 0,
                        requeues: 0,
                        reprefills: 0,
                        hedges: 0,
                    });
                }
                continue;
            }
            let s = span.as_mut().unwrap();
            match e.kind {
                TraceKind::FirstToken { .. } => s.first_token = Some(e.at),
                TraceKind::Finished { .. } => s.finished = Some(e.at),
                TraceKind::KvEnqueued { .. } if s.kv_enqueued.is_none() => {
                    s.kv_enqueued = Some(e.at);
                }
                TraceKind::KvWireStart { .. } => s.kv_wire_start = Some(e.at),
                TraceKind::KvDone { .. } => s.kv_done = Some(e.at),
                TraceKind::KvRetry { .. } => s.kv_retries += 1,
                TraceKind::Requeued { .. } => s.requeues += 1,
                TraceKind::Reprefill { .. } => s.reprefills += 1,
                TraceKind::HedgeLaunched { .. } => s.hedges += 1,
                _ => {}
            }
        }
        span
    }

    /// Every step series the log derives, built in one pass over the events.
    pub fn series(&self) -> TraceSeries {
        let mut series = TraceSeries::default();
        let mut inflight: HashMap<RequestId, u64> = HashMap::new();
        let mut total = 0u64;
        for e in &self.events {
            if let Some(key) = e.kind.replica() {
                let replica = series.replicas.entry(key).or_default();
                match e.kind {
                    TraceKind::QueueDepth { depth, .. } => {
                        replica.queue_depth.push(e.at, depth as u64)
                    }
                    TraceKind::BatchOccupancy { active, .. } => {
                        replica.batch_occupancy.push(e.at, active as u64)
                    }
                    _ => {}
                }
                continue;
            }
            match e.kind {
                TraceKind::KvEnqueued { request, bytes, .. }
                    if !inflight.contains_key(&request) =>
                {
                    inflight.insert(request, bytes);
                    total += bytes;
                    series.inflight_kv_bytes.push(e.at, total);
                }
                TraceKind::KvDone { request } | TraceKind::Dropped { request } => {
                    if let Some(bytes) = inflight.remove(&request) {
                        total -= bytes;
                        series.inflight_kv_bytes.push(e.at, total);
                    }
                }
                TraceKind::LinkUtilization {
                    link,
                    kind,
                    used_bps,
                    capacity_bps,
                } => series
                    .links
                    .entry(link)
                    .or_insert_with(|| LinkSeries {
                        kind,
                        capacity_bps,
                        utilization: StepSeries::default(),
                    })
                    .utilization
                    .push(e.at, used_bps / capacity_bps.max(f64::MIN_POSITIVE)),
                _ => {}
            }
        }
        series
    }

    /// A human-readable timeline of one request's events, one line per
    /// event with absolute time and offset since arrival.
    pub fn render_request_timeline(&self, request: RequestId) -> String {
        let events = self.request_events(request);
        let Some(first) = events.first() else {
            return format!("request {request}: no events\n");
        };
        let arrival = first.at;
        let mut out = format!("request {request} timeline ({} events):\n", events.len());
        for e in events {
            out.push_str(&format!(
                "  t={:>12.6}s  (+{:>10.6}s)  {}\n",
                e.at.as_secs_f64(),
                e.at.saturating_since(arrival).as_secs_f64(),
                e.kind,
            ));
        }
        out
    }
}

#[cfg(test)]
impl TraceLog {
    /// The served model each tagged request targets, keyed by request id.
    ///
    /// Tags only appear on multi-model runs; a single-model trace yields an
    /// empty map.
    fn model_tags(&self) -> std::collections::BTreeMap<RequestId, ts_common::ModelId> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::ModelTag { request, model } => Some((request, model)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LinkKind, Role};
    use crate::sink::{Recorder, TraceSink};
    use ts_common::ModelId;

    fn ev(us: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_micros(us),
            kind,
        }
    }

    fn sample_log() -> TraceLog {
        let r = RequestId(1);
        let mut rec = Recorder::new();
        for e in [
            ev(0, TraceKind::Arrived { request: r }),
            ev(
                0,
                TraceKind::Enqueued {
                    request: r,
                    role: Role::Prefill,
                    replica: 0,
                },
            ),
            ev(
                0,
                TraceKind::QueueDepth {
                    role: Role::Prefill,
                    replica: 0,
                    depth: 1,
                },
            ),
            ev(
                10,
                TraceKind::PrefillStart {
                    request: r,
                    role: Role::Prefill,
                    replica: 0,
                    tokens: 512,
                },
            ),
            ev(
                50,
                TraceKind::PrefillEnd {
                    request: r,
                    role: Role::Prefill,
                    replica: 0,
                },
            ),
            ev(50, TraceKind::FirstToken { request: r }),
            ev(
                50,
                TraceKind::KvEnqueued {
                    request: r,
                    from: 0,
                    to: 0,
                    bytes: 1000,
                },
            ),
            ev(
                60,
                TraceKind::KvWireStart {
                    request: r,
                    attempt: 1,
                },
            ),
            ev(
                70,
                TraceKind::KvRetry {
                    request: r,
                    attempt: 2,
                },
            ),
            ev(
                80,
                TraceKind::KvWireStart {
                    request: r,
                    attempt: 2,
                },
            ),
            ev(95, TraceKind::KvDone { request: r }),
            ev(
                95,
                TraceKind::DecodeJoin {
                    request: r,
                    role: Role::Decode,
                    replica: 1,
                },
            ),
            ev(200, TraceKind::Finished { request: r }),
        ] {
            rec.record(e);
        }
        rec.finish()
    }

    #[test]
    fn span_reconciles_landmarks() {
        let log = sample_log();
        let s = log.request_span(RequestId(1)).unwrap();
        assert_eq!(s.ttft(), Some(SimDuration::from_micros(50)));
        assert_eq!(s.e2e(), Some(SimDuration::from_micros(200)));
        // Queue wait uses first enqueue and LAST wire start.
        assert_eq!(s.kv_queue_wait(), SimDuration::from_micros(30));
        assert_eq!(s.kv_wire_time(), SimDuration::from_micros(15));
        assert_eq!(s.kv_retries, 1);
        assert_eq!(log.completed_requests(), vec![RequestId(1)]);
    }

    #[test]
    fn model_tags_index_requests_by_tenant() {
        let mut rec = Recorder::new();
        for (id, m) in [(1u64, 1u32), (2, 2), (3, 1)] {
            rec.record(ev(
                id,
                TraceKind::Arrived {
                    request: RequestId(id),
                },
            ));
            rec.record(ev(
                id,
                TraceKind::ModelTag {
                    request: RequestId(id),
                    model: ModelId(m),
                },
            ));
        }
        let log = rec.finish();
        let tags = log.model_tags();
        assert_eq!(tags.len(), 3);
        let tagged = |model| -> Vec<RequestId> {
            tags.iter()
                .filter_map(|(&r, &m)| (m == model).then_some(r))
                .collect()
        };
        assert_eq!(tagged(ModelId(1)), vec![RequestId(1), RequestId(3)]);
        assert_eq!(tagged(ModelId(2)), vec![RequestId(2)]);
        // Untagged logs (single-model runs) carry no tags at all.
        assert!(sample_log().model_tags().is_empty());
    }

    #[test]
    fn inflight_bytes_rise_and_fall() {
        let log = sample_log();
        let s = log.series().inflight_kv_bytes;
        assert_eq!(s.value_at(SimTime::from_micros(55)), 1000);
        assert_eq!(s.value_at(SimTime::from_micros(100)), 0);
        assert_eq!(s.step().peak(), 1000.0);
    }

    #[test]
    fn replicas_and_timeline_render() {
        let log = sample_log();
        let replicas: Vec<_> = log.series().replicas.into_keys().collect();
        assert_eq!(replicas, vec![(Role::Prefill, 0), (Role::Decode, 1)]);
        let text = log.render_request_timeline(RequestId(1));
        assert!(text.contains("kv retry (attempt 2)"));
        assert!(text.contains("finished"));
        let missing = log.render_request_timeline(RequestId(99));
        assert!(missing.contains("no events"));
    }

    #[test]
    fn link_series_keep_their_first_sample_kind_and_capacity() {
        let util = |link, used_bps, capacity_bps| TraceKind::LinkUtilization {
            link,
            kind: if link == 3 {
                LinkKind::Inter
            } else {
                LinkKind::Uplink(0)
            },
            used_bps,
            capacity_bps,
        };
        let mut rec = Recorder::new();
        for e in [
            ev(0, util(3, 50.0, 100.0)),
            ev(5, util(1, 10.0, 40.0)),
            ev(10, util(3, 100.0, 100.0)),
            ev(10, util(3, 50.0, 200.0)),
        ] {
            rec.record(e);
        }
        let series = rec.finish().series();
        assert_eq!(series.links.keys().copied().collect::<Vec<_>>(), [1, 3]);
        let inter = &series.links[&3];
        assert_eq!((inter.kind, inter.capacity_bps), (LinkKind::Inter, 100.0));
        // Each sample divides by its own capacity; the same-instant sample
        // overwrites the full one, so it is no peak.
        let at = SimTime::from_micros;
        assert_eq!(inter.utilization.points(), [(at(0), 0.5), (at(10), 0.25)]);
        assert_eq!(inter.utilization.step().peak(), 0.5);
        // 0.5 over [0, 10us), 0.25 over [10us, 20us).
        assert_eq!(inter.utilization.step().time_weighted_mean(at(20)), 0.375);
        assert_eq!(series.links[&1].utilization.points(), [(at(5), 0.25)]);
        assert!(series.replicas.is_empty());
        assert!(series.inflight_kv_bytes.points().is_empty());
    }
}
