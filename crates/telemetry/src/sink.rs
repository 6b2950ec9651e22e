//! Trace sinks: where instrumented code sends its events.
//!
//! The engines are generic over nothing — they hold an `Option<Recorder>`
//! directly, because the `None` arm of an `Option` check is the cheapest
//! "off" path there is and keeps the disabled simulation bit-identical.
//! The [`TraceSink`] trait states the recording contract; [`Recorder`] is
//! its one implementation.

use crate::event::TraceEvent;
use crate::log::TraceLog;

/// A destination for [`TraceEvent`]s.
pub trait TraceSink {
    /// Records one event. Implementations must not reorder events with
    /// equal timestamps (the log's stable sort relies on emission order as
    /// the tie-break).
    fn record(&mut self, event: TraceEvent);
}

/// A buffering sink: appends events to a growable buffer, finalized into a
/// time-sorted [`TraceLog`].
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    events: Vec<TraceEvent>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Absorbs events recorded elsewhere (e.g. by the network fabric's own
    /// recorder); ordering is restored at [`Recorder::finish`] time.
    pub fn extend(&mut self, events: impl IntoIterator<Item = TraceEvent>) {
        self.events.extend(events);
    }

    /// Consumes the recorder, returning the raw event buffer in emission
    /// order — for producers that hand their events to another recorder to
    /// merge (via [`Recorder::extend`]) rather than finalizing themselves.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Finalizes the buffer into a [`TraceLog`]: a stable sort by timestamp
    /// (producers may stamp events at future instants, e.g. a KV wire
    /// start scheduled behind a busy uplink), preserving emission order
    /// among equal timestamps.
    pub fn finish(mut self) -> TraceLog {
        self.events.sort_by_key(|e| e.at);
        TraceLog::new(self.events)
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceKind;
    use ts_common::{RequestId, SimTime};

    #[test]
    fn finish_sorts_stably_by_time() {
        let mut r = Recorder::new();
        let ev = |us: u64, request: u64| TraceEvent {
            at: SimTime::from_micros(us),
            kind: TraceKind::Arrived {
                request: RequestId(request),
            },
        };
        // Out-of-order stamps plus a tie: 5(a), 3, 5(b).
        r.record(ev(5, 1));
        r.record(ev(3, 2));
        r.record(ev(5, 3));
        assert_eq!(r.len(), 3);
        let log = r.finish();
        let order: Vec<u64> = log
            .events()
            .iter()
            .map(|e| e.kind.request().unwrap().0)
            .collect();
        assert_eq!(order, vec![2, 1, 3], "stable: tie keeps emission order");
    }
}
