//! Chrome trace-event (Perfetto / `chrome://tracing`) export.
//!
//! Emits the JSON object format — `{"traceEvents": [...]}` — using
//! complete (`"ph": "X"`) events: one per recorded span, with
//! microsecond `ts`/`dur` (the format's convention), the recorder's
//! thread tag as `tid`, and the span's trace/span/parent ids plus its
//! structured fields under `args`. Load the file in `chrome://tracing`
//! or <https://ui.perfetto.dev> to see a full auction round as a
//! per-thread flame chart: the round span on the request thread, one
//! pivot lane per worker, journal appends/fsyncs interleaved.
//!
//! The export is built from plain serializable structs, so the output
//! round-trips through the same in-tree serde shims that frame the wire
//! protocol — no hand-escaped JSON.

use crate::trace::{TraceEventWire, TraceWire};
use serde::{Deserialize, Serialize};

/// `args` payload of one exported event: identity for cross-referencing
/// plus the span's fields rendered as strings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChromeArgs {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub fields: Vec<(String, String)>,
}

/// One Chrome trace-event record (complete-event flavour).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChromeEvent {
    pub name: String,
    pub cat: String,
    pub ph: String,
    /// Start, microseconds since the process trace epoch.
    pub ts: f64,
    /// Duration, microseconds.
    pub dur: f64,
    pub pid: u64,
    pub tid: u64,
    pub args: ChromeArgs,
}

/// The top-level export object.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[allow(non_snake_case)]
pub struct ChromeTrace {
    pub traceEvents: Vec<ChromeEvent>,
    pub displayTimeUnit: String,
}

fn to_chrome_event(event: &TraceEventWire) -> ChromeEvent {
    // Category = the name's leading component (`auction.pivot` →
    // `auction`), which chrome://tracing can filter on.
    let cat = event.name.split('.').next().unwrap_or("span").to_string();
    ChromeEvent {
        name: event.name.clone(),
        cat,
        ph: "X".into(),
        ts: event.start_ns as f64 / 1e3,
        dur: event.dur_ns as f64 / 1e3,
        pid: 1,
        tid: event.thread,
        args: ChromeArgs {
            trace_id: event.trace_id,
            span_id: event.span_id,
            parent_id: event.parent_id,
            fields: event.fields.clone(),
        },
    }
}

/// Build the export object for a set of scraped traces.
pub(crate) fn chrome_trace(traces: &[TraceWire]) -> ChromeTrace {
    ChromeTrace {
        traceEvents: traces.iter().flat_map(|t| t.events.iter().map(to_chrome_event)).collect(),
        displayTimeUnit: "ms".into(),
    }
}

/// The export as a JSON string ready for `chrome://tracing`.
pub fn chrome_trace_json(traces: &[TraceWire]) -> String {
    serde_json::to_string(&chrome_trace(traces)).expect("chrome trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> TraceWire {
        TraceWire {
            trace_id: 42,
            events: vec![TraceEventWire {
                trace_id: 42,
                span_id: 2,
                parent_id: 1,
                name: "auction.pivot".into(),
                start_ns: 1_500,
                dur_ns: 2_000_000,
                thread: 3,
                fields: vec![("bp".into(), "7".into())],
            }],
        }
    }

    #[test]
    fn export_is_valid_json_with_complete_events() {
        let json = chrome_trace_json(&[trace()]);
        let back: ChromeTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.traceEvents.len(), 1);
        let event = &back.traceEvents[0];
        assert_eq!(event.ph, "X");
        assert_eq!(event.name, "auction.pivot");
        assert_eq!(event.cat, "auction");
        assert_eq!(event.ts, 1.5);
        assert_eq!(event.dur, 2_000.0);
        assert_eq!(event.tid, 3);
        assert_eq!(event.args.trace_id, 42);
        assert_eq!(event.args.fields, vec![("bp".to_string(), "7".to_string())]);
    }
}
