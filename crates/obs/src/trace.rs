//! Causal tracing: trace contexts, parent-linked span events, and the
//! process-global flight recorder.
//!
//! A **trace** is one causally related tree of [`TraceEvent`]s sharing a
//! `trace_id` — in the control plane, everything one wire request
//! touched: codec, journal append/fsync, the auction round, every
//! Clarke-pivot re-selection (across the parallel thread scope), and the
//! flow-layer oracle/maxflow work underneath. The identity plumbing is a
//! thread-local `(trace_id, span_id)` cell:
//!
//! * [`start_trace`] installs a trace id as the thread's root context
//!   (the control plane calls it once per request, with the id the
//!   client sent in its `Request::Traced` envelope or a fresh one);
//! * every [`crate::Span`] that opens while a trace is active allocates
//!   a span id, records the previous context as its parent, and becomes
//!   the current context until it drops — nesting falls out of RAII
//!   scoping with no extra bookkeeping at call sites;
//! * [`TraceCtx::current`] captures the context as a value that can be
//!   carried into a spawned thread and re-installed with
//!   [`TraceCtx::adopt`] — this is how pivot spans parent to the round
//!   span across the auction round's thread-scope boundary.
//!
//! Closed spans land in the global [`FlightRecorder`] (bounded,
//! drop-oldest; see [`crate::ring`]), which the control plane serves via
//! `Request::Trace` and `poc trace` renders as trees or Chrome
//! trace-event JSON ([`crate::chrome`]). The recorder starts *disabled*:
//! an untraced process pays one relaxed atomic load per span, nothing
//! else.

use crate::field::FieldValue;
use crate::ring::{FlightRecorder, DEFAULT_CAPACITY};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One closed span as the flight recorder stores it.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// The request-scoped tree this span belongs to.
    pub trace_id: u64,
    /// Unique within the process (never 0).
    pub span_id: u64,
    /// `0` for a trace's root span.
    pub parent_id: u64,
    /// The span's histogram name (`auction.pivot`, `ctrl.journal.fsync`, …).
    pub name: &'static str,
    /// Nanoseconds since the process trace epoch —
    /// one shared monotonic base, so spans from different threads order
    /// correctly.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Small per-thread tag (assigned on first traced span per thread).
    pub thread: u64,
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// [`TraceEvent`] as shipped over the wire (owned strings; fields
/// rendered through their `Display` form).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEventWire {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub thread: u64,
    pub fields: Vec<(String, String)>,
}

impl TraceEvent {
    pub(crate) fn to_wire(&self) -> TraceEventWire {
        TraceEventWire {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: self.name.to_string(),
            start_ns: self.start_ns,
            dur_ns: self.dur_ns,
            thread: self.thread,
            fields: self.fields.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        }
    }
}

/// One recorded trace: every surviving event sharing a `trace_id`,
/// ordered by start time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceWire {
    pub trace_id: u64,
    pub events: Vec<TraceEventWire>,
}

// ---------------------------------------------------------------------------
// Process-global recorder & clocks
// ---------------------------------------------------------------------------

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-global flight recorder every traced span lands in.
/// Created on first use — **disabled** — with 16 Ki slots.
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(|| {
        let ring = FlightRecorder::with_capacity(DEFAULT_CAPACITY);
        ring.set_enabled(false);
        ring
    })
}

/// Nanoseconds since the process trace epoch (the first call): the
/// shared monotonic base all [`TraceEvent::start_ns`] values use.
pub(crate) fn trace_clock_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// A fresh, process-unique, nonzero trace id. Seeded from the wall
/// clock so ids from successive CLI invocations against the same server
/// don't collide.
pub fn new_trace_id() -> u64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    let next = NEXT.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1);
        // Fibonacci hashing spreads the seed; keep ids in 53 bits so
        // they survive any double-precision JSON reader unscathed.
        AtomicU64::new((nanos.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 12)
    });
    loop {
        let id = next.fetch_add(1, Ordering::Relaxed) & ((1 << 53) - 1);
        if id != 0 {
            return id;
        }
    }
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Small per-thread tag for the `thread` column of trace events.
fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

thread_local! {
    /// The thread's current `(trace_id, span_id)`; `(0, _)` = no trace.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// ---------------------------------------------------------------------------
// Contexts & guards
// ---------------------------------------------------------------------------

/// A captured trace context: the value to carry across a thread spawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    pub trace_id: u64,
    /// The span the adopting thread's spans will parent to.
    pub span_id: u64,
}

impl TraceCtx {
    /// The calling thread's current context, if a trace is active.
    pub fn current() -> Option<TraceCtx> {
        let (trace_id, span_id) = CURRENT.with(Cell::get);
        (trace_id != 0).then_some(TraceCtx { trace_id, span_id })
    }

    /// Install this context as the calling thread's current one until
    /// the guard drops (which restores whatever was current before).
    /// Call at the top of a spawned closure to parent its spans to the
    /// spawning span.
    #[must_use = "the context is uninstalled when the guard drops"]
    pub fn adopt(&self) -> TraceGuard {
        let prev = CURRENT.with(|c| c.replace((self.trace_id, self.span_id)));
        TraceGuard { prev }
    }
}

/// RAII restore for an installed trace context.
pub struct TraceGuard {
    prev: (u64, u64),
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Make `trace_id` the thread's root context until the guard drops.
/// Spans opened under the guard form a tree rooted at this trace. The
/// control plane calls this once per request.
#[must_use = "the trace ends when the guard drops"]
pub fn start_trace(trace_id: u64) -> TraceGuard {
    TraceCtx { trace_id, span_id: 0 }.adopt()
}

// ---------------------------------------------------------------------------
// Span integration (crate-internal surface for `crate::span`)
// ---------------------------------------------------------------------------

/// The tracing half of an open [`crate::Span`]: identity plus the
/// context to restore when it closes.
pub(crate) struct OpenSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    start_ns: u64,
    prev: (u64, u64),
}

/// Open the tracing side of a span: `None` (one relaxed load) unless
/// the recorder is enabled *and* the thread has an active trace.
pub(crate) fn begin_span() -> Option<OpenSpan> {
    if !recorder().is_enabled() {
        return None;
    }
    let (trace_id, parent_id) = CURRENT.with(Cell::get);
    if trace_id == 0 {
        return None;
    }
    let span_id = next_span_id();
    let prev = CURRENT.with(|c| c.replace((trace_id, span_id)));
    Some(OpenSpan { trace_id, span_id, parent_id, start_ns: trace_clock_ns(), prev })
}

/// Close the tracing side: restore the context and park the event.
pub(crate) fn end_span(
    open: OpenSpan,
    name: &'static str,
    dur_ns: u64,
    fields: Vec<(&'static str, FieldValue)>,
) {
    CURRENT.with(|c| c.set(open.prev));
    recorder().record(TraceEvent {
        trace_id: open.trace_id,
        span_id: open.span_id,
        parent_id: open.parent_id,
        name,
        start_ns: open.start_ns,
        dur_ns,
        thread: thread_tag(),
        fields,
    });
}

// ---------------------------------------------------------------------------
// Scraping & rendering
// ---------------------------------------------------------------------------

/// Group raw events into per-trace bundles, each sorted by start time;
/// traces ordered by their earliest event.
pub(crate) fn group_traces(events: &[TraceEvent]) -> Vec<TraceWire> {
    let mut by_trace: std::collections::BTreeMap<u64, Vec<TraceEventWire>> =
        std::collections::BTreeMap::new();
    for event in events {
        by_trace.entry(event.trace_id).or_default().push(event.to_wire());
    }
    let mut traces: Vec<TraceWire> = by_trace
        .into_iter()
        .map(|(trace_id, mut events)| {
            events.sort_by_key(|e| (e.start_ns, e.span_id));
            TraceWire { trace_id, events }
        })
        .collect();
    traces.sort_by_key(|t| t.events.first().map_or(u64::MAX, |e| e.start_ns));
    traces
}

/// Scrape the global recorder: all traces, one trace by id, or the
/// `last_n` most recently started. This is what `Request::Trace` serves.
pub fn scrape(trace_id: Option<u64>, last_n: Option<usize>) -> Vec<TraceWire> {
    let mut traces = group_traces(&recorder().snapshot());
    if let Some(id) = trace_id {
        traces.retain(|t| t.trace_id == id);
    }
    if let Some(n) = last_n {
        let len = traces.len();
        traces.drain(..len.saturating_sub(n));
    }
    traces
}

/// Trim scraped traces to a serialized-byte budget by repeatedly
/// keeping the longest-duration half of the surviving events. A full
/// default-capacity ring serializes well past the control plane's 1 MiB
/// frame cap; the long spans are the ones that attribute a request's
/// wall time (the short leaves under them are detail), and
/// [`render_tree`] already surfaces spans whose parents were dropped as
/// extra roots, so trimming degrades resolution, not structure.
pub fn trim_traces_to_bytes(mut traces: Vec<TraceWire>, max_bytes: usize) -> Vec<TraceWire> {
    loop {
        let size = serde_json::to_string(&traces).map_or(usize::MAX, |s| s.len());
        if size <= max_bytes || traces.is_empty() {
            return traces;
        }
        // Rank events shallow-first, then longest-first: the spans near the
        // root (request handler, journal append/fsync, round) are the causal
        // skeleton a reader needs even when they are short, while deep spans
        // (per-pivot oracle probes) are numerous and interchangeable — keep
        // the longest of those, since they attribute the wall time. Dropping
        // children before parents also keeps the surviving set a tree.
        // (depth, dur, span_id) is unique per event, so exactly `keep` survive.
        let mut keys: Vec<(u32, u64, u64)> = Vec::new();
        for trace in &traces {
            let parent: std::collections::HashMap<u64, u64> =
                trace.events.iter().map(|e| (e.span_id, e.parent_id)).collect();
            for e in &trace.events {
                let mut depth = 0u32;
                let mut at = e.parent_id;
                while at != 0 && depth < 64 {
                    depth += 1;
                    at = parent.get(&at).copied().unwrap_or(0);
                }
                keys.push((depth, u64::MAX - e.dur_ns, e.span_id));
            }
        }
        let keep = keys.len() / 2;
        if keep == 0 {
            return Vec::new();
        }
        keys.sort_unstable();
        let kept: std::collections::HashSet<u64> =
            keys[..keep].iter().map(|&(_, _, id)| id).collect();
        for trace in &mut traces {
            trace.events.retain(|e| kept.contains(&e.span_id));
        }
        traces.retain(|t| !t.events.is_empty());
    }
}

/// Render one trace as an indented text tree (the default `poc trace`
/// output). Orphaned spans — parents evicted by the ring — surface as
/// additional roots rather than disappearing.
pub fn render_tree(trace: &TraceWire) -> String {
    use std::collections::BTreeMap;
    let mut children: BTreeMap<u64, Vec<&TraceEventWire>> = BTreeMap::new();
    let ids: std::collections::BTreeSet<u64> = trace.events.iter().map(|e| e.span_id).collect();
    for event in &trace.events {
        let parent = if ids.contains(&event.parent_id) { event.parent_id } else { 0 };
        children.entry(parent).or_default().push(event);
    }
    let mut out = format!("trace {} ({} spans)\n", trace.trace_id, trace.events.len());
    fn visit(
        out: &mut String,
        children: &BTreeMap<u64, Vec<&TraceEventWire>>,
        id: u64,
        depth: usize,
    ) {
        for event in children.get(&id).map_or(&[][..], |v| v.as_slice()) {
            let fields: String =
                event.fields.iter().map(|(k, v)| format!(" {k}={v}")).collect::<Vec<_>>().join("");
            out.push_str(&format!(
                "{}{} {:.3}ms [t{}]{}\n",
                "  ".repeat(depth + 1),
                event.name,
                event.dur_ns as f64 / 1e6,
                event.thread,
                fields,
            ));
            visit(out, children, event.span_id, depth + 1);
        }
    }
    visit(&mut out, &children, 0, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_nesting_restores_on_drop() {
        assert_eq!(TraceCtx::current(), None);
        {
            let _root = start_trace(77);
            assert_eq!(TraceCtx::current(), Some(TraceCtx { trace_id: 77, span_id: 0 }));
            {
                let inner = TraceCtx { trace_id: 77, span_id: 5 };
                let _g = inner.adopt();
                assert_eq!(TraceCtx::current(), Some(inner));
            }
            assert_eq!(TraceCtx::current(), Some(TraceCtx { trace_id: 77, span_id: 0 }));
        }
        assert_eq!(TraceCtx::current(), None);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let ids: std::collections::BTreeSet<u64> = (0..100).map(|_| new_trace_id()).collect();
        assert_eq!(ids.len(), 100);
        assert!(!ids.contains(&0));
        assert!(ids.iter().all(|&id| id < (1 << 53)));
    }

    #[test]
    fn grouping_splits_by_trace_and_sorts_by_start() {
        let ev = |trace_id, span_id, start_ns| TraceEvent {
            trace_id,
            span_id,
            parent_id: 0,
            name: "t",
            start_ns,
            dur_ns: 1,
            thread: 0,
            fields: Vec::new(),
        };
        let traces = group_traces(&[ev(2, 1, 50), ev(1, 2, 10), ev(2, 3, 20), ev(1, 4, 5)]);
        assert_eq!(traces.len(), 2);
        // Trace 1 starts earliest (start_ns 5) so it comes first.
        assert_eq!(traces[0].trace_id, 1);
        assert_eq!(traces[0].events.iter().map(|e| e.span_id).collect::<Vec<_>>(), vec![4, 2]);
        assert_eq!(traces[1].events.iter().map(|e| e.span_id).collect::<Vec<_>>(), vec![3, 1]);
    }

    #[test]
    fn wire_events_round_trip_through_json() {
        let wire = TraceEventWire {
            trace_id: 9,
            span_id: 2,
            parent_id: 1,
            name: "auction.pivot".into(),
            start_ns: 123,
            dur_ns: 456,
            thread: 3,
            fields: vec![("bp".into(), "7".into())],
        };
        let trace = TraceWire { trace_id: 9, events: vec![wire] };
        let json = serde_json::to_string(&trace).unwrap();
        let back: TraceWire = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn trim_keeps_longest_spans_within_budget() {
        let ev = |span_id, dur_ns| TraceEventWire {
            trace_id: 1,
            span_id,
            parent_id: 0,
            name: "t".into(),
            start_ns: span_id,
            dur_ns,
            thread: 0,
            fields: Vec::new(),
        };
        // Durations grow with span id: trimming must keep the tail.
        let trace = TraceWire { trace_id: 1, events: (1..=64).map(|i| ev(i, i * 1000)).collect() };
        let full = serde_json::to_string(&vec![trace.clone()]).unwrap().len();

        // A generous budget trims nothing.
        let untrimmed = trim_traces_to_bytes(vec![trace.clone()], full);
        assert_eq!(untrimmed[0].events.len(), 64);

        // A tight budget keeps the longest spans only, within budget.
        let trimmed = trim_traces_to_bytes(vec![trace.clone()], full / 3);
        assert!(!trimmed.is_empty(), "something survives a sane budget");
        let kept = &trimmed[0].events;
        assert!(kept.len() < 64);
        let min_kept = kept.iter().map(|e| e.dur_ns).min().unwrap();
        assert!(min_kept > 32 * 1000, "short spans dropped first, got min {min_kept}");
        assert!(serde_json::to_string(&trimmed).unwrap().len() <= full / 3);

        // An impossible budget degrades to empty, not an oversized reply.
        assert!(trim_traces_to_bytes(vec![trace], 10).is_empty());
    }

    #[test]
    fn trim_keeps_shallow_skeleton_over_deep_floods() {
        let ev = |span_id, parent_id, name: &str, dur_ns| TraceEventWire {
            trace_id: 1,
            span_id,
            parent_id,
            name: name.into(),
            start_ns: span_id,
            dur_ns,
            thread: 0,
            fields: Vec::new(),
        };
        // A request-shaped trace: short journal spans near the root, a long
        // round with a few pivots, and a flood of long oracle probes under
        // the pivots. A real scale round looks exactly like this — the
        // probes dwarf the journal fsync by orders of magnitude, and they
        // sit one level deeper than everything structural.
        let mut events = vec![
            ev(1, 0, "ctrl.request.run_auction", 5_000),
            ev(2, 1, "ctrl.journal.append", 2_000),
            ev(3, 2, "ctrl.journal.fsync", 1_500),
            ev(4, 1, "auction.round.parallel", 4_000),
        ];
        events.extend((0..4).map(|i| ev(10 + i, 4, "auction.pivot", 3_000_000 + i)));
        events.extend(
            (0..64).map(|i| ev(100 + i, 10 + (i % 4), "flow.oracle.evaluate", 1_000_000 + i)),
        );
        let trace = TraceWire { trace_id: 1, events };
        let full = serde_json::to_string(&vec![trace.clone()]).unwrap().len();

        let trimmed = trim_traces_to_bytes(vec![trace], full / 4);
        let kept = &trimmed[0].events;
        assert!(kept.len() < 72, "budget forced a trim");
        // The causal skeleton survives even though every probe is longer
        // than the journal spans.
        for name in [
            "ctrl.request.run_auction",
            "ctrl.journal.append",
            "ctrl.journal.fsync",
            "auction.round.parallel",
            "auction.pivot",
        ] {
            assert!(kept.iter().any(|e| e.name == name), "skeleton span {name} survives the trim");
        }
        // What was dropped came from the deep flood, longest probes kept.
        let probes: Vec<u64> =
            kept.iter().filter(|e| e.name == "flow.oracle.evaluate").map(|e| e.dur_ns).collect();
        assert!(!probes.is_empty() && probes.len() < 64);
        assert!(probes.iter().all(|&d| d >= 1_000_000 + (64 - probes.len() as u64)));
    }

    #[test]
    fn render_tree_indents_children_and_surfaces_orphans() {
        let ev = |span_id, parent_id, name: &str| TraceEventWire {
            trace_id: 1,
            span_id,
            parent_id,
            name: name.into(),
            start_ns: span_id,
            dur_ns: 1_000_000,
            thread: 0,
            fields: Vec::new(),
        };
        let trace = TraceWire {
            trace_id: 1,
            events: vec![ev(1, 0, "root"), ev(2, 1, "child"), ev(9, 1000, "orphan")],
        };
        let text = render_tree(&trace);
        assert!(text.contains("  root"), "{text}");
        assert!(text.contains("    child"), "{text}");
        // span 9's parent (1000) was evicted: it renders as a root.
        assert!(text.contains("  orphan"), "{text}");
    }
}
