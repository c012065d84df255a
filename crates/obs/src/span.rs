//! RAII timing spans.
//!
//! A [`Span`] measures the wall time between its construction and its
//! drop and records it, in nanoseconds, into the histogram named by the
//! span. Enter one with the [`crate::span!`] macro — which caches the
//! histogram handle in a per-call-site static so entering a span never
//! takes the registry lock — or with [`Span::on`] when the histogram
//! handle is already at hand (e.g. resolved per-request in the control
//! plane).
//!
//! Spans always feed their histogram. When the global flight recorder
//! is enabled *and* the thread has an active trace (see
//! [`crate::trace`]), a span additionally becomes a node in the trace's
//! causal tree: it allocates a span id on entry, parents to the
//! previously current span, and parks a [`crate::trace::TraceEvent`] on
//! close.
//!
//! A span's end time is captured **once** on close; the histogram value
//! and the trace event's duration reuse that single number, so the two
//! can never disagree. Callers that need the recorded duration call
//! [`Span::finish`] instead of reading [`Span::elapsed_ns`] and dropping
//! (which would measure twice).

use crate::field::FieldValue;
use crate::registry::Histogram;
use crate::trace;
use std::time::Instant;

/// An in-flight timed region. Ends (and records) on drop.
#[must_use = "a span records on drop; binding it to `_` ends it immediately"]
pub struct Span<'a> {
    name: &'static str,
    hist: &'a Histogram,
    fields: Vec<(&'static str, FieldValue)>,
    /// Entry time; taken on close, so a span records once.
    start: Option<Instant>,
    /// The tracing half, when the recorder and a trace are active.
    trace: Option<trace::OpenSpan>,
}

impl<'a> Span<'a> {
    /// Enter a span recording into `hist` under `name`.
    pub fn on(name: &'static str, hist: &'a Histogram) -> Self {
        Self::with_fields(name, hist, Vec::new())
    }

    /// As [`Span::on`], with structured fields for the trace event (when
    /// tracing).
    pub fn with_fields(
        name: &'static str,
        hist: &'a Histogram,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> Self {
        let trace = trace::begin_span();
        Self { name, hist, fields, start: Some(Instant::now()), trace }
    }

    /// Nanoseconds elapsed so far. This is a live peek; the value recorded at close is captured
    /// separately (use [`Span::finish`] to obtain that exact value).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.map_or(0, |s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// End the span now and return the duration that was recorded —
    /// the same single captured value the histogram and the trace event
    /// received.
    pub fn finish(mut self) -> u64 {
        self.close().unwrap_or_default()
    }

    /// Shared close path for [`Span::finish`] and `Drop`: capture the
    /// end time once and hand the one duration to both observers. `None`
    /// when the span was already closed.
    fn close(&mut self) -> Option<u64> {
        let start = self.start.take()?;
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(ns);
        if let Some(open) = self.trace.take() {
            trace::end_span(open, self.name, ns, std::mem::take(&mut self.fields));
        }
        Some(ns)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn span_records_into_histogram_on_drop() {
        let r = MetricsRegistry::new();
        let h = r.histogram("span.test");
        {
            let span = Span::on("span.test", &h);
            std::thread::sleep(std::time::Duration::from_millis(1));
            assert!(span.elapsed_ns() > 0);
        }
        let snap = r.snapshot();
        let hist = snap.histogram("span.test").unwrap();
        assert_eq!(hist.count, 1);
        assert!(hist.min >= 1_000_000, "slept ≥ 1 ms, recorded {} ns", hist.min);
    }

    #[test]
    fn finish_returns_exactly_the_recorded_value() {
        let r = MetricsRegistry::new();
        let h = r.histogram("span.finish");
        let span = Span::on("span.finish", &h);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ns = span.finish();
        // The single-sample histogram holds exactly the returned value:
        // min == max == the one captured end time.
        let snap = r.snapshot();
        let hist = snap.histogram("span.finish").unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(hist.min, ns);
        assert_eq!(hist.max, ns);
    }

    #[test]
    fn traced_span_duration_matches_histogram_exactly() {
        // One captured end time feeds both the histogram and the trace
        // event: the two durations are the same u64.
        let r = MetricsRegistry::new();
        let h = r.histogram("span.traced");
        // Leave the global recorder enabled rather than restoring: a
        // restore racing a parallel traced test could drop its event.
        let rec = trace::recorder();
        rec.set_enabled(true);
        let trace_id = trace::new_trace_id();
        let ns = {
            let _root = trace::start_trace(trace_id);
            let span = Span::on("span.traced", &h);
            std::thread::sleep(std::time::Duration::from_millis(1));
            span.finish()
        };
        let event = rec
            .snapshot()
            .into_iter()
            .find(|e| e.trace_id == trace_id)
            .expect("traced span reached the flight recorder");
        assert_eq!(event.dur_ns, ns);
        let snap = r.snapshot();
        let hist = snap.histogram("span.traced").unwrap();
        assert_eq!(hist.min, ns);
        assert_eq!(hist.max, ns);
    }
}
