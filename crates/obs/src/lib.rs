//! In-tree observability for the Public Option for the Core.
//!
//! Zero external dependencies (the serde/serde_json shims are in-tree):
//! a process-global [`MetricsRegistry`] of atomic counters, gauges, and
//! log-bucket latency histograms; RAII [`Span`]s that time a region into
//! the histogram named by the span; and a JSON snapshot exporter that the
//! control plane serves as its `Request::Metrics` scrape. On top of the
//! metrics layer sits causal tracing ([`trace`], [`ring`], [`chrome`]):
//! spans link into per-request trees inside a bounded flight recorder,
//! served as the `Request::Trace` scrape and exportable as Chrome
//! trace-event JSON.
//!
//! # Design rules
//!
//! * **Recording never locks.** Instrument handles are shared atomic
//!   cells; the registry lock is only taken when a *name* is resolved,
//!   and the [`counter!`] / [`histogram!`] / [`span!`] macros cache the
//!   resolved handle in a per-call-site static. The parallel Clarke-pivot
//!   path therefore pays a few relaxed atomic ops per record and nothing
//!   else — `poc-bench`'s `trace_overhead` test holds a traced round
//!   within 5 % of an untraced one.
//! * **One global registry.** Library crates record into
//!   [`global()`]; isolated registries ([`MetricsRegistry::new`]) exist
//!   for tests. The flight recorder is the only switch.
//! * **Names are dotted paths**, `<crate>.<subsystem>.<what>`:
//!   `flow.cache.hit`, `auction.round.parallel`, `ctrl.frames.read`.
//!   Histograms record nanoseconds unless the name says otherwise.
//!
//! # Example
//!
//! ```
//! use poc_obs::{counter, span};
//!
//! fn handle_one() {
//!     let _round = span!("demo.work", kind = "example");
//!     counter!("demo.handled").inc();
//!     // ... the span records its wall time when `_round` drops ...
//! }
//!
//! handle_one();
//! let snap = poc_obs::global().snapshot();
//! assert_eq!(snap.counter("demo.handled"), Some(1));
//! assert_eq!(snap.histogram("demo.work").unwrap().count, 1);
//! ```

pub mod chrome;
pub mod field;
pub mod histogram;
pub mod registry;
pub mod ring;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use field::FieldValue;
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use ring::FlightRecorder;
pub use snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
pub use span::Span;
pub use trace::{TraceCtx, TraceEvent, TraceEventWire, TraceWire};

use std::sync::OnceLock;

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-global registry every library crate records into,
/// created on first use.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Resolve a counter from the global registry, caching the handle in a
/// per-call-site static: the registry lock is taken at most once per
/// call site for the life of the process.
///
/// ```
/// poc_obs::counter!("doc.example.hits").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __POC_OBS_COUNTER: ::std::sync::OnceLock<$crate::Counter> =
            ::std::sync::OnceLock::new();
        __POC_OBS_COUNTER.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Resolve a gauge from the global registry (per-call-site cached, like
/// [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __POC_OBS_GAUGE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        __POC_OBS_GAUGE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Resolve a histogram from the global registry (per-call-site cached,
/// like [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __POC_OBS_HISTOGRAM: ::std::sync::OnceLock<$crate::Histogram> =
            ::std::sync::OnceLock::new();
        __POC_OBS_HISTOGRAM.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// Enter an RAII timing span recording into the histogram of the same
/// name; optional `key = value` fields ride along on the span's trace
/// event when the thread is tracing.
///
/// ```
/// let pivot = 3u32;
/// let _span = poc_obs::span!("doc.example.pivot", bp = pivot);
/// // ... timed work; records into histogram "doc.example.pivot" on drop
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::on($name, $crate::histogram!($name))
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::Span::with_fields(
            $name,
            $crate::histogram!($name),
            vec![$((stringify!($key), $crate::FieldValue::from($value))),+],
        )
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_share_one_global_instrument() {
        // Two call sites, same name → same cell.
        counter!("lib.macro.count").add(2);
        counter!("lib.macro.count").inc();
        assert_eq!(crate::global().counter("lib.macro.count").get(), 3);

        gauge!("lib.macro.gauge").set(4.5);
        assert_eq!(crate::global().gauge("lib.macro.gauge").get(), 4.5);

        {
            let _span = span!("lib.macro.span", step = 1u32);
        }
        assert!(histogram!("lib.macro.span").count() >= 1);
    }
}
