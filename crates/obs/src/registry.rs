//! The metrics registry and its instrument handles.
//!
//! A [`MetricsRegistry`] maps dotted instrument names to shared atomic
//! cells. Resolving a name ([`MetricsRegistry::counter`] /
//! [`MetricsRegistry::gauge`] / [`MetricsRegistry::histogram`]) takes the
//! registry lock once and returns a cheap cloneable handle; *recording*
//! through a handle is purely relaxed atomics, so handles can be used
//! from the auction's parallel pivot threads without introducing any
//! lock. The [`crate::counter!`] / [`crate::histogram!`] /
//! [`crate::span!`] macros cache the handle in a per-call-site static, so
//! steady-state instrumentation never touches the registry lock at all.
//! What instrumentation costs a round is gated by `poc-bench`'s
//! `trace_overhead` test (traced vs untraced, 5 % bar).

use crate::histogram::HistogramCells;
use crate::snapshot::{CounterSnapshot, GaugeSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Monotone event counter. Clone freely; clones share the same cell.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (use to batch per-iteration counts into one atomic op).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.cell.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// Log-bucket latency histogram handle (values in nanoseconds by
/// convention; see [`mod@crate::histogram`] for bucket semantics).
#[derive(Clone, Debug)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.cells.record(value);
    }

    /// Record a wall-clock duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.cells.count()
    }
}

/// One registered instrument.
enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCells>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// Named instruments. See the module docs for the locking discipline; in
/// short, the registry lock is a resolution-time cost only — never a
/// recording-time one.
pub struct MetricsRegistry {
    instruments: Mutex<BTreeMap<String, Instrument>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self { instruments: Mutex::new(BTreeMap::new()) }
    }

    /// Resolve (registering on first use) the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind —
    /// a programming error the obs unit tests are meant to catch early.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.instruments.lock().expect("registry poisoned");
        let cell = match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Arc::new(AtomicU64::new(0))))
        {
            Instrument::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        };
        Counter { cell }
    }

    /// Resolve (registering on first use) the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.instruments.lock().expect("registry poisoned");
        let cell = match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        {
            Instrument::Gauge(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        };
        Gauge { cell }
    }

    /// Resolve (registering on first use) the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.instruments.lock().expect("registry poisoned");
        let cells = match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Arc::new(HistogramCells::new())))
        {
            Instrument::Histogram(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        };
        Histogram { cells }
    }

    /// Point-in-time snapshot of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.instruments.lock().expect("registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, instrument) in map.iter() {
            match instrument {
                Instrument::Counter(c) => snap
                    .counters
                    .push(CounterSnapshot { name: name.clone(), value: c.load(Ordering::Relaxed) }),
                Instrument::Gauge(g) => snap.gauges.push(GaugeSnapshot {
                    name: name.clone(),
                    value: f64::from_bits(g.load(Ordering::Relaxed)),
                }),
                Instrument::Histogram(h) => snap.histograms.push(h.snapshot(name)),
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = MetricsRegistry::new();
        let c = r.counter("test.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // A second resolution shares the same cell.
        assert_eq!(r.counter("test.count").get(), 5);

        let g = r.gauge("test.gauge");
        g.set(1.5);
        assert_eq!(g.get(), 1.5);

        let snap = r.snapshot();
        assert_eq!(snap.counter("test.count"), Some(5));
        assert_eq!(snap.gauge("test.gauge"), Some(1.5));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_conflict_panics() {
        let r = MetricsRegistry::new();
        r.counter("conflict.metric");
        r.histogram("conflict.metric");
    }

    #[test]
    fn snapshot_is_sorted_and_json_parses() {
        let r = MetricsRegistry::new();
        r.counter("z.last").inc();
        r.counter("a.first").inc();
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        let json = serde_json::to_string(&snap).unwrap();
        let back: crate::MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn multithread_counter_increments_lose_nothing() {
        // Satellite stress test: N threads x M increments on one counter
        // (plus a histogram recording alongside) must lose no update.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 20_000;
        let r = MetricsRegistry::new();
        let c = r.counter("stress.count");
        let h = r.histogram("stress.hist");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record(t as u64 * PER_THREAD + i);
                    }
                });
            }
        });
        let expected = THREADS as u64 * PER_THREAD;
        assert_eq!(c.get(), expected);
        let snap = r.snapshot();
        assert_eq!(snap.counter("stress.count"), Some(expected));
        assert_eq!(snap.histogram("stress.hist").unwrap().count, expected);
    }
}
