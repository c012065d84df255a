//! Bounded, drop-oldest flight recorder for trace events.
//!
//! The recorder is a fixed-capacity ring of [`TraceEvent`] slots. A
//! writer claims a slot with one `fetch_add` on the ring head (the
//! claim itself is lock-free and wait-free), then parks the event in
//! the claimed slot under that slot's private mutex. Slot mutexes are
//! effectively uncontended: two writers only meet on the same slot once
//! the ring has lapped itself, and even then the critical section is a
//! single `Option` swap. There is no allocation on the record path
//! beyond the fields the span already owns — the ring never grows.
//!
//! When the ring laps, the newest event evicts the oldest (drop-oldest):
//! the flight-recorder contract is "the most recent history survives",
//! which is what post-hoc debugging of a slow round wants. Every evicted
//! event increments both the recorder-local [`FlightRecorder::dropped`]
//! count and the global `obs.trace.dropped` counter.
//!
//! Like the metrics registry, a disabled recorder costs one relaxed
//! atomic load per would-be event; the process-global recorder starts
//! disabled.

use crate::trace::TraceEvent;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Slot count of the process-global recorder (see
/// [`crate::trace::recorder`]), 16 Ki. At roughly 150 bytes per slot this
/// bounds the recorder near 2.5 MiB.
pub(crate) const DEFAULT_CAPACITY: usize = 16 * 1024;

/// One ring slot: the claim ticket that last wrote it plus the event.
/// `ticket` disambiguates racing writers that lapped into the same slot
/// — the higher ticket (the newer event) must win for drop-oldest to
/// hold even under that race.
struct Slot {
    cell: Mutex<Option<(u64, TraceEvent)>>,
}

/// A bounded drop-oldest ring of [`TraceEvent`]s.
pub struct FlightRecorder {
    enabled: AtomicBool,
    /// Total events ever claimed; `head % capacity` is the next slot.
    head: AtomicU64,
    /// Events evicted (or lost to a lap race) since construction.
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

impl FlightRecorder {
    /// A recorder with `capacity` slots, initially enabled. Isolated
    /// recorders (tests, the wraparound property) are built this way;
    /// production code records into [`crate::trace::recorder`].
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs at least one slot");
        let slots = (0..capacity).map(|_| Slot { cell: Mutex::new(None) }).collect();
        Self {
            enabled: AtomicBool::new(true),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots,
        }
    }

    /// Flip recording on or off. Off, [`FlightRecorder::record`] is one
    /// relaxed load and a branch — the no-op discipline `Span` uses.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Park one event, evicting the oldest if the ring has lapped.
    pub fn record(&self, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let mut cell = slot.cell.lock().expect("slot mutex poisoned");
        match &*cell {
            // A racing writer a full lap ahead already parked a *newer*
            // event here; keeping it (and dropping ours) preserves
            // drop-oldest.
            Some((resident, _)) if *resident > ticket => drop(cell),
            Some(_) => {
                *cell = Some((ticket, event));
                drop(cell);
            }
            None => {
                *cell = Some((ticket, event));
                return;
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
        crate::counter!("obs.trace.dropped").inc();
    }

    /// Events evicted so far (the recorder-local view of the global
    /// `obs.trace.dropped` counter).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out the surviving events, oldest first. The ring keeps
    /// recording while the copy runs; each slot is locked only for its
    /// own clone.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut seen: Vec<(u64, TraceEvent)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            if let Some((ticket, event)) = &*slot.cell.lock().expect("slot mutex poisoned") {
                seen.push((*ticket, event.clone()));
            }
        }
        seen.sort_by_key(|(ticket, _)| *ticket);
        seen.into_iter().map(|(_, event)| event).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(n: u64) -> TraceEvent {
        TraceEvent {
            trace_id: 1,
            span_id: n,
            parent_id: 0,
            name: "ring.test",
            start_ns: n,
            dur_ns: 1,
            thread: 0,
            fields: Vec::new(),
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let ring = FlightRecorder::with_capacity(8);
        for n in 0..20 {
            ring.record(event(n));
        }
        assert_eq!(ring.dropped(), 12);
        let survivors: Vec<u64> = ring.snapshot().iter().map(|e| e.span_id).collect();
        assert_eq!(survivors, (12..20).collect::<Vec<u64>>(), "drop-oldest keeps the tail");
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let ring = FlightRecorder::with_capacity(4);
        ring.set_enabled(false);
        ring.record(event(0));
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn concurrent_writers_never_lose_the_ring_invariants() {
        let ring = std::sync::Arc::new(FlightRecorder::with_capacity(64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ring = std::sync::Arc::clone(&ring);
                scope.spawn(move || {
                    for n in 0..1000 {
                        ring.record(event(t * 1000 + n));
                    }
                });
            }
        });
        let events = ring.snapshot();
        assert_eq!(events.len(), 64, "a full ring holds exactly its capacity");
        assert_eq!(ring.dropped(), 4000 - 64);
    }
}
