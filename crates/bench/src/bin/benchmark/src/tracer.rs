//! Benchmark-side spans: name, start, end, parent and one id per
//! operation, kept in memory and folded to count / total / self time when
//! the run ends. The spans sit around the benchmark's own calls into each
//! layer's public functions; nothing inside the crates is instrumented.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Every span opened under one top-level span shares its id.
    op: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    next_op: u64,
}

/// One thread's span recorder. A disabled tracer takes the same calls and
/// records nothing, so the untraced and traced passes run the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), inner: RefCell::default() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, idx: None };
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        let op = match parent {
            Some(p) => inner.spans[p].op,
            None => {
                inner.next_op += 1;
                inner.next_op
            }
        };
        let idx = inner.spans.len();
        inner.spans.push(SpanRec { name, start_ns, end_ns: start_ns, parent, op });
        inner.stack.push(idx);
        SpanGuard { tracer: self, idx: Some(idx) }
    }

    /// Time `f` under a span and hand back its result with the wall time
    /// in seconds (measured whether or not the tracer records).
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let _span = self.enter(name);
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    }

    pub fn fold(&self) -> LayerTable {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table = LayerTable::default();
        for (s, children) in inner.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let row = table.rows.entry(s.name).or_default();
            row.count += 1;
            row.total_s += total as f64 / 1e9;
            row.self_s += total.saturating_sub(children) as f64 / 1e9;
        }
        table.operations = inner.spans.iter().map(|s| s.op).max().unwrap_or(0);
        table
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end_ns = self.tracer.now_ns();
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[idx].end_ns = end_ns;
            inner.stack.pop();
        }
    }
}

#[derive(Default, Clone)]
pub struct LayerRow {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Spans folded by name. The part of a span's interval that its child
/// spans cover is theirs; the rest is its self time.
#[derive(Default)]
pub struct LayerTable {
    pub rows: BTreeMap<&'static str, LayerRow>,
    pub operations: u64,
}

impl LayerTable {
    /// Add another thread's table into this one.
    pub fn merge(&mut self, other: LayerTable) {
        for (name, row) in other.rows {
            let mine = self.rows.entry(name).or_default();
            mine.count += row.count;
            mine.total_s += row.total_s;
            mine.self_s += row.self_s;
        }
        self.operations += other.operations;
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(0.0, |r| r.total_s)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.rows.get(name).map_or(0, |r| r.count)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<34}{:>9}{:>13}{:>13}\n",
            format!("span ({} operations)", self.operations),
            "count",
            "total s",
            "self s"
        );
        for (name, row) in &self.rows {
            out.push_str(&format!(
                "{:<34}{:>9}{:>13.6}{:>13.6}\n",
                name, row.count, row.total_s, row.self_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ops_are_shared() {
        let t = Tracer::new(true);
        {
            let _outer = t.enter("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = t.enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        {
            let _outer = t.enter("outer");
        }
        let table = t.fold();
        assert_eq!(table.count("outer"), 2);
        assert_eq!(table.count("inner"), 1);
        assert_eq!(table.operations, 2);
        let outer = &table.rows["outer"];
        let inner = &table.rows["inner"];
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let ((), secs) = t.timed("x", || ());
        assert!(secs >= 0.0);
        assert!(t.fold().rows.is_empty());
    }
}
