//! Fixed-bucket log-scale histogram with lock-free recording.
//!
//! One bucket per power of two of the recorded value (nanoseconds by
//! convention): bucket 0 holds `[0, 2)`, bucket `i ≥ 1` holds
//! `[2^i, 2^(i+1))`, up to bucket 63 for everything at or above `2^63`.
//! Recording is a handful of relaxed atomic operations — no lock, so a
//! histogram handle can be shared freely across the auction's parallel
//! pivot threads. Quantiles are estimated from the bucket counts at
//! snapshot time: a quantile resolves to its bucket's inclusive upper
//! edge, clamped into the observed `[min, max]` range (which makes the
//! one-sample snapshot exact).

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets (`u64` value range).
pub(crate) const N_BUCKETS: usize = 64;

/// Bucket index for a recorded value: `0` for `{0, 1}`, otherwise
/// `floor(log2(value))`.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < 2 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// Inclusive upper edge of bucket `i` (the largest value it can hold).
pub(crate) fn bucket_upper_edge(i: usize) -> u64 {
    assert!(i < N_BUCKETS, "bucket out of range");
    if i == 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// Shared histogram cells. All operations are relaxed atomics; totals are
/// exact under concurrency, quantiles are bucket-resolution estimates.
#[derive(Debug)]
pub(crate) struct HistogramCells {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCells {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one observation (lock-free).
    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot with quantile estimates. `name` is copied
    /// into the snapshot so it is self-describing.
    pub(crate) fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return HistogramSnapshot {
                name: name.to_string(),
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0,
            };
        }
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let q = |fraction: f64| -> u64 {
            // Rank of the requested quantile, 1-based, within the bucket
            // counts we summed above (immune to concurrent recording).
            let rank = ((fraction * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper_edge(i).clamp(min, max);
                }
            }
            max
        };
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        // Values landing exactly on an edge go to the bucket whose lower
        // edge they are.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        for i in 1..63 {
            let edge = 1u64 << i;
            assert_eq!(bucket_index(edge), i, "2^{i} starts bucket {i}");
            assert_eq!(bucket_index(edge - 1), i - 1, "2^{i}-1 ends bucket {}", i - 1);
            assert_eq!(bucket_upper_edge(i - 1), edge - 1);
        }
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_edge(63), u64::MAX);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let h = HistogramCells::new();
        let s = h.snapshot("empty");
        assert_eq!(s.count, 0);
        assert_eq!((s.min, s.max, s.p50, s.p90, s.p99), (0, 0, 0, 0, 0));
    }

    #[test]
    fn one_sample_snapshot_is_exact() {
        let h = HistogramCells::new();
        h.record(777);
        let s = h.snapshot("one");
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 777);
        // min == max == the sample, and clamping makes every quantile exact.
        assert_eq!((s.min, s.max), (777, 777));
        assert_eq!((s.p50, s.p90, s.p99), (777, 777, 777));
    }

    #[test]
    fn quantiles_track_bucket_mass() {
        let h = HistogramCells::new();
        // 90 fast observations (bucket of 100) and 10 slow (bucket of 10_000).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        let s = h.snapshot("mix");
        assert_eq!(s.count, 100);
        // p50 lands in the fast bucket, p99 in the slow one.
        assert!(s.p50 < 256, "p50 = {}", s.p50);
        assert!(s.p99 >= 8192, "p99 = {}", s.p99);
        assert!(s.p90 <= s.p99);
        assert_eq!(s.max, 10_000);
        assert_eq!(s.min, 100);
    }
}
