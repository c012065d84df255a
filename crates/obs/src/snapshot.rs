//! Point-in-time views of a [`crate::MetricsRegistry`], serializable as
//! JSON through the in-tree serde shim. The snapshot is the wire format
//! of the control plane's `Request::Metrics` scrape.

use serde::{Deserialize, Serialize};

/// One counter at snapshot time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    pub name: String,
    pub value: f64,
}

/// One histogram at snapshot time. Values are in the unit recorded —
/// nanoseconds for every span-fed latency histogram in this workspace.
/// Quantiles are log-bucket estimates clamped to the observed range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded values, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Everything a registry knows, sorted by instrument name so the JSON is
/// deterministic and diffable.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub gauges: Vec<GaugeSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Value of a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The snapshot as a JSON string (same encoding as the wire format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_round_trip() {
        let snap = MetricsSnapshot {
            counters: vec![CounterSnapshot { name: "a.b".into(), value: 7 }],
            gauges: vec![GaugeSnapshot { name: "g".into(), value: -0.5 }],
            histograms: vec![HistogramSnapshot {
                name: "h".into(),
                count: 2,
                sum: 30,
                min: 10,
                max: 20,
                p50: 10,
                p90: 20,
                p99: 20,
            }],
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("a.b"), Some(7));
        assert_eq!(back.gauge("g"), Some(-0.5));
        assert_eq!(back.histogram("h").unwrap().mean(), 15.0);
        assert_eq!(back.counter("missing"), None);
    }
}
