//! One run's result: operations attempted and failed, named checks, metric
//! values with their quartiles, and the line the driver reads.

use crate::catalog::{self, Metric};
use crate::stats;
use crate::sys::Provenance;
use crate::tracer::LayerTable;
use std::collections::BTreeMap;
use std::fmt::Display;

#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MetricOut {
    pub name: String,
    pub unit: String,
    /// The median of `n` samples (or the single measured value).
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// What `--out` writes and `compare` reads.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ResultFile {
    pub provenance: Provenance,
    pub workload: String,
    pub traced: bool,
    pub correct: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub failed_checks: Vec<String>,
    pub metrics: Vec<MetricOut>,
}

pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub failed_checks: Vec<String>,
    metrics: BTreeMap<&'static str, MetricOut>,
    pub table: LayerTable,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Self {
            workload,
            traced,
            ops_attempted: 0,
            ops_failed: 0,
            failed_checks: Vec::new(),
            metrics: BTreeMap::new(),
            table: LayerTable::default(),
        }
    }

    /// Count one operation. A failed one is named on stderr and its timing
    /// sample never reaches a median (the caller gets `None`).
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.ops_attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.ops_failed += 1;
                eprintln!("operation failed: {what}: {e}");
                None
            }
        }
    }

    /// An output check. A failed one makes the run incorrect and is named.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            let line = format!("{name}: {}", detail());
            eprintln!("CHECK FAILED: {line}");
            self.failed_checks.push(line);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_samples(name, &[value]);
    }

    /// Record a metric as the median of its samples, with quartiles.
    pub fn set_samples(&mut self, name: &'static str, samples: &[f64]) {
        let (q1, value, q3) = stats::quartiles(samples);
        self.metrics.insert(
            name,
            MetricOut {
                name: name.into(),
                unit: catalog::unit_of(name).into(),
                value,
                q1,
                q3,
                n: samples.len(),
            },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }

    fn wanted(&self) -> &'static [Metric] {
        if self.traced {
            catalog::PER_LAYER
        } else {
            catalog::END_TO_END
        }
    }

    /// Close the run: every end-to-end metric must have been measured and
    /// be non-zero; a per-layer metric of a layer the workload never
    /// entered reads 0.
    pub fn finish(&mut self) {
        if self.ops_attempted == 0 {
            self.check("operations", false, || "no operation was attempted".into());
        }
        for m in self.wanted() {
            let measured = self.metrics.get(m.name).map(|v| v.value);
            let usable = measured.is_some_and(|v| v.is_finite() && (self.traced || v > 0.0));
            if !usable {
                if !self.traced {
                    self.check(m.name, false, || format!("not measured (got {measured:?})"));
                }
                self.set(m.name, 0.0);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }

    pub fn print_human(&self, provenance: &Provenance) {
        println!(
            "provenance: {}",
            serde_json::to_string(provenance).expect("provenance serializes")
        );
        if self.traced {
            print!("{}", self.table.render());
        }
        println!(
            "{:<36}{:>16} {:<9}{:>14}{:>14}{:>5}",
            "metric", "median", "unit", "q1", "q3", "n"
        );
        let mut zeros = 0;
        for v in self.wanted().iter().filter_map(|m| self.metrics.get(m.name)) {
            if self.traced && v.value == 0.0 {
                zeros += 1;
                continue;
            }
            println!(
                "{:<36}{:>16.6} {:<9}{:>14.6}{:>14.6}{:>5}",
                v.name, v.value, v.unit, v.q1, v.q3, v.n
            );
        }
        if zeros > 0 {
            println!("{zeros} per-layer metrics read 0: layers this workload does not enter");
        }
        println!(
            "ops_attempted {} ops_failed {} checks {}",
            self.ops_attempted,
            self.ops_failed,
            if self.correct() { "all passed".to_string() } else { self.failed_checks.join("; ") }
        );
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, values with all their digits.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .wanted()
            .iter()
            .filter_map(|m| self.metrics.get(m.name))
            .map(|v| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", v.name, v.value, v.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops_attempted.max(1),
            self.ops_failed,
            metrics.join(", ")
        )
    }

    pub fn to_file(&self, provenance: &Provenance) -> ResultFile {
        ResultFile {
            provenance: provenance.clone(),
            workload: self.workload.into(),
            traced: self.traced,
            correct: self.correct(),
            ops_attempted: self.ops_attempted,
            ops_failed: self.ops_failed,
            failed_checks: self.failed_checks.clone(),
            metrics: self
                .wanted()
                .iter()
                .filter_map(|m| self.metrics.get(m.name))
                .cloned()
                .collect(),
        }
    }
}
