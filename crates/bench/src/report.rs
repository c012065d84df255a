//! Machine-readable bench artifacts (`BENCH_*.json`).
//!
//! The ROADMAP asks for a perf trajectory across PRs; these types are the
//! schema of the artifacts the pivot benches emit. They round-trip through
//! serde so CI can re-read an emitted file and validate it structurally
//! (see `bench_pivot --validate`).

use serde::{Deserialize, Serialize};

/// Instance shape a report was measured on.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleInfo {
    /// Generator preset: "small", "paper", or "scale".
    pub preset: String,
    pub n_routers: usize,
    pub n_links: usize,
    pub n_bps: usize,
}

/// One sampled Clarke-pivot re-selection, timed cold then warm.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PivotSample {
    /// The withdrawn BP.
    pub bp: u32,
    /// Wall time of the from-scratch re-selection, milliseconds.
    pub cold_ms: f64,
    /// Wall time of the warm-started re-selection, milliseconds.
    pub warm_ms: f64,
    /// `cold_ms / warm_ms`.
    pub speedup: f64,
    /// Flows reused from the witness across the warm run's probes.
    pub reused_flows: u64,
    /// Flows re-routed incrementally across the warm run's probes.
    pub rerouted_flows: u64,
    /// Probes that fell back to a from-scratch evaluation.
    pub fallbacks: u64,
}

/// The `BENCH_pivot.json` artifact: warm-vs-cold pivot re-selections on
/// one instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PivotBenchReport {
    /// Artifact discriminator; always "pivot".
    pub bench: String,
    pub scale: ScaleInfo,
    /// Paper constraint label ("#1" / "#2" / "#3").
    pub constraint: String,
    /// Pivot scheduling the samples model ("sequential": each sample is
    /// one pivot re-selection run on its own).
    pub pivot_mode: String,
    pub samples: Vec<PivotSample>,
    pub total_cold_ms: f64,
    pub total_warm_ms: f64,
    /// `total_cold_ms / total_warm_ms` — the headline warm-start speedup.
    pub speedup: f64,
    /// Hit rate of the shared [`poc_flow::FeasibilityCache`] over the cold
    /// runs (warm runs keep private memos and don't touch it).
    pub cold_cache_hit_rate: f64,
}

impl PivotBenchReport {
    /// Structural validation of an emitted artifact: the checks CI runs
    /// against a freshly deserialized file.
    pub fn validate(&self) -> Result<(), String> {
        if self.bench != "pivot" {
            return Err(format!("bench discriminator must be \"pivot\", got {:?}", self.bench));
        }
        if self.samples.is_empty() {
            return Err("no pivot samples recorded".into());
        }
        if self.scale.n_links == 0 || self.scale.n_routers == 0 || self.scale.n_bps == 0 {
            return Err("scale info has zero-sized instance".into());
        }
        for s in &self.samples {
            if !(s.cold_ms.is_finite()
                && s.cold_ms >= 0.0
                && s.warm_ms.is_finite()
                && s.warm_ms >= 0.0)
            {
                return Err(format!("non-finite sample timing for bp {}", s.bp));
            }
        }
        if !(self.speedup.is_finite() && self.speedup > 0.0) {
            return Err(format!("speedup must be finite and positive, got {}", self.speedup));
        }
        if !(0.0..=1.0).contains(&self.cold_cache_hit_rate) {
            return Err(format!("cache hit rate outside [0,1]: {}", self.cold_cache_hit_rate));
        }
        Ok(())
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string(self).expect("report serializes"))
    }

    pub fn read(path: &std::path::Path) -> Result<Self, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        serde_json::from_str(&raw).map_err(|e| format!("parse {path:?}: {e}"))
    }
}

/// One measured phase of the control-plane throughput bench: a client
/// fleet driving a live durable server end to end (TCP framing,
/// admission, sharded apply, group-commit journal).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CtrlPhase {
    /// "sharded" (the PR's pipeline) or "baseline" (1 shard, the
    /// pre-sharding per-mutation-fsync serialization).
    pub label: String,
    /// Usage-ledger shards the server ran with.
    pub shards: usize,
    /// Concurrent client connections driving load.
    pub clients: usize,
    /// Mutations acknowledged across the phase.
    pub requests: u64,
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
    /// Sustained acknowledged-mutation throughput (`requests / elapsed_s`).
    pub req_per_sec: f64,
    /// Client-observed request latency percentiles, microseconds.
    pub p50_us: f64,
    pub p99_us: f64,
    /// `Response::Busy` rejections clients absorbed via retry.
    pub busy_rejections: u64,
    /// Journal records appended / fsync batches committed during the
    /// phase: `appends / fsyncs` is the realized group-commit ratio.
    pub appends: u64,
    pub fsyncs: u64,
    pub group_commits: u64,
    /// Group-commit batch-size distribution (mutations per fsync).
    pub batch_p50: f64,
    pub batch_p99: f64,
    pub batch_mean: f64,
}

/// The `BENCH_ctrl.json` artifact: sustained durable throughput of the
/// sharded group-commit control plane against the serialized baseline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CtrlBenchReport {
    /// Artifact discriminator; always "ctrl".
    pub bench: String,
    /// "quick" (CI load-smoke) or "full".
    pub mode: String,
    /// Independent repetitions per phase; each reported phase is the
    /// median trial by `req_per_sec`, so a single disk-mood outlier
    /// cannot set the headline in either direction.
    pub trials: usize,
    pub phases: Vec<CtrlPhase>,
    /// Sharded req/s over baseline req/s — the headline number.
    pub speedup: f64,
}

impl CtrlBenchReport {
    /// Structural validation mirroring [`PivotBenchReport::validate`]:
    /// the checks CI's `--validate` pass runs on the emitted file.
    pub fn validate(&self) -> Result<(), String> {
        if self.bench != "ctrl" {
            return Err(format!("bench discriminator must be \"ctrl\", got {:?}", self.bench));
        }
        if self.phases.is_empty() {
            return Err("no phases recorded".into());
        }
        if self.trials == 0 {
            return Err("trials must be at least 1".into());
        }
        for p in &self.phases {
            if p.shards == 0 || p.clients == 0 || p.requests == 0 {
                return Err(format!("phase {:?} measured nothing", p.label));
            }
            let timings = [p.elapsed_s, p.req_per_sec, p.p50_us, p.p99_us];
            if timings.iter().any(|t| !(t.is_finite() && *t > 0.0)) {
                return Err(format!("non-finite or non-positive timing in phase {:?}", p.label));
            }
            if p.p99_us < p.p50_us {
                return Err(format!("p99 below p50 in phase {:?}", p.label));
            }
            if p.appends == 0 || p.fsyncs == 0 {
                return Err(format!("phase {:?} journaled nothing", p.label));
            }
            if p.fsyncs > p.appends {
                return Err(format!("phase {:?} fsynced more than it appended", p.label));
            }
            let batches = [p.batch_p50, p.batch_p99, p.batch_mean];
            if batches.iter().any(|b| !(b.is_finite() && *b >= 1.0)) {
                return Err(format!("batch sizes below 1 in phase {:?}", p.label));
            }
        }
        if !(self.speedup.is_finite() && self.speedup > 0.0) {
            return Err(format!("speedup must be finite and positive, got {}", self.speedup));
        }
        Ok(())
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string(self).expect("report serializes"))
    }

    pub fn read(path: &std::path::Path) -> Result<Self, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        serde_json::from_str(&raw).map_err(|e| format!("parse {path:?}: {e}"))
    }
}

/// One timed run of the packet engine on a fixed workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DataplaneTrial {
    /// Events popped off the queue across the run.
    pub events: u64,
    pub packets_injected: u64,
    pub packets_delivered: u64,
    pub packets_dropped: u64,
    /// Wall time of the run, seconds.
    pub elapsed_s: f64,
    pub events_per_sec: f64,
    pub packets_per_sec: f64,
}

/// The `BENCH_dataplane.json` artifact: packet-engine event throughput.
/// The headline numbers are the median trial's, so one scheduler hiccup
/// cannot set them in either direction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DataplaneBenchReport {
    /// Artifact discriminator; always "dataplane".
    pub bench: String,
    /// "quick" (CI dataplane-smoke) or "full".
    pub mode: String,
    pub scale: ScaleInfo,
    /// Simulated horizon, nanoseconds.
    pub horizon_ns: u64,
    /// Packet sources standing in for `n_user_flows` user flows.
    pub n_sources: usize,
    pub n_user_flows: u64,
    pub trials: Vec<DataplaneTrial>,
    /// Median-trial throughput — the headline numbers.
    pub events_per_sec: f64,
    pub packets_per_sec: f64,
    /// Median-trial delivered availability (delivered/offered bytes).
    pub availability: f64,
}

impl DataplaneBenchReport {
    /// Structural validation mirroring [`PivotBenchReport::validate`]:
    /// the checks CI's `--validate` pass runs on the emitted file.
    pub fn validate(&self) -> Result<(), String> {
        if self.bench != "dataplane" {
            return Err(format!("bench discriminator must be \"dataplane\", got {:?}", self.bench));
        }
        if self.trials.is_empty() {
            return Err("no trials recorded".into());
        }
        if self.scale.n_links == 0 || self.scale.n_routers == 0 || self.scale.n_bps == 0 {
            return Err("scale info has zero-sized instance".into());
        }
        if self.horizon_ns == 0 {
            return Err("horizon must be positive".into());
        }
        if self.n_sources == 0 || self.n_user_flows < self.n_sources as u64 {
            return Err(format!(
                "sources/user-flows inconsistent: {} sources, {} user flows",
                self.n_sources, self.n_user_flows
            ));
        }
        for t in &self.trials {
            if t.events == 0 || t.packets_injected == 0 {
                return Err("a trial simulated nothing".into());
            }
            if t.packets_delivered + t.packets_dropped > t.packets_injected {
                return Err("delivered + dropped exceeds injected".into());
            }
            let rates = [t.elapsed_s, t.events_per_sec, t.packets_per_sec];
            if rates.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
                return Err("non-finite or non-positive trial timing".into());
            }
        }
        let headline = [self.events_per_sec, self.packets_per_sec];
        if headline.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
            return Err(format!(
                "headline throughput must be finite and positive, got {} ev/s {} pkt/s",
                self.events_per_sec, self.packets_per_sec
            ));
        }
        if !self.availability.is_finite() || !(0.0..=1.0 + 1e-9).contains(&self.availability) {
            return Err(format!("availability outside [0,1]: {}", self.availability));
        }
        Ok(())
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string(self).expect("report serializes"))
    }

    pub fn read(path: &std::path::Path) -> Result<Self, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        serde_json::from_str(&raw).map_err(|e| format!("parse {path:?}: {e}"))
    }
}

/// One planned-and-executed lease migration (optionally with faults
/// injected mid-walk), timed and safety-audited.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransitionSample {
    /// What the sample exercises, e.g. "expand x1.5" or "drill cut=1".
    pub label: String,
    /// Demand-forecast factor that picked the target set.
    pub headroom: f64,
    pub n_from: usize,
    pub n_to: usize,
    /// Steps of the initial plan.
    pub plan_steps: usize,
    /// Oracle probes the planner spent.
    pub plan_probes: u64,
    /// Wall time of planning alone, milliseconds.
    pub plan_ms: f64,
    /// Wall time of the full drill (plan + execute + any replans),
    /// milliseconds.
    pub run_ms: f64,
    /// Steps actually applied across the walk, replans included.
    pub steps_applied: usize,
    pub replans: u32,
    pub rollbacks: u32,
    /// "committed", "rolled_back", or "force_restored".
    pub outcome: String,
    /// Applied intermediate states an independent oracle rejected —
    /// the safety invariant; validation requires exactly zero.
    pub unsafe_intermediates: u64,
}

/// The `BENCH_transition.json` artifact: safe-migration planning and
/// execution cost, including a mid-transition failure drill. Validation
/// doubles as the safety gate: any sample with a rejected intermediate
/// state fails CI.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransitionBenchReport {
    /// Artifact discriminator; always "transition".
    pub bench: String,
    /// "quick" (CI transition-smoke) or "full".
    pub mode: String,
    pub scale: ScaleInfo,
    /// Paper constraint label ("#1" / "#2" / "#3").
    pub constraint: String,
    pub samples: Vec<TransitionSample>,
    pub total_plan_ms: f64,
    pub total_run_ms: f64,
}

impl TransitionBenchReport {
    /// Structural validation mirroring [`PivotBenchReport::validate`]:
    /// the checks CI's `--validate` pass runs on the emitted file.
    pub fn validate(&self) -> Result<(), String> {
        if self.bench != "transition" {
            return Err(format!(
                "bench discriminator must be \"transition\", got {:?}",
                self.bench
            ));
        }
        if self.samples.is_empty() {
            return Err("no transition samples recorded".into());
        }
        if self.scale.n_links == 0 || self.scale.n_routers == 0 || self.scale.n_bps == 0 {
            return Err("scale info has zero-sized instance".into());
        }
        for s in &self.samples {
            if !(s.headroom.is_finite() && s.headroom > 0.0) {
                return Err(format!("sample {:?}: bad headroom {}", s.label, s.headroom));
            }
            if s.n_from == 0 || s.n_to == 0 {
                return Err(format!("sample {:?}: empty endpoint set", s.label));
            }
            let timings = [s.plan_ms, s.run_ms];
            if timings.iter().any(|t| !(t.is_finite() && *t >= 0.0)) {
                return Err(format!("sample {:?}: non-finite timing", s.label));
            }
            if !matches!(s.outcome.as_str(), "committed" | "rolled_back" | "force_restored") {
                return Err(format!("sample {:?}: unknown outcome {:?}", s.label, s.outcome));
            }
            if s.unsafe_intermediates != 0 {
                return Err(format!(
                    "sample {:?}: {} intermediate states failed verification — the safety \
                     invariant is broken",
                    s.label, s.unsafe_intermediates
                ));
            }
        }
        let totals = [self.total_plan_ms, self.total_run_ms];
        if totals.iter().any(|t| !(t.is_finite() && *t >= 0.0)) {
            return Err("non-finite total timing".into());
        }
        Ok(())
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string(self).expect("report serializes"))
    }

    pub fn read(path: &std::path::Path) -> Result<Self, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        serde_json::from_str(&raw).map_err(|e| format!("parse {path:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PivotBenchReport {
        PivotBenchReport {
            bench: "pivot".into(),
            scale: ScaleInfo { preset: "scale".into(), n_routers: 56, n_links: 13097, n_bps: 100 },
            constraint: "#1".into(),
            pivot_mode: "sequential".into(),
            samples: vec![PivotSample {
                bp: 3,
                cold_ms: 100.0,
                warm_ms: 40.0,
                speedup: 2.5,
                reused_flows: 1000,
                rerouted_flows: 50,
                fallbacks: 1,
            }],
            total_cold_ms: 100.0,
            total_warm_ms: 40.0,
            speedup: 2.5,
            cold_cache_hit_rate: 0.3,
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let r = sample_report();
        r.validate().unwrap();
        let json = serde_json::to_string(&r).unwrap();
        let back: PivotBenchReport = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back.samples.len(), 1);
        assert_eq!(back.scale.n_links, 13097);
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let mut r = sample_report();
        r.bench = "other".into();
        assert!(r.validate().is_err());

        let mut r = sample_report();
        r.samples.clear();
        assert!(r.validate().is_err());

        let mut r = sample_report();
        r.speedup = f64::NAN;
        assert!(r.validate().is_err());

        let mut r = sample_report();
        r.cold_cache_hit_rate = 1.5;
        assert!(r.validate().is_err());
    }

    fn sample_ctrl_report() -> CtrlBenchReport {
        CtrlBenchReport {
            bench: "ctrl".into(),
            mode: "quick".into(),
            trials: 1,
            phases: vec![
                CtrlPhase {
                    label: "sharded".into(),
                    shards: 8,
                    clients: 8,
                    requests: 4000,
                    elapsed_s: 0.5,
                    req_per_sec: 8000.0,
                    p50_us: 700.0,
                    p99_us: 2100.0,
                    busy_rejections: 0,
                    appends: 4000,
                    fsyncs: 900,
                    group_commits: 900,
                    batch_p50: 4.0,
                    batch_p99: 8.0,
                    batch_mean: 4.4,
                },
                CtrlPhase {
                    label: "baseline".into(),
                    shards: 1,
                    clients: 8,
                    requests: 800,
                    elapsed_s: 0.6,
                    req_per_sec: 1333.0,
                    p50_us: 5200.0,
                    p99_us: 9100.0,
                    busy_rejections: 0,
                    appends: 800,
                    fsyncs: 800,
                    group_commits: 800,
                    batch_p50: 1.0,
                    batch_p99: 1.0,
                    batch_mean: 1.0,
                },
            ],
            speedup: 6.0,
        }
    }

    #[test]
    fn ctrl_report_round_trips_and_validates() {
        let r = sample_ctrl_report();
        r.validate().unwrap();
        let json = serde_json::to_string(&r).unwrap();
        let back: CtrlBenchReport = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back.phases.len(), 2);
        assert_eq!(back.phases[0].shards, 8);
    }

    #[test]
    fn ctrl_validation_rejects_malformed_reports() {
        let mut r = sample_ctrl_report();
        r.bench = "pivot".into();
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        r.phases.clear();
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        r.phases[0].req_per_sec = f64::NAN;
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        r.phases[0].p99_us = r.phases[0].p50_us / 2.0;
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        r.phases[0].fsyncs = r.phases[0].appends + 1;
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        r.phases[1].batch_mean = 0.5;
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        r.trials = 0;
        assert!(r.validate().is_err());

        let mut r = sample_ctrl_report();
        r.speedup = 0.0;
        assert!(r.validate().is_err());
    }

    fn sample_transition_report() -> TransitionBenchReport {
        TransitionBenchReport {
            bench: "transition".into(),
            mode: "quick".into(),
            scale: ScaleInfo { preset: "small".into(), n_routers: 14, n_links: 220, n_bps: 10 },
            constraint: "#1".into(),
            samples: vec![TransitionSample {
                label: "expand x1.5".into(),
                headroom: 1.5,
                n_from: 23,
                n_to: 29,
                plan_steps: 34,
                plan_probes: 40,
                plan_ms: 12.0,
                run_ms: 55.0,
                steps_applied: 34,
                replans: 0,
                rollbacks: 0,
                outcome: "committed".into(),
                unsafe_intermediates: 0,
            }],
            total_plan_ms: 12.0,
            total_run_ms: 55.0,
        }
    }

    #[test]
    fn transition_report_round_trips_and_validates() {
        let r = sample_transition_report();
        r.validate().unwrap();
        let json = serde_json::to_string(&r).unwrap();
        let back: TransitionBenchReport = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back.samples.len(), 1);
        assert_eq!(back.samples[0].plan_steps, 34);
    }

    #[test]
    fn transition_validation_rejects_malformed_reports() {
        let mut r = sample_transition_report();
        r.bench = "pivot".into();
        assert!(r.validate().is_err());

        let mut r = sample_transition_report();
        r.samples.clear();
        assert!(r.validate().is_err());

        let mut r = sample_transition_report();
        r.samples[0].headroom = f64::NAN;
        assert!(r.validate().is_err());

        let mut r = sample_transition_report();
        r.samples[0].outcome = "exploded".into();
        assert!(r.validate().is_err());

        // The safety gate: a rejected intermediate fails validation.
        let mut r = sample_transition_report();
        r.samples[0].unsafe_intermediates = 1;
        assert!(r.validate().is_err());

        let mut r = sample_transition_report();
        r.total_run_ms = f64::INFINITY;
        assert!(r.validate().is_err());
    }

    fn sample_dataplane_report() -> DataplaneBenchReport {
        DataplaneBenchReport {
            bench: "dataplane".into(),
            mode: "quick".into(),
            scale: ScaleInfo { preset: "small".into(), n_routers: 14, n_links: 220, n_bps: 10 },
            horizon_ns: 20_000_000,
            n_sources: 72,
            n_user_flows: 624_318,
            trials: vec![DataplaneTrial {
                events: 9_000_000,
                packets_injected: 4_000_000,
                packets_delivered: 1_400_000,
                packets_dropped: 1_100_000,
                elapsed_s: 0.5,
                events_per_sec: 18_000_000.0,
                packets_per_sec: 8_000_000.0,
            }],
            events_per_sec: 18_000_000.0,
            packets_per_sec: 8_000_000.0,
            availability: 0.33,
        }
    }

    #[test]
    fn dataplane_report_round_trips_and_validates() {
        let r = sample_dataplane_report();
        r.validate().unwrap();
        let json = serde_json::to_string(&r).unwrap();
        let back: DataplaneBenchReport = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back.trials.len(), 1);
        assert_eq!(back.n_user_flows, 624_318);
    }

    #[test]
    fn dataplane_validation_rejects_malformed_reports() {
        let mut r = sample_dataplane_report();
        r.bench = "ctrl".into();
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        r.trials.clear();
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        r.trials[0].packets_delivered = r.trials[0].packets_injected + 1;
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        r.trials[0].events_per_sec = f64::NAN;
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        r.events_per_sec = 0.0;
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        r.availability = 1.5;
        assert!(r.validate().is_err());

        let mut r = sample_dataplane_report();
        r.n_user_flows = 3;
        assert!(r.validate().is_err());
    }
}
