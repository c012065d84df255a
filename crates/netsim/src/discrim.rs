//! Observable discrimination: the data-plane half of experiment E-N1.
//!
//! The ToS engine (`poc-core::tos`) rules on *declared* policies; a
//! cheating LMP would not declare. On the wire, cheating is a tagged
//! traffic class throttled at ingress ([`crate::engine::IngressThrottle`]);
//! this module's detector compares normalized packet goodput between a
//! suspect class and a control class, the way an auditor (or the POC,
//! §3.4's "if widespread cheating is anticipated" discussion) would
//! measure it.

use crate::engine::EngineReport;
use serde::{Deserialize, Serialize};

/// A suspected throttle to probe for.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ThrottleSpec {
    /// Traffic class suspected of being throttled.
    pub suspect_tag: String,
    /// Reference class expected to receive normal service.
    pub control_tag: String,
    /// Flag when suspect availability falls below `threshold` × control.
    pub threshold: f64,
}

impl Default for ThrottleSpec {
    fn default() -> Self {
        Self { suspect_tag: "suspect".into(), control_tag: "control".into(), threshold: 0.8 }
    }
}

/// Detector verdict.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThrottleFinding {
    pub suspect_availability: f64,
    pub control_availability: f64,
    /// suspect / control.
    pub ratio: f64,
    pub throttled: bool,
}

/// Compare normalized goodput, delivered / offered bytes per class in an
/// [`EngineReport`], of the suspect class against the control class.
/// Packet availability also reflects queueing losses and the packets
/// still in propagation at the horizon, so thresholds should leave
/// headroom for what affects both classes alike — the *ratio* is the
/// signal, exactly as an external auditor measuring on the wire would
/// compute it. Returns `None` when either class has no sources in the
/// report.
pub fn detect_throttling(report: &EngineReport, spec: &ThrottleSpec) -> Option<ThrottleFinding> {
    assert!((0.0..=1.0).contains(&spec.threshold), "threshold must be in [0,1]");
    let suspect = report.availability_by_tag(&spec.suspect_tag)?;
    let control = report.availability_by_tag(&spec.control_tag)?;
    let ratio = if control > 0.0 { suspect / control } else { 1.0 };
    Some(ThrottleFinding {
        suspect_availability: suspect,
        control_availability: control,
        ratio,
        throttled: ratio < spec.threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, IngressThrottle, SourceKind};
    use poc_flow::LinkSet;
    use poc_topology::builder::two_bp_square;
    use poc_topology::RouterId;

    /// 100 ms of a 20 G suspect source r0 → r1 beside a 20 G control
    /// source r2 → r1, the suspect throttled to `factor`.
    fn run(factor: f64) -> EngineReport {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let cfg = EngineConfig {
            horizon_ns: 100_000_000,
            throttles: vec![IngressThrottle { tag: "suspect".into(), factor }],
            ..Default::default()
        };
        let mut eng = Engine::new(&t, &all, cfg).unwrap();
        for (src, tag) in [(0, "suspect"), (2, "control")] {
            let kind = SourceKind::Persistent;
            eng.add_source(RouterId(src), RouterId(1), 20.0, None, tag, kind, 1).unwrap();
        }
        eng.run()
    }

    /// The ratio tracks the throttle: the propagation fill at the horizon
    /// biases both classes' availability by a common factor, so it cancels
    /// against the unthrottled run. Only factors below the 0.8 threshold
    /// flag, and a class no source carries has no finding.
    #[test]
    fn ratio_tracks_the_throttle_and_flags_below_threshold() {
        let spec = ThrottleSpec::default();
        let factors = [1.0, 0.9, 0.5, 0.25];
        let reports: Vec<EngineReport> = factors.iter().map(|&f| run(f)).collect();
        let honest = detect_throttling(&reports[0], &spec).unwrap();
        for (&factor, report) in factors.iter().zip(&reports) {
            let finding = detect_throttling(report, &spec).unwrap();
            let relative = finding.ratio / honest.ratio;
            assert!((relative - factor).abs() < 0.01, "factor {factor}: {finding:?}");
            assert_eq!(finding.throttled, factor < 0.8, "factor {factor}: {finding:?}");
        }
        let ghost = ThrottleSpec { suspect_tag: "ghost".into(), ..Default::default() };
        assert!(detect_throttling(&reports[0], &ghost).is_none());
    }
}
