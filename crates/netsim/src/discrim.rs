//! Observable discrimination: the data-plane half of experiment E-N1.
//!
//! The ToS engine (`poc-core::tos`) rules on *declared* policies; a
//! cheating LMP would not declare. On the wire, cheating is a tagged
//! traffic class throttled at ingress ([`crate::engine::IngressThrottle`]);
//! this module's detector compares normalized packet goodput between the
//! [`SUSPECT_TAG`] class and the [`CONTROL_TAG`] class, the way an auditor
//! (or the POC, §3.4's "if widespread cheating is anticipated" discussion)
//! would measure it, and flags a ratio below [`THROTTLE_THRESHOLD`] (0.8).

use crate::engine::EngineReport;
use serde::{Deserialize, Serialize};

/// Traffic class suspected of being throttled.
pub const SUSPECT_TAG: &str = "suspect";

/// Reference class expected to receive normal service.
pub const CONTROL_TAG: &str = "control";

/// Flag when suspect availability falls below this fraction of control's.
pub const THROTTLE_THRESHOLD: f64 = 0.8;

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
/// [`EngineReport`], of the [`SUSPECT_TAG`] class against the
/// [`CONTROL_TAG`] class, and flag a ratio below [`THROTTLE_THRESHOLD`].
/// Packet availability also reflects queueing losses and the packets
/// still in propagation at the horizon, so the threshold leaves headroom
/// for what affects both classes alike — the *ratio* is the signal,
/// exactly as an external auditor measuring on the wire would compute it.
/// Returns `None` when either class has no sources in the report.
pub fn detect_throttling(report: &EngineReport) -> Option<ThrottleFinding> {
    let suspect = report.availability_by_tag(SUSPECT_TAG)?;
    let control = report.availability_by_tag(CONTROL_TAG)?;
    let ratio = if control > 0.0 { suspect / control } else { 1.0 };
    Some(ThrottleFinding {
        suspect_availability: suspect,
        control_availability: control,
        ratio,
        throttled: ratio < THROTTLE_THRESHOLD,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, IngressThrottle, SourceKind};
    use poc_flow::LinkSet;
    use poc_topology::builder::two_bp_square;
    use poc_topology::RouterId;

    /// 100 ms of 20 G sources r0 → r1 and r2 → r1 tagged `tags`, the
    /// suspect class throttled to `factor`.
    fn run(factor: f64, tags: [&str; 2]) -> EngineReport {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let cfg = EngineConfig {
            horizon_ns: 100_000_000,
            throttles: vec![IngressThrottle { tag: SUSPECT_TAG.into(), factor }],
            ..Default::default()
        };
        let mut eng = Engine::new(&t, &all, cfg).unwrap();
        for (src, tag) in [0, 2].into_iter().zip(tags) {
            let kind = SourceKind::Persistent;
            eng.add_pair(RouterId(src), RouterId(1), 20.0, None, tag, kind).unwrap();
        }
        eng.run()
    }

    /// The ratio tracks the throttle: the propagation fill at the horizon
    /// biases both classes' availability by a common factor, so it cancels
    /// against the unthrottled run. Only factors below the 0.8 threshold
    /// flag, and a report with no suspect source has no finding.
    #[test]
    fn ratio_tracks_the_throttle_and_flags_below_threshold() {
        let factors = [1.0, 0.9, 0.5, 0.25];
        let reports: Vec<EngineReport> =
            factors.iter().map(|&f| run(f, [SUSPECT_TAG, CONTROL_TAG])).collect();
        let honest = detect_throttling(&reports[0]).unwrap();
        for (&factor, report) in factors.iter().zip(&reports) {
            let finding = detect_throttling(report).unwrap();
            let relative = finding.ratio / honest.ratio;
            assert!((relative - factor).abs() < 0.01, "factor {factor}: {finding:?}");
            assert_eq!(finding.throttled, factor < 0.8, "factor {factor}: {finding:?}");
        }
        assert!(detect_throttling(&run(1.0, ["ghost", CONTROL_TAG])).is_none());
    }
}
