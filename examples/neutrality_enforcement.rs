//! Neutrality enforcement (experiment E-N1): the §3.4 peering conditions
//! in action — both halves.
//!
//! Control plane: LMP policies are reviewed against the ToS engine, which
//! distinguishes posted-price QoS (allowed) from discrimination
//! (conditions i–iii). Data plane: a cheating LMP that silently throttles
//! a CSP leaves an observable packet-goodput signature the auditor
//! detects.
//!
//! Run with: `cargo run --release --example neutrality_enforcement`

use public_option_core::core::poc::{Poc, PocConfig};
use public_option_core::core::tos::{PolicyAction, PolicyBasis, PolicyMatch, TrafficPolicy};
use public_option_core::flow::{route_tm, LinkSet};
use public_option_core::netsim::discrim::{detect_throttling, CONTROL_TAG, SUSPECT_TAG};
use public_option_core::netsim::engine::{Engine, EngineConfig, IngressThrottle, SourceKind};
use public_option_core::topology::builder::two_bp_square;
use public_option_core::topology::zoo::{attach_external_isps, ExternalIspConfig};
use public_option_core::topology::{CostModel, RouterId};
use public_option_core::traffic::{TrafficMatrix, UserFlowModel};

fn main() {
    let mut topo = two_bp_square();
    attach_external_isps(
        &mut topo,
        &ExternalIspConfig { n_isps: 1, attach_points: 4, ..Default::default() },
        &CostModel::default(),
    );
    let mut poc = Poc::new(topo, PocConfig::default());
    let lmp = poc.attach_lmp("metro-lmp", RouterId(1)).expect("attach");
    let csp = poc.attach_hosted_csp("stream-co", lmp).expect("attach");

    // --- Control plane: declared policies -------------------------------
    println!("=== ToS review of declared policies (§3.4 conditions i–iii) ===");
    let policies = [
        (
            "block stream-co unless it pays (termination-fee coercion)",
            TrafficPolicy {
                lmp,
                matches: PolicyMatch { source: Some(csp), ..PolicyMatch::any() },
                action: PolicyAction::Block,
                basis: PolicyBasis::Commercial,
            },
        ),
        (
            "throttle all video ingress",
            TrafficPolicy {
                lmp,
                matches: PolicyMatch { application: Some("video".into()), ..PolicyMatch::any() },
                action: PolicyAction::Prioritize(-10),
                basis: PolicyBasis::Commercial,
            },
        ),
        (
            "CDN cache only for our own content arm",
            TrafficPolicy {
                lmp,
                matches: PolicyMatch { source: Some(csp), ..PolicyMatch::any() },
                action: PolicyAction::ProvideEnhancement { service: "cdn".into() },
                basis: PolicyBasis::Commercial,
            },
        ),
        (
            "let only Netflix install enhancement boxes",
            TrafficPolicy {
                lmp,
                matches: PolicyMatch { source: Some(csp), ..PolicyMatch::any() },
                action: PolicyAction::AllowThirdPartyEnhancement { provider: "netflix".into() },
                basis: PolicyBasis::Commercial,
            },
        ),
        (
            "gold QoS tier at a posted price, open to all",
            TrafficPolicy {
                lmp,
                matches: PolicyMatch { application: Some("voip".into()), ..PolicyMatch::any() },
                action: PolicyAction::Prioritize(5),
                basis: PolicyBasis::PostedPrice { price: 9.99, openly_offered: true },
            },
        ),
        (
            "block a DDoS source (security)",
            TrafficPolicy {
                lmp,
                matches: PolicyMatch { source: Some(csp), ..PolicyMatch::any() },
                action: PolicyAction::Block,
                basis: PolicyBasis::Security,
            },
        ),
    ];
    for (label, policy) in &policies {
        let verdict = poc.review_policy(policy);
        println!("  {label}\n    → {verdict:?}");
    }
    println!("\nrecorded violations: {}", poc.violations().len());

    // --- Data plane: undeclared cheating --------------------------------
    println!("\n=== Observable throttling (auditor's view) ===");
    // Two 30 G classes into r1 for 1 s of packets: at a horizon this long
    // the packets still propagating at its end barely dent availability.
    // They ride the routing that proves the fabric carries them.
    let topo = poc.topo();
    let all = LinkSet::full(topo.n_links());
    let mut tm = TrafficMatrix::zero(topo.n_routers());
    tm.set(RouterId(0), RouterId(1), 30.0);
    tm.set(RouterId(2), RouterId(1), 30.0);
    let witness = route_tm(topo, &all, &tm).expect("the fabric carries both classes");
    let classify =
        |src: RouterId| (None, if src == RouterId(0) { SUSPECT_TAG } else { CONTROL_TAG }.into());
    for (scenario, factor) in [("honest LMP", 1.0), ("cheating LMP", 0.4)] {
        let cfg = EngineConfig {
            horizon_ns: 1_000_000_000,
            throttles: vec![IngressThrottle { tag: SUSPECT_TAG.into(), factor }],
            ..Default::default()
        };
        let mut engine = Engine::new(topo, &all, cfg).expect("valid engine config");
        engine
            .add_routing(
                &witness.flows,
                &UserFlowModel::default(),
                SourceKind::Persistent,
                classify,
            )
            .expect("valid sources");
        let report = engine.run();
        let finding = detect_throttling(&report).expect("both classes");
        println!(
            "  {scenario}: suspect/control goodput ratio {:.2} → {}",
            finding.ratio,
            if finding.throttled { "FLAGGED (ToS breach)" } else { "clean" }
        );
    }
}
