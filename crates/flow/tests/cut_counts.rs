//! Count gate on the cut certificates: a certified rejection runs no
//! routing pass, no warm attempt and no fallback. One test, alone in its
//! file and so alone in its process, which makes the global registry's
//! deltas exact (as `tests/route_pass_count.rs` at the root does for a
//! whole round).

use poc_flow::{AcceptabilityOracle, Constraint, FeasibilityOracle, LinkSet, WarmOracle};
use poc_topology::builder::two_bp_square;
use poc_topology::{LinkId, RouterId};
use poc_traffic::TrafficMatrix;

const NAMES: [&str; 5] = [
    "flow.oracle.check",
    "flow.route.passes",
    "flow.warm.fallbacks",
    "flow.cut.learned",
    "flow.cut.rejects",
];

fn counts() -> [u64; 5] {
    let snapshot = poc_obs::global().snapshot();
    NAMES.map(|name| snapshot.counter(name).unwrap_or(0))
}

/// `[checks, passes, fallbacks, learned, rejects]` added by `f`.
fn added(f: impl FnOnce()) -> [u64; 5] {
    let before = counts();
    f();
    let after = counts();
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn a_certified_rejection_routes_nothing() {
    let t = two_bp_square();
    let set = |links: &[u32]| LinkSet::from_links(t.n_links(), links.iter().map(|&l| LinkId(l)));
    let full = LinkSet::full(t.n_links());
    let bp0 = set(&[0, 1, 2]);

    // 200G toward r3 over BP1's 120G: one pass fails and leaves the
    // `{r0, r1, r2} | {r3}` certificate behind.
    let mut tm = TrafficMatrix::zero(t.n_routers());
    tm.set(RouterId(0), RouterId(3), 200.0);
    let cold = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
    assert_eq!(added(|| assert!(!cold.acceptable(&full))), [1, 1, 0, 1, 0]);
    // The BP0-only set (and the full one again) fall to it unrouted.
    assert_eq!(added(|| assert!(!cold.acceptable(&bp0))), [1, 0, 0, 0, 1]);
    assert_eq!(added(|| assert!(!cold.acceptable(&full))), [1, 0, 0, 0, 1]);
    // `evaluate` is the router's own word and keeps routing.
    assert_eq!(added(|| assert!(cold.evaluate(&bp0).is_err())), [0, 1, 0, 0, 0]);

    // 80G toward r3: a set with 40G teaches the cut, a set with exactly
    // 80G is not condemned by it and is routed (and accepted).
    let mut tm = TrafficMatrix::zero(t.n_routers());
    tm.set(RouterId(0), RouterId(3), 80.0);
    let cold = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
    assert_eq!(added(|| assert!(!cold.acceptable(&set(&[0, 1, 2, 3])))), [1, 1, 0, 1, 0]);
    assert_eq!(added(|| assert!(cold.acceptable(&set(&[0, 1, 2, 3, 4])))), [1, 1, 0, 0, 0]);

    // The warm oracle: a fallback teaches, the next 40G set costs neither
    // a warm attempt's fallback nor a pass, and a repeat the same again.
    let warm = WarmOracle::new(&t, &tm, Constraint::BaseLoad);
    warm.seed(cold.route(&full).expect("80G fits the full set"));
    assert_eq!(added(|| assert!(!warm.acceptable(&set(&[0, 1, 2, 3])))), [1, 1, 1, 1, 0]);
    assert_eq!(added(|| assert!(!warm.acceptable(&set(&[0, 1, 2, 4])))), [1, 0, 0, 0, 1]);
    assert_eq!(added(|| assert!(!warm.acceptable(&set(&[0, 1, 2, 4])))), [1, 0, 0, 0, 1]);
    // Adopted cuts are not learned twice and work from the first probe.
    let pivot = WarmOracle::new(&t, &tm, Constraint::BaseLoad);
    assert_eq!(added(|| pivot.adopt_cuts(&warm.cuts())), [0; 5]);
    assert_eq!(added(|| assert!(!pivot.acceptable(&set(&[0, 1, 2, 5])))), [1, 0, 0, 0, 1]);
}
