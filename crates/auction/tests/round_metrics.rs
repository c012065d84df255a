//! What one round records in the global `poc-obs` registry. One test, alone
//! in its file and so alone in its process: nothing else adds to the
//! counters and histograms, and every delta is exact.

use poc_auction::{run_auction, GreedySelector, Market};
use poc_flow::Constraint;
use poc_topology::builder::two_bp_square;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{BpId, CostModel, RouterId};
use poc_traffic::TrafficMatrix;

#[test]
fn rounds_record_wall_time_and_pob_metrics() {
    // r0/r1/r2 are BP-A's cheap triangle and only BP-B's links (or the
    // dearer virtual ones that keep its pivot feasible) reach r3, so `SL`
    // holds links of both BPs and both pivot.
    let mut t = two_bp_square();
    attach_external_isps(
        &mut t,
        &ExternalIspConfig { n_isps: 1, attach_points: 4, ..Default::default() },
        &CostModel::default(),
    );
    let m = Market::truthful(&t, 3.0);
    let mut tm = TrafficMatrix::zero(t.n_routers());
    tm.set(RouterId(0), RouterId(1), 10.0);
    tm.set(RouterId(1), RouterId(2), 5.0);
    tm.set(RouterId(0), RouterId(3), 5.0);

    let before = poc_obs::global().snapshot();
    let out = run_auction(&m, &tm, Constraint::BaseLoad, &GreedySelector::default()).unwrap();
    let after = poc_obs::global().snapshot();
    for bp in [BpId(0), BpId(1)] {
        assert!(out.settlement(bp).unwrap().n_selected_links > 0, "{bp} has no link in SL");
    }

    let hist_delta = |name: &str| {
        after.histogram(name).map_or(0, |h| h.count) - before.histogram(name).map_or(0, |h| h.count)
    };
    let counter_delta =
        |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(hist_delta("auction.round.parallel"), 1);
    assert_eq!(hist_delta("auction.pivot"), 2, "one pivot per BP with links in SL");
    assert_eq!(counter_delta("auction.round.count"), 1);
    assert_eq!(counter_delta("auction.round.infeasible"), 0);
    // Both BPs have a bid cost in `SL`, so the mean-PoB gauge was refreshed
    // from two margins, each at least zero.
    assert!(before.gauge("auction.pob.mean").is_none(), "no round ran before this one");
    assert!(after.gauge("auction.pob.mean").unwrap() >= 0.0);
}
