//! Gate on the round's record: a target at the round's own demand is the
//! round's outcome, reused, and nothing else is. Every clear bumps the
//! global `auction.round.count` once; alone in its file, so alone in its
//! process, the counter's deltas are exact.

use poc_auction::AuctionOutcome;
use poc_core::poc::{Poc, PocConfig};
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, ZooConfig, ZooGenerator};
use poc_traffic::{TrafficMatrix, TrafficScenario};

/// The `poc` CLI's small preset.
fn small_poc() -> (Poc, TrafficMatrix) {
    let mut topo = ZooGenerator::new(ZooConfig::small()).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let tm =
        TrafficScenario { total_gbps: 2500.0, ..TrafficScenario::paper_default() }.generate(&topo);
    (Poc::new(topo, PocConfig::default()), tm)
}

/// How many auctions `f` cleared, and what it returned.
fn clears<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let count = || poc_obs::global().snapshot().counter("auction.round.count").unwrap_or(0);
    let before = count();
    let out = f();
    (count() - before, out)
}

/// `a` and `b` agree to the bit: the selection, `C(SL)` and every payment.
fn assert_same_bits(a: &AuctionOutcome, b: &AuctionOutcome) {
    assert_eq!(a.selected, b.selected);
    assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
    let paid = |o: &AuctionOutcome| -> Vec<(u32, u64)> {
        o.settlements.iter().map(|s| (s.bp.0, s.payment.to_bits())).collect()
    };
    assert_eq!(paid(a), paid(b));
}

#[test]
fn a_target_at_the_rounds_demand_reuses_the_round_and_nothing_else_does() {
    let (mut poc, tm) = small_poc();
    let (n, _) = clears(|| {
        poc.run_auction_round(&tm).unwrap();
        poc.run_auction_round(&tm).unwrap();
    });
    assert_eq!(n, 2, "a round always clears");

    let (mut fresh, _) = small_poc();
    let round = fresh.run_auction_round(&tm).unwrap().clone();
    let (n, back) = clears(|| poc.compute_auction_outcome(&tm).unwrap());
    assert_eq!(n, 0, "the round's own demand is the round's outcome");
    assert_same_bits(&back, &round);

    let mut forecast = tm.clone();
    forecast.scale(1.5);
    let (n, up) = clears(|| poc.compute_auction_outcome(&forecast).unwrap());
    assert_eq!(n, 1, "another demand clears");
    let (fresh, _) = small_poc();
    assert_same_bits(&up, &fresh.compute_auction_outcome(&forecast).unwrap());

    poc.commit_transition(up);
    let (n, back) = clears(|| poc.compute_auction_outcome(&tm).unwrap());
    assert_eq!(n, 0, "a transition stays in the round");
    assert_same_bits(&back, &round);

    let state = poc.export_state();
    poc.restore_state(state);
    let (n, back) = clears(|| poc.compute_auction_outcome(&tm).unwrap());
    assert_eq!(n, 1, "a restored facade holds no round record");
    assert_same_bits(&back, &round);
}
