//! Count gate on the routing work of one auction round: how many routing
//! passes it makes (the retry rule), how many it is spared (the cut
//! certificates) and how many it stops early (the stopping rule). Alone in its file, so alone in its process, and the
//! global registry's deltas are exact; a count repeats on any runner, which
//! a timing does not.

use public_option_core::auction::{run_auction, AuctionOutcome, GreedySelector, Market};
use public_option_core::flow::Constraint;
use public_option_core::topology::zoo::{attach_external_isps, ExternalIspConfig};
use public_option_core::topology::{CostModel, PocTopology, ZooConfig, ZooGenerator};
use public_option_core::traffic::TrafficScenario;

/// One round over `topo`, set up as
/// `vcg_round_matches_one_at_a_time_reference_on_zoo_instance` does, and the
/// `[flow.route.passes, flow.route.retries, flow.cut.learned,
/// flow.cut.rejects, flow.oracle.check, flow.warm.fallbacks,
/// flow.route.stopped]` it added.
fn round(topo: &PocTopology) -> ([u64; 7], AuctionOutcome) {
    let tm =
        TrafficScenario { total_gbps: 2500.0, ..TrafficScenario::paper_default() }.generate(topo);
    let market = Market::truthful(topo, 3.0);
    let selector = GreedySelector::with_prune_budget(8);
    let counts = || {
        let snapshot = public_option_core::obs::global().snapshot();
        [
            "flow.route.passes",
            "flow.route.retries",
            "flow.cut.learned",
            "flow.cut.rejects",
            "flow.oracle.check",
            "flow.warm.fallbacks",
            "flow.route.stopped",
        ]
        .map(|name| snapshot.counter(name).unwrap_or(0))
    };
    let before = counts();
    let outcome =
        run_auction(&market, &tm, Constraint::BaseLoad, &selector).expect("the round is feasible");
    let after = counts();
    (std::array::from_fn(|i| after[i] - before[i]), outcome)
}

/// The round's result as recorded from the commit before the certificates
/// (`46c07f4`): a pass may only go missing if its answer was already "no".
fn assert_outcome(outcome: &AuctionOutcome, selected: &[usize], total_cost: u64, payments: &[u64]) {
    assert_eq!(outcome.selected.iter().map(|l| l.index()).collect::<Vec<_>>(), selected);
    assert_eq!(outcome.total_cost.to_bits(), total_cost, "total_cost {}", outcome.total_cost);
    let paid: Vec<u64> = outcome.settlements.iter().map(|s| s.payment.to_bits()).collect();
    assert_eq!(paid, payments, "{:?}", outcome.settlements);
}

#[test]
fn one_round_routes_a_rejected_set_twice_only_if_it_holds_a_virtual_link() {
    let mut topo = ZooGenerator::new(ZooConfig::small()).generate();
    // No virtual link exists, so no rejected set holds one and nothing is
    // retried. Before the retry became conditional each of the 45 failed
    // passes was run again: 95 passes. Before the certificates: (50, 0);
    // with them (42, 0), the one cut learned answering 8 of the 45
    // rejections unrouted. Every probe of the round reaches an oracle (56);
    // recorded with the warm oracle's verdict memo still in place
    // (`53d42be`), which therefore answered none of them. Since a losing
    // `acceptable` pass stops at the first router it can no longer serve,
    // 30 of the 50 passes stop early; the pass that taught the cut is one
    // of them and teaches nothing, so the 8 rejections are routed again
    // (42 → 50 passes) and 7 more pivot probes fall back cold (33 → 40).
    let (counts, outcome) = round(&topo);
    assert_eq!(counts, [50, 0, 0, 0, 56, 40, 30]);
    assert_outcome(
        &outcome,
        &[
            4, 6, 15, 16, 17, 22, 27, 31, 38, 39, 40, 47, 48, 50, 53, 57, 64, 66, 72, 74, 77, 78,
            79, 82, 86, 87, 93, 94, 98, 99, 101, 104, 107, 109, 111, 119, 120, 121, 122, 123, 125,
        ],
        0x40f2faa4348eb967,
        &[
            0x40d10766793af95e,
            0x40d5215ea37b25aa,
            0x40d3e518f49a67fe,
            0x40d1777200f72d88,
            0x40ce205f460b90b8,
            0x40bdddad45c01387,
        ],
    );

    // The six-BP instance itself. Its `SL` keeps a virtual link, so 42 of
    // its 43 rejected sets hold one and were retried (all 43 were, before
    // the rule: 94). Before the certificates: (93, 42); 14 cuts answered
    // 14 of the 43 unrouted, each sparing the pass and the retry (65, 28).
    // With the stopping rule 58 of the 85 passes stop early: the stopped
    // ones teach nothing, so 6 cuts answer 4 rejections, and the 10 more
    // routed again cost a pass and a retry each.
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let (counts, outcome) = round(&topo);
    assert_eq!(counts, [85, 38, 6, 4, 56, 36, 58]);
    assert_outcome(
        &outcome,
        &[
            6, 7, 13, 17, 22, 31, 38, 39, 40, 47, 53, 57, 64, 66, 69, 79, 82, 83, 93, 99, 104, 107,
            109, 119, 122, 123, 127,
        ],
        0x4100612f48279988,
        &[
            0x40e512cd69ffc874,
            0x40f37f4ee61e4ad8,
            0x40f1c9d29aa8bf38,
            0x40f7c9d10199aad3,
            0x40edc7041a80f658,
            0x40b4046df1eeb57e,
        ],
    );
}
