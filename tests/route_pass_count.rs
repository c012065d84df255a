//! Count gate on the router's retry rule: how many full routing passes one
//! auction round makes. Alone in its file, so alone in its process, and the
//! global registry's deltas are exact; a count repeats on any runner, which
//! a timing does not.

use public_option_core::auction::{run_auction, GreedySelector, Market};
use public_option_core::flow::Constraint;
use public_option_core::topology::zoo::{attach_external_isps, ExternalIspConfig};
use public_option_core::topology::{CostModel, PocTopology, ZooConfig, ZooGenerator};
use public_option_core::traffic::TrafficScenario;

/// `(flow.route.passes, flow.route.retries)` added by one round over `topo`,
/// set up as `vcg_round_matches_one_at_a_time_reference_on_zoo_instance` does.
fn round_counts(topo: &PocTopology) -> (u64, u64) {
    let tm =
        TrafficScenario { total_gbps: 2500.0, ..TrafficScenario::paper_default() }.generate(topo);
    let market = Market::truthful(topo, 3.0);
    let selector = GreedySelector::with_prune_budget(8);
    let count = |name| public_option_core::obs::global().snapshot().counter(name).unwrap_or(0);
    let before = (count("flow.route.passes"), count("flow.route.retries"));
    run_auction(&market, &tm, Constraint::BaseLoad, &selector).expect("the round is feasible");
    (count("flow.route.passes") - before.0, count("flow.route.retries") - before.1)
}

#[test]
fn one_round_routes_a_rejected_set_twice_only_if_it_holds_a_virtual_link() {
    let mut topo = ZooGenerator::new(ZooConfig::small()).generate();
    // No virtual link exists, so no rejected set holds one and nothing is
    // retried. Before the retry became conditional each of the 45 failed
    // passes was run again: 95 passes.
    assert_eq!(round_counts(&topo), (50, 0));

    // The six-BP instance itself. Its `SL` keeps a virtual link, so 42 of
    // its 43 rejected sets hold one and are still retried; all 43 were: 94.
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    assert_eq!(round_counts(&topo), (93, 42));
}
