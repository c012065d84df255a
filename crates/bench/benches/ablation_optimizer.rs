//! Ablation (DESIGN.md §4) — selection optimizer: how much does the
//! reverse-prune pass buy over pure greedy routing-driven selection, and
//! how close is the heuristic to the exact optimum on an instance small
//! enough to enumerate?

use poc_auction::{ExhaustiveSelector, ForwardGreedySelector, GreedySelector, Market, Selector};
use poc_bench::instance;
use poc_flow::{Constraint, FeasibilityOracle};
use poc_topology::builder::two_bp_square;
use poc_topology::RouterId;
use poc_traffic::TrafficMatrix;

fn main() {
    let (topo, tm) = instance();
    let market = Market::truthful(&topo, 3.0);
    let oracle = FeasibilityOracle::new(&topo, &tm, Constraint::BaseLoad);
    println!("\n=== Ablation: selection algorithm & prune budget vs cost ===");
    println!("{:<28}{:>8}{:>14}", "selector", "|SL|", "C(SL) $/mo");
    for budget in [0, 8, 32, 128] {
        let sel = GreedySelector::with_prune_budget(budget)
            .select(&market, &oracle, market.offered())
            .expect("feasible");
        println!(
            "{:<28}{:>8}{:>14.0}",
            format!("routing-greedy (prune {budget})"),
            sel.links.len(),
            sel.cost
        );
    }
    for budget in [0, 32] {
        let sel = ForwardGreedySelector { prune_budget: budget }
            .select(&market, &oracle, market.offered())
            .expect("feasible");
        println!(
            "{:<28}{:>8}{:>14.0}",
            format!("forward-greedy (prune {budget})"),
            sel.links.len(),
            sel.cost
        );
    }

    // Exact-vs-heuristic on the enumerable fixture.
    let fixture = two_bp_square();
    let fm = Market::truthful(&fixture, 3.0);
    let mut ftm = TrafficMatrix::zero(fixture.n_routers());
    ftm.set(RouterId(0), RouterId(1), 10.0);
    ftm.set(RouterId(2), RouterId(3), 5.0);
    let foracle = FeasibilityOracle::new(&fixture, &ftm, Constraint::BaseLoad);
    let exact = ExhaustiveSelector.select(&fm, &foracle, fm.offered()).expect("feasible");
    let greedy = GreedySelector::default().select(&fm, &foracle, fm.offered()).expect("feasible");
    println!(
        "\nfixture optimality gap: exact ${:.0} vs greedy ${:.0} ({:+.1}%)",
        exact.cost,
        greedy.cost,
        100.0 * (greedy.cost - exact.cost) / exact.cost
    );
}
