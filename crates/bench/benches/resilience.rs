//! E-R1 — failure drills across constraint levels: does a set selected
//! under a stricter constraint survive fibre cuts with higher availability?

use poc_auction::{GreedySelector, Market, Selector};
use poc_bench::instance;
use poc_flow::{Constraint, FeasibilityOracle};
use poc_netsim::drill::{run_drill, DrillSpec};

fn main() {
    let (topo, tm) = instance();
    let market = Market::truthful(&topo, 3.0);
    let selector = GreedySelector::with_prune_budget(16);
    let spec = DrillSpec { n_failures: 6, outage_hours: 1.0, gap_hours: 0.5 };
    println!("\n=== E-R1 / failure drill by constraint ===");
    println!(
        "{:<14}{:>8}{:>14}{:>16}{:>12}",
        "constraint", "|SL|", "cost $/mo", "availability", "reroutes"
    );
    for c in Constraint::paper_suite(4) {
        let oracle = FeasibilityOracle::new(&topo, &tm, c);
        let Some(sel) = selector.select(&market, &oracle, market.offered()) else {
            println!("{:<14} infeasible", c.label());
            continue;
        };
        match run_drill(&topo, &sel.links, &tm, &spec) {
            Ok(drill) => println!(
                "{:<14}{:>8}{:>14.0}{:>15.2}%{:>12}",
                c.label(),
                sel.links.len(),
                sel.cost,
                drill.availability * 100.0,
                drill.total_reroutes
            ),
            Err(e) => println!("{:<14} unroutable: {e}", c.label()),
        }
    }
}
