//! E-C1 — §3.3 collusion analysis: coordinated link withholding moves
//! payments, bounded per-BP by the virtual-link fallback.

use poc_auction::collusion::withholding_experiment;
use poc_auction::{GreedySelector, Market, Selector};
use poc_flow::{Constraint, FeasibilityOracle, LinkSet};
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, PocTopology, ZooConfig, ZooGenerator};
use poc_traffic::{TrafficMatrix, TrafficScenario};

/// Withholding needs the paper's assumption that the external fallback
/// keeps every pivot feasible: attach the ISPs at every router.
fn instance() -> (PocTopology, TrafficMatrix) {
    let mut topo = ZooGenerator::new(ZooConfig::small()).generate();
    let isp = ExternalIspConfig { attach_points: 64, ..Default::default() };
    attach_external_isps(&mut topo, &isp, &CostModel::default());
    let tm =
        TrafficScenario { total_gbps: 2500.0, ..TrafficScenario::paper_default() }.generate(&topo);
    (topo, tm)
}

fn main() {
    let (topo, tm) = instance();
    let mut market = Market::truthful(&topo, 3.0);
    let selector = GreedySelector::with_prune_budget(16);
    println!("\n=== E-C1 / §3.3 link-withholding collusion ===");
    let report = match withholding_experiment(&mut market, &tm, Constraint::BaseLoad, &selector) {
        Ok(report) => report,
        Err(e) => {
            println!("experiment infeasible: {e}");
            return;
        }
    };
    println!(
        "baseline:  |SL| = {}, C(SL) = ${:.0}",
        report.baseline.selected.len(),
        report.baseline.total_cost
    );
    println!(
        "colluded:  |SL| = {}, C(SL) = ${:.0}   (selected set unchanged: {})",
        report.colluded.selected.len(),
        report.colluded.total_cost,
        report.baseline.selected == report.colluded.selected
    );
    println!("{:<8}{:>16}{:>16}{:>12}", "BP", "payment before", "payment after", "gain");
    for d in &report.deltas {
        if d.payment_before > 0.0 || d.payment_after > 0.0 {
            println!(
                "{:<8}{:>16.0}{:>16.0}{:>12.0}",
                d.bp.to_string(),
                d.payment_before,
                d.payment_after,
                d.gain()
            );
        }
    }
    println!("coalition gain: ${:.0} (finite — bounded by virtual links)", report.total_gain());

    // With every BP withholding, a pivot's alternatives are at worst the
    // contract-priced virtual links: P_α = C_α + C(SL_−α) − C(SL) and
    // C(SL_−α) ≤ C(virtual-only), so every payment is capped at
    // C_α + (C_virt − C(SL)).
    let oracle = FeasibilityOracle::new(&topo, &tm, Constraint::BaseLoad);
    let virtual_only = LinkSet::from_links(topo.n_links(), topo.virtual_links());
    match selector.select(&market, &oracle, &virtual_only) {
        Some(fallback) => {
            let slack = report
                .colluded
                .settlements
                .iter()
                .filter(|s| s.payment > 0.0)
                .map(|s| s.bid_cost + fallback.cost - report.colluded.total_cost - s.payment)
                .fold(f64::INFINITY, f64::min);
            println!(
                "per-BP Clarke bound P_α ≤ C_α + (C_virt − C(SL)) with C_virt = ${:.0}: {} \
                 (tightest slack ${slack:.0})",
                fallback.cost,
                if slack >= 0.0 { "holds for every BP" } else { "VIOLATED" },
            );
        }
        None => println!("virtual-only fallback infeasible on this instance"),
    }
}
