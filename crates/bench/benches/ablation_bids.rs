//! Ablation (DESIGN.md §4) — bid language: additive vs bulk-discounted
//! (subadditive) pricing, and what each does to the clearing cost and the
//! payment-over-bid distribution.

use poc_auction::{run_auction, BpBid, GreedySelector, Market};
use poc_bench::instance;
use poc_flow::{Constraint, LinkSet};

fn discounted_market(topo: &poc_topology::PocTopology) -> Market<'_> {
    let bids = topo
        .bps
        .iter()
        .map(|bp| {
            BpBid::truthful_discounted(
                bp.id,
                topo.links_of_bp(bp.id).into_iter().map(|l| (l, topo.link(l).true_monthly_cost)),
                // 5% off from 10 links, 12% off from 40.
                vec![(10, 0.95), (40, 0.88)],
            )
        })
        .collect();
    Market::new(topo, bids, 3.0).expect("discounted truthful bids are valid")
}

fn main() {
    let (topo, tm) = instance();
    let selector = GreedySelector::with_prune_budget(16);
    println!("\n=== Ablation: bid language (additive vs volume discount) ===");
    println!("{:<22}{:>8}{:>14}{:>14}{:>12}", "pricing", "|SL|", "C(SL)", "payments", "mean PoB");
    for (label, market) in
        [("additive", Market::truthful(&topo, 3.0)), ("volume discount", discounted_market(&topo))]
    {
        match run_auction(&market, &tm, Constraint::BaseLoad, &selector) {
            Ok(out) => {
                let payments: f64 = out.settlements.iter().map(|s| s.payment).sum();
                let pobs: Vec<f64> = out.settlements.iter().filter_map(|s| s.pob()).collect();
                let mean_pob = if pobs.is_empty() {
                    0.0
                } else {
                    pobs.iter().sum::<f64>() / pobs.len() as f64
                };
                println!(
                    "{label:<22}{:>8}{:>14.0}{:>14.0}{:>12.4}",
                    out.selected.len(),
                    out.total_cost,
                    payments,
                    mean_pob
                );
            }
            Err(e) => println!("{label:<22} infeasible: {e}"),
        }
    }
    // Spot-check subadditivity: pricing a BP's whole offer under discounts
    // is cheaper than additively.
    let add = Market::truthful(&topo, 3.0);
    let disc = discounted_market(&topo);
    let bp = topo.bps[0].id;
    let all_of_bp = LinkSet::from_links(topo.n_links(), topo.links_of_bp(bp));
    println!(
        "\nBP {} full-offer price: additive ${:.0} vs discounted ${:.0}",
        bp,
        add.bp_cost(bp, &all_of_bp),
        disc.bp_cost(bp, &all_of_bp)
    );
}
