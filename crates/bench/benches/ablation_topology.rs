//! Ablation — BP internal-network style: how carrier wiring (meshy MST,
//! ring, hub-and-spoke) shapes the offered-link market and the auction's
//! clearing cost and margins.

use poc_auction::{run_auction, GreedySelector, Market};
use poc_flow::Constraint;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig, InternalStyle};
use poc_topology::{CostModel, TopologyStats, ZooConfig, ZooGenerator};
use poc_traffic::TrafficScenario;

const STYLES: [(&str, InternalStyle); 3] = [
    ("mst+shortcuts", InternalStyle::MstPlusShortcuts),
    ("ring", InternalStyle::Ring),
    ("hub-and-spoke", InternalStyle::HubAndSpoke),
];

fn main() {
    println!("\n=== Ablation: BP internal-network style ===");
    println!(
        "{:<16}{:>8}{:>10}{:>8}{:>14}{:>12}",
        "style", "links", "routers", "|SL|", "C(SL) $/mo", "PoB spread"
    );
    for (label, style) in STYLES {
        let cfg = ZooConfig { internal_style: style, ..ZooConfig::small() };
        let mut topo = ZooGenerator::new(cfg).generate();
        attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
        let stats = TopologyStats::compute(&topo);
        let tm = TrafficScenario { total_gbps: 2000.0, ..TrafficScenario::paper_default() }
            .generate(&topo);
        let market = Market::truthful(&topo, 3.0);
        match run_auction(
            &market,
            &tm,
            Constraint::BaseLoad,
            &GreedySelector::with_prune_budget(12),
        ) {
            Ok(out) => {
                let pobs: Vec<f64> = out.settlements.iter().filter_map(|s| s.pob()).collect();
                let spread = pobs.iter().copied().fold(f64::MIN, f64::max)
                    - pobs.iter().copied().fold(f64::MAX, f64::min);
                println!(
                    "{label:<16}{:>8}{:>10}{:>8}{:>14.0}{:>12.3}",
                    stats.n_bp_links,
                    stats.n_routers,
                    out.selected.len(),
                    out.total_cost,
                    spread
                );
            }
            Err(e) => println!("{label:<16} infeasible: {e}"),
        }
    }
    println!(
        "sparser internal wiring (ring/hub) offers fewer, longer logical links — \
         thinner competition, different clearing costs and margin spreads."
    );
}
