//! Quick probe: how much does tighter optimization (best-of-two selectors)
//! shrink payment-over-bid margins vs the routing-greedy alone?
//!
//! Results go to stderr, one `name key=value ...` line per arm.

use poc_auction::{run_auction, CompositeSelector, GreedySelector, Market, Selector};
use poc_flow::Constraint;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, ZooConfig, ZooGenerator};
use poc_traffic::TrafficScenario;

fn main() {
    let mut topo = ZooGenerator::new(ZooConfig::small()).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let tm =
        TrafficScenario { total_gbps: 2500.0, ..TrafficScenario::paper_default() }.generate(&topo);
    let market = Market::truthful(&topo, 3.0);
    let arms: Vec<(&str, Box<dyn Selector>)> = vec![
        ("routing-greedy", Box::new(GreedySelector::with_prune_budget(16))),
        ("composite", Box::new(CompositeSelector::standard(16))),
    ];
    for (label, sel) in arms {
        match run_auction(&market, &tm, Constraint::BaseLoad, sel.as_ref()) {
            Ok(out) => {
                let pobs: Vec<f64> = out.settlements.iter().filter_map(|s| s.pob()).collect();
                let mean = pobs.iter().sum::<f64>() / pobs.len().max(1) as f64;
                eprintln!(
                    "probe.arm selector={label} total_cost={:.4} selected={} mean_pob={mean:.4} \
                     max_pob={:.4}",
                    out.total_cost,
                    out.selected.len(),
                    pobs.iter().copied().fold(f64::MIN, f64::max),
                );
            }
            Err(e) => eprintln!("probe.arm_failed selector={label} error={e}"),
        }
    }
}
