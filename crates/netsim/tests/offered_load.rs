//! Offered load per directional link on `engine_counts.rs`'s zoo10
//! scenario: the benchmark's instance, its live selection, the matrix
//! expanded to one persistent source per pair. Every source offers its
//! rate to each link of its route, so the links' offered loads sum to
//! Σ rate × hops, with hops counted here from a tree search of our own.
//! Prints how many links the single-path routes oversubscribe and by how
//! much (`--nocapture`); asserts no figure of it, since it moves no count.

use poc_auction::{GreedySelector, Market, Selector};
use poc_flow::{CapacityGraph, Constraint, FeasibilityOracle};
use poc_netsim::engine::{Engine, EngineConfig, SourceKind};
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, RouterId, ZooConfig, ZooGenerator};
use poc_traffic::{pair_demands, TrafficScenario, UserFlowModel};

#[test]
fn offered_loads_sum_to_rate_times_hops_over_every_source() {
    let mut topo = ZooGenerator::new(ZooConfig {
        n_cities: 40,
        n_bps: 10,
        coverage_min: 0.30,
        coverage_max: 0.80,
        ..ZooConfig::paper()
    })
    .generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let tm =
        TrafficScenario { total_gbps: 6000.0, ..TrafficScenario::paper_default() }.generate(&topo);
    let market = Market::truthful(&topo, 3.0);
    let oracle = FeasibilityOracle::new(&topo, &tm, Constraint::BaseLoad);
    let live = GreedySelector::with_prune_budget(16)
        .select(&market, &oracle, market.offered())
        .expect("zoo10 is auctionable")
        .links;

    let cfg = EngineConfig { horizon_ns: 5_000_000, seed: 7, ..Default::default() };
    let mut engine = Engine::new(&topo, &live, cfg).expect("valid config");
    let model = UserFlowModel::default();
    engine
        .add_traffic_matrix(&tm, &model, SourceKind::Persistent, |_| (None, "all".to_string()))
        .expect("valid demands");
    let loads = engine.link_loads();

    let graph = CapacityGraph::new(&topo, &live);
    let trees: Vec<_> = (0..topo.n_routers())
        .map(|i| {
            let src = RouterId::from_index(i);
            graph.shortest_path_tree(src, |l, _| topo.link(l).distance_km, |_, _| true)
        })
        .collect();
    let rate_hops: f64 = pair_demands(&tm, &model)
        .iter()
        .map(|d| {
            let path = trees[d.src.index()].path_to(d.dst).expect("the live selection routes it");
            d.rate_gbps * path.len() as f64
        })
        .sum();
    let offered: f64 = loads.iter().map(|l| l.offered_gbps).sum();
    assert!(
        (offered - rate_hops).abs() <= 1e-9 * rate_hops,
        "links carry {offered} Gbit/s offered, sources send {rate_hops} Gbit/s × hops"
    );

    let over: Vec<_> = loads.iter().filter(|l| l.ratio() > 1.0).collect();
    let excess: f64 = over.iter().map(|l| l.offered_gbps - l.capacity_gbps).sum();
    let demand: f64 = pair_demands(&tm, &model).iter().map(|d| d.rate_gbps).sum();
    println!(
        "{} of {} loaded directional links oversubscribed, {excess:.1} Gbit/s over capacity in \
         all ({:.1} % of the {demand:.1} Gbit/s the sources send); worst {:.3}x",
        over.len(),
        loads.len(),
        100.0 * excess / demand,
        loads.first().map_or(0.0, |l| l.ratio())
    );
    assert!(loads.windows(2).all(|w| w[0].ratio() >= w[1].ratio()), "worst first");
}
