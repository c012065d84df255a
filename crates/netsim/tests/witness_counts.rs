//! Count gate on the packet engine fed the auction's witness: the routing
//! `route_tm` finds for the live selection, the one that proved the
//! selection carries the matrix and that settlement bills from. The
//! scenario is `engine_counts.rs`'s — the benchmark's zoo10 instance, its
//! live selection, owners and tags split by source-router parity — with the
//! witness's `(path, share)` splits in place of one shortest path per pair,
//! run for 5 ms under engine seeds 7 and 11, every count pinned to the
//! unit. Alone in its file like `engine_counts.rs`: never add a second
//! test.
//!
//! The witness loads no link past its capacity, so nothing tail-drops:
//! what the single-path scenario loses to drops (1.22 M packets) here
//! reaches its destination or is still on the wire at the horizon, where
//! most of it is, 5 ms being short of the fabric's one-way delays. A few
//! hundred packets wait in buffers the witness fills to the brim. A change
//! that means to move a count (a new queueing discipline, a new witness)
//! re-records from the failing `assert_eq!`'s left side and says why; a
//! perf change that moves one has changed behaviour.

use poc_auction::{GreedySelector, Market, Selector};
use poc_core::entity::EntityId;
use poc_flow::{route_tm, Constraint, FeasibilityOracle};
use poc_netsim::engine::{Engine, EngineConfig, SourceKind};
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, ZooConfig, ZooGenerator};
use poc_traffic::{TrafficScenario, UserFlowModel};

/// `[events, packets_injected, packets_delivered, packets_dropped,
/// packets_queued, packets_in_flight]`, then `[delivered_bytes,
/// dropped_pkts]` of the `suspect` (even source routers) and `control`
/// (odd) tags.
type Counts = ([u64; 6], [u64; 2], [u64; 2]);

#[test]
fn zoo10_live_selection_on_its_witness_counts_are_pinned_to_the_unit() {
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
    let witness = route_tm(&topo, &live, &tm).expect("the live selection carries the matrix");
    let splits: usize = witness.flows.iter().map(|f| f.paths.len()).sum();

    let run = |seed: u64| -> Counts {
        let cfg = EngineConfig { horizon_ns: 5_000_000, seed, ..Default::default() };
        let mut engine = Engine::new(&topo, &live, cfg).expect("valid config");
        let added = engine
            .add_routing(&witness.flows, &UserFlowModel::default(), SourceKind::Persistent, |src| {
                if src.index() % 2 == 0 {
                    (Some(EntityId(1)), "suspect".to_string())
                } else {
                    (Some(EntityId(2)), "control".to_string())
                }
            })
            .expect("the witness runs over the live selection");
        assert_eq!(added, splits, "one source per split");
        let r = engine.run();
        assert_eq!(r.unroutable_pairs, 0);
        let tag = |name: &str| {
            let t = r.per_tag.iter().find(|t| t.tag == name).expect("both parities send");
            [t.delivered_bytes, t.dropped_pkts]
        };
        (
            [
                r.events,
                r.packets_injected,
                r.packets_delivered,
                r.packets_dropped,
                r.packets_queued,
                r.packets_in_flight,
            ],
            tag("suspect"),
            tag("control"),
        )
    };

    let got = [run(7), run(11)];
    assert_eq!(
        got,
        [
            ([2_704_010, 2_502_050, 52_973, 0, 366, 2_448_711], [32_955_000, 0], [46_504_500, 0]),
            ([2_703_987, 2_502_033, 52_974, 0, 340, 2_448_719], [32_953_500, 0], [46_507_500, 0]),
        ]
    );
}
