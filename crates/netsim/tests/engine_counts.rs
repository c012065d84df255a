//! Count gate on the packet engine's simulated output: a change to how fast
//! the engine simulates must leave *what* it simulates alone. One fixed
//! zoo10 scenario — the benchmark's instance, its live selection, owners
//! and tags split by source-router parity as `poc dataplane` splits them —
//! run for 5 ms under two engine seeds and one on/off variant, every count
//! pinned to the unit. Alone in its file like `tests/route_pass_count.rs`:
//! never add a second test.
//!
//! Recorded at `ac68284`, before the per-source route trees and the
//! counting merge. `events` and the first run's drops were re-recorded when
//! links became Lindley FIFOs: a departure stopped being an event, and an
//! arrival now sees every departure at its own nanosecond as complete. That
//! tie rule moved the first run's suspect drops by −20 and its control
//! drops by +19, its total by −1; nothing else but `events` moved. A change
//! that means to move a count (a new queueing discipline, multipath routes)
//! re-records from the failing `assert_eq!`'s left side and says why; a
//! perf change that moves one has changed behaviour.

use poc_auction::{GreedySelector, Market, Selector};
use poc_core::entity::EntityId;
use poc_flow::{Constraint, FeasibilityOracle};
use poc_netsim::engine::{Engine, EngineConfig, SourceKind};
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, ZooConfig, ZooGenerator};
use poc_traffic::{TrafficScenario, UserFlowModel};

/// `[events, packets_injected, packets_delivered, packets_dropped,
/// bytes_delivered]`, then `[delivered_bytes, dropped_pkts]` of the
/// `suspect` (even source routers) and `control` (odd) tags.
type Counts = ([u64; 5], [u64; 2], [u64; 2]);

#[test]
fn zoo10_scenario_counts_are_pinned_to_the_unit() {
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

    let run = |seed: u64, kind: SourceKind| -> Counts {
        let cfg = EngineConfig { horizon_ns: 5_000_000, seed, ..Default::default() };
        let mut engine = Engine::new(&topo, &live, cfg).expect("valid config");
        let added = engine
            .add_traffic_matrix(&tm, &UserFlowModel::default(), kind, |src| {
                if src.index() % 2 == 0 {
                    (Some(EntityId(1)), "suspect".to_string())
                } else {
                    (Some(EntityId(2)), "control".to_string())
                }
            })
            .expect("valid demands");
        assert_eq!(added, tm.n_flows(), "the live selection routes every pair");
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
                r.bytes_delivered,
            ],
            tag("suspect"),
            tag("control"),
        )
    };

    // The on/off variant's gaps straddle window edges and its windows
    // straddle the 8 192 ns injection buckets.
    let got = [
        run(7, SourceKind::Persistent),
        run(11, SourceKind::Persistent),
        run(7, SourceKind::OnOff { on_ns: 30_000, off_ns: 50_000 }),
    ];
    assert_eq!(
        got,
        [
            (
                [2_561_152, 2_502_304, 41_704, 1_221_416, 62_556_000],
                [32_814_000, 575_656],
                [29_742_000, 645_760]
            ),
            (
                [2_561_196, 2_502_293, 41_644, 1_221_520, 62_466_000],
                [32_749_500, 574_550],
                [29_716_500, 646_970]
            ),
            (
                [2_572_675, 2_514_206, 40_725, 1_233_020, 61_087_500],
                [32_052_000, 582_963],
                [29_035_500, 650_057]
            ),
        ]
    );
}
