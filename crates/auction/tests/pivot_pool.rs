//! One traced round's Clarke pivots, read back from the flight recorder:
//! every pivot span parents to the round span, and no more pivots run at
//! once than the pool has workers, `min(available_parallelism, pivots)`.
//! One test, alone in its file and so alone in its process: it enables the
//! global recorder, and no other test's spans land in it.

use poc_auction::{run_auction, GreedySelector, Market};
use poc_flow::Constraint;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, ZooConfig, ZooGenerator};
use poc_traffic::TrafficScenario;

#[test]
fn pivots_parent_to_the_round_and_never_outnumber_the_cores() {
    let mut topo = ZooGenerator::new(ZooConfig::small()).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let tm =
        TrafficScenario { total_gbps: 2500.0, ..TrafficScenario::paper_default() }.generate(&topo);
    let market = Market::truthful(&topo, 3.0);

    poc_obs::trace::recorder().set_enabled(true);
    let trace_id = poc_obs::trace::new_trace_id();
    let outcome = {
        let _trace = poc_obs::trace::start_trace(trace_id);
        run_auction(&market, &tm, Constraint::BaseLoad, &GreedySelector::with_prune_budget(16))
            .expect("the round is feasible")
    };
    let traces = poc_obs::trace::scrape(Some(trace_id), None);
    assert_eq!(traces.len(), 1, "one trace under the round's id");
    let events = &traces[0].events;

    let rounds: Vec<_> = events.iter().filter(|e| e.name == "auction.round.parallel").collect();
    assert_eq!(rounds.len(), 1, "one round span");
    let pivots: Vec<_> = events.iter().filter(|e| e.name == "auction.pivot").collect();
    let expected = outcome.settlements.iter().filter(|s| s.n_selected_links > 0).count();
    assert!(expected > 1, "the instance must pivot more than one BP");
    assert_eq!(pivots.len(), expected, "one pivot span per BP with links in SL");
    assert!(pivots.iter().all(|p| p.parent_id == rounds[0].span_id), "pivots under the round");

    // Sweep the pivot intervals: +1 at each start, −1 at each end, ends
    // first at equal instants. A span's recorded end never passes its real
    // end, so two pivots one worker ran back to back never overlap here.
    let mut edges: Vec<(u64, i32)> =
        pivots.iter().flat_map(|p| [(p.start_ns, 1), (p.start_ns + p.dur_ns, -1)]).collect();
    edges.sort_unstable();
    let (mut open, mut widest) = (0i32, 0i32);
    for (_, step) in edges {
        open += step;
        widest = widest.max(open);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.min(expected);
    assert!(
        widest as usize <= workers,
        "{widest} pivots overlapped, the pool has {workers} workers ({cores} cores, {expected} pivots)"
    );
}
