//! Exact gate on E-R1's failure drill: the `resilience` bench's instance,
//! selector and spec (6 failures of 1 h, at gaps of 0.5 h and 0 h, and
//! 0.7 h windows back to back), with every drill's availability pinned to
//! the bit, its reroute count and its failure schedule. Alone in its file like
//! `tests/route_pass_count.rs`: never add a second test.
//!
//! Recorded at `9427101`, while the drill still ran on the general fluid
//! simulator. A change to how the drill sweeps its outages must leave
//! every value here alone; one that means to move them (a different
//! fallback route, a different fairness model) re-records from the
//! failing `assert_eq!`'s left side and says why.

use poc_auction::{GreedySelector, Market, Selector};
use poc_bench::instance;
use poc_flow::{Constraint, FeasibilityOracle};
use poc_netsim::drill::{run_drill, DrillSpec};

/// `(availability bits, total_reroutes, failed link indices)` per
/// constraint of `Constraint::paper_suite(4)`.
type Row = (u64, u32, Vec<usize>);

#[test]
fn resilience_drill_is_pinned_to_the_bit() {
    let (topo, tm) = instance();
    let market = Market::truthful(&topo, 3.0);
    let selector = GreedySelector::with_prune_budget(16);
    let drill = |outage_hours: f64, gap_hours: f64| -> Vec<Row> {
        let spec = DrillSpec { n_failures: 6, outage_hours, gap_hours };
        Constraint::paper_suite(4)
            .into_iter()
            .map(|c| {
                let oracle = FeasibilityOracle::new(&topo, &tm, c);
                let sel = selector.select(&market, &oracle, market.offered()).expect("feasible");
                let rep = run_drill(&topo, &sel.links, &tm, &spec).expect("routable");
                let failed = rep.failed_links.iter().map(|l| l.index()).collect();
                (rep.availability.to_bits(), rep.total_reroutes, failed)
            })
            .collect()
    };
    assert_eq!(
        drill(1.0, 0.5),
        vec![
            (0x3fee7f6704e28b64, 70, vec![127, 57, 99, 53, 104, 22]),
            (0x3fee0f7496506136, 62, vec![135, 134, 39, 57, 22, 53]),
            (0x3fee1a3d42dbcbc5, 70, vec![135, 22, 57, 53, 6, 39]),
        ]
    );
    assert_eq!(
        drill(1.0, 0.0),
        vec![
            (0x3fed9f0dc7bc075a, 55, vec![127, 57, 99, 53, 104, 22]),
            (0x3fecedcdedff4491, 49, vec![135, 134, 39, 57, 22, 53]),
            (0x3fecfee0ff3157f5, 56, vec![135, 22, 57, 53, 6, 39]),
        ]
    );
    // 0.7 h windows back to back: a window's end rounds an ulp past the
    // next one's start.
    assert_eq!(
        drill(0.7, 0.0),
        vec![
            (0x3fed9f0dc7bc0756, 55, vec![127, 57, 99, 53, 104, 22]),
            (0x3fecedcdedff4490, 49, vec![135, 134, 39, 57, 22, 53]),
            (0x3fecfee0ff3157f4, 56, vec![135, 22, 57, 53, 6, 39]),
        ]
    );
}
