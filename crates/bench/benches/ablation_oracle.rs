//! Ablation (DESIGN.md §4) — feasibility oracle: the greedy
//! multi-commodity router is conservative; Dinic max-flow upper-bounds
//! what any routing could place per pair. This measures the gap as load
//! scales, locating where the heuristic starts rejecting instances an LP
//! might still pack.

use poc_bench::instance;
use poc_flow::maxflow::max_flow_between;
use poc_flow::{route_tm, LinkSet};
use poc_traffic::TrafficMatrix;

fn main() {
    let (topo, base_tm) = instance();
    let all = LinkSet::full(topo.n_links());
    println!("\n=== Ablation: greedy router vs load scale ===");
    println!("{:<12}{:>14}{:>12}{:>14}", "load scale", "total Gbps", "routable?", "max util");
    for scale in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let mut tm = base_tm.clone();
        tm.scale(scale);
        match route_tm(&topo, &all, &tm) {
            Ok(routing) => println!(
                "{scale:<12}{:>14.0}{:>12}{:>14.3}",
                tm.total(),
                "yes",
                routing.max_utilization(&topo)
            ),
            Err(_) => println!("{scale:<12}{:>14.0}{:>12}{:>14}", tm.total(), "no", "-"),
        }
    }

    // Per-pair sanity: routed single-pair demand can never exceed max-flow.
    println!("\nper-pair max-flow bound spot checks:");
    let pairs = [(0u32, 1u32), (0, topo.n_routers() as u32 - 1)];
    for (a, b) in pairs {
        let (ra, rb) = (poc_topology::RouterId(a), poc_topology::RouterId(b));
        let mf = max_flow_between(&topo, &all, ra, rb).expect("routers in range");
        let mut tm = TrafficMatrix::zero(topo.n_routers());
        tm.set(ra, rb, mf * 0.95);
        let routable = route_tm(&topo, &all, &tm).is_ok();
        println!("  {ra}→{rb}: maxflow {mf:.0} Gbps, 95% of it greedy-routable: {routable}");
    }
}
