//! The installed forwarding state of the POC fabric.
//!
//! After an auction round selects `SL`, the POC forwards along shortest
//! paths over the leased links: one [`PathTree`] per router from
//! `poc-flow`'s Dijkstra, the kernel the packet engine routes on, so a path
//! query and a simulated packet name the same links. The fabric is a
//! "transparent fabric" (§1.2): it forwards between attachment routers and
//! applies no policy of its own.

use poc_flow::graph::PathTree;
use poc_flow::{CapacityGraph, LinkSet};
use poc_topology::{LinkId, PocTopology, RouterId};

/// Shortest-path forwarding over an active link set.
#[derive(Clone, Debug)]
pub struct ForwardingState {
    /// `trees[src]` holds every distance-shortest path from router `src`.
    trees: Vec<PathTree>,
    active: LinkSet,
}

impl ForwardingState {
    /// One shortest-path tree (by distance) per router over `active`.
    pub fn install(topo: &PocTopology, active: &LinkSet) -> Self {
        let g = CapacityGraph::new(topo, active);
        let trees = (0..topo.n_routers())
            .map(|src| {
                g.shortest_path_tree(
                    RouterId::from_index(src),
                    |l, _| topo.link(l).distance_km,
                    |_, _| true,
                )
            })
            .collect();
        Self { trees, active: active.clone() }
    }

    /// The active links this state was installed from.
    pub fn active(&self) -> &LinkSet {
        &self.active
    }

    /// Next hop from `at` toward `dst`: the first link of `at`'s own
    /// shortest path there, and the router it leads to.
    pub fn next_hop(&self, at: RouterId, dst: RouterId) -> Option<(LinkId, RouterId)> {
        self.trees.get(at.index())?.first_hop(dst)
    }

    /// Full path from `src` to `dst` (links in order), `None` if
    /// unreachable.
    pub fn path(&self, src: RouterId, dst: RouterId) -> Option<Vec<LinkId>> {
        if dst.index() >= self.trees.len() {
            return None;
        }
        self.trees.get(src.index())?.path_to(dst)
    }

    /// Whether every router can reach every other. Links are undirected, so
    /// the first router reaching all of them decides it.
    pub fn fully_connected(&self) -> bool {
        self.trees.first().is_none_or(|tree| {
            (1..self.trees.len()).all(|dst| tree.first_hop(RouterId::from_index(dst)).is_some())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    #[test]
    fn full_topology_fully_connected() {
        let t = two_bp_square();
        let fs = ForwardingState::install(&t, &LinkSet::full(t.n_links()));
        assert!(fs.fully_connected());
        // Direct link r0-r1 is the next hop.
        let (l, nxt) = fs.next_hop(r(0), r(1)).unwrap();
        assert!(t.link(l).connects(r(0), r(1)));
        assert_eq!(nxt, r(1));
    }

    #[test]
    fn path_walks_multi_hop() {
        let t = two_bp_square();
        // Remove the direct r0-r3 link (link 3): path must go via another
        // router.
        let mut active = LinkSet::full(t.n_links());
        active.remove(LinkId(3));
        let fs = ForwardingState::install(&t, &active);
        let path = fs.path(r(0), r(3)).unwrap();
        assert!(path.len() >= 2);
        assert!(!path.contains(&LinkId(3)));
    }

    #[test]
    fn unreachable_returns_none() {
        let t = two_bp_square();
        let bp0 = LinkSet::from_links(t.n_links(), t.links_of_bp(poc_topology::BpId(0)));
        let fs = ForwardingState::install(&t, &bp0);
        assert!(!fs.fully_connected());
        assert!(fs.path(r(0), r(3)).is_none());
        assert!(fs.next_hop(r(0), r(3)).is_none());
    }

    #[test]
    fn self_path_is_empty() {
        let t = two_bp_square();
        let fs = ForwardingState::install(&t, &LinkSet::full(t.n_links()));
        assert_eq!(fs.path(r(2), r(2)).unwrap(), Vec::<LinkId>::new());
    }

    #[test]
    fn paths_are_distance_shortest() {
        let t = two_bp_square();
        let fs = ForwardingState::install(&t, &LinkSet::full(t.n_links()));
        // r0→r3 direct (1830) beats r0-r2-r3 (910+950=1860).
        let path = fs.path(r(0), r(3)).unwrap();
        assert_eq!(path.len(), 1);
    }

    /// `path` names the links the flow kernel names for every ordered
    /// pair, and hop-by-hop forwarding arrives over a path just as long.
    fn assert_matches_the_kernel(t: &PocTopology, active: &LinkSet) {
        let fs = ForwardingState::install(t, active);
        let g = CapacityGraph::new(t, active);
        let km = |path: &[LinkId]| path.iter().map(|&l| t.link(l).distance_km).sum::<f64>();
        let routers = || (0..t.n_routers()).map(RouterId::from_index);
        for (src, dst) in routers().flat_map(|s| routers().map(move |d| (s, d))) {
            let kernel = g.shortest_path(src, dst, |l, _| t.link(l).distance_km, |_, _| true);
            assert_eq!(fs.path(src, dst), kernel, "{src} -> {dst}");
            let Some(kernel) = kernel else {
                assert_eq!(fs.next_hop(src, dst), None, "{src} -> {dst}");
                continue;
            };
            let (mut at, mut walked) = (src, Vec::new());
            while at != dst {
                let (link, next) = fs.next_hop(at, dst).expect("a reachable pair has a next hop");
                assert_eq!(t.link(link).other_end(at), Some(next));
                walked.push(link);
                at = next;
                assert!(walked.len() <= t.n_routers(), "{src} -> {dst} does not arrive");
            }
            assert!((km(&walked) - km(&kernel)).abs() < 1e-6, "{src} -> {dst}");
        }
    }

    #[test]
    fn paths_are_the_flow_kernels_on_the_square() {
        let t = two_bp_square();
        assert_matches_the_kernel(&t, &LinkSet::full(t.n_links()));
        // r3 cut off: unreachable pairs stay `None`.
        let bp0 = LinkSet::from_links(t.n_links(), t.links_of_bp(poc_topology::BpId(0)));
        assert_matches_the_kernel(&t, &bp0);
    }

    /// The benchmark's zoo14 live selection: 40 routers, and equal-length
    /// alternatives between enough of them that a second Dijkstra with its
    /// own tie order named different links for 7 of the 1 560 pairs.
    #[test]
    fn paths_are_the_flow_kernels_on_the_zoo14_live_selection() {
        use poc_auction::{GreedySelector, Market, Selector};
        use poc_flow::{Constraint, FeasibilityOracle};
        use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
        use poc_topology::{CostModel, ZooConfig, ZooGenerator};
        use poc_traffic::TrafficScenario;

        let zoo = ZooConfig {
            n_cities: 56,
            n_bps: 14,
            coverage_min: 0.28,
            coverage_max: 0.80,
            ..ZooConfig::paper()
        };
        let mut t = ZooGenerator::new(zoo).generate();
        attach_external_isps(&mut t, &ExternalIspConfig::default(), &CostModel::default());
        let tm =
            TrafficScenario { total_gbps: 7000.0, ..TrafficScenario::paper_default() }.generate(&t);
        let market = Market::truthful(&t, 3.0);
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let live = GreedySelector::with_prune_budget(16)
            .select(&market, &oracle, market.offered())
            .expect("zoo14 is auctionable")
            .links;
        assert_eq!(t.n_routers(), 40);
        assert_matches_the_kernel(&t, &live);
    }
}
