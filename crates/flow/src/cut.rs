//! Cut certificates: a "no" the oracle can give without routing.
//!
//! Split the routers into `S` and its complement. Whatever the routing,
//! the demands from `S` to the rest must ride the links with one endpoint
//! on each side, and each such link offers its capacity once in that
//! direction. A link set whose crossing capacity falls short of the
//! crossing demand therefore carries the matrix under *no* routing — the
//! greedy router's incompleteness does not enter — and the router rejects
//! it under every [`crate::Constraint`], since each starts from a base
//! routing.
//!
//! The oracle learns its sides from the residual graph of the passes that
//! fail (`route::saturated_sides`), keeps those that prove the set that
//! just failed, and consults them before routing the next candidate.

use crate::linkset::LinkSet;
use crate::route::CUT_MARGIN_GBPS;
use poc_topology::PocTopology;
use poc_traffic::TrafficMatrix;

/// One router cut of an oracle's `(topology, traffic matrix)` instance,
/// with everything a candidate link set is checked against precomputed.
#[derive(Clone, Debug, PartialEq)]
pub struct CutCertificate {
    /// `side[r]` iff router `r` is in `S`.
    side: Vec<bool>,
    /// The matrix's demand from `S` to its complement, Gbit/s.
    demand_gbps: f64,
    /// Every link of the topology with exactly one endpoint in `S`.
    crossing: LinkSet,
    /// What the router's tolerances could carry across this cut beyond
    /// its capacity (see [`CUT_MARGIN_GBPS`]).
    margin_gbps: f64,
}

impl CutCertificate {
    /// The certificate of `side` over `(topo, tm)`, or `None` when the
    /// mask is not one entry per router or no demand crosses it.
    pub(crate) fn across(topo: &PocTopology, tm: &TrafficMatrix, side: Vec<bool>) -> Option<Self> {
        if side.len() != topo.n_routers() || tm.n_routers() != side.len() {
            return None;
        }
        let (mut demand_gbps, mut n_demands) = (0.0, 0usize);
        for (src, dst, gbps) in tm.iter_demands() {
            if side[src.index()] && !side[dst.index()] {
                demand_gbps += gbps;
                n_demands += 1;
            }
        }
        if n_demands == 0 {
            return None;
        }
        let crossing = LinkSet::from_links(
            topo.n_links(),
            topo.links.iter().filter(|l| side[l.a.index()] != side[l.b.index()]).map(|l| l.id),
        );
        let margin_gbps = CUT_MARGIN_GBPS * (crossing.len() + n_demands) as f64;
        Some(Self { side, demand_gbps, crossing, margin_gbps })
    }

    /// The router mask of `S`.
    pub fn side(&self) -> &[bool] {
        &self.side
    }

    pub fn demand_gbps(&self) -> f64 {
        self.demand_gbps
    }

    pub fn crossing(&self) -> &LinkSet {
        &self.crossing
    }

    pub fn margin_gbps(&self) -> f64 {
        self.margin_gbps
    }

    /// Whether `links` provably cannot carry the matrix: its capacity
    /// across the cut is below the crossing demand by more than the
    /// margin. `topo` must be the topology the certificate was made over;
    /// a set over another universe proves nothing.
    pub fn violated_by(&self, topo: &PocTopology, links: &LinkSet) -> bool {
        if links.universe() != self.crossing.universe() || topo.n_links() != links.universe() {
            return false;
        }
        let need = self.demand_gbps - self.margin_gbps;
        let mut capacity = 0.0;
        for l in links.common(&self.crossing) {
            capacity += topo.link(l).capacity_gbps;
            if capacity >= need {
                return false;
            }
        }
        capacity < need
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;
    use poc_topology::{BpId, LinkId, RouterId};

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    /// `{r0, r1, r2} | {r3}`: crossed by BP1's three 40G links.
    fn west() -> Vec<bool> {
        vec![true, true, true, false]
    }

    #[test]
    fn across_sums_the_demand_leaving_the_side_and_collects_its_links() {
        let t = two_bp_square();
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(3), 200.0);
        tm.set(r(1), r(3), 5.0);
        tm.set(r(3), r(0), 7.0); // enters the side: not this cut's demand
        tm.set(r(0), r(1), 9.0); // stays inside
        let cut = CutCertificate::across(&t, &tm, west()).unwrap();
        assert_eq!(cut.demand_gbps(), 205.0);
        assert_eq!(cut.crossing(), &LinkSet::from_links(t.n_links(), t.links_of_bp(BpId(1))));
        assert_eq!(cut.margin_gbps(), CUT_MARGIN_GBPS * 5.0, "three arcs and two demands");
        // The complement is its own cut, with the demand the other way.
        let east = CutCertificate::across(&t, &tm, vec![false, false, false, true]).unwrap();
        assert_eq!((east.demand_gbps(), east.crossing()), (7.0, cut.crossing()));
    }

    #[test]
    fn a_side_that_fits_no_router_list_or_that_nothing_crosses_is_no_certificate() {
        let t = two_bp_square();
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(3), 200.0);
        assert_eq!(CutCertificate::across(&t, &tm, vec![true; 3]), None);
        assert_eq!(CutCertificate::across(&t, &tm, vec![true; 5]), None);
        assert_eq!(CutCertificate::across(&t, &tm, vec![true; 4]), None, "everything inside");
        assert_eq!(CutCertificate::across(&t, &tm, vec![false, true, true, false]), None);
    }

    #[test]
    fn violated_only_when_capacity_is_short_by_more_than_the_margin() {
        let t = two_bp_square();
        let two_of_three = LinkSet::from_links(t.n_links(), [0, 1, 2, 3, 4].map(LinkId)); // 80G into r3
        let cut_for = |gbps: f64| {
            let mut tm = TrafficMatrix::zero(t.n_routers());
            tm.set(r(0), r(3), gbps);
            CutCertificate::across(&t, &tm, west()).unwrap()
        };
        assert!(!cut_for(79.0).violated_by(&t, &two_of_three));
        assert!(!cut_for(80.0).violated_by(&t, &two_of_three));
        // Half a nanobit over: the router still places it (`remaining <=
        // PLACE_EPS` ends the loop), so the cut must not condemn it.
        assert!(!cut_for(80.0 + 5e-10).violated_by(&t, &two_of_three));
        assert!(cut_for(80.0 + 1e-6).violated_by(&t, &two_of_three));
        assert!(cut_for(1e-6).violated_by(&t, &LinkSet::empty(t.n_links())));
        // A set over another universe is not a subset of this topology.
        assert!(!cut_for(500.0).violated_by(&t, &LinkSet::empty(t.n_links() + 1)));
    }
}
