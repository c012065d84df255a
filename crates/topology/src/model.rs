//! Core topology data model: cities, BP networks, POC routers, logical links.

use crate::geo::Point;
use crate::ids::{BpId, LinkId, PopId, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A city / PoP location. `weight` is a population-like attractor used by
/// gravity-model traffic matrices and by the generator when sizing BPs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct City {
    pub id: PopId,
    pub name: String,
    pub pos: Point,
    pub weight: f64,
}

/// A bandwidth provider's own physical network: the cities it is present in
/// and the physical adjacencies between them. Logical links offered to the
/// POC are paths through this network between POC-router cities.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BpNetwork {
    pub id: BpId,
    pub name: String,
    /// Cities where this BP has a PoP.
    pub cities: Vec<PopId>,
    /// Undirected physical edges, as pairs of cities (both in `cities`).
    pub edges: Vec<(PopId, PopId)>,
}

impl BpNetwork {
    /// Whether the BP has a PoP in `city`.
    pub fn present_in(&self, city: PopId) -> bool {
        self.cities.contains(&city)
    }
}

/// Who offers a logical link to the POC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum LinkOwner {
    /// Offered by a bandwidth provider and priced through the auction.
    Bp(BpId),
    /// A *virtual link* provided by the external ISP with the given index:
    /// a path through that ISP between two POC attachment points, priced by
    /// long-term contract (paper §3.3), not by the auction.
    Virtual(u32),
}

impl LinkOwner {
    pub fn as_bp(self) -> Option<BpId> {
        match self {
            LinkOwner::Bp(b) => Some(b),
            LinkOwner::Virtual(_) => None,
        }
    }

    pub fn is_virtual(self) -> bool {
        matches!(self, LinkOwner::Virtual(_))
    }
}

/// A point-to-point connection between two POC routers offered for lease.
/// "Logical" because it may traverse several physical links inside the
/// owner's network (`hop_count` of them, spanning `distance_km`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LogicalLink {
    pub id: LinkId,
    pub owner: LinkOwner,
    /// Endpoints, stored with `a < b` (links are undirected).
    pub a: RouterId,
    pub b: RouterId,
    /// Usable capacity in Gbit/s.
    pub capacity_gbps: f64,
    /// Physical fibre distance, km (≥ straight-line distance).
    pub distance_km: f64,
    /// Number of physical hops inside the owner network.
    pub hop_count: u32,
    /// The owner's true monthly cost of providing this link, in dollars.
    /// Bids are built on top of this by the auction crate; the auction never
    /// sees this field directly (it sees declared bids).
    pub true_monthly_cost: f64,
}

impl LogicalLink {
    /// The endpoint opposite to `r`, or `None` if `r` is not an endpoint.
    pub fn other_end(&self, r: RouterId) -> Option<RouterId> {
        if r == self.a {
            Some(self.b)
        } else if r == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Whether the link connects the (unordered) router pair `(x, y)`.
    pub fn connects(&self, x: RouterId, y: RouterId) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }
}

/// A POC router, placed at a city where at least the colocation threshold
/// of BPs are present.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PocRouter {
    pub id: RouterId,
    pub city: PopId,
    /// BPs colocated at this router's city.
    pub colocated_bps: Vec<BpId>,
}

/// The full POC topology instance consumed by the feasibility oracle and
/// the bandwidth auction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PocTopology {
    pub cities: Vec<City>,
    pub bps: Vec<BpNetwork>,
    pub routers: Vec<PocRouter>,
    pub links: Vec<LogicalLink>,
}

impl PocTopology {
    /// Number of POC routers.
    pub fn n_routers(&self) -> usize {
        self.routers.len()
    }

    /// Number of logical links (BP-offered plus virtual).
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Look up a link by id. Panics on a dangling id — ids are only minted
    /// by this crate, so a miss is a logic error, not an input error.
    pub fn link(&self, id: LinkId) -> &LogicalLink {
        &self.links[id.index()]
    }

    pub fn router(&self, id: RouterId) -> &PocRouter {
        &self.routers[id.index()]
    }

    pub fn city(&self, id: PopId) -> &City {
        &self.cities[id.index()]
    }

    /// Position of a router on the plane.
    fn router_pos(&self, id: RouterId) -> Point {
        self.city(self.router(id).city).pos
    }

    /// Straight-line distance between two routers, km.
    pub fn router_distance(&self, a: RouterId, b: RouterId) -> f64 {
        self.router_pos(a).distance(self.router_pos(b))
    }

    /// Ids of all links owned by `bp`.
    pub fn links_of_bp(&self, bp: BpId) -> Vec<LinkId> {
        self.links.iter().filter(|l| l.owner == LinkOwner::Bp(bp)).map(|l| l.id).collect()
    }

    /// Ids of all virtual (external-ISP) links.
    pub fn virtual_links(&self) -> Vec<LinkId> {
        self.links.iter().filter(|l| l.owner.is_virtual()).map(|l| l.id).collect()
    }

    /// Link count per BP, keyed by BP id.
    pub fn links_per_bp(&self) -> BTreeMap<BpId, usize> {
        let mut m: BTreeMap<BpId, usize> = self.bps.iter().map(|b| (b.id, 0)).collect();
        for l in &self.links {
            if let LinkOwner::Bp(b) = l.owner {
                *m.entry(b).or_insert(0) += 1;
            }
        }
        m
    }

    /// A cheap structural fingerprint of this instance: FNV-1a over the
    /// structural counts, link endpoints, and link capacities. Not
    /// cryptographic — a "same instance?" check used by the control
    /// plane's recovery path and by `poc-flow`'s feasibility cache to
    /// refuse cross-instance reuse.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.mix(self.n_routers() as u64);
        h.mix(self.n_links() as u64);
        h.mix(self.bps.len() as u64);
        for l in &self.links {
            h.mix(l.a.0 as u64);
            h.mix(l.b.0 as u64);
            h.mix(l.capacity_gbps.to_bits());
        }
        h.finish()
    }

    /// Internal consistency check; used by tests and by deserialization
    /// call-sites that accept instances from outside this crate.
    pub fn validate(&self) -> Result<(), String> {
        for (i, c) in self.cities.iter().enumerate() {
            if c.id.index() != i {
                return Err(format!("city {} stored at index {i}", c.id));
            }
            if !(c.weight.is_finite() && c.weight > 0.0) {
                return Err(format!("city {} has non-positive weight", c.id));
            }
        }
        for (i, r) in self.routers.iter().enumerate() {
            if r.id.index() != i {
                return Err(format!("router {} stored at index {i}", r.id));
            }
            if r.city.index() >= self.cities.len() {
                return Err(format!("router {} at unknown city {}", r.id, r.city));
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.id.index() != i {
                return Err(format!("link {} stored at index {i}", l.id));
            }
            if l.a >= l.b {
                return Err(format!("link {} endpoints not ordered (a<b)", l.id));
            }
            if l.b.index() >= self.routers.len() {
                return Err(format!("link {} references unknown router {}", l.id, l.b));
            }
            if !(l.capacity_gbps.is_finite() && l.capacity_gbps > 0.0) {
                return Err(format!("link {} has non-positive capacity", l.id));
            }
            if !(l.true_monthly_cost.is_finite() && l.true_monthly_cost >= 0.0) {
                return Err(format!("link {} has invalid cost", l.id));
            }
            if let LinkOwner::Bp(b) = l.owner {
                if b.index() >= self.bps.len() {
                    return Err(format!("link {} owned by unknown BP {}", l.id, b));
                }
            }
        }
        Ok(())
    }
}

/// Incremental FNV-1a hasher behind the structural fingerprints. Public so
/// downstream crates can extend a topology fingerprint with their own state
/// (e.g. `poc-flow` mixes in the traffic matrix and constraint to
/// fingerprint a whole oracle instance).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    /// Mix one 64-bit word into the hash.
    pub fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PocTopology {
        let cities = vec![
            City { id: PopId(0), name: "a".into(), pos: Point::new(0.0, 0.0), weight: 1.0 },
            City { id: PopId(1), name: "b".into(), pos: Point::new(100.0, 0.0), weight: 2.0 },
        ];
        let bps = vec![BpNetwork {
            id: BpId(0),
            name: "bp0".into(),
            cities: vec![PopId(0), PopId(1)],
            edges: vec![(PopId(0), PopId(1))],
        }];
        let routers = vec![
            PocRouter { id: RouterId(0), city: PopId(0), colocated_bps: vec![BpId(0)] },
            PocRouter { id: RouterId(1), city: PopId(1), colocated_bps: vec![BpId(0)] },
        ];
        let links = vec![LogicalLink {
            id: LinkId(0),
            owner: LinkOwner::Bp(BpId(0)),
            a: RouterId(0),
            b: RouterId(1),
            capacity_gbps: 100.0,
            distance_km: 100.0,
            hop_count: 1,
            true_monthly_cost: 1000.0,
        }];
        PocTopology { cities, bps, routers, links }
    }

    #[test]
    fn tiny_topology_validates() {
        tiny().validate().unwrap();
    }

    #[test]
    fn other_end_and_connects() {
        let t = tiny();
        let l = t.link(LinkId(0));
        assert_eq!(l.other_end(RouterId(0)), Some(RouterId(1)));
        assert_eq!(l.other_end(RouterId(1)), Some(RouterId(0)));
        assert_eq!(l.other_end(RouterId(9)), None);
        assert!(l.connects(RouterId(1), RouterId(0)));
        assert!(!l.connects(RouterId(1), RouterId(1)));
    }

    #[test]
    fn links_per_bp_counts_only_bp_links() {
        let mut t = tiny();
        t.links.push(LogicalLink {
            id: LinkId(1),
            owner: LinkOwner::Virtual(0),
            a: RouterId(0),
            b: RouterId(1),
            capacity_gbps: 10.0,
            distance_km: 120.0,
            hop_count: 3,
            true_monthly_cost: 5000.0,
        });
        t.validate().unwrap();
        let per = t.links_per_bp();
        assert_eq!(per[&BpId(0)], 1);
        assert_eq!(t.virtual_links(), vec![LinkId(1)]);
    }

    #[test]
    fn validate_rejects_unordered_endpoints() {
        let mut t = tiny();
        let l = &mut t.links[0];
        std::mem::swap(&mut l.a, &mut l.b);
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_dangling_router() {
        let mut t = tiny();
        t.links[0].b = RouterId(40);
        assert!(t.validate().is_err());
    }

    #[test]
    fn router_distance_matches_geometry() {
        let t = tiny();
        assert!((t.router_distance(RouterId(0), RouterId(1)) - 100.0).abs() < 1e-9);
    }
}
