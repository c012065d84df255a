//! Optional POC network services (§3.1).
//!
//! Beyond point-to-point transit the paper lets the POC offer "multicast
//! and anycast delivery mechanisms" and openly-priced QoS tiers — with the
//! hard rule that such services be *openly offered* at posted prices,
//! never granted selectively. This module implements all three on top of
//! the installed forwarding fabric:
//!
//! * [`AnycastGroup`] — one logical address served by several replica
//!   routers; the fabric resolves each client to its nearest replica;
//! * [`MulticastTree`] — a shortest-path distribution tree from a source
//!   to a subscriber set, with link-usage accounting (one copy per link,
//!   the whole point of multicast);
//! * [`QosCatalog`] — posted-price service tiers; purchases are open to
//!   every member (enforced by construction) and generate ledger-ready
//!   charges.

use crate::fabric::ForwardingState;
use poc_topology::{LinkId, PocTopology, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// An anycast group: a service reachable at whichever replica is nearest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnycastGroup {
    pub name: String,
    pub replicas: Vec<RouterId>,
}

impl AnycastGroup {
    pub fn new(name: &str, replicas: Vec<RouterId>) -> Self {
        assert!(!replicas.is_empty(), "anycast group needs at least one replica");
        Self { name: name.to_string(), replicas }
    }

    /// Resolve a client router to its nearest replica (by fabric path
    /// length in km) and the path to it. `None` if no replica is
    /// reachable.
    pub fn resolve(
        &self,
        topo: &PocTopology,
        fabric: &ForwardingState,
        client: RouterId,
    ) -> Option<(RouterId, Vec<LinkId>)> {
        let mut best: Option<(f64, RouterId, Vec<LinkId>)> = None;
        for &replica in &self.replicas {
            let Some(path) = fabric.path(client, replica) else { continue };
            let km: f64 = path.iter().map(|&l| topo.link(l).distance_km).sum();
            let better = match &best {
                None => true,
                Some((bkm, brep, _)) => {
                    km < bkm - 1e-9 || ((km - bkm).abs() <= 1e-9 && replica < *brep)
                }
            };
            if better {
                best = Some((km, replica, path));
            }
        }
        best.map(|(_, r, p)| (r, p))
    }
}

/// A multicast distribution tree from one source to a subscriber set,
/// built from the fabric's unicast paths (shortest-path tree; a classic,
/// not Steiner-optimal, but loop-free and deduplicated).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MulticastTree {
    pub source: RouterId,
    pub subscribers: Vec<RouterId>,
    /// Links of the tree (each link carries exactly one copy).
    pub links: BTreeSet<LinkId>,
    /// Subscribers unreachable from the source.
    pub unreachable: Vec<RouterId>,
}

impl MulticastTree {
    /// Build the tree over the installed fabric.
    pub fn build(fabric: &ForwardingState, source: RouterId, subscribers: &[RouterId]) -> Self {
        let mut links = BTreeSet::new();
        let mut unreachable = Vec::new();
        for &sub in subscribers {
            if sub == source {
                continue;
            }
            match fabric.path(source, sub) {
                Some(path) => links.extend(path),
                None => unreachable.push(sub),
            }
        }
        Self { source, subscribers: subscribers.to_vec(), links, unreachable }
    }

    /// Total fabric bandwidth consumed for a stream of `rate_gbps`
    /// (one copy per tree link).
    pub fn bandwidth_gbps(&self, rate_gbps: f64) -> f64 {
        rate_gbps * self.links.len() as f64
    }

    /// Bandwidth the same delivery would cost as unicast (one copy per
    /// subscriber path link) — the multicast saving baseline.
    pub fn unicast_bandwidth_gbps(&self, fabric: &ForwardingState, rate_gbps: f64) -> f64 {
        let mut total_links = 0usize;
        for &sub in &self.subscribers {
            if sub == self.source {
                continue;
            }
            if let Some(path) = fabric.path(self.source, sub) {
                total_links += path.len();
            }
        }
        rate_gbps * total_links as f64
    }
}

/// One openly-offered QoS tier. `price_per_gbps` is the monthly posted
/// price; the open offer is structural — there is no per-member gate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QosTier {
    pub name: String,
    /// Scheduling priority boost relative to best-effort.
    pub priority: i32,
    pub price_per_gbps: f64,
}

/// The POC's posted-price QoS catalog (§3.1: offerings must be open so
/// "users could choose their desired level of service and pay the
/// resulting price").
///
/// ```
/// use poc_core::services::{QosCatalog, QosTier};
///
/// let mut catalog = QosCatalog::new();
/// catalog.publish(QosTier { name: "gold".into(), priority: 10, price_per_gbps: 12.0 });
/// // Posted prices: the same purchase costs the same for everyone.
/// let a = catalog.purchase("gold", 4.0).unwrap();
/// let b = catalog.purchase("gold", 4.0).unwrap();
/// assert_eq!(a, b);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct QosCatalog {
    tiers: BTreeMap<String, QosTier>,
}

/// A purchase of a tier by a member, priced at the posted rate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QosPurchase {
    pub tier: String,
    pub gbps: f64,
    pub monthly_charge: f64,
}

impl QosCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a tier. Republishing a name updates the posted price —
    /// openly, for everyone at once.
    pub fn publish(&mut self, tier: QosTier) {
        assert!(
            tier.price_per_gbps >= 0.0 && tier.price_per_gbps.is_finite(),
            "posted price must be non-negative"
        );
        self.tiers.insert(tier.name.clone(), tier);
    }

    pub fn tiers(&self) -> impl Iterator<Item = &QosTier> {
        self.tiers.values()
    }

    pub fn get(&self, name: &str) -> Option<&QosTier> {
        self.tiers.get(name)
    }

    /// Purchase `gbps` of a tier at its posted price. The same call with
    /// the same arguments yields the same charge for every member —
    /// non-discrimination by construction.
    pub fn purchase(&self, tier: &str, gbps: f64) -> Option<QosPurchase> {
        assert!(gbps > 0.0 && gbps.is_finite(), "purchase must be positive");
        let t = self.tiers.get(tier)?;
        Some(QosPurchase { tier: t.name.clone(), gbps, monthly_charge: t.price_per_gbps * gbps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_flow::LinkSet;
    use poc_topology::builder::two_bp_square;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    fn fabric(topo: &PocTopology) -> ForwardingState {
        ForwardingState::install(topo, &LinkSet::full(topo.n_links()))
    }

    #[test]
    fn anycast_resolves_to_nearest_replica() {
        let t = two_bp_square();
        let f = fabric(&t);
        let group = AnycastGroup::new("dns", vec![r(1), r(3)]);
        // r0 is 1300km from r1 and 1830km from r3 → r1.
        let (replica, path) = group.resolve(&t, &f, r(0)).unwrap();
        assert_eq!(replica, r(1));
        assert_eq!(path.len(), 1);
        // A client at a replica resolves to itself with an empty path.
        let (replica, path) = group.resolve(&t, &f, r(3)).unwrap();
        assert_eq!(replica, r(3));
        assert!(path.is_empty());
    }

    #[test]
    fn anycast_unreachable_when_fabric_partitioned() {
        let t = two_bp_square();
        let bp0_only = LinkSet::from_links(t.n_links(), t.links_of_bp(poc_topology::BpId(0)));
        let f = ForwardingState::install(&t, &bp0_only);
        let group = AnycastGroup::new("cdn", vec![r(3)]);
        assert!(group.resolve(&t, &f, r(0)).is_none());
    }

    #[test]
    fn multicast_tree_dedupes_shared_links() {
        let t = two_bp_square();
        let f = fabric(&t);
        // Source r0, subscribers r1 and r2: paths are the direct links, no
        // sharing; subscribers r3 via r1/r2 would share the first hop with
        // them. Use all three.
        let tree = MulticastTree::build(&f, r(0), &[r(1), r(2), r(3)]);
        assert!(tree.unreachable.is_empty());
        // Tree bandwidth strictly below unicast when any link is shared,
        // and never above.
        let mc = tree.bandwidth_gbps(10.0);
        let uc = tree.unicast_bandwidth_gbps(&f, 10.0);
        assert!(mc <= uc, "multicast {mc} must not exceed unicast {uc}");
        assert_eq!(mc, 10.0 * tree.links.len() as f64);
    }

    #[test]
    fn multicast_reports_unreachable_subscribers() {
        let t = two_bp_square();
        let bp0_only = LinkSet::from_links(t.n_links(), t.links_of_bp(poc_topology::BpId(0)));
        let f = ForwardingState::install(&t, &bp0_only);
        let tree = MulticastTree::build(&f, r(0), &[r(1), r(3)]);
        assert_eq!(tree.unreachable, vec![r(3)]);
        assert!(!tree.links.is_empty(), "reachable subscriber still served");
    }

    #[test]
    fn qos_catalog_posted_prices_uniform() {
        let mut catalog = QosCatalog::new();
        catalog.publish(QosTier { name: "gold".into(), priority: 10, price_per_gbps: 12.0 });
        catalog.publish(QosTier { name: "silver".into(), priority: 5, price_per_gbps: 5.0 });
        assert_eq!(catalog.tiers().count(), 2);
        // Same purchase, same price — for anyone.
        let a = catalog.purchase("gold", 4.0).unwrap();
        let b = catalog.purchase("gold", 4.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.monthly_charge, 48.0);
        assert!(catalog.purchase("platinum", 1.0).is_none());
    }

    #[test]
    fn qos_republish_updates_price_openly() {
        let mut catalog = QosCatalog::new();
        catalog.publish(QosTier { name: "gold".into(), priority: 10, price_per_gbps: 12.0 });
        catalog.publish(QosTier { name: "gold".into(), priority: 10, price_per_gbps: 9.0 });
        assert_eq!(catalog.get("gold").unwrap().price_per_gbps, 9.0);
        assert_eq!(catalog.tiers().count(), 1);
    }
}
