//! The offered-link market: `OL = VL ∪ ⋃_α L_α` with its cost function.
//!
//! A [`Market`] assembles the BP bids and the virtual-link contract prices
//! over a topology, exposes the total declared cost
//! `C(L) = Σ_α C_α(L ∩ L_α) + C_v(L ∩ VL)`, and can withdraw a BP
//! (`OL − L_α`) for the Clarke pivot computation.

use crate::bids::BpBid;
use poc_flow::LinkSet;
use poc_topology::{BpId, LinkId, LinkOwner, PocTopology};
use std::collections::BTreeMap;

/// Errors assembling or mutating a market from bids.
#[derive(Clone, Debug, PartialEq)]
pub enum MarketError {
    /// A bid's pricing failed its internal sanity checks.
    InvalidPricing { bp: BpId, reason: String },
    /// A bid came from a BP that owns no links in the topology.
    UnknownBp(BpId),
    /// A bid covers more or fewer links than the BP actually offers.
    CoverageMismatch { bp: BpId },
}

impl std::fmt::Display for MarketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarketError::InvalidPricing { bp, reason } => {
                write!(f, "invalid pricing in bid of {bp}: {reason}")
            }
            MarketError::UnknownBp(bp) => write!(f, "bid from {bp} which owns no links"),
            MarketError::CoverageMismatch { bp } => {
                write!(f, "bid of {bp} must cover exactly its offered links")
            }
        }
    }
}

impl std::error::Error for MarketError {}

/// The auction market over a topology.
pub struct Market<'t> {
    topo: &'t PocTopology,
    bids: BTreeMap<BpId, BpBid>,
    /// Per-BP offered links (universe-sized bitsets).
    bp_links: BTreeMap<BpId, LinkSet>,
    /// Virtual links and their contract prices.
    virtual_links: LinkSet,
    virtual_prices: BTreeMap<LinkId, f64>,
    /// All offered links.
    offered: LinkSet,
}

impl<'t> Market<'t> {
    /// Assemble a market from bids. Every BP-owned link in the topology
    /// must be covered by its owner's bid pricing; virtual links are priced
    /// at `premium × true_monthly_cost` — their contract price is fixed
    /// outside the auction (paper: "dictated by the long-term contract").
    ///
    /// Rejects bids with invalid pricing, bids from BPs that own no
    /// links, and bids covering only part of the BP's offered links.
    pub fn new(
        topo: &'t PocTopology,
        bids: Vec<BpBid>,
        virtual_price_factor: f64,
    ) -> Result<Self, MarketError> {
        assert!(virtual_price_factor > 0.0, "virtual price factor must be positive");
        let n = topo.n_links();
        let mut bp_links: BTreeMap<BpId, LinkSet> = BTreeMap::new();
        let mut virtual_links = LinkSet::empty(n);
        let mut virtual_prices = BTreeMap::new();
        for link in &topo.links {
            match link.owner {
                LinkOwner::Bp(bp) => {
                    bp_links.entry(bp).or_insert_with(|| LinkSet::empty(n)).insert(link.id);
                }
                LinkOwner::Virtual(_) => {
                    virtual_links.insert(link.id);
                    virtual_prices.insert(link.id, link.true_monthly_cost * virtual_price_factor);
                }
            }
        }
        let mut bid_map = BTreeMap::new();
        for bid in bids {
            bid.pricing
                .validate()
                .map_err(|reason| MarketError::InvalidPricing { bp: bid.bp, reason })?;
            let owned = bp_links.get(&bid.bp).ok_or(MarketError::UnknownBp(bid.bp))?;
            let covered = LinkSet::from_links(n, bid.pricing.covered_links());
            if covered != *owned {
                return Err(MarketError::CoverageMismatch { bp: bid.bp });
            }
            bid_map.insert(bid.bp, bid);
        }
        // BPs without a bid do not participate: their links are withdrawn.
        let mut offered = virtual_links.clone();
        for (bp, links) in &bp_links {
            if bid_map.contains_key(bp) {
                offered = offered.union(links);
            }
        }
        bp_links.retain(|bp, _| bid_map.contains_key(bp));
        Ok(Self { topo, bids: bid_map, bp_links, virtual_links, virtual_prices, offered })
    }

    /// Market where every BP bids truthfully (additive at true cost) —
    /// the baseline configuration for Figure 2. BPs with nothing to offer
    /// (possible under sparse internal wiring) simply do not participate.
    pub fn truthful(topo: &'t PocTopology, virtual_price_factor: f64) -> Self {
        let bids = topo
            .bps
            .iter()
            .filter_map(|bp| {
                let links = topo.links_of_bp(bp.id);
                if links.is_empty() {
                    return None;
                }
                Some(BpBid::truthful_additive(
                    bp.id,
                    links.into_iter().map(|l| (l, topo.link(l).true_monthly_cost)),
                ))
            })
            .collect();
        // Truthful bids cover exactly the owned links at finite true
        // costs, so assembly cannot fail.
        Self::new(topo, bids, virtual_price_factor)
            .expect("truthful bids are valid by construction")
    }

    pub fn topo(&self) -> &'t PocTopology {
        self.topo
    }

    /// All offered links `OL`.
    pub fn offered(&self) -> &LinkSet {
        &self.offered
    }

    /// Offered links of one BP (`L_α`), if it participates.
    pub fn links_of(&self, bp: BpId) -> Option<&LinkSet> {
        self.bp_links.get(&bp)
    }

    /// Participating BPs in ascending id order.
    pub fn participants(&self) -> Vec<BpId> {
        self.bids.keys().copied().collect()
    }

    /// `OL − L_α` for the pivot computation.
    pub fn offered_without(&self, bp: BpId) -> LinkSet {
        match self.bp_links.get(&bp) {
            Some(ls) => self.offered.difference(ls),
            None => self.offered.clone(),
        }
    }

    /// `C_α(L ∩ L_α)`: one BP's declared price for its share of `links`.
    pub fn bp_cost(&self, bp: BpId, links: &LinkSet) -> f64 {
        match (self.bids.get(&bp), self.bp_links.get(&bp)) {
            (Some(bid), Some(owned)) => bid.pricing.price(&links.intersection(owned)),
            _ => 0.0,
        }
    }

    /// Contract cost of the virtual links within `links`.
    pub fn virtual_cost(&self, links: &LinkSet) -> f64 {
        links.intersection(&self.virtual_links).iter().map(|l| self.virtual_prices[&l]).sum()
    }

    /// Total declared cost `C(L)`.
    pub fn total_cost(&self, links: &LinkSet) -> f64 {
        let bp_sum: f64 = self.bids.keys().map(|&bp| self.bp_cost(bp, links)).sum();
        bp_sum + self.virtual_cost(links)
    }

    /// Standalone price signal for one offered link (greedy selection's
    /// marginal-cost proxy): bid unit price for BP links, contract price
    /// for virtual links, infinity for links not offered.
    pub fn unit_price(&self, l: LinkId) -> f64 {
        if !self.offered.contains(l) {
            return f64::INFINITY;
        }
        match self.topo.link(l).owner {
            LinkOwner::Bp(bp) => self.bids[&bp].pricing.unit_price(l),
            LinkOwner::Virtual(_) => self.virtual_prices[&l],
        }
    }

    /// [`unit_price`](Self::unit_price) of every link of the topology,
    /// indexed by link: what a routing pass that prices each arc it relaxes
    /// reads in place of the per-call offer test and bid lookups.
    pub(crate) fn unit_prices(&self) -> Vec<f64> {
        let mut prices = vec![f64::INFINITY; self.topo.n_links()];
        for l in self.offered.iter() {
            prices[l.index()] = self.unit_price(l);
        }
        prices
    }

    /// Restrict a BP's offer to `keep ⊆ L_α` (link withholding, §3.3's
    /// collusion discussion). The bid's pricing is preserved for remaining
    /// links; withheld links leave `OL`.
    pub(crate) fn withhold_links(&mut self, bp: BpId, withheld: &LinkSet) {
        let Some(owned) = self.bp_links.get_mut(&bp) else {
            return;
        };
        owned.subtract(withheld);
        self.offered.subtract(withheld);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bids::SubsetPricing;
    use poc_topology::builder::two_bp_square;

    #[test]
    fn truthful_market_prices_match_true_costs() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let all = LinkSet::full(t.n_links());
        let want: f64 = t.links.iter().map(|l| l.true_monthly_cost).sum();
        assert!((m.total_cost(&all) - want).abs() < 1e-9);
        assert_eq!(m.participants(), vec![BpId(0), BpId(1)]);
    }

    #[test]
    fn offered_without_removes_exactly_bp_links() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let without = m.offered_without(BpId(0));
        assert_eq!(without.len(), 3);
        for l in t.links_of_bp(BpId(0)) {
            assert!(!without.contains(l));
        }
        for l in t.links_of_bp(BpId(1)) {
            assert!(without.contains(l));
        }
    }

    #[test]
    fn bp_cost_only_counts_own_share() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let all = LinkSet::full(t.n_links());
        let bp0: f64 = t.links_of_bp(BpId(0)).iter().map(|&l| t.link(l).true_monthly_cost).sum();
        assert!((m.bp_cost(BpId(0), &all) - bp0).abs() < 1e-9);
        assert_eq!(m.bp_cost(BpId(7), &all), 0.0, "unknown BP costs nothing");
    }

    #[test]
    fn non_participating_bp_links_not_offered() {
        let t = two_bp_square();
        // Only BP1 bids.
        let bids = vec![BpBid::truthful_additive(
            BpId(1),
            t.links_of_bp(BpId(1)).into_iter().map(|l| (l, t.link(l).true_monthly_cost)),
        )];
        let m = Market::new(&t, bids, 3.0).unwrap();
        assert_eq!(m.offered().len(), 3);
        assert!(m.links_of(BpId(0)).is_none());
    }

    #[test]
    fn withholding_shrinks_offer() {
        let t = two_bp_square();
        let mut m = Market::truthful(&t, 3.0);
        let withheld = LinkSet::from_links(t.n_links(), [t.links_of_bp(BpId(0))[0]]);
        m.withhold_links(BpId(0), &withheld);
        assert_eq!(m.offered().len(), 5);
        assert_eq!(m.links_of(BpId(0)).unwrap().len(), 2);
    }

    #[test]
    fn partial_bid_coverage_rejected() {
        let t = two_bp_square();
        let links = t.links_of_bp(BpId(0));
        let bids = vec![BpBid {
            bp: BpId(0),
            pricing: SubsetPricing::Additive { per_link: [(links[0], 1.0)].into() },
        }];
        assert_eq!(
            Market::new(&t, bids, 3.0).err().unwrap(),
            MarketError::CoverageMismatch { bp: BpId(0) }
        );
    }

    #[test]
    fn bid_from_unknown_bp_rejected() {
        let t = two_bp_square();
        let bids = vec![BpBid {
            bp: BpId(9),
            pricing: SubsetPricing::Additive { per_link: [(LinkId(0), 1.0)].into() },
        }];
        assert_eq!(Market::new(&t, bids, 3.0).err().unwrap(), MarketError::UnknownBp(BpId(9)));
    }

    #[test]
    fn invalid_pricing_rejected() {
        let t = two_bp_square();
        let bids = vec![BpBid::truthful_additive(
            BpId(0),
            t.links_of_bp(BpId(0)).into_iter().map(|l| (l, -1.0)),
        )];
        match Market::new(&t, bids, 3.0).err().unwrap() {
            MarketError::InvalidPricing { bp, .. } => assert_eq!(bp, BpId(0)),
            other => panic!("expected InvalidPricing, got {other:?}"),
        }
    }

    #[test]
    fn unit_price_infinite_for_unoffered() {
        let t = two_bp_square();
        let mut m = Market::truthful(&t, 3.0);
        let l0 = t.links_of_bp(BpId(0))[0];
        assert!(m.unit_price(l0).is_finite());
        m.withhold_links(BpId(0), &LinkSet::from_links(t.n_links(), [l0]));
        assert_eq!(m.unit_price(l0), f64::INFINITY);
    }
}

#[cfg(test)]
mod sparse_offer_tests {
    use super::*;
    use poc_topology::zoo::{InternalStyle, ZooConfig, ZooGenerator};

    /// Ring-wired BPs can end up with no offerable links (hop bound);
    /// the truthful market must simply exclude them.
    #[test]
    fn truthful_market_skips_empty_bps() {
        let cfg = ZooConfig { internal_style: InternalStyle::Ring, ..ZooConfig::small() };
        let topo = ZooGenerator::new(cfg).generate();
        let m = Market::truthful(&topo, 3.0);
        for bp in m.participants() {
            assert!(
                !m.links_of(bp).expect("participant").is_empty(),
                "{bp} participates with no links"
            );
        }
        // Offered set matches the union of participant links exactly.
        let total: usize = m.participants().iter().map(|&b| m.links_of(b).unwrap().len()).sum();
        let virtuals = topo.virtual_links().len();
        assert_eq!(m.offered().len(), total + virtuals);
    }
}
