//! The bid language: per-BP subset pricing `C_α`.
//!
//! The paper allows each BP to map every subset of its offered links to a
//! minimal acceptable price ("this allows the BP to offer discounts for
//! multiple links, or other non-additive variations in pricing"), with
//! unoffered subsets priced at infinity. A literal powerset map is
//! exponential, so three concrete forms are supported:
//!
//! * [`SubsetPricing::Additive`] — price of a subset is the sum of per-link
//!   prices (the baseline, and one arm of the bid-language ablation);
//! * [`SubsetPricing::VolumeDiscount`] — additive prices times a
//!   non-increasing multiplier keyed by how many links are leased: the
//!   practical non-additive form;
//! * [`SubsetPricing::Explicit`] — a literal subset→price table for small
//!   instances and for property tests of strategy-proofness.

use poc_flow::LinkSet;
use poc_topology::{BpId, LinkId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// `C_α`: a BP's minimal acceptable price for each subset of its links.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SubsetPricing {
    /// `C(S) = Σ_{l ∈ S} price[l]`.
    Additive { per_link: BTreeMap<LinkId, f64> },
    /// `C(S) = mult(|S|) · Σ_{l ∈ S} price[l]`, with `schedule` a list of
    /// `(min_links, multiplier)` thresholds, multiplier non-increasing in
    /// `min_links` (bulk discount). The applicable multiplier is that of
    /// the largest threshold ≤ |S|; below the first threshold it is 1.
    VolumeDiscount { per_link: BTreeMap<LinkId, f64>, schedule: Vec<(usize, f64)> },
    /// A literal table. Subsets absent from the table are priced at
    /// infinity (the paper's "not offered"). The empty set is always free.
    Explicit { subsets: Vec<(Vec<LinkId>, f64)> },
}

impl SubsetPricing {
    /// Price of `subset`. `subset` must only contain this BP's links; the
    /// caller ([`crate::market::Market`]) guarantees that by intersecting
    /// with `L_α` first.
    pub(crate) fn price(&self, subset: &LinkSet) -> f64 {
        if subset.is_empty() {
            return 0.0;
        }
        match self {
            SubsetPricing::Additive { per_link } => sum_prices(per_link, subset),
            SubsetPricing::VolumeDiscount { per_link, schedule } => {
                let base = sum_prices(per_link, subset);
                base * multiplier_for(schedule, subset.len())
            }
            SubsetPricing::Explicit { subsets } => {
                let want: Vec<LinkId> = subset.iter().collect();
                subsets
                    .iter()
                    .find(|(links, _)| {
                        let mut sorted = links.clone();
                        sorted.sort();
                        sorted == want
                    })
                    .map(|(_, p)| *p)
                    .unwrap_or(f64::INFINITY)
            }
        }
    }

    /// The links this pricing covers.
    pub(crate) fn covered_links(&self) -> Vec<LinkId> {
        match self {
            SubsetPricing::Additive { per_link }
            | SubsetPricing::VolumeDiscount { per_link, .. } => per_link.keys().copied().collect(),
            SubsetPricing::Explicit { subsets } => {
                let mut all: Vec<LinkId> =
                    subsets.iter().flat_map(|(ls, _)| ls.iter().copied()).collect();
                all.sort();
                all.dedup();
                all
            }
        }
    }

    /// Standalone (singleton-subset) price of one link: the per-link price
    /// for the additive forms; for explicit tables, the singleton's table
    /// price. Used by the greedy selector as the marginal-cost signal.
    pub(crate) fn unit_price(&self, l: LinkId) -> f64 {
        match self {
            SubsetPricing::Additive { per_link }
            | SubsetPricing::VolumeDiscount { per_link, .. } => {
                per_link.get(&l).copied().unwrap_or(f64::INFINITY)
            }
            SubsetPricing::Explicit { subsets } => subsets
                .iter()
                .find(|(ls, _)| ls.len() == 1 && ls[0] == l)
                .map(|(_, p)| *p)
                .unwrap_or(f64::INFINITY),
        }
    }

    /// Internal sanity checks: finite non-negative prices and a
    /// non-increasing discount schedule.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match self {
            SubsetPricing::Additive { per_link } => validate_prices(per_link),
            SubsetPricing::VolumeDiscount { per_link, schedule } => {
                validate_prices(per_link)?;
                let mut prev_thresh = 0usize;
                let mut prev_mult = 1.0f64;
                for &(thresh, mult) in schedule {
                    if thresh <= prev_thresh && prev_thresh != 0 {
                        return Err("discount thresholds must increase".into());
                    }
                    if !(mult.is_finite() && mult > 0.0 && mult <= prev_mult) {
                        return Err("discount multipliers must be non-increasing in (0,1]".into());
                    }
                    prev_thresh = thresh;
                    prev_mult = mult;
                }
                Ok(())
            }
            SubsetPricing::Explicit { subsets } => {
                for (links, p) in subsets {
                    if links.is_empty() {
                        return Err("explicit table must not price the empty set".into());
                    }
                    if !(p.is_finite() && *p >= 0.0) {
                        return Err("explicit prices must be finite and non-negative".into());
                    }
                }
                Ok(())
            }
        }
    }
}

fn sum_prices(per_link: &BTreeMap<LinkId, f64>, subset: &LinkSet) -> f64 {
    subset.iter().map(|l| per_link.get(&l).copied().unwrap_or(f64::INFINITY)).sum()
}

fn multiplier_for(schedule: &[(usize, f64)], n: usize) -> f64 {
    schedule.iter().filter(|&&(thresh, _)| n >= thresh).map(|&(_, m)| m).fold(1.0, f64::min)
}

/// One BP's complete bid: its identity, its offered links, and its pricing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BpBid {
    pub bp: BpId,
    pub pricing: SubsetPricing,
}

impl BpBid {
    /// Truthful bid: additive pricing at the links' true monthly costs.
    pub fn truthful_additive(bp: BpId, links: impl IntoIterator<Item = (LinkId, f64)>) -> Self {
        Self { bp, pricing: SubsetPricing::Additive { per_link: links.into_iter().collect() } }
    }

    /// Truthful bid with a bulk-discount schedule over true costs.
    pub fn truthful_discounted(
        bp: BpId,
        links: impl IntoIterator<Item = (LinkId, f64)>,
        schedule: Vec<(usize, f64)>,
    ) -> Self {
        Self {
            bp,
            pricing: SubsetPricing::VolumeDiscount {
                per_link: links.into_iter().collect(),
                schedule,
            },
        }
    }
}

fn validate_prices(per_link: &BTreeMap<LinkId, f64>) -> Result<(), String> {
    for (l, p) in per_link {
        if !(p.is_finite() && *p >= 0.0) {
            return Err(format!("link {l} has invalid price {p}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    fn set(universe: usize, links: &[u32]) -> LinkSet {
        LinkSet::from_links(universe, links.iter().map(|&i| l(i)))
    }

    #[test]
    fn additive_prices_sum() {
        let p =
            SubsetPricing::Additive { per_link: [(l(0), 10.0), (l(1), 20.0), (l(2), 30.0)].into() };
        assert_eq!(p.price(&set(3, &[0, 2])), 40.0);
        assert_eq!(p.price(&set(3, &[])), 0.0);
        assert_eq!(p.unit_price(l(1)), 20.0);
        assert_eq!(p.unit_price(l(9)), f64::INFINITY);
    }

    #[test]
    fn volume_discount_applies_largest_threshold() {
        let p = SubsetPricing::VolumeDiscount {
            per_link: [(l(0), 10.0), (l(1), 10.0), (l(2), 10.0)].into(),
            schedule: vec![(2, 0.9), (3, 0.8)],
        };
        assert_eq!(p.price(&set(3, &[0])), 10.0);
        assert_eq!(p.price(&set(3, &[0, 1])), 18.0);
        assert_eq!(p.price(&set(3, &[0, 1, 2])), 24.0);
        p.validate().unwrap();
    }

    #[test]
    fn discount_makes_pricing_subadditive() {
        let p = SubsetPricing::VolumeDiscount {
            per_link: [(l(0), 10.0), (l(1), 14.0)].into(),
            schedule: vec![(2, 0.85)],
        };
        let both = p.price(&set(2, &[0, 1]));
        let split = p.price(&set(2, &[0])) + p.price(&set(2, &[1]));
        assert!(both < split);
    }

    #[test]
    fn explicit_table_unlisted_is_infinite() {
        let p =
            SubsetPricing::Explicit { subsets: vec![(vec![l(0)], 5.0), (vec![l(0), l(1)], 8.0)] };
        assert_eq!(p.price(&set(2, &[0])), 5.0);
        assert_eq!(p.price(&set(2, &[0, 1])), 8.0);
        assert_eq!(p.price(&set(2, &[1])), f64::INFINITY);
        assert_eq!(p.price(&set(2, &[])), 0.0, "empty set always free");
    }

    #[test]
    fn validate_rejects_increasing_discounts() {
        let bad = SubsetPricing::VolumeDiscount {
            per_link: [(l(0), 1.0)].into(),
            schedule: vec![(2, 0.8), (3, 0.9)],
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_negative_price() {
        let bad = SubsetPricing::Additive { per_link: [(l(0), -1.0)].into() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn covered_links_sorted_unique() {
        let p =
            SubsetPricing::Explicit { subsets: vec![(vec![l(2), l(0)], 1.0), (vec![l(0)], 0.5)] };
        assert_eq!(p.covered_links(), vec![l(0), l(2)]);
    }
}
