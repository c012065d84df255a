//! A compact bitset over the offered-link universe.
//!
//! The auction manipulates many subsets of up to ~5000 links (candidate
//! solutions, per-BP withdrawals `OL − L_α`, failure scenarios), so subsets
//! are represented as `u64` bitsets rather than hash sets.

use poc_topology::LinkId;
use serde::{Deserialize, Serialize};

/// A subset of the links `0..universe`.
///
/// ```
/// use poc_flow::LinkSet;
/// use poc_topology::LinkId;
///
/// let mut sl = LinkSet::empty(8);
/// sl.insert(LinkId(2));
/// sl.insert(LinkId(5));
/// assert_eq!(sl.len(), 2);
/// assert!(sl.is_subset_of(&LinkSet::full(8)));
/// let withdrawn = LinkSet::full(8).difference(&sl);
/// assert_eq!(withdrawn.len(), 6);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct LinkSet {
    universe: usize,
    bits: Vec<u64>,
}

impl LinkSet {
    /// The empty subset of a universe with `universe` links.
    pub fn empty(universe: usize) -> Self {
        Self { universe, bits: vec![0; universe.div_ceil(64)] }
    }

    /// The full subset.
    pub fn full(universe: usize) -> Self {
        let mut bits = vec![u64::MAX; universe.div_ceil(64)];
        // Bits past the universe stay clear: `len`, `==` and `Hash` read
        // whole words.
        let tail = universe % 64;
        if let Some(last) = bits.last_mut().filter(|_| tail != 0) {
            *last = (1u64 << tail) - 1;
        }
        Self { universe, bits }
    }

    /// Build from an iterator of link ids.
    pub fn from_links(universe: usize, links: impl IntoIterator<Item = LinkId>) -> Self {
        let mut s = Self::empty(universe);
        for l in links {
            s.insert(l);
        }
        s
    }

    pub fn universe(&self) -> usize {
        self.universe
    }

    #[inline]
    pub fn contains(&self, l: LinkId) -> bool {
        let i = l.index();
        debug_assert!(i < self.universe, "link {l} outside universe {}", self.universe);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    #[inline]
    pub fn insert(&mut self, l: LinkId) {
        let i = l.index();
        assert!(i < self.universe, "link {l} outside universe {}", self.universe);
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    pub fn remove(&mut self, l: LinkId) {
        let i = l.index();
        assert!(i < self.universe, "link {l} outside universe {}", self.universe);
        self.bits[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of links in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterate members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = LinkId> + '_ {
        // Not `ones(..)`: every graph build iterates its set through this,
        // and folded into the shared helper it compiled to a slower loop
        // (`migrate_walk_zoo14` expand plans 37 -> 42 ms, 0 of 10 pairs).
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(LinkId::from_index(wi * 64 + b))
                }
            })
        })
    }

    /// Iterate `self ∩ other` in ascending id order, word by word, without
    /// building the intersection. Unlike the set algebra below it does not
    /// insist on equal universes: words past the shorter set hold no
    /// common member.
    pub(crate) fn common<'a>(&'a self, other: &'a LinkSet) -> impl Iterator<Item = LinkId> + 'a {
        ones(self.bits.iter().zip(&other.bits).map(|(a, b)| a & b))
    }

    /// `self \ other`. Panics on mismatched universes.
    pub fn difference(&self, other: &LinkSet) -> LinkSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let bits = self.bits.iter().zip(&other.bits).map(|(a, b)| a & !b).collect();
        LinkSet { universe: self.universe, bits }
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &LinkSet) -> LinkSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let bits = self.bits.iter().zip(&other.bits).map(|(a, b)| a | b).collect();
        LinkSet { universe: self.universe, bits }
    }

    /// `self ∩ other`.
    pub fn intersection(&self, other: &LinkSet) -> LinkSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let bits = self.bits.iter().zip(&other.bits).map(|(a, b)| a & b).collect();
        LinkSet { universe: self.universe, bits }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &LinkSet) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// Remove all of `other`'s members from `self` in place.
    pub fn subtract(&mut self, other: &LinkSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !b;
        }
    }
}

/// The set bits of `words`, lowest first, as link ids.
fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = LinkId> {
    words.enumerate().flat_map(|(wi, mut w)| {
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(LinkId::from_index(wi * 64 + b))
            }
        })
    })
}

impl FromIterator<LinkId> for LinkSet {
    /// Collect links into a set whose universe is one past the largest id.
    /// Mostly for tests; prefer [`LinkSet::from_links`] with an explicit
    /// universe in production code.
    fn from_iter<T: IntoIterator<Item = LinkId>>(iter: T) -> Self {
        let links: Vec<LinkId> = iter.into_iter().collect();
        let universe = links.iter().map(|l| l.index() + 1).max().unwrap_or(0);
        Self::from_links(universe, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = LinkSet::empty(130);
        assert!(!s.contains(l(0)));
        s.insert(l(0));
        s.insert(l(64));
        s.insert(l(129));
        assert!(s.contains(l(0)) && s.contains(l(64)) && s.contains(l(129)));
        assert_eq!(s.len(), 3);
        s.remove(l(64));
        assert!(!s.contains(l(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn full_and_empty() {
        for universe in [0, 1, 63, 64, 65, 100, 128] {
            let f = LinkSet::full(universe);
            assert_eq!(f.len(), universe);
            assert_eq!(f, LinkSet::from_links(universe, (0..universe).map(LinkId::from_index)));
        }
        assert!(!LinkSet::full(100).is_empty());
        assert!(LinkSet::empty(100).is_empty());
    }

    #[test]
    fn iter_ascending() {
        let s = LinkSet::from_links(200, [l(100), l(3), l(64), l(199)]);
        let v: Vec<u32> = s.iter().map(|x| x.0).collect();
        assert_eq!(v, vec![3, 64, 100, 199]);
    }

    #[test]
    fn set_algebra() {
        let a = LinkSet::from_links(10, [l(1), l(2), l(3)]);
        let b = LinkSet::from_links(10, [l(3), l(4)]);
        assert_eq!(a.difference(&b), LinkSet::from_links(10, [l(1), l(2)]));
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b), LinkSet::from_links(10, [l(3)]));
        assert!(LinkSet::from_links(10, [l(1)]).is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        let mut c = a.clone();
        c.subtract(&b);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn common_iterates_the_intersection() {
        let a = LinkSet::from_links(200, [l(1), l(64), l(100), l(199)]);
        let b = LinkSet::from_links(200, [l(64), l(65), l(199)]);
        assert_eq!(a.common(&b).collect::<Vec<_>>(), a.intersection(&b).iter().collect::<Vec<_>>());
        assert_eq!(a.common(&LinkSet::full(70)).collect::<Vec<_>>(), vec![l(1), l(64)]);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_universes_panic() {
        let a = LinkSet::empty(10);
        let b = LinkSet::empty(11);
        let _ = a.union(&b);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_insert_panics() {
        LinkSet::empty(10).insert(l(10));
    }
}
