//! Capacity-aware view of a topology restricted to an active link subset.
//!
//! Links are undirected and full-duplex: each direction of a link has the
//! link's full capacity. Loads are therefore tracked per direction
//! (`fwd` = a→b in stored endpoint order, `rev` = b→a).

use crate::linkset::LinkSet;
use poc_topology::{LinkId, PocTopology, RouterId};
use std::cell::Cell;
use std::collections::BinaryHeap;

/// Direction of traversal of an undirected link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// From stored endpoint `a` to `b`.
    Fwd = 0,
    /// From stored endpoint `b` to `a`.
    Rev = 1,
}

/// Which way [`CapacityGraph::residual_reach`] follows arcs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Reach {
    /// Routers the start can send to.
    From,
    /// Routers that can send to the start.
    To,
}

/// A routing substrate over the subset `active` of a topology's links,
/// with mutable per-direction residual capacities.
pub struct CapacityGraph<'t> {
    topo: &'t PocTopology,
    /// CSR adjacency over the active links: router `r`'s arcs are
    /// `arcs[arc_start[r]..arc_start[r + 1]]` as (link, other endpoint),
    /// in ascending link id — the order Dijkstra relaxes them in, and so
    /// the tie-break between parallel links of equal length.
    arc_start: Vec<usize>,
    arcs: Vec<(LinkId, RouterId)>,
    /// The direction each arc leaves its router in, parallel to `arcs`.
    arc_dir: Vec<Dir>,
    /// Residual of `link` in `dir` at `[2 * link + dir]`; zero for
    /// inactive links.
    residual: Vec<f64>,
    /// Dijkstra's working memory. `shortest_path` takes it for the length
    /// of a call and puts it back, so a pass of thousands of searches
    /// allocates it once.
    scratch: Cell<Scratch>,
}

/// What one [`CapacityGraph::shortest_path`] call needs and the next can
/// reuse; every field is reset at the start of a search.
#[derive(Default)]
struct Scratch {
    dist: Vec<f64>,
    prev: Vec<Pred>,
    heap: BinaryHeap<MinItem>,
}

#[inline]
fn slot(link: LinkId, dir: Dir) -> usize {
    2 * link.index() + dir as usize
}

impl<'t> CapacityGraph<'t> {
    /// Build the graph over `active ⊆ links(topo)` with full residuals.
    pub fn new(topo: &'t PocTopology, active: &LinkSet) -> Self {
        assert_eq!(active.universe(), topo.n_links(), "link-set universe must match the topology");
        let n = topo.n_routers();
        // One counting pass: degrees, their prefix sums, then each arc
        // written at its router's cursor.
        let mut arc_start = vec![0usize; n + 1];
        for l in active.iter() {
            let link = topo.link(l);
            arc_start[link.a.index() + 1] += 1;
            arc_start[link.b.index() + 1] += 1;
        }
        for r in 0..n {
            arc_start[r + 1] += arc_start[r];
        }
        let mut cursor = arc_start[..n].to_vec();
        let n_arcs = arc_start[n];
        let mut arcs = vec![(LinkId::from_index(0), RouterId::from_index(0)); n_arcs];
        let mut arc_dir = vec![Dir::Fwd; n_arcs];
        let mut residual = vec![0.0; 2 * topo.n_links()];
        for l in active.iter() {
            let link = topo.link(l);
            for (from, to, dir) in [(link.a, link.b, Dir::Fwd), (link.b, link.a, Dir::Rev)] {
                let at = &mut cursor[from.index()];
                arcs[*at] = (l, to);
                arc_dir[*at] = dir;
                *at += 1;
                residual[slot(l, dir)] = link.capacity_gbps;
            }
        }
        Self { topo, arc_start, arcs, arc_dir, residual, scratch: Cell::default() }
    }

    pub(crate) fn topo(&self) -> &'t PocTopology {
        self.topo
    }

    #[inline]
    fn arc_range(&self, r: RouterId) -> std::ops::Range<usize> {
        self.arc_start[r.index()]..self.arc_start[r.index() + 1]
    }

    /// Residual capacity of `link` in direction `dir`, Gbit/s.
    #[inline]
    pub fn residual(&self, link: LinkId, dir: Dir) -> f64 {
        self.residual[slot(link, dir)]
    }

    /// Consume `gbps` of residual along `link` in `dir`.
    ///
    /// # Panics
    /// Panics (debug) if this would drive the residual more than epsilon
    /// negative — the router must never over-commit. Release builds do not
    /// panic; they record the violation on the `flow.graph.overcommit`
    /// counter instead, so a logic error in a routing pass shows up in
    /// metrics rather than crashing or passing silently.
    pub(crate) fn consume(&mut self, link: LinkId, dir: Dir, gbps: f64) {
        let r = &mut self.residual[slot(link, dir)];
        *r -= gbps;
        if *r < -1e-6 {
            poc_obs::counter!("flow.graph.overcommit").inc();
            debug_assert!(*r >= -1e-6, "over-committed {link} by {}", -*r);
        }
    }

    /// Return `gbps` of residual along `link` in `dir` (used when undoing a
    /// tentative routing).
    pub(crate) fn release(&mut self, link: LinkId, dir: Dir, gbps: f64) {
        self.residual[slot(link, dir)] += gbps;
    }

    /// The smallest residual along `path` walked from `src` (infinite for
    /// an empty path): the most one more flow can put on it.
    pub fn bottleneck(&self, src: RouterId, path: &[LinkId]) -> Result<f64, PathMiss> {
        self.hops(src, path)
            .try_fold(f64::INFINITY, |min, hop| hop.map(|(l, d)| min.min(self.residual(l, d))))
    }

    /// Consume `gbps` of residual on every hop of `path` from `src`.
    /// A [`PathMiss`] leaves the hops before it consumed.
    pub fn consume_path(
        &mut self,
        src: RouterId,
        path: &[LinkId],
        gbps: f64,
    ) -> Result<(), PathMiss> {
        self.hops(src, path).try_for_each(|hop| hop.map(|(l, d)| self.consume(l, d, gbps)))
    }

    /// [`release`](Self::release) `gbps` on every hop of `path` from `src`.
    pub(crate) fn release_path(
        &mut self,
        src: RouterId,
        path: &[LinkId],
        gbps: f64,
    ) -> Result<(), PathMiss> {
        self.hops(src, path).try_for_each(|hop| hop.map(|(l, d)| self.release(l, d, gbps)))
    }

    /// Every arc over the active links as (tail, head, residual).
    pub(crate) fn arcs(&self) -> impl Iterator<Item = (RouterId, RouterId, f64)> + '_ {
        (0..self.topo.n_routers()).map(RouterId::from_index).flat_map(move |from| {
            let arcs = self.arc_range(from);
            self.arcs[arcs.clone()]
                .iter()
                .zip(&self.arc_dir[arcs])
                .map(move |(&(l, to), &dir)| (from, to, self.residual(l, dir)))
        })
    }

    /// The routers `from` can still send to (`Reach::From`) or that can
    /// still send to it (`Reach::To`) over arcs whose residual exceeds
    /// `floor`, `from` included, as a mask indexed by router. Every arc
    /// leaving a `From` mask, and every arc entering a `To` mask, is
    /// saturated down to `floor`.
    pub(crate) fn residual_reach(&self, from: RouterId, reach: Reach, floor: f64) -> Vec<bool> {
        let mut seen = vec![false; self.topo.n_routers()];
        let Some(start) = seen.get_mut(from.index()) else {
            return seen;
        };
        *start = true;
        let mut stack = vec![from];
        while let Some(r) = stack.pop() {
            let arcs = self.arc_range(r);
            for (&(l, nb), &dir) in self.arcs[arcs.clone()].iter().zip(&self.arc_dir[arcs]) {
                // `dir` leaves `r`; the arc arriving at `r` over the same
                // link runs the other way.
                let travelled = match (reach, dir) {
                    (Reach::From, d) => d,
                    (Reach::To, Dir::Fwd) => Dir::Rev,
                    (Reach::To, Dir::Rev) => Dir::Fwd,
                };
                if !seen[nb.index()] && self.residual(l, travelled) > floor {
                    seen[nb.index()] = true;
                    stack.push(nb);
                }
            }
        }
        seen
    }

    /// Shortest path from `src` to `dst` by `weight`, visiting only edges
    /// for which `usable` returns true for the traversal direction.
    /// Returns the links of the path in order, or `None`.
    pub fn shortest_path(
        &self,
        src: RouterId,
        dst: RouterId,
        weight: impl FnMut(LinkId, Dir) -> f64,
        usable: impl FnMut(LinkId, Dir) -> bool,
    ) -> Option<Vec<LinkId>> {
        // Taken, not borrowed: a callback that searched this graph itself
        // would find an empty scratch and allocate, never a locked one.
        let mut scratch = self.scratch.take();
        self.dijkstra(&mut scratch, src, Some(dst), weight, usable);
        let path = path_back(&scratch.prev, src, dst);
        self.scratch.set(scratch);
        path
    }

    /// The shortest paths from `src` to every router at once: the search
    /// of [`shortest_path`](Self::shortest_path) with no destination to
    /// stop at. A router's predecessor is final once the search settles it
    /// and the early exit only cuts the search short, so
    /// [`PathTree::path_to`] returns for each `dst` exactly the path
    /// `shortest_path(src, dst, ..)` returns, ties included.
    pub fn shortest_path_tree(
        &self,
        src: RouterId,
        weight: impl FnMut(LinkId, Dir) -> f64,
        usable: impl FnMut(LinkId, Dir) -> bool,
    ) -> PathTree {
        let mut scratch = self.scratch.take();
        self.dijkstra(&mut scratch, src, None, weight, usable);
        let tree = PathTree { src, prev: scratch.prev.clone() };
        self.scratch.set(scratch);
        tree
    }

    /// Dijkstra from `src`, leaving distances and predecessors in the
    /// scratch. Stops as soon as `target` is settled; `None` settles every
    /// reachable router.
    // Kept out of line: inlined into `shortest_path` and on into its
    // callers, one paper-scale search read ≈ 25 % slower; no
    // `BENCHMARK.json` workload tells the two builds apart (EXPERIMENTS.md,
    // "Packet engine: build and merge").
    #[inline(never)]
    fn dijkstra(
        &self,
        Scratch { dist, prev, heap }: &mut Scratch,
        src: RouterId,
        target: Option<RouterId>,
        mut weight: impl FnMut(LinkId, Dir) -> f64,
        mut usable: impl FnMut(LinkId, Dir) -> bool,
    ) {
        let n = self.topo.n_routers();
        dist.clear();
        dist.resize(n, f64::INFINITY);
        prev.clear();
        prev.resize(n, None);
        heap.clear();
        dist[src.index()] = 0.0;
        heap.push(MinItem { cost: 0.0, node: src });
        while let Some(MinItem { cost, node }) = heap.pop() {
            if cost > dist[node.index()] + 1e-12 {
                continue;
            }
            if target.is_some_and(|t| t == node) {
                break;
            }
            let arcs = self.arc_range(node);
            for (&(l, nb), &dir) in self.arcs[arcs.clone()].iter().zip(&self.arc_dir[arcs]) {
                if !usable(l, dir) {
                    continue;
                }
                let w = weight(l, dir);
                debug_assert!(w >= 0.0, "negative edge weight on {l}");
                let nc = cost + w;
                if nc < dist[nb.index()] - 1e-12 {
                    dist[nb.index()] = nc;
                    prev[nb.index()] = Some((l, node));
                    heap.push(MinItem { cost: nc, node: nb });
                }
            }
        }
    }

    /// Walk `path` from `src`, yielding each link with the direction it is
    /// traversed in. Allocates nothing and borrows only the topology, so
    /// the caller may consume residual along the way. A link not
    /// incident to the router the walk has reached yields a [`PathMiss`].
    pub fn hops<'p>(&self, src: RouterId, path: &'p [LinkId]) -> PathHops<'t, 'p> {
        PathHops { topo: self.topo, at: src, links: path.iter() }
    }

    /// The directions in which `path` traverses its links, starting at `src`.
    pub fn path_dirs(&self, src: RouterId, path: &[LinkId]) -> Result<Vec<Dir>, PathMiss> {
        self.hops(src, path).map(|hop| hop.map(|(_, dir)| dir)).collect()
    }
}

/// A path that does not chain from its source: `link` is not incident to
/// `at`, the router the walk had reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathMiss {
    pub link: LinkId,
    pub at: RouterId,
}

impl std::fmt::Display for PathMiss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "path link {} is not incident to {}", self.link, self.at)
    }
}

impl std::error::Error for PathMiss {}

/// Iterator behind [`CapacityGraph::hops`].
pub struct PathHops<'t, 'p> {
    topo: &'t PocTopology,
    at: RouterId,
    links: std::slice::Iter<'p, LinkId>,
}

impl Iterator for PathHops<'_, '_> {
    type Item = Result<(LinkId, Dir), PathMiss>;

    fn next(&mut self) -> Option<Self::Item> {
        let &l = self.links.next()?;
        let link = self.topo.link(l);
        let (dir, next) = if link.a == self.at {
            (Dir::Fwd, link.b)
        } else if link.b == self.at {
            (Dir::Rev, link.a)
        } else {
            return Some(Err(PathMiss { link: l, at: self.at }));
        };
        self.at = next;
        Some(Ok((l, dir)))
    }
}

/// The link a router is entered over, and from where, on its shortest path
/// from the source of a search; `None` for the source and for a router the
/// search did not reach.
type Pred = Option<(LinkId, RouterId)>;

/// Follow `prev` back from `dst` to `src`: the path's links in travel
/// order, or `None` if the search never reached `dst`.
fn path_back(prev: &[Pred], src: RouterId, dst: RouterId) -> Option<Vec<LinkId>> {
    let mut path = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (l, p) = prev[cur.index()]?;
        path.push(l);
        cur = p;
    }
    path.reverse();
    Some(path)
}

/// Result of [`CapacityGraph::shortest_path_tree`]: every shortest path
/// from one source, held as one predecessor per router.
#[derive(Clone, Debug)]
pub struct PathTree {
    src: RouterId,
    prev: Vec<Pred>,
}

impl PathTree {
    /// The links of the shortest path from the tree's source to `dst` in
    /// order (empty for the source itself), or `None` if `dst` is
    /// unreachable.
    pub fn path_to(&self, dst: RouterId) -> Option<Vec<LinkId>> {
        path_back(&self.prev, self.src, dst)
    }

    /// The first link of that path and the router it leads to; `None` for
    /// the source itself and for a `dst` the tree does not reach or hold.
    pub fn first_hop(&self, dst: RouterId) -> Option<(LinkId, RouterId)> {
        let mut hop = None;
        let mut cur = dst;
        while cur != self.src {
            let (l, p) = (*self.prev.get(cur.index())?)?;
            hop = Some((l, cur));
            cur = p;
        }
        hop
    }
}

struct MinItem {
    cost: f64,
    node: RouterId,
}
impl PartialEq for MinItem {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost
    }
}
impl Eq for MinItem {}
impl Ord for MinItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.cost.total_cmp(&self.cost)
    }
}
impl PartialOrd for MinItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::{two_bp_square, TopologyBuilder};
    use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
    use poc_topology::{CostModel, LinkOwner, Point, ZooConfig, ZooGenerator};
    use proptest::prelude::*;

    /// The Dijkstra [`CapacityGraph::shortest_path`] replaced, kept as its
    /// reference: one `Vec` of arcs per router in ascending link id, each
    /// arc's direction looked up in the topology, fresh working memory.
    fn reference_shortest_path(
        topo: &PocTopology,
        active: &LinkSet,
        src: RouterId,
        dst: RouterId,
        mut weight: impl FnMut(LinkId, Dir) -> f64,
        mut usable: impl FnMut(LinkId, Dir) -> bool,
    ) -> Option<Vec<LinkId>> {
        let n = topo.n_routers();
        let mut adj = vec![Vec::new(); n];
        for l in active.iter() {
            let link = topo.link(l);
            adj[link.a.index()].push((l, link.b));
            adj[link.b.index()].push((l, link.a));
        }
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<(LinkId, RouterId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = 0.0;
        heap.push(MinItem { cost: 0.0, node: src });
        while let Some(MinItem { cost, node }) = heap.pop() {
            if cost > dist[node.index()] + 1e-12 {
                continue;
            }
            if node == dst {
                break;
            }
            for &(l, nb) in &adj[node.index()] {
                let dir = if topo.link(l).a == node { Dir::Fwd } else { Dir::Rev };
                if !usable(l, dir) {
                    continue;
                }
                let nc = cost + weight(l, dir);
                if nc < dist[nb.index()] - 1e-12 {
                    dist[nb.index()] = nc;
                    prev[nb.index()] = Some((l, node));
                    heap.push(MinItem { cost: nc, node: nb });
                }
            }
        }
        if dist[dst.index()].is_infinite() {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (l, p) = prev[cur.index()].expect("broken predecessor chain");
            path.push(l);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    fn small_zoo_with_isps() -> &'static PocTopology {
        static ZOO: std::sync::OnceLock<PocTopology> = std::sync::OnceLock::new();
        ZOO.get_or_init(|| {
            let mut t = ZooGenerator::new(ZooConfig::small()).generate();
            attach_external_isps(&mut t, &ExternalIspConfig::default(), &CostModel::default());
            t
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random active subsets, random loads, random residual thresholds
        /// and endpoints: the CSR kernel with reused scratch returns the
        /// reference's path, link for link, with the early exit and without
        /// it. Unit weights make nearly every relaxation a tie, so the arc
        /// order is what decides.
        #[test]
        fn shortest_path_matches_the_nested_vec_reference(
            dropped in prop::collection::vec(0usize..1 << 16, 0..600),
            loaded in prop::collection::vec((0usize..1 << 16, 0.0f64..1.0), 0..400),
            queries in prop::collection::vec(
                (0usize..1 << 16, 0usize..1 << 16, 0.0f64..120.0, 0u8..3),
                1..8,
            ),
        ) {
            let topo = small_zoo_with_isps();
            let link = |i: usize| LinkId::from_index(i % topo.n_links());
            let mut active = LinkSet::full(topo.n_links());
            for i in dropped {
                active.remove(link(i));
            }
            let mut g = CapacityGraph::new(topo, &active);
            for (i, frac) in loaded {
                let dir = if (i >> 8) % 2 == 0 { Dir::Fwd } else { Dir::Rev };
                if active.contains(link(i)) {
                    g.consume(link(i), dir, frac * g.residual(link(i), dir));
                }
            }
            for (s, d, threshold, metric) in queries {
                let src = RouterId::from_index(s % topo.n_routers());
                let dst = RouterId::from_index(d % topo.n_routers());
                let weight = |l: LinkId, _| match metric {
                    0 => 1.0,
                    1 => topo.link(l).distance_km,
                    _ => topo.link(l).distance_km * if topo.link(l).owner.is_virtual() { 8.0 } else { 1.0 },
                };
                let usable = |l: LinkId, dir| g.residual(l, dir) >= threshold;
                let expected = reference_shortest_path(topo, &active, src, dst, weight, usable);
                prop_assert_eq!(g.shortest_path(src, dst, weight, usable), expected.clone());
                // The search that never stops early settles `dst` the same way.
                prop_assert_eq!(g.shortest_path_tree(src, weight, usable).path_to(dst), expected);
            }
        }
    }

    #[test]
    fn residual_reach_follows_arcs_with_residual_in_the_asked_direction() {
        let t = two_bp_square();
        let mut g = CapacityGraph::new(&t, &LinkSet::full(t.n_links()));
        let (r0, r3) = (RouterId(0), RouterId(3));
        assert_eq!(g.residual_reach(r0, Reach::From, 1e-9), [true; 4]);
        // Fill every arc into r3 (l3 r0–r3, l4 r2–r3, l5 r1–r3; r3 is `b`).
        for l in [3, 4, 5].map(LinkId) {
            g.consume(l, Dir::Fwd, 40.0);
        }
        assert_eq!(g.residual_reach(r0, Reach::From, 1e-9), [true, true, true, false]);
        assert_eq!(g.residual_reach(r3, Reach::To, 1e-9), [false, false, false, true]);
        // The arcs out of r3 are untouched: full duplex.
        assert_eq!(g.residual_reach(r3, Reach::From, 1e-9), [true; 4]);
        assert_eq!(g.residual_reach(r0, Reach::To, 1e-9), [true; 4]);
        // A start outside the topology reaches nothing.
        assert_eq!(g.residual_reach(RouterId(9), Reach::From, 1e-9), [false; 4]);
    }

    #[test]
    fn parallel_links_of_equal_length_tie_break_on_lowest_link_id() {
        let mut b = TopologyBuilder::new();
        let c0 = b.city("x", Point::new(0.0, 0.0), 1.0);
        let c1 = b.city("y", Point::new(100.0, 0.0), 1.0);
        let c2 = b.city("z", Point::new(200.0, 0.0), 1.0);
        let bp = b.bp("bp", vec![c0, c1, c2], vec![(c0, c1), (c1, c2)]);
        let (r0, r1, r2) = (b.router(c0, vec![bp]), b.router(c1, vec![bp]), b.router(c2, vec![bp]));
        // Declared out of endpoint order and interleaved between the two
        // router pairs, so arc order within a router is not insertion luck.
        let l0 = b.link(LinkOwner::Bp(bp), r1, r0, 10.0, 125.0, 1, 1.0);
        let l1 = b.link(LinkOwner::Bp(bp), r2, r1, 10.0, 125.0, 1, 1.0);
        let l2 = b.link(LinkOwner::Bp(bp), r0, r1, 10.0, 125.0, 1, 1.0);
        let l3 = b.link(LinkOwner::Bp(bp), r1, r2, 10.0, 125.0, 1, 1.0);
        let t = b.build();
        let km = |l: LinkId, _| t.link(l).distance_km;
        let path = |active: &[LinkId], from, to| {
            let g =
                CapacityGraph::new(&t, &LinkSet::from_links(t.n_links(), active.iter().copied()));
            g.shortest_path(from, to, km, |_, _| true)
        };
        assert_eq!(path(&[l0, l1, l2, l3], r0, r2), Some(vec![l0, l1]));
        assert_eq!(path(&[l0, l1, l2, l3], r2, r0), Some(vec![l1, l0]));
        assert_eq!(path(&[l1, l2, l3], r0, r2), Some(vec![l2, l1]));
        assert_eq!(path(&[l0, l2, l3], r2, r0), Some(vec![l3, l0]));
    }

    #[test]
    fn reused_scratch_never_leaks_between_searches() {
        let t = small_zoo_with_isps();
        let mut active = LinkSet::full(t.n_links());
        // Thin the graph so some filtered searches find nothing.
        for i in (0..t.n_links()).filter(|i| i % 3 != 0) {
            active.remove(LinkId::from_index(i));
        }
        let shared = CapacityGraph::new(t, &active);
        let n = t.n_routers();
        let mut unreachable = 0;
        for k in 0..200usize {
            let src = RouterId::from_index((k * 7) % n);
            let dst = RouterId::from_index((k * 13 + 5) % n);
            let min_cap = [0.0, 40.0, 100.0, 400.0][k % 4];
            let km = |l: LinkId, _| t.link(l).distance_km;
            let wide = |l: LinkId, _| t.link(l).capacity_gbps >= min_cap && l.index() % 5 != k % 5;
            let fresh = CapacityGraph::new(t, &active);
            let expected = fresh.shortest_path(src, dst, km, wide);
            unreachable += usize::from(expected.is_none());
            assert_eq!(shared.shortest_path(src, dst, km, wide), expected, "search {k}");
        }
        assert!((1..200).contains(&unreachable), "mix of found and not: {unreachable}");
    }

    #[test]
    fn shortest_path_by_distance() {
        let t = two_bp_square();
        let g = CapacityGraph::new(&t, &LinkSet::full(t.n_links()));
        let w = |l: LinkId, _| t.link(l).distance_km;
        let path = g.shortest_path(RouterId(0), RouterId(3), w, |_, _| true).expect("connected");
        // Direct r0-r3 is 1830km; r0-r2-r3 is 910+950=1860; direct wins.
        assert_eq!(path.len(), 1);
        assert!(t.link(path[0]).connects(RouterId(0), RouterId(3)));
    }

    #[test]
    fn shortest_path_respects_usability_filter() {
        let t = two_bp_square();
        let g = CapacityGraph::new(&t, &LinkSet::full(t.n_links()));
        let direct = g
            .shortest_path(RouterId(0), RouterId(3), |l, _| t.link(l).distance_km, |_, _| true)
            .unwrap()[0];
        // Forbid the direct link: must take a 2-hop detour.
        let path = g
            .shortest_path(
                RouterId(0),
                RouterId(3),
                |l, _| t.link(l).distance_km,
                |l, _| l != direct,
            )
            .expect("detour exists");
        assert_eq!(path.len(), 2);
        assert!(!path.contains(&direct));
    }

    #[test]
    fn residual_accounting() {
        let t = two_bp_square();
        let mut g = CapacityGraph::new(&t, &LinkSet::full(t.n_links()));
        let l = LinkId(0);
        let cap = t.link(l).capacity_gbps;
        assert_eq!(g.residual(l, Dir::Fwd), cap);
        g.consume(l, Dir::Fwd, 30.0);
        assert_eq!(g.residual(l, Dir::Fwd), cap - 30.0);
        assert_eq!(g.residual(l, Dir::Rev), cap, "directions are independent");
        g.release(l, Dir::Fwd, 30.0);
        assert_eq!(g.residual(l, Dir::Fwd), cap);
    }

    #[test]
    fn path_dirs_follow_traversal() {
        let t = two_bp_square();
        let g = CapacityGraph::new(&t, &LinkSet::full(t.n_links()));
        let path = g
            .shortest_path(RouterId(3), RouterId(0), |l, _| t.link(l).distance_km, |_, _| true)
            .unwrap();
        let dirs = g.path_dirs(RouterId(3), &path).unwrap();
        assert_eq!(dirs.len(), path.len());
        // First hop leaves r3; stored endpoints are ordered a<b so r3 is `b`
        // on all its links → traversal starts Rev.
        assert_eq!(dirs[0], Dir::Rev);
    }

    #[test]
    fn path_not_chaining_from_its_source_is_a_typed_miss() {
        let t = two_bp_square();
        let g = CapacityGraph::new(&t, &LinkSet::full(t.n_links()));
        let l = (0..t.n_links())
            .map(LinkId::from_index)
            .find(|&l| t.link(l).other_end(RouterId(3)).is_none())
            .unwrap();
        assert_eq!(g.path_dirs(RouterId(3), &[l]), Err(PathMiss { link: l, at: RouterId(3) }));
    }

    #[test]
    fn no_path_returns_none() {
        let t = two_bp_square();
        let none = LinkSet::empty(t.n_links());
        let g = CapacityGraph::new(&t, &none);
        assert!(g.shortest_path(RouterId(0), RouterId(1), |_, _| 1.0, |_, _| true).is_none());
    }
}
