//! Capacity-aware view of a topology restricted to an active link subset.
//!
//! Links are undirected and full-duplex: each direction of a link has the
//! link's full capacity. Loads are therefore tracked per direction
//! (`fwd` = a→b in stored endpoint order, `rev` = b→a).

use crate::linkset::LinkSet;
use poc_topology::{LinkId, PocTopology, RouterId};

/// Direction of traversal of an undirected link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// From stored endpoint `a` to `b`.
    Fwd,
    /// From stored endpoint `b` to `a`.
    Rev,
}

/// A routing substrate over the subset `active` of a topology's links,
/// with mutable per-direction residual capacities.
pub struct CapacityGraph<'t> {
    topo: &'t PocTopology,
    /// adjacency: for each router, (link, neighbor) for active links.
    adj: Vec<Vec<(LinkId, RouterId)>>,
    residual_fwd: Vec<f64>,
    residual_rev: Vec<f64>,
    active: LinkSet,
}

impl<'t> CapacityGraph<'t> {
    /// Build the graph over `active ⊆ links(topo)` with full residuals.
    pub fn new(topo: &'t PocTopology, active: &LinkSet) -> Self {
        assert_eq!(active.universe(), topo.n_links(), "link-set universe must match the topology");
        let mut adj = vec![Vec::new(); topo.n_routers()];
        let mut residual_fwd = vec![0.0; topo.n_links()];
        let mut residual_rev = vec![0.0; topo.n_links()];
        for l in active.iter() {
            let link = topo.link(l);
            adj[link.a.index()].push((l, link.b));
            adj[link.b.index()].push((l, link.a));
            residual_fwd[l.index()] = link.capacity_gbps;
            residual_rev[l.index()] = link.capacity_gbps;
        }
        Self { topo, adj, residual_fwd, residual_rev, active: active.clone() }
    }

    pub fn topo(&self) -> &'t PocTopology {
        self.topo
    }

    pub fn active(&self) -> &LinkSet {
        &self.active
    }

    /// Active neighbors of `r` as (link, other endpoint).
    #[inline]
    pub fn neighbors(&self, r: RouterId) -> &[(LinkId, RouterId)] {
        &self.adj[r.index()]
    }

    /// Direction of traversing `link` out of router `from`.
    #[inline]
    pub fn dir_from(&self, link: LinkId, from: RouterId) -> Dir {
        if self.topo.link(link).a == from {
            Dir::Fwd
        } else {
            debug_assert_eq!(self.topo.link(link).b, from);
            Dir::Rev
        }
    }

    /// Residual capacity of `link` in direction `dir`, Gbit/s.
    #[inline]
    pub fn residual(&self, link: LinkId, dir: Dir) -> f64 {
        match dir {
            Dir::Fwd => self.residual_fwd[link.index()],
            Dir::Rev => self.residual_rev[link.index()],
        }
    }

    /// Consume `gbps` of residual along `link` in `dir`.
    ///
    /// # Panics
    /// Panics (debug) if this would drive the residual more than epsilon
    /// negative — the router must never over-commit. Release builds do not
    /// panic; they record the violation on the `flow.graph.overcommit`
    /// counter instead, so a logic error in a routing pass shows up in
    /// metrics rather than crashing or passing silently.
    pub fn consume(&mut self, link: LinkId, dir: Dir, gbps: f64) {
        let r = match dir {
            Dir::Fwd => &mut self.residual_fwd[link.index()],
            Dir::Rev => &mut self.residual_rev[link.index()],
        };
        *r -= gbps;
        if *r < -1e-6 {
            poc_obs::counter!("flow.graph.overcommit").inc();
            debug_assert!(*r >= -1e-6, "over-committed {link} by {}", -*r);
        }
    }

    /// Return `gbps` of residual along `link` in `dir` (used when undoing a
    /// tentative routing).
    pub fn release(&mut self, link: LinkId, dir: Dir, gbps: f64) {
        match dir {
            Dir::Fwd => self.residual_fwd[link.index()] += gbps,
            Dir::Rev => self.residual_rev[link.index()] += gbps,
        }
    }

    /// The smallest residual along `path` walked from `src` (infinite for
    /// an empty path): the most one more flow can put on it.
    pub fn bottleneck(&self, src: RouterId, path: &[LinkId]) -> Result<f64, PathMiss> {
        self.hops(src, path)
            .try_fold(f64::INFINITY, |min, hop| hop.map(|(l, d)| min.min(self.residual(l, d))))
    }

    /// [`consume`](Self::consume) `gbps` on every hop of `path` from `src`.
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
    pub fn release_path(
        &mut self,
        src: RouterId,
        path: &[LinkId],
        gbps: f64,
    ) -> Result<(), PathMiss> {
        self.hops(src, path).try_for_each(|hop| hop.map(|(l, d)| self.release(l, d, gbps)))
    }

    /// Load on `link` in `dir` (capacity − residual).
    pub fn load(&self, link: LinkId, dir: Dir) -> f64 {
        self.topo.link(link).capacity_gbps - self.residual(link, dir)
    }

    /// Whether every router can reach every other over active links
    /// (ignoring capacity).
    pub fn is_connected(&self) -> bool {
        let n = self.topo.n_routers();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![RouterId::from_index(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(r) = stack.pop() {
            for &(_, nb) in self.neighbors(r) {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    count += 1;
                    stack.push(nb);
                }
            }
        }
        count == n
    }

    /// Shortest path from `src` to `dst` by `weight`, visiting only edges
    /// for which `usable` returns true for the traversal direction.
    /// Returns the links of the path in order, or `None`.
    pub fn shortest_path(
        &self,
        src: RouterId,
        dst: RouterId,
        mut weight: impl FnMut(LinkId, Dir) -> f64,
        mut usable: impl FnMut(LinkId, Dir) -> bool,
    ) -> Option<Vec<LinkId>> {
        let n = self.topo.n_routers();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<(LinkId, RouterId)>> = vec![None; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[src.index()] = 0.0;
        heap.push(MinItem { cost: 0.0, node: src });
        while let Some(MinItem { cost, node }) = heap.pop() {
            if cost > dist[node.index()] + 1e-12 {
                continue;
            }
            if node == dst {
                break;
            }
            for &(l, nb) in self.neighbors(node) {
                let dir = self.dir_from(l, node);
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

    /// Walk `path` from `src`, yielding each link with the direction it is
    /// traversed in. Allocates nothing and borrows only the topology, so
    /// the caller may [`consume`](Self::consume) along the way. A link not
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
    use poc_topology::builder::two_bp_square;

    #[test]
    fn builds_adjacency_for_active_subset() {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let g = CapacityGraph::new(&t, &all);
        assert!(g.is_connected());
        // r0 has links to r1, r2, r3.
        assert_eq!(g.neighbors(RouterId(0)).len(), 3);

        // Deactivate BP1's links: r3 becomes isolated.
        let bp0_only = LinkSet::from_links(t.n_links(), t.links_of_bp(poc_topology::BpId(0)));
        let g2 = CapacityGraph::new(&t, &bp0_only);
        assert!(!g2.is_connected());
        assert!(g2.neighbors(RouterId(3)).is_empty());
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
        assert_eq!(g.load(l, Dir::Fwd), 30.0);
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
