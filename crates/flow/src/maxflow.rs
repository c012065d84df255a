//! Dinic max-flow over an active link set.
//!
//! Used as an *exact* single-commodity oracle: it upper-bounds what any
//! routing can achieve between one router pair, which makes it the test
//! oracle for the greedy router and the basis of the ablation comparing
//! feasibility oracles (DESIGN.md §4).

use crate::linkset::LinkSet;
use poc_topology::{PocTopology, RouterId};

/// Typed error for max-flow queries. The library must not panic on bad
/// caller input (ids can cross crate and process boundaries via the
/// control plane), so out-of-range routers are reported, not asserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowError {
    /// A queried router id is not a node of this graph.
    RouterOutOfRange { router: RouterId, n_routers: usize },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::RouterOutOfRange { router, n_routers } => {
                write!(f, "router {router} outside graph of {n_routers} routers")
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// Internal directed-edge representation: every undirected full-duplex link
/// becomes two independent directed arcs, each with the link's capacity
/// (plus the usual residual reverse arcs).
struct Arc {
    to: usize,
    cap: f64,
    /// Index of the reverse arc in `arcs`.
    rev: usize,
}

/// Dinic max-flow solver.
pub(crate) struct MaxFlow {
    n: usize,
    adj: Vec<Vec<usize>>,
    arcs: Vec<Arc>,
}

impl MaxFlow {
    /// Build the flow network over `active ⊆ links(topo)`.
    pub(crate) fn new(topo: &PocTopology, active: &LinkSet) -> Self {
        let n = topo.n_routers();
        let mut mf = Self { n, adj: vec![Vec::new(); n], arcs: Vec::new() };
        for l in active.iter() {
            let link = topo.link(l);
            // Full-duplex: independent capacity in each direction.
            mf.add_arc(link.a.index(), link.b.index(), link.capacity_gbps);
            mf.add_arc(link.b.index(), link.a.index(), link.capacity_gbps);
        }
        mf
    }

    fn add_arc(&mut self, from: usize, to: usize, cap: f64) {
        let a = self.arcs.len();
        self.arcs.push(Arc { to, cap, rev: a + 1 });
        self.arcs.push(Arc { to: from, cap: 0.0, rev: a });
        self.adj[from].push(a);
        self.adj[to].push(a + 1);
    }

    /// Maximum flow from `src` to `dst`, Gbit/s, or
    /// [`FlowError::RouterOutOfRange`] when either endpoint is not a node
    /// of this graph. Consumes the residual state, so build a fresh solver
    /// per query.
    ///
    /// Metrics: each call bumps `flow.maxflow.runs`, and the number of
    /// augmenting paths found is batched into `flow.maxflow.augment`
    /// (one atomic add per run, not per path).
    pub(crate) fn max_flow(&mut self, src: RouterId, dst: RouterId) -> Result<f64, FlowError> {
        let _span = poc_obs::span!("flow.maxflow.run");
        poc_obs::counter!("flow.maxflow.runs").inc();
        let (s, t) = (src.index(), dst.index());
        for router in [src, dst] {
            if router.index() >= self.n {
                return Err(FlowError::RouterOutOfRange { router, n_routers: self.n });
            }
        }
        if s == t {
            return Ok(0.0);
        }
        let mut flow = 0.0;
        let mut augmenting_paths: u64 = 0;
        loop {
            let level = self.bfs_levels(s);
            if level[t].is_none() {
                break;
            }
            let mut it = vec![0usize; self.n];
            loop {
                let pushed = self.dfs(s, t, f64::INFINITY, &level, &mut it);
                if pushed <= 1e-12 {
                    break;
                }
                augmenting_paths += 1;
                flow += pushed;
            }
        }
        poc_obs::counter!("flow.maxflow.augment").add(augmenting_paths);
        Ok(flow)
    }

    fn bfs_levels(&self, s: usize) -> Vec<Option<u32>> {
        let mut level = vec![None; self.n];
        level[s] = Some(0);
        let mut q = std::collections::VecDeque::from([s]);
        while let Some(u) = q.pop_front() {
            for &ai in &self.adj[u] {
                let a = &self.arcs[ai];
                if a.cap > 1e-12 && level[a.to].is_none() {
                    level[a.to] = Some(level[u].unwrap() + 1);
                    q.push_back(a.to);
                }
            }
        }
        level
    }

    fn dfs(
        &mut self,
        u: usize,
        t: usize,
        pushed: f64,
        level: &[Option<u32>],
        it: &mut [usize],
    ) -> f64 {
        if u == t {
            return pushed;
        }
        while it[u] < self.adj[u].len() {
            let ai = self.adj[u][it[u]];
            let (to, cap) = (self.arcs[ai].to, self.arcs[ai].cap);
            let ok = cap > 1e-12
                && matches!((level[u], level[to]), (Some(lu), Some(lt)) if lt == lu + 1);
            if ok {
                let d = self.dfs(to, t, pushed.min(cap), level, it);
                if d > 1e-12 {
                    self.arcs[ai].cap -= d;
                    let rev = self.arcs[ai].rev;
                    self.arcs[rev].cap += d;
                    return d;
                }
            }
            it[u] += 1;
        }
        0.0
    }
}

/// Convenience: max flow between one pair over `active`.
pub fn max_flow_between(
    topo: &PocTopology,
    active: &LinkSet,
    src: RouterId,
    dst: RouterId,
) -> Result<f64, FlowError> {
    MaxFlow::new(topo, active).max_flow(src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    #[test]
    fn single_link_flow_is_capacity() {
        let t = two_bp_square();
        // Restrict to just the r0-r1 direct link (link 0, 100G).
        let one = LinkSet::from_links(t.n_links(), [poc_topology::LinkId(0)]);
        assert!((max_flow_between(&t, &one, r(0), r(1)).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_paths_add_up() {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        // r0→r1: direct 100 + via r2 min(100,100)=100 + via r3 min(40,40)=40.
        let f = max_flow_between(&t, &all, r(0), r(1)).unwrap();
        assert!((f - 240.0).abs() < 1e-6, "got {f}");
    }

    #[test]
    fn disconnected_pair_has_zero_flow() {
        let t = two_bp_square();
        let bp0 = LinkSet::from_links(t.n_links(), t.links_of_bp(poc_topology::BpId(0)));
        assert_eq!(max_flow_between(&t, &bp0, r(0), r(3)), Ok(0.0));
    }

    #[test]
    fn flow_bounded_by_cut_toward_r3() {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        // All r3 adjacency is BP1's three 40G links: cut = 120.
        let f = max_flow_between(&t, &all, r(0), r(3)).unwrap();
        assert!((f - 120.0).abs() < 1e-6, "got {f}");
    }

    #[test]
    fn self_flow_is_zero() {
        let t = two_bp_square();
        assert_eq!(max_flow_between(&t, &LinkSet::full(t.n_links()), r(2), r(2)), Ok(0.0));
    }

    #[test]
    fn out_of_range_router_is_typed_error_not_panic() {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let n = t.n_routers();
        assert_eq!(
            max_flow_between(&t, &all, r(99), r(0)),
            Err(FlowError::RouterOutOfRange { router: r(99), n_routers: n })
        );
        assert_eq!(
            max_flow_between(&t, &all, r(0), r(99)),
            Err(FlowError::RouterOutOfRange { router: r(99), n_routers: n })
        );
        let msg = FlowError::RouterOutOfRange { router: r(99), n_routers: n }.to_string();
        assert!(msg.contains("outside graph"), "{msg}");
    }

    #[test]
    fn greedy_router_never_beats_maxflow() {
        // Cross-check oracle: any demand the greedy router places between a
        // pair must be ≤ the pair's max flow.
        use crate::route::route_tm;
        use poc_traffic::TrafficMatrix;
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        for demand in [50.0, 120.0, 240.0] {
            let mut tm = TrafficMatrix::zero(t.n_routers());
            tm.set(r(0), r(1), demand);
            let routed = route_tm(&t, &all, &tm).is_ok();
            let mf = max_flow_between(&t, &all, r(0), r(1)).unwrap();
            if routed {
                assert!(demand <= mf + 1e-6, "greedy packed {demand} > maxflow {mf}");
            }
        }
    }
}
