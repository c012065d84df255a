//! Greedy multi-commodity routing with flow splitting.
//!
//! The feasibility question "can this link set carry the traffic matrix?"
//! is a multi-commodity flow problem. Exact MCF is an LP; at auction scale
//! (thousands of candidate-set evaluations) we instead use the standard
//! greedy heuristic: route demands largest-first along the shortest
//! residual-feasible path, splitting a demand across several paths when no
//! single path has enough headroom. The heuristic is *conservative* — a
//! `Routing` it returns is always genuinely feasible (capacities respected);
//! it may only fail on instances an LP could still pack.

use crate::graph::{CapacityGraph, Dir, PathMiss, Reach};
use crate::linkset::LinkSet;
use poc_topology::{LinkId, PocTopology, RouterId};
use poc_traffic::TrafficMatrix;

/// One routed demand: possibly split over several paths.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRoute {
    pub src: RouterId,
    pub dst: RouterId,
    pub demand_gbps: f64,
    /// (links in order, Gbit/s carried on that path).
    pub paths: Vec<(Vec<LinkId>, f64)>,
}

impl FlowRoute {
    /// The *primary* split: the `(path, share)` carrying the largest share,
    /// the last of equal shares; `None` for a flow with no path.
    pub fn primary(&self) -> Option<&(Vec<LinkId>, f64)> {
        self.paths.iter().max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// A complete feasible routing of a traffic matrix over an active link set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Routing {
    pub flows: Vec<FlowRoute>,
    /// Directed load per link (indexed by link id): a→b and b→a.
    pub load_fwd: Vec<f64>,
    pub load_rev: Vec<f64>,
}

impl Routing {
    /// The [`FlowRoute::primary`] path of the flow `src → dst`, if the
    /// flow exists and was routed.
    pub(crate) fn primary_path(&self, src: RouterId, dst: RouterId) -> Option<&[LinkId]> {
        self.flows
            .iter()
            .find(|f| f.src == src && f.dst == dst)?
            .primary()
            .map(|(p, _)| p.as_slice())
    }

    /// Maximum directional utilization over links in `active`, given their
    /// capacities in `topo` (1.0 = some link full).
    pub fn max_utilization(&self, topo: &PocTopology) -> f64 {
        let mut max = 0.0f64;
        for (i, (&f, &r)) in self.load_fwd.iter().zip(&self.load_rev).enumerate() {
            let cap = topo.links[i].capacity_gbps;
            if cap > 0.0 {
                max = max.max(f / cap).max(r / cap);
            }
        }
        max
    }
}

/// Why a matrix could not be routed.
#[derive(Clone, Debug, PartialEq)]
pub enum RouteError {
    /// No residual-feasible path (even split) for this demand.
    Unroutable { src: RouterId, dst: RouterId, remaining_gbps: f64 },
    /// The active set does not even connect the endpoints.
    Disconnected { src: RouterId, dst: RouterId },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Unroutable { src, dst, remaining_gbps } => {
                write!(f, "no residual capacity for {remaining_gbps:.2} Gbps of {src}->{dst}")
            }
            RouteError::Disconnected { src, dst } => {
                write!(f, "{src} and {dst} are disconnected in the active set")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Maximum number of times one demand is split before giving up: a demand
/// rides at most `MAX_SPLITS + 1` paths.
const MAX_SPLITS: usize = 32;

/// Distance multiplier applied to external-ISP virtual links on the
/// retry pass: plain distance-shortest routing can be lured onto the
/// (few, shared) virtual links and saturate them, failing instances that
/// are feasible when the virtual fallback is used sparingly. The greedy
/// router therefore tries plain distances first and, on failure, retries
/// with virtual links de-preferred.
pub(crate) const VIRTUAL_RETRY_PENALTY: f64 = 8.0;

/// The placement loop's tolerance, Gbit/s: a demand counts as placed once
/// `remaining <= PLACE_EPS`, a path fits `want` when every arc's residual
/// is `>= want - PLACE_EPS`, and an arc with residual `<= PLACE_EPS` is full.
pub(crate) const PLACE_EPS: f64 = 1e-9;

/// What each arc and each demand crossing a cut may hide from the cut
/// condition, Gbit/s. A routing this crate accepts can overdraw an arc by
/// at most [`PLACE_EPS`] (a placement needs `residual >= want - PLACE_EPS`
/// with `want > PLACE_EPS`, so an overdrawn arc takes nothing more) and can
/// leave at most [`PLACE_EPS`] of a demand undelivered; so across a cut
/// with `a` arcs and `d` demands it carries `demand - d·PLACE_EPS` over
/// `capacity + a·PLACE_EPS`. A cut certificate's margin is this constant
/// times `a + d`; the factor two pays for the rounding of the two sums,
/// which is smaller by orders of magnitude.
pub(crate) const CUT_MARGIN_GBPS: f64 = 2.0 * PLACE_EPS;

/// Route `tm` over `active ⊆ links(topo)`. Demands are processed
/// largest-first; each is placed on the distance-shortest path whose
/// residual fits it, or split across up to `MAX_SPLITS + 1` such
/// paths. On failure, if `active` holds a virtual link, one retry
/// de-prefers virtual links (see `VIRTUAL_RETRY_PENALTY`); the first
/// error is reported if both fail.
pub fn route_tm(
    topo: &PocTopology,
    active: &LinkSet,
    tm: &TrafficMatrix,
) -> Result<Routing, RouteError> {
    // Trace granularity: one span per full TM routing (the `place_flow`
    // loop and its retry), not per placed flow — a span per Dijkstra
    // would dominate the ring without adding attribution.
    let _span = poc_obs::span!("flow.route_tm");
    route_tm_with_veto(topo, active, tm, |_, _| true)
}

/// As [`route_tm`], for the oracle: a failure also carries the router
/// sets its failed passes left saturated (see [`saturated_sides`]), from
/// which the oracle learns cut certificates. A pass stopped early under
/// [`Until::Verdict`] leaves no sides.
pub(crate) fn route_tm_learning(
    topo: &PocTopology,
    active: &LinkSet,
    tm: &TrafficMatrix,
    until: Until,
) -> Result<Routing, (PassError, Vec<Vec<bool>>)> {
    let _span = poc_obs::span!("flow.route_tm");
    let mut sides = Vec::new();
    route_passes(topo, active, tm, |_, _| true, until, |g, e| sides.extend(saturated_sides(g, e)))
        .map_err(|e| (e, sides))
}

/// As [`route_tm`], but with a per-flow link veto: `allowed(flow_index,
/// link)` returning false excludes a link for that flow (used by the
/// all-pairs-backup constraint to keep each flow off its primary path).
/// `flow_index` is the index into the demand ordering (largest first).
pub(crate) fn route_tm_with_veto(
    topo: &PocTopology,
    active: &LinkSet,
    tm: &TrafficMatrix,
    allowed: impl Fn(usize, LinkId) -> bool,
) -> Result<Routing, RouteError> {
    route_passes(topo, active, tm, allowed, Until::Failure, |_, _| {}).map_err(PassError::unstopped)
}

/// How far a pass routes once it can no longer succeed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Until {
    /// To the demand it fails on, which the error names and the pass's
    /// residual graph explains.
    Failure,
    /// Only until the verdict is fixed: the pass stops as soon as its
    /// [`Ledger`] shows a router short of what it still has to carry.
    Verdict,
}

/// Why a pass returned no routing.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum PassError {
    /// The demand the pass could not place.
    Route(RouteError),
    /// Stopped under [`Until::Verdict`] before any demand failed.
    Stopped,
}

impl From<RouteError> for PassError {
    fn from(e: RouteError) -> Self {
        PassError::Route(e)
    }
}

impl PassError {
    /// The error of a pass routed [`Until::Failure`], which never stops.
    pub(crate) fn unstopped(self) -> RouteError {
        match self {
            PassError::Route(e) => e,
            PassError::Stopped => unreachable!("only a pass routed until its verdict stops"),
        }
    }
}

/// The pass and its conditional retry behind every public entry point.
/// `failed_pass` sees the residual graph and error of each pass that
/// failed on a demand; a stopped pass shows it nothing.
fn route_passes(
    topo: &PocTopology,
    active: &LinkSet,
    tm: &TrafficMatrix,
    allowed: impl Fn(usize, LinkId) -> bool,
    until: Until,
    mut failed_pass: impl FnMut(&CapacityGraph<'_>, &RouteError),
) -> Result<Routing, PassError> {
    let mut pass = |virtual_penalty| {
        let mut g = CapacityGraph::new(topo, active);
        route_tm_on(&mut g, tm, &allowed, virtual_penalty, until).inspect_err(|e| {
            if let PassError::Route(e) = e {
                failed_pass(&g, e);
            }
        })
    };
    let first = match pass(1.0) {
        Ok(routing) => return Ok(routing),
        Err(e) => e,
    };
    // The penalty multiplies virtual links' lengths only: with none active
    // the retry would replay the failed pass arc for arc.
    if !active.iter().any(|l| topo.link(l).owner.is_virtual()) {
        return Err(first);
    }
    poc_obs::counter!("flow.route.retries").inc();
    pass(VIRTUAL_RETRY_PENALTY).map_err(|_| first)
}

/// The two router sets a pass that failed on `src → dst` left saturated:
/// the routers `src` can still send to, and every router that can no
/// longer send to `dst`. Both hold `src` and not `dst`, and no arc out of
/// either has residual above [`PLACE_EPS`], so everything the pass placed
/// across them filled them — if the matrix asks more across one than the
/// set's links offer, no routing exists at all. A pass that gave up with
/// residual paths left (`MAX_SPLITS` exhausted) saturated nothing.
fn saturated_sides(g: &CapacityGraph<'_>, error: &RouteError) -> Vec<Vec<bool>> {
    let (RouteError::Unroutable { src, dst, .. } | RouteError::Disconnected { src, dst }) = *error;
    let from_src = g.residual_reach(src, Reach::From, PLACE_EPS);
    if from_src.get(dst.index()) != Some(&false) {
        return Vec::new();
    }
    let mut cannot_reach_dst = g.residual_reach(dst, Reach::To, PLACE_EPS);
    cannot_reach_dst.iter_mut().for_each(|r| *r = !*r);
    vec![from_src, cannot_reach_dst]
}

/// The demand ordering every router processes flows in: largest-first
/// (big demands are hardest to place). The warm oracle's partial re-route,
/// the Constraint #3 veto table and the auction's selector follow it too,
/// so a flow index means the same demand everywhere.
pub fn sorted_demands(tm: &TrafficMatrix) -> Vec<(RouterId, RouterId, f64)> {
    let mut demands: Vec<(RouterId, RouterId, f64)> = tm.iter_demands().collect();
    demands.sort_by(|a, b| b.2.total_cmp(&a.2));
    demands
}

fn route_tm_on(
    g: &mut CapacityGraph<'_>,
    tm: &TrafficMatrix,
    allowed: impl Fn(usize, LinkId) -> bool,
    virtual_penalty: f64,
    until: Until,
) -> Result<Routing, PassError> {
    poc_obs::counter!("flow.route.passes").inc();
    let topo = g.topo();
    let demands = sorted_demands(tm);
    let mut ledger = (until == Until::Verdict).then(|| Ledger::new(g, &demands));

    let mut routing = Routing {
        flows: Vec::with_capacity(demands.len()),
        load_fwd: vec![0.0; topo.n_links()],
        load_rev: vec![0.0; topo.n_links()],
    };

    for (fi, (src, dst, demand)) in demands.into_iter().enumerate() {
        let flow = place_flow(g, &mut routing, fi, src, dst, demand, &allowed, virtual_penalty)?;
        if ledger.as_mut().is_some_and(|ledger| ledger.book(g, &flow)) {
            poc_obs::counter!("flow.route.stopped").inc();
            return Err(PassError::Stopped);
        }
        routing.flows.push(flow);
    }
    Ok(routing)
}

/// One way through one router in a [`Ledger`], Gbit/s.
#[derive(Clone, Copy, Debug, Default)]
struct Account {
    /// The matrix's demand still to leave (or reach) the router.
    demand: f64,
    /// The residual of the active arcs leaving (or entering) it.
    residual: f64,
    /// [`CUT_MARGIN_GBPS`] per such arc and per such demand.
    margin: f64,
}

impl Account {
    /// Whether the rest of the pass cannot carry the demand.
    fn short(&self) -> bool {
        self.demand > self.residual + self.margin
    }
}

/// The one-router cuts `{v}` of a pass in progress, booked after each
/// placed flow. Every path of a demand out of `v` leaves over one of
/// `v`'s arcs, and the pass places on an arc only what fits its residual
/// up to [`PLACE_EPS`] — the tolerances a cut certificate's margin pays
/// for. So once the demand `v` still has to send exceeds what its arcs
/// have left by more than [`CUT_MARGIN_GBPS`] per arc and demand, the
/// pass fails whatever it places next; the same holds for what `v` still
/// has to receive. Demand falls only at a flow's ends and residual only
/// along its paths, so booking a flow costs its hops, and only the
/// routers on them can have turned short.
struct Ledger {
    /// Indexed by router.
    out: Vec<Account>,
    into: Vec<Account>,
}

impl Ledger {
    fn new(g: &CapacityGraph<'_>, demands: &[(RouterId, RouterId, f64)]) -> Self {
        let n = g.topo().n_routers();
        let (mut out, mut into) = (vec![Account::default(); n], vec![Account::default(); n]);
        for (from, to, residual) in g.arcs() {
            for account in [&mut out[from.index()], &mut into[to.index()]] {
                account.residual += residual;
                account.margin += CUT_MARGIN_GBPS;
            }
        }
        for &(src, dst, gbps) in demands {
            for account in [&mut out[src.index()], &mut into[dst.index()]] {
                account.demand += gbps;
                account.margin += CUT_MARGIN_GBPS;
            }
        }
        Ledger { out, into }
    }

    /// Book `flow`, just placed on `g`: whether it left a router on its
    /// paths short.
    fn book(&mut self, g: &CapacityGraph<'_>, flow: &FlowRoute) -> bool {
        let mut short = false;
        for (path, gbps) in &flow.paths {
            self.out[flow.src.index()].demand -= gbps;
            self.into[flow.dst.index()].demand -= gbps;
            // The path was just loaded, so every hop chains.
            for (l, dir) in g.hops(flow.src, path).flatten() {
                let link = g.topo().link(l);
                let (from, to) = match dir {
                    Dir::Fwd => (link.a, link.b),
                    Dir::Rev => (link.b, link.a),
                };
                for account in [&mut self.out[from.index()], &mut self.into[to.index()]] {
                    account.residual -= gbps;
                    short |= account.short();
                }
            }
        }
        short
    }
}

/// Place one `src → dst` demand on `g`: consume residuals, record the
/// per-link loads in `routing`, and return the resulting [`FlowRoute`]
/// (not yet pushed into `routing.flows`). A demand no single path fits is
/// split over the shortest paths with any residual, [`MAX_SPLITS`]` + 1`
/// paths at most. Shared by the full-matrix router above and the warm
/// oracle's partial re-route — the path choice, split policy, and error
/// reporting must stay identical between the two.
#[allow(clippy::too_many_arguments)]
pub(crate) fn place_flow(
    g: &mut CapacityGraph<'_>,
    routing: &mut Routing,
    fi: usize,
    src: RouterId,
    dst: RouterId,
    demand: f64,
    allowed: &impl Fn(usize, LinkId) -> bool,
    virtual_penalty: f64,
) -> Result<FlowRoute, RouteError> {
    let topo = g.topo();
    let metric = |l: LinkId| {
        let link = topo.link(l);
        link.distance_km * if link.owner.is_virtual() { virtual_penalty } else { 1.0 }
    };
    // Also what a path that does not chain from `src` comes to: it can
    // carry nothing, so the remainder stays unplaced.
    let unroutable = |remaining_gbps| RouteError::Unroutable { src, dst, remaining_gbps };
    let mut remaining = demand;
    let mut paths: Vec<(Vec<LinkId>, f64)> = Vec::new();
    let mut splits = 0;
    while remaining > PLACE_EPS {
        // Shortest path with residual >= remaining; if none, accept the
        // best path with any residual and split.
        let want = remaining;
        let path = g.shortest_path(
            src,
            dst,
            |l, _| metric(l),
            |l, dir| allowed(fi, l) && g.residual(l, dir) >= want - PLACE_EPS,
        );
        let (path, amount) = match path {
            Some(p) => (p, remaining),
            None => {
                // Split: find the max-residual (widest) usable path.
                let p = g.shortest_path(
                    src,
                    dst,
                    |l, _| metric(l),
                    |l, dir| allowed(fi, l) && g.residual(l, dir) > PLACE_EPS,
                );
                let Some(p) = p else {
                    return Err(if paths.is_empty() && !has_any_path(g, src, dst) {
                        RouteError::Disconnected { src, dst }
                    } else {
                        unroutable(remaining)
                    });
                };
                let bottleneck = g.bottleneck(src, &p).map_err(|_| unroutable(remaining))?;
                (p, remaining.min(bottleneck))
            }
        };
        if amount <= PLACE_EPS {
            return Err(unroutable(remaining));
        }
        load_path(g, routing, src, &path, amount).map_err(|_| unroutable(remaining))?;
        remaining -= amount;
        paths.push((path, amount));
        splits += 1;
        if splits > MAX_SPLITS && remaining > PLACE_EPS {
            return Err(unroutable(remaining));
        }
    }
    Ok(FlowRoute { src, dst, demand_gbps: demand, paths })
}

/// Consume `amount` of residual along `path` from `src`, and record it in
/// `routing`'s per-direction loads.
pub(crate) fn load_path(
    g: &mut CapacityGraph<'_>,
    routing: &mut Routing,
    src: RouterId,
    path: &[LinkId],
    amount: f64,
) -> Result<(), PathMiss> {
    for hop in g.hops(src, path) {
        let (l, d) = hop?;
        g.consume(l, d, amount);
        match d {
            Dir::Fwd => routing.load_fwd[l.index()] += amount,
            Dir::Rev => routing.load_rev[l.index()] += amount,
        }
    }
    Ok(())
}

fn has_any_path(g: &CapacityGraph<'_>, src: RouterId, dst: RouterId) -> bool {
    g.shortest_path(src, dst, |_, _| 1.0, |_, _| true).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    #[test]
    fn routes_simple_demand_on_shortest_path() {
        let t = two_bp_square();
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 10.0);
        let routing = route_tm(&t, &LinkSet::full(t.n_links()), &tm).unwrap();
        assert_eq!(routing.flows.len(), 1);
        let p = routing.primary_path(r(0), r(1)).unwrap();
        assert_eq!(p.len(), 1, "direct r0-r1 link is shortest");
        assert!(t.link(p[0]).connects(r(0), r(1)));
    }

    #[test]
    fn splits_when_no_single_path_fits() {
        // r0-r1 direct capacity 100; demand 150 forces a split onto the
        // r0-r2-r1 detour.
        let t = two_bp_square();
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 150.0);
        let routing = route_tm(&t, &LinkSet::full(t.n_links()), &tm).unwrap();
        let flow = &routing.flows[0];
        assert!(flow.paths.len() >= 2, "expected a split, got {:?}", flow.paths);
        let total: f64 = flow.paths.iter().map(|(_, g)| g).sum();
        assert!((total - 150.0).abs() < 1e-6);
    }

    #[test]
    fn respects_capacity_no_overcommit() {
        let t = two_bp_square();
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 80.0);
        tm.set(r(0), r(2), 80.0);
        tm.set(r(1), r(2), 80.0);
        let routing = route_tm(&t, &LinkSet::full(t.n_links()), &tm).unwrap();
        for (i, l) in t.links.iter().enumerate() {
            assert!(routing.load_fwd[i] <= l.capacity_gbps + 1e-6);
            assert!(routing.load_rev[i] <= l.capacity_gbps + 1e-6);
        }
    }

    #[test]
    fn fails_on_infeasible_load() {
        // Total capacity toward r3 is 40+40+40 = 120 (BP1 links); ask 200.
        let t = two_bp_square();
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(3), 200.0);
        let err = route_tm(&t, &LinkSet::full(t.n_links()), &tm).unwrap_err();
        assert!(matches!(err, RouteError::Unroutable { .. }), "{err:?}");
    }

    #[test]
    fn fails_disconnected() {
        let t = two_bp_square();
        // Only BP0 links: r3 unreachable.
        let bp0 = LinkSet::from_links(t.n_links(), t.links_of_bp(poc_topology::BpId(0)));
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(3), 1.0);
        let err = route_tm(&t, &bp0, &tm).unwrap_err();
        assert_eq!(err, RouteError::Disconnected { src: r(0), dst: r(3) });
    }

    #[test]
    fn veto_forces_detour() {
        let t = two_bp_square();
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 10.0);
        let all = LinkSet::full(t.n_links());
        let direct = route_tm(&t, &all, &tm).unwrap().primary_path(r(0), r(1)).unwrap()[0];
        let routing = route_tm_with_veto(&t, &all, &tm, move |_, l| l != direct).unwrap();
        let p = routing.primary_path(r(0), r(1)).unwrap();
        assert!(!p.contains(&direct));
        assert!(p.len() >= 2);
    }

    #[test]
    fn full_duplex_directions_independent() {
        // Symmetric demands should both fit on the same direct link.
        let t = two_bp_square();
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 90.0);
        tm.set(r(1), r(0), 90.0);
        let routing = route_tm(&t, &LinkSet::full(t.n_links()), &tm).unwrap();
        assert_eq!(routing.flows.len(), 2);
        for f in &routing.flows {
            assert_eq!(f.paths.len(), 1, "no split needed full-duplex");
        }
    }

    #[test]
    fn utilization_of_the_one_loaded_link() {
        let t = two_bp_square();
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 50.0);
        let routing = route_tm(&t, &LinkSet::full(t.n_links()), &tm).unwrap();
        assert_eq!(routing.flows[0].paths[0].0.len(), 1);
        assert!((routing.max_utilization(&t) - 0.5).abs() < 1e-9);
    }

    /// The square with one external ISP's virtual link `l6` (r0–r2, 40G,
    /// 1260 km) and BP links r1–r2 and r0–r2 withdrawn. By plain distance
    /// r0→r3's overflow takes `l6`–`l4` (2210 km) over `l0`–`l5` (2250 km)
    /// and starves r2→r1; with `l6` de-preferred both demands fit.
    fn square_with_lured_virtual_link() -> (PocTopology, LinkSet) {
        use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
        let mut t = two_bp_square();
        let isp = ExternalIspConfig {
            n_isps: 1,
            attach_points: 2,
            capacity_gbps: 40.0,
            price_premium: 3.0,
        };
        attach_external_isps(&mut t, &isp, &poc_topology::CostModel::default());
        assert!(t.link(LinkId(6)).owner.is_virtual());
        let active = LinkSet::from_links(t.n_links(), [0, 3, 4, 5, 6].map(LinkId));
        (t, active)
    }

    fn lured_matrix(t: &PocTopology, r0_to_r3: f64) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(3), r0_to_r3);
        tm.set(r(2), r(1), 70.0);
        tm
    }

    fn retries() -> u64 {
        poc_obs::counter!("flow.route.retries").get()
    }

    #[test]
    fn retry_de_preferring_virtual_links_routes_what_plain_distances_cannot() {
        let (t, active) = square_with_lured_virtual_link();
        let tm = lured_matrix(&t, 70.0);
        let plain = route_tm_on(
            &mut CapacityGraph::new(&t, &active),
            &tm,
            |_, _| true,
            1.0,
            Until::Failure,
        );
        assert_eq!(
            plain,
            Err(RouteError::Unroutable { src: r(2), dst: r(1), remaining_gbps: 20.0 }.into())
        );
        // The routing recorded before the retry became conditional.
        let flow = |src, dst, paths: &[(&[u32], f64)]| FlowRoute {
            src,
            dst,
            demand_gbps: 70.0,
            paths: paths
                .iter()
                .map(|&(p, g)| (p.iter().map(|&l| LinkId(l)).collect(), g))
                .collect(),
        };
        let recorded = Routing {
            flows: vec![
                flow(r(0), r(3), &[(&[3], 40.0), (&[0, 5], 30.0)]),
                flow(r(2), r(1), &[(&[4, 5], 40.0), (&[6, 0], 30.0)]),
            ],
            load_fwd: vec![60.0, 0.0, 0.0, 40.0, 40.0, 30.0, 0.0],
            load_rev: vec![0.0, 0.0, 0.0, 0.0, 0.0, 40.0, 30.0],
        };
        assert_eq!(route_tm(&t, &active, &tm), Ok(recorded));
    }

    #[test]
    fn virtual_free_set_reports_the_first_pass_error() {
        // Recorded when every failure was retried: the retry this set no
        // longer gets was a replay, so the error is the same to the bit.
        let t = two_bp_square();
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(3), 200.0);
        tm.set(r(1), r(2), 30.0);
        let err = route_tm(&t, &LinkSet::full(t.n_links()), &tm).unwrap_err();
        let RouteError::Unroutable { src, dst, remaining_gbps } = err else {
            panic!("expected Unroutable, got {err:?}");
        };
        assert_eq!((src, dst, remaining_gbps.to_bits()), (r(0), r(3), 80.0f64.to_bits()));
    }

    #[test]
    fn a_pass_for_a_verdict_stops_once_a_router_cannot_send_what_it_owes() {
        use crate::oracle::{Constraint, FeasibilityOracle, Rejection};
        // The path r0 –l3– r3 –l4– r2 (40G a link), and r1 on r2 by l1 so
        // that r2 can take in what it is sent. The 40G r0→r2 transit fills
        // r3→r2 and leaves r3 40G out for the 55G it still has to send.
        let t = two_bp_square();
        let active = LinkSet::from_links(t.n_links(), [1, 3, 4].map(LinkId));
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(2), 40.0);
        tm.set(r(3), r(0), 30.0);
        tm.set(r(3), r(2), 25.0);
        let failure = Err(RouteError::Unroutable { src: r(3), dst: r(2), remaining_gbps: 25.0 });
        let stopped = || poc_obs::counter!("flow.route.stopped").get();

        // Routed to the failure, the pass also places r3→r0 on l3.
        let mut full = CapacityGraph::new(&t, &active);
        let pass = route_tm_on(&mut full, &tm, |_, _| true, 1.0, Until::Failure);
        assert_eq!(pass, failure.clone().map_err(PassError::from));
        assert_eq!(full.residual(LinkId(3), Dir::Rev), 10.0);

        // Routed for its verdict, it stops after the transit.
        let before = stopped();
        let mut short = CapacityGraph::new(&t, &active);
        let pass = route_tm_on(&mut short, &tm, |_, _| true, 1.0, Until::Verdict);
        assert_eq!(pass, Err(PassError::Stopped));
        assert!(stopped() > before, "the stop is counted");
        assert_eq!(short.residual(LinkId(4), Dir::Rev), 0.0, "the transit was placed");
        assert_eq!(short.residual(LinkId(3), Dir::Rev), 40.0, "r3→r0 was not");

        // The oracle's verdict is `evaluate`'s, whose error is the router's.
        let o = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        assert!(!o.acceptable(&active));
        assert_eq!(o.evaluate(&active), failure.map_err(Rejection::BaseRoute));
    }

    #[test]
    fn set_holding_a_virtual_link_still_takes_the_retry() {
        // Both passes fail here, on different remainders (30 then 10).
        let (t, active) = square_with_lured_virtual_link();
        let tm = lured_matrix(&t, 100.0);
        let penalised = route_tm_on(
            &mut CapacityGraph::new(&t, &active),
            &tm,
            |_, _| true,
            VIRTUAL_RETRY_PENALTY,
            Until::Failure,
        );
        assert_eq!(
            penalised,
            Err(RouteError::Unroutable { src: r(2), dst: r(1), remaining_gbps: 10.0 }.into())
        );
        // Tests share the counter, so others can only add to the delta.
        let before = retries();
        let err = route_tm(&t, &active, &tm).unwrap_err();
        assert!(retries() > before, "the retry pass ran");
        assert_eq!(err, RouteError::Unroutable { src: r(2), dst: r(1), remaining_gbps: 30.0 });
    }
}
