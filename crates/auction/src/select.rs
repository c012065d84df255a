//! Cheapest-acceptable-set optimizers: `SL = argmin C(L), L ∈ A(OL)`.
//!
//! Finding the cheapest link subset that carries a traffic matrix is
//! NP-hard (it generalizes fixed-charge network design), and the paper does
//! not prescribe an algorithm. Two selectors do the work:
//!
//! * [`GreedySelector`] — paper-scale heuristic: demands are routed
//!   largest-first over the *offered* graph with edge weights equal to a
//!   link's declared standalone price the first time it is used and ≈0
//!   afterwards (so routing naturally re-uses already-leased links); for
//!   the resilience constraints a second, primary-path-avoiding backup
//!   routing augments the set; finally a bounded reverse-prune pass drops
//!   expensive links while the set stays acceptable and cheaper.
//! * [`ExhaustiveSelector`] — exact enumeration for small instances; the
//!   ground truth for selector tests and for the strategy-proofness
//!   property tests (VCG truthfulness is only exact under exact
//!   optimization).
//!
//! Two more are ablation arms:
//!
//! * [`ForwardGreedySelector`] — cheapest capacity first, with no regard
//!   for where demand flows; a shortest acceptable rank-prefix, then
//!   reverse-pruned (the `ablation_optimizer` bench).
//! * [`CompositeSelector`] — best of several selectors, at one full
//!   selection run per member (the `composite_probe` example).
//!
//! Every selector is deterministic, which matters: the paper stresses the
//! POC must "use an open algorithm so that it cannot be accused of
//! favoritism", and VCG payments difference two selection runs.

use crate::market::Market;
use poc_flow::graph::{CapacityGraph, Dir};
use poc_flow::{sorted_demands, AcceptabilityOracle, Constraint, LinkSet, Routing};
use poc_topology::{LinkId, RouterId};
use std::collections::HashSet;

/// A selected link set with its declared cost.
#[derive(Clone, Debug)]
pub struct SelectionResult {
    pub links: LinkSet,
    pub cost: f64,
}

/// A cheapest-acceptable-subset optimizer.
///
/// `Send + Sync` is a supertrait so one selector instance can drive the
/// auction's Clarke-pivot re-selections from parallel threads (see
/// [`crate::vcg::run_auction`]). Selectors are stateless between calls, so
/// the bound is free for all the implementations here.
pub trait Selector: Send + Sync {
    /// Pick the cheapest subset of `available` acceptable to `oracle`,
    /// priced by `market`. Returns `None` when no subset of `available` is
    /// acceptable.
    fn select(
        &self,
        market: &Market<'_>,
        oracle: &dyn AcceptabilityOracle,
        available: &LinkSet,
    ) -> Option<SelectionResult>;
}

/// Distance tie-break weight, $ per km; small relative to any price.
const EPSILON_PER_KM: f64 = 1e-4;
/// Maximum splits per demand in the selection routing.
const MAX_SPLITS: usize = 16;
/// Maximum targeted-augmentation rounds for the resilience constraints
/// (each round repairs the failing scenarios the oracle reports).
const MAX_AUGMENT_ROUNDS: usize = 64;

/// Paper-scale greedy heuristic. See module docs.
#[derive(Clone, Debug)]
pub struct GreedySelector {
    /// Maximum number of tentative link removals in the prune pass.
    pub prune_budget: usize,
}

impl Default for GreedySelector {
    fn default() -> Self {
        Self { prune_budget: 48 }
    }
}

impl GreedySelector {
    pub fn with_prune_budget(budget: usize) -> Self {
        Self { prune_budget: budget }
    }

    /// Cost-aware routing of all demands over `available`, marking the
    /// links of every chosen path as selected. Returns the selected set and
    /// each flow's primary path, or `None` if some demand cannot be placed.
    fn route_selecting(
        &self,
        prices: &[f64],
        oracle: &dyn AcceptabilityOracle,
        available: &LinkSet,
        vetoes: Option<&[HashSet<LinkId>]>,
        selected: &mut LinkSet,
    ) -> Option<Vec<(RouterId, RouterId, Vec<LinkId>)>> {
        let topo = oracle.topo();
        let mut g = CapacityGraph::new(topo, available);
        let demands = sorted_demands(oracle.tm());

        let mut primaries = Vec::with_capacity(demands.len());
        for (fi, (src, dst, demand)) in demands.into_iter().enumerate() {
            let veto_ok = |l: LinkId| match vetoes {
                Some(v) => !v[fi].contains(&l),
                None => true,
            };
            let primary =
                self.select_demand(prices, topo, &mut g, selected, &veto_ok, src, dst, demand)?;
            primaries.push((src, dst, primary));
        }
        Some(primaries)
    }

    /// Route one demand cost-aware over `g`, marking every used link as
    /// selected. The shared kernel of [`Self::route_selecting`] and its
    /// warm variant; returns the flow's primary (largest-share) path.
    #[allow(clippy::too_many_arguments)]
    fn select_demand(
        &self,
        prices: &[f64],
        topo: &poc_topology::PocTopology,
        g: &mut CapacityGraph,
        selected: &mut LinkSet,
        veto_ok: &dyn Fn(LinkId) -> bool,
        src: RouterId,
        dst: RouterId,
        demand: f64,
    ) -> Option<Vec<LinkId>> {
        let mut remaining = demand;
        let mut best_path: Option<(Vec<LinkId>, f64)> = None;
        let mut splits = 0;
        while remaining > 1e-9 {
            let want = remaining;
            let weight = |l: LinkId, _dir: Dir| {
                let base = if selected.contains(l) { 0.0 } else { prices[l.index()] };
                base + EPSILON_PER_KM * topo.link(l).distance_km
            };
            let path = g
                .shortest_path(src, dst, weight, |l, dir| {
                    veto_ok(l) && g.residual(l, dir) >= want - 1e-9
                })
                .or_else(|| {
                    g.shortest_path(src, dst, weight, |l, dir| {
                        veto_ok(l) && g.residual(l, dir) > 1e-9
                    })
                })?;
            let amount = remaining.min(g.bottleneck(src, &path).ok()?);
            if amount <= 1e-9 {
                return None;
            }
            g.consume_path(src, &path, amount).ok()?;
            for &l in &path {
                selected.insert(l);
            }
            remaining -= amount;
            splits += 1;
            match &best_path {
                Some((_, a)) if *a >= amount => {}
                _ => best_path = Some((path, amount)),
            }
            if splits > MAX_SPLITS && remaining > 1e-9 {
                return None;
            }
        }
        best_path.map(|(p, _)| p)
    }

    /// Warm-started phase 1: instead of cost-aware-routing the entire
    /// matrix, reuse every witness flow whose paths are still active in
    /// `available` (pre-consuming their capacity and marking their links
    /// selected) and route only the invalidated flows with the normal
    /// cost-aware kernel. Returns `None` — and the caller falls back to
    /// the full [`Self::route_selecting`] — when the witness does not
    /// match this instance's demands or an invalidated flow cannot be
    /// placed on the residual capacities.
    fn route_selecting_warm(
        &self,
        prices: &[f64],
        oracle: &dyn AcceptabilityOracle,
        available: &LinkSet,
        witness: &Routing,
        selected: &mut LinkSet,
    ) -> Option<Vec<(RouterId, RouterId, Vec<LinkId>)>> {
        let topo = oracle.topo();
        // The witness must cover exactly this instance's demand list (same
        // largest-first order the cold phase routes in). A witness from a
        // different matrix cannot seed this selection.
        let demands = sorted_demands(oracle.tm());
        if witness.flows.len() != demands.len() {
            return None;
        }
        for (f, &(src, dst, demand)) in witness.flows.iter().zip(&demands) {
            if f.src != src || f.dst != dst || (f.demand_gbps - demand).abs() > 1e-9 {
                return None;
            }
        }

        let mut g = CapacityGraph::new(topo, available);
        let alive: Vec<bool> = witness
            .flows
            .iter()
            .map(|f| f.paths.iter().all(|(path, _)| path.iter().all(|&l| available.contains(l))))
            .collect();
        // Survivors keep their witness paths: consume their capacity first
        // (they were simultaneously feasible, so this cannot over-commit)
        // and lease every link they ride.
        for (f, &ok) in witness.flows.iter().zip(&alive) {
            if !ok {
                continue;
            }
            for (path, amount) in &f.paths {
                g.consume_path(f.src, path, *amount).ok()?;
                for &l in path {
                    selected.insert(l);
                }
            }
        }
        // Invalidated flows are re-routed with the cost-aware kernel, in
        // the same largest-first order the cold phase uses.
        let mut primaries = Vec::with_capacity(witness.flows.len());
        for (f, &ok) in witness.flows.iter().zip(&alive) {
            let primary = if ok {
                let mut best: Option<(&Vec<LinkId>, f64)> = None;
                for (path, amount) in &f.paths {
                    match &best {
                        Some((_, a)) if *a >= *amount => {}
                        _ => best = Some((path, *amount)),
                    }
                }
                // A witness flow carrying no path (the oracle's `seed` is
                // public) is a mismatch like any other: route from scratch.
                best?.0.clone()
            } else {
                self.select_demand(
                    prices,
                    topo,
                    &mut g,
                    selected,
                    &|_| true,
                    f.src,
                    f.dst,
                    f.demand_gbps,
                )?
            };
            primaries.push((f.src, f.dst, primary));
        }
        Some(primaries)
    }

    /// Provision extra capacity between a failing pair: route
    /// `boost × demand(pair)` (both directions, at least one capacity
    /// quantum) over the offered graph while avoiding the pair's current
    /// shortest path inside `selected`, with cost-aware weights. Returns
    /// whether any new link entered `selected`.
    fn augment_pair(
        &self,
        prices: &[f64],
        oracle: &dyn AcceptabilityOracle,
        available: &LinkSet,
        pair: (RouterId, RouterId),
        boost: f64,
        selected: &mut LinkSet,
    ) -> bool {
        let topo = oracle.topo();
        let (p, q) = pair;
        let demand = oracle.tm().demand(p, q) + oracle.tm().demand(q, p);
        let want = (demand * boost).max(1.0);

        // The pair's primary corridor to avoid: its distance-shortest path
        // within the currently selected links.
        let sel_graph = CapacityGraph::new(topo, selected);
        let primary: HashSet<LinkId> = sel_graph
            .shortest_path(p, q, |l, _| topo.link(l).distance_km, |_, _| true)
            .map(|path| path.into_iter().collect())
            .unwrap_or_default();

        let g = CapacityGraph::new(topo, available);
        let weight = |l: LinkId, _dir: Dir| {
            let base = if selected.contains(l) { 0.0 } else { prices[l.index()] };
            base + EPSILON_PER_KM * topo.link(l).distance_km
        };
        // Attempt 1: cheapest disjoint path with a big-enough single link
        // capacity; may ride existing selected links.
        let path1 = g
            .shortest_path(p, q, weight, |l, _| {
                !primary.contains(&l) && topo.link(l).capacity_gbps >= want
            })
            .or_else(|| g.shortest_path(p, q, weight, |l, _| !primary.contains(&l)));
        let path1_grows =
            path1.as_ref().is_some_and(|path| path.iter().any(|l| !selected.contains(*l)));
        // Attempt 2 (only needed when attempt 1 re-uses only already-
        // selected capacity, which verification just proved insufficient):
        // lease a genuinely new corridor built from unselected links only.
        let path2 = if path1_grows {
            None
        } else {
            g.shortest_path(p, q, weight, |l, _| {
                !primary.contains(&l) && !selected.contains(l) && topo.link(l).capacity_gbps >= want
            })
            .or_else(|| {
                g.shortest_path(p, q, weight, |l, _| !primary.contains(&l) && !selected.contains(l))
            })
        };
        let adopted = if path1_grows { path1 } else { path2 };
        let Some(path) = adopted else { return false };
        let mut grew = false;
        for l in path {
            if !selected.contains(l) {
                selected.insert(l);
                grew = true;
            }
        }
        grew
    }

    /// Phases 1–3 of [`Selector::select`]: an acceptable set built by
    /// routing, or `None` when the cost-aware router cannot place a demand
    /// or the repair loop gives up. Neither proves that no subset of
    /// `available` is acceptable, so the caller falls back to the whole
    /// offer.
    fn construct(
        &self,
        market: &Market<'_>,
        oracle: &dyn AcceptabilityOracle,
        available: &LinkSet,
    ) -> Option<LinkSet> {
        let mut selected = LinkSet::empty(available.universe());
        // Every arc relaxation of every search below prices a link; look
        // the prices up once.
        let prices = market.unit_prices();

        // Phase 1: cost-aware base routing. An oracle holding a routing
        // witness (a warm pivot) seeds it: surviving flows keep their
        // paths and only the invalidated ones are re-routed. Any warm
        // mismatch falls back to routing the full matrix from scratch.
        let mut primaries = None;
        if let Some(w) = oracle.witness() {
            primaries = self.route_selecting_warm(&prices, oracle, available, &w, &mut selected);
            match primaries {
                Some(_) => poc_obs::counter!("auction.select.warm_start").inc(),
                None => selected = LinkSet::empty(available.universe()),
            }
        }
        let primaries = match primaries {
            Some(p) => p,
            None => self.route_selecting(&prices, oracle, available, None, &mut selected)?,
        };

        // Phase 2: blanket backup provisioning for the resilience
        // constraints — route every flow again avoiding its own primary
        // path on fresh capacity, a cheap first approximation of the
        // backup capacity both failure constraints need.
        if !matches!(oracle.constraint(), Constraint::BaseLoad) {
            let vetoes: Vec<HashSet<LinkId>> =
                primaries.iter().map(|(_, _, p)| p.iter().copied().collect()).collect();
            // Backup routing failure is not fatal by itself; the oracle
            // verification below decides.
            let _ = self.route_selecting(&prices, oracle, available, Some(&vetoes), &mut selected);
        }

        // Phase 3: verify against the real oracle and repair failing
        // scenarios in batches: every verification round reports the pairs
        // whose failure cannot be absorbed; extra capacity is provisioned
        // between each (avoiding its primary corridor) and the set is
        // re-checked. Pairs that keep failing get exponentially more
        // backup capacity.
        let mut rounds = 0;
        let mut fail_counts: std::collections::HashMap<(RouterId, RouterId), u32> =
            std::collections::HashMap::new();
        loop {
            let failures = oracle.failing_scenarios(&selected, 1024);
            if failures.is_empty() {
                return Some(selected);
            }
            rounds += 1;
            let mut grew_any = false;
            if rounds <= MAX_AUGMENT_ROUNDS {
                for pair in failures {
                    let n = fail_counts.entry(pair).or_insert(0);
                    *n += 1;
                    let boost = f64::powi(2.0, (*n - 1).min(6) as i32);
                    if self.augment_pair(&prices, oracle, available, pair, boost, &mut selected) {
                        grew_any = true;
                    }
                }
            }
            if rounds > MAX_AUGMENT_ROUNDS || !grew_any {
                return None;
            }
        }
    }

    /// Reverse prune: try dropping the most expensive selected links while
    /// the set stays acceptable *and* strictly cheaper.
    fn prune(
        &self,
        market: &Market<'_>,
        oracle: &dyn AcceptabilityOracle,
        links: LinkSet,
    ) -> LinkSet {
        prune_links(market, oracle, links, self.prune_budget)
    }
}

/// Reverse prune shared by the selectors: try dropping the most expensive
/// links (up to `budget` attempts) while the set stays acceptable and
/// strictly cheaper.
fn prune_links(
    market: &Market<'_>,
    oracle: &dyn AcceptabilityOracle,
    mut links: LinkSet,
    budget: usize,
) -> LinkSet {
    let mut by_price: Vec<(f64, LinkId)> =
        links.iter().map(|l| (market.unit_price(l), l)).collect();
    by_price.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut cur_cost = market.total_cost(&links);
    for (_, l) in by_price.into_iter().take(budget) {
        let mut candidate = links.clone();
        candidate.remove(l);
        let new_cost = market.total_cost(&candidate);
        if new_cost < cur_cost - 1e-9 && oracle.acceptable(&candidate) {
            links = candidate;
            cur_cost = new_cost;
        }
    }
    links
}

/// Forward-greedy selector (ablation arm): links are ranked by declared
/// price per Gbit/s of capacity; a binary search finds the shortest
/// acceptable rank-prefix, which is then reverse-pruned. Cheap-capacity
/// first is a natural alternative construction to the routing-driven
/// [`GreedySelector`]; its weakness — it buys capacity without knowing
/// where demand actually flows — is exactly what the ablation measures.
#[derive(Clone, Debug)]
pub struct ForwardGreedySelector {
    pub prune_budget: usize,
}

impl Default for ForwardGreedySelector {
    fn default() -> Self {
        Self { prune_budget: 48 }
    }
}

impl Selector for ForwardGreedySelector {
    fn select(
        &self,
        market: &Market<'_>,
        oracle: &dyn AcceptabilityOracle,
        available: &LinkSet,
    ) -> Option<SelectionResult> {
        if !oracle.acceptable(available) {
            return None;
        }
        let topo = oracle.topo();
        let mut order: Vec<LinkId> = available.iter().collect();
        order.sort_by(|&a, &b| {
            let pa = market.unit_price(a) / topo.link(a).capacity_gbps;
            let pb = market.unit_price(b) / topo.link(b).capacity_gbps;
            pa.total_cmp(&pb).then(a.cmp(&b))
        });
        let prefix =
            |k: usize| LinkSet::from_links(available.universe(), order[..k].iter().copied());
        // Binary search the smallest acceptable prefix. Acceptability is
        // not strictly monotone under the heuristic oracle, so the result
        // is verified (and the full set is the fallback bound).
        let (mut lo, mut hi) = (1usize, order.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if oracle.acceptable(&prefix(mid)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let mut selected = prefix(hi);
        if !oracle.acceptable(&selected) {
            selected = available.clone();
        }
        let links = prune_links(market, oracle, selected, self.prune_budget);
        let cost = market.total_cost(&links);
        Some(SelectionResult { links, cost })
    }
}

impl Selector for GreedySelector {
    fn select(
        &self,
        market: &Market<'_>,
        oracle: &dyn AcceptabilityOracle,
        available: &LinkSet,
    ) -> Option<SelectionResult> {
        let selected = match self.construct(market, oracle, available) {
            Some(selected) => selected,
            // Last resort: everything offered, if that is acceptable;
            // otherwise the instance is infeasible under the oracle.
            None if oracle.acceptable(available) => available.clone(),
            None => return None,
        };

        // Phase 4: prune.
        let links = self.prune(market, oracle, selected);
        let cost = market.total_cost(&links);
        Some(SelectionResult { links, cost })
    }
}

/// Exact enumeration over all subsets of `available`.
///
/// # Panics
/// Panics if `available` has more than 18 links (`MAX_LINKS`; the
/// enumeration is exponential).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExhaustiveSelector;

impl ExhaustiveSelector {
    const MAX_LINKS: usize = 18;
}

impl Selector for ExhaustiveSelector {
    fn select(
        &self,
        market: &Market<'_>,
        oracle: &dyn AcceptabilityOracle,
        available: &LinkSet,
    ) -> Option<SelectionResult> {
        let links: Vec<LinkId> = available.iter().collect();
        assert!(
            links.len() <= Self::MAX_LINKS,
            "exhaustive selection over {} links is infeasible",
            links.len()
        );
        let mut best: Option<SelectionResult> = None;
        for mask in 0u32..(1u32 << links.len()) {
            let subset = LinkSet::from_links(
                available.universe(),
                links.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &l)| l),
            );
            let cost = market.total_cost(&subset);
            if !cost.is_finite() {
                continue;
            }
            if let Some(b) = &best {
                if cost >= b.cost - 1e-12 {
                    continue; // can't strictly improve; keeps first-found on ties
                }
            }
            if oracle.acceptable(&subset) {
                best = Some(SelectionResult { links: subset, cost });
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_flow::FeasibilityOracle;
    use poc_topology::builder::two_bp_square;
    use poc_topology::BpId;
    use poc_traffic::TrafficMatrix;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    fn light_tm(n: usize) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zero(n);
        tm.set(r(0), r(1), 10.0);
        tm.set(r(2), r(3), 5.0);
        tm
    }

    #[test]
    fn greedy_matches_exhaustive_on_fixture_baseload() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let tm = light_tm(t.n_routers());
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let greedy = GreedySelector::default().select(&m, &oracle, m.offered()).expect("feasible");
        let exact = ExhaustiveSelector.select(&m, &oracle, m.offered()).expect("feasible");
        assert!(
            greedy.cost <= exact.cost * 1.25 + 1e-9,
            "greedy {} vs exact {}",
            greedy.cost,
            exact.cost
        );
        assert!(oracle.acceptable(&greedy.links));
        assert!(oracle.acceptable(&exact.links));
        assert!(exact.cost <= greedy.cost + 1e-9, "exact is optimal");
    }

    #[test]
    fn pathless_witness_flow_falls_back_to_the_full_routing_pass() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        // Both demands ride r2–r3, one per direction, so the smaller
        // flow losing its witness paths below leaves no link for the
        // misled warm oracle to prune that the larger does not pin.
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(2), r(3), 10.0);
        tm.set(r(3), r(2), 5.0);
        let cold_oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let cold = GreedySelector::default().select(&m, &cold_oracle, m.offered()).unwrap();

        let mut witness = cold_oracle.route(&cold.links).expect("the selection routes");
        assert_eq!((witness.flows[1].src, witness.flows[1].dst), (r(3), r(2)));
        witness.flows[1].paths.clear();
        let warm_oracle = poc_flow::WarmOracle::new(&t, &tm, Constraint::BaseLoad);
        warm_oracle.seed(witness);
        let warm = GreedySelector::default().select(&m, &warm_oracle, m.offered()).unwrap();
        assert_eq!(warm.links, cold.links);
        assert_eq!(warm.cost, cold.cost);
    }

    #[test]
    fn resilient_selection_costs_at_least_base() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let tm = light_tm(t.n_routers());
        let sel = |c: Constraint| {
            let oracle = FeasibilityOracle::new(&t, &tm, c);
            GreedySelector::default().select(&m, &oracle, m.offered()).unwrap()
        };
        let c1 = sel(Constraint::BaseLoad);
        let c2 = sel(Constraint::SinglePathFailure { sample_every: 1 });
        let c3 = sel(Constraint::AllPairsBackup);
        assert!(c2.cost >= c1.cost - 1e-9, "c2 {} >= c1 {}", c2.cost, c1.cost);
        assert!(c3.cost >= c1.cost - 1e-9, "c3 {} >= c1 {}", c3.cost, c1.cost);
    }

    #[test]
    fn selection_is_deterministic() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let tm = light_tm(t.n_routers());
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::AllPairsBackup);
        let a = GreedySelector::default().select(&m, &oracle, m.offered()).unwrap();
        let b = GreedySelector::default().select(&m, &oracle, m.offered()).unwrap();
        assert_eq!(a.links, b.links);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn infeasible_demand_returns_none() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(3), 500.0); // cut toward r3 is 120
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        assert!(GreedySelector::default().select(&m, &oracle, m.offered()).is_none());
        assert!(ExhaustiveSelector.select(&m, &oracle, m.offered()).is_none());
    }

    #[test]
    fn a_demand_the_cost_aware_router_cannot_place_falls_back_to_the_whole_offer() {
        // 195 Gbps over twenty parallel 10 Gbps links needs twenty paths:
        // more than the selector's router takes (`MAX_SPLITS + 1`), fewer
        // than the oracle's. The offer is acceptable, so `select` must not
        // report that no subset is.
        use poc_topology::{LinkOwner, Point, TopologyBuilder};
        let mut b = TopologyBuilder::new();
        let west = b.city("west", Point::new(0.0, 0.0), 1.0);
        let east = b.city("east", Point::new(100.0, 0.0), 1.0);
        let bp = b.bp("bp", vec![west, east], vec![(west, east)]);
        let (r0, r1) = (b.router(west, vec![bp]), b.router(east, vec![bp]));
        for _ in 0..20 {
            b.link(LinkOwner::Bp(bp), r0, r1, 10.0, 100.0, 1, 1000.0);
        }
        let t = b.build();
        let m = Market::truthful(&t, 3.0);
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r0, r1, 195.0);
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        assert!(oracle.acceptable(m.offered()));
        let sel = GreedySelector::default().select(&m, &oracle, m.offered()).expect("acceptable");
        assert!(oracle.acceptable(&sel.links));
        assert_eq!(sel.links.len(), 20, "every link is needed");
    }

    #[test]
    fn restricted_availability_is_respected() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let tm = light_tm(t.n_routers());
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let without_bp0 = m.offered_without(BpId(0));
        let sel = GreedySelector::default()
            .select(&m, &oracle, &without_bp0)
            .expect("BP1 alone connects everything");
        assert!(sel.links.is_subset_of(&without_bp0));
        for l in t.links_of_bp(BpId(0)) {
            assert!(!sel.links.contains(l));
        }
    }

    #[test]
    fn prune_never_increases_cost() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let tm = light_tm(t.n_routers());
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let full = m.offered().clone();
        let pruned = GreedySelector::default().prune(&m, &oracle, full.clone());
        assert!(market_cost(&m, &pruned) <= market_cost(&m, &full) + 1e-9);
        assert!(oracle.acceptable(&pruned));
    }

    fn market_cost(m: &Market<'_>, l: &LinkSet) -> f64 {
        m.total_cost(l)
    }

    #[test]
    fn exhaustive_prefers_cheaper_feasible_subset() {
        // On the fixture with a tiny demand, the optimum is a single cheap
        // link covering each demand pair (r0-r1 and r2-r3 paths).
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let tm = light_tm(t.n_routers());
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let exact = ExhaustiveSelector.select(&m, &oracle, m.offered()).unwrap();
        // Optimal: links covering r0→r1 and r2→r3. Cheapest combination in
        // the fixture: r1-r2 ($2600) + r0-r2 ($2900) serves r0-r1 via r2?
        // That's 5500 vs direct r0-r1 ($4000) + r2-r3 ($3100) = 7100, vs
        // r0-r2+r1-r2 covers r0→r1 (2 hops) and then r2→r3 needs 3100.
        // Just assert optimality against a spot candidate:
        let spot =
            LinkSet::from_links(t.n_links(), [poc_topology::LinkId(0), poc_topology::LinkId(4)]);
        if oracle.acceptable(&spot) {
            assert!(exact.cost <= m.total_cost(&spot) + 1e-9);
        }
    }
}

#[cfg(test)]
mod forward_greedy_tests {
    use super::*;
    use poc_flow::FeasibilityOracle;
    use poc_topology::builder::two_bp_square;
    use poc_traffic::TrafficMatrix;

    fn fixture() -> (poc_topology::PocTopology, TrafficMatrix) {
        let t = two_bp_square();
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(RouterId(0), RouterId(1), 10.0);
        tm.set(RouterId(2), RouterId(3), 5.0);
        (t, tm)
    }

    #[test]
    fn forward_greedy_finds_acceptable_set() {
        let (t, tm) = fixture();
        let m = Market::truthful(&t, 3.0);
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let sel =
            ForwardGreedySelector::default().select(&m, &oracle, m.offered()).expect("feasible");
        assert!(oracle.acceptable(&sel.links));
        // Never worse than the exact optimum by more than pruning slack on
        // this enumerable fixture.
        let exact = ExhaustiveSelector.select(&m, &oracle, m.offered()).unwrap();
        assert!(sel.cost >= exact.cost - 1e-9);
    }

    #[test]
    fn forward_greedy_deterministic_and_respects_availability() {
        let (t, tm) = fixture();
        let m = Market::truthful(&t, 3.0);
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let a = ForwardGreedySelector::default().select(&m, &oracle, m.offered()).unwrap();
        let b = ForwardGreedySelector::default().select(&m, &oracle, m.offered()).unwrap();
        assert_eq!(a.links, b.links);
        assert!(a.links.is_subset_of(m.offered()));
    }

    #[test]
    fn forward_greedy_infeasible_returns_none() {
        let (t, _) = fixture();
        let m = Market::truthful(&t, 3.0);
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(RouterId(0), RouterId(3), 10_000.0);
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        assert!(ForwardGreedySelector::default().select(&m, &oracle, m.offered()).is_none());
    }

    #[test]
    fn forward_greedy_usable_in_vcg() {
        // The full VCG round accepts any Selector implementation.
        let (t, mut tm) = fixture();
        tm.set(RouterId(1), RouterId(2), 4.0);
        tm.set(RouterId(2), RouterId(3), 0.0);
        tm.set(RouterId(0), RouterId(1), 8.0);
        let m = Market::truthful(&t, 3.0);
        let out = crate::vcg::run_auction(
            &m,
            &tm,
            Constraint::BaseLoad,
            &ForwardGreedySelector::default(),
        )
        .expect("feasible");
        for s in &out.settlements {
            assert!(s.payment >= s.bid_cost - 1e-9);
        }
    }
}

/// Best-of composite: runs several selectors and keeps the cheapest
/// acceptable result. Still deterministic (selector order breaks ties), so
/// VCG payments remain internally consistent; the price is one full
/// selection run per member. Tighter optimization directly shrinks
/// payment-over-bid margins — Figure 2's magnitudes are sensitive to
/// exactly this knob (see EXPERIMENTS.md).
pub struct CompositeSelector {
    selectors: Vec<Box<dyn Selector>>,
}

impl CompositeSelector {
    pub fn new(selectors: Vec<Box<dyn Selector>>) -> Self {
        assert!(!selectors.is_empty(), "need at least one selector");
        Self { selectors }
    }

    /// The recommended pairing: routing-driven greedy plus forward-greedy,
    /// both with the given prune budget.
    pub fn standard(prune_budget: usize) -> Self {
        Self::new(vec![
            Box::new(GreedySelector::with_prune_budget(prune_budget)),
            Box::new(ForwardGreedySelector { prune_budget }),
        ])
    }
}

impl Selector for CompositeSelector {
    fn select(
        &self,
        market: &Market<'_>,
        oracle: &dyn AcceptabilityOracle,
        available: &LinkSet,
    ) -> Option<SelectionResult> {
        let mut best: Option<SelectionResult> = None;
        for s in &self.selectors {
            if let Some(candidate) = s.select(market, oracle, available) {
                let better = match &best {
                    None => true,
                    Some(b) => candidate.cost < b.cost - 1e-9,
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod composite_tests {
    use super::*;
    use poc_flow::FeasibilityOracle;
    use poc_topology::builder::two_bp_square;
    use poc_traffic::TrafficMatrix;

    #[test]
    fn composite_never_worse_than_either_arm() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(RouterId(0), RouterId(1), 10.0);
        tm.set(RouterId(2), RouterId(3), 5.0);
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let a = GreedySelector::default().select(&m, &oracle, m.offered()).unwrap();
        let b = ForwardGreedySelector::default().select(&m, &oracle, m.offered()).unwrap();
        let c = CompositeSelector::standard(48).select(&m, &oracle, m.offered()).unwrap();
        assert!(c.cost <= a.cost + 1e-9);
        assert!(c.cost <= b.cost + 1e-9);
        assert!(oracle.acceptable(&c.links));
    }

    #[test]
    fn composite_none_when_all_arms_fail() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(RouterId(0), RouterId(3), 10_000.0);
        let oracle = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        assert!(CompositeSelector::standard(8).select(&m, &oracle, m.offered()).is_none());
    }
}
