//! Synthetic TopologyZoo-like instance generator.
//!
//! The paper (§3.3) derives its auction instance from TopologyZoo by
//! (1) merging small networks into 20 BPs, (2) placing POC routers at
//! locations where ≥4 BPs are closely colocated, and (3) treating each
//! BP-internal path between POC-router locations as an offered *logical
//! link* — 4674 of them, with each BP contributing roughly 2%–12%.
//!
//! This module regenerates that derived artifact synthetically and
//! deterministically (seeded): cities are scattered on a plane, each BP
//! covers a geographically contiguous, heavy-tail-sized subset of cities
//! with an internal MST-plus-shortcuts physical network, POC routers appear
//! at colocation sites, and logical links are enumerated from bounded-hop
//! internal paths. [`ZooConfig::paper`] is tuned so the defaults land on
//! the paper's summary statistics.

use crate::cost::CostModel;
use crate::geo::Point;
use crate::ids::{BpId, LinkId, PopId, RouterId};
use crate::model::{BpNetwork, City, LinkOwner, LogicalLink, PocRouter, PocTopology};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap};

/// How each BP's internal physical network is wired.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum InternalStyle {
    /// Euclidean MST plus ~n/2 shortcut chords (default; degree ≈ 2.5,
    /// the TopologyZoo-typical shape).
    MstPlusShortcuts,
    /// A geographic ring (cities ordered by angle around the BP's
    /// centroid) — SONET-era carrier topology, degree 2 everywhere.
    Ring,
    /// Hub-and-spoke from the BP's highest-weight city, plus a ring over
    /// the hub's three nearest neighbours for minimal redundancy.
    HubAndSpoke,
}

/// Skew of the BP size distribution (1 = linear ramp, >1 = heavier tail of
/// small BPs).
const COVERAGE_GAMMA: f64 = 2.0;

/// A BP offers a logical link between two of its POC-router cities only if
/// its internal path between them has at most this many hops.
const MAX_LOGICAL_HOPS: u32 = 6;

/// Probability that an eligible router pair is actually offered (models
/// BPs not productizing every internal path).
const PAIR_OFFER_PROB: f64 = 0.80;

/// Capacity menu in Gbit/s with selection weights.
const CAPACITY_MENU: [(f64, f64); 3] = [(10.0, 0.45), (40.0, 0.35), (100.0, 0.20)];

/// Physical-route detour factor over straight-line city distance.
const FIBRE_DETOUR: f64 = 1.25;

/// BP efficiency multipliers are drawn uniformly from this range.
const EFFICIENCY_RANGE: (f64, f64) = (0.82, 1.22);

/// Per-link idiosyncratic cost noise, uniform multiplicative range.
const NOISE_RANGE: (f64, f64) = (0.85, 1.18);

/// Generator parameters. All randomness flows from `seed`; links are
/// priced by [`CostModel::default`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ZooConfig {
    pub seed: u64,
    /// Number of candidate PoP cities on the plane.
    pub n_cities: usize,
    /// Side of the square plane, km.
    pub plane_km: f64,
    /// Number of bandwidth providers after merging (paper: 20).
    pub n_bps: usize,
    /// A city hosts a POC router when at least this many BPs are present
    /// (paper: 4).
    pub colocation_threshold: usize,
    /// Fraction of cities covered by the smallest / largest BP.
    pub coverage_min: f64,
    pub coverage_max: f64,
    /// BP internal-network wiring style.
    pub internal_style: InternalStyle,
}

impl ZooConfig {
    /// Defaults tuned to reproduce the paper's instance statistics:
    /// 20 BPs, ≈4674 logical links, per-BP shares ≈2%–12%.
    pub fn paper() -> Self {
        Self {
            seed: 0x9e3779b97f4a7c15,
            n_cities: 72,
            plane_km: 5000.0,
            n_bps: 20,
            colocation_threshold: 4,
            coverage_min: 0.25,
            coverage_max: 0.78,
            internal_style: InternalStyle::MstPlusShortcuts,
        }
    }

    /// A small instance for unit tests and quick examples: a handful of
    /// routers, a few hundred links.
    pub fn small() -> Self {
        Self { n_cities: 24, n_bps: 6, coverage_min: 0.3, coverage_max: 0.8, ..Self::paper() }
    }

    /// The ROADMAP's past-paper-scale point: ~100 BPs offering well over
    /// 10k logical links. The colocation threshold rises with BP density
    /// so the router count — and with it the traffic matrix every oracle
    /// probe must route — stays moderate while the *market* (BPs × links)
    /// is several times the paper's.
    pub fn scale() -> Self {
        Self {
            n_cities: 150,
            plane_km: 6000.0,
            n_bps: 100,
            colocation_threshold: 24,
            coverage_min: 0.10,
            coverage_max: 0.45,
            ..Self::paper()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// External-ISP attachment parameters for virtual links (paper §3.3: the
/// external ISPs attach at multiple points and provide contract-priced
/// virtual links between those points, bounding the auction).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExternalIspConfig {
    /// Number of external ISPs to attach.
    pub n_isps: usize,
    /// Attachment routers per ISP (full mesh of virtual links among them).
    pub attach_points: usize,
    /// Virtual-link capacity, Gbit/s.
    pub capacity_gbps: f64,
    /// Contract price premium over the nominal cost model (virtual links
    /// are the expensive fallback; >1).
    pub price_premium: f64,
}

impl Default for ExternalIspConfig {
    fn default() -> Self {
        Self { n_isps: 2, attach_points: 6, capacity_gbps: 400.0, price_premium: 3.0 }
    }
}

/// The generator. Construct with a config, call [`ZooGenerator::generate`].
pub struct ZooGenerator {
    cfg: ZooConfig,
}

impl ZooGenerator {
    pub fn new(cfg: ZooConfig) -> Self {
        assert!(cfg.n_cities >= 4, "need at least 4 cities");
        assert!(cfg.n_bps >= 1, "need at least one BP");
        assert!(
            (0.0..=1.0).contains(&cfg.coverage_min)
                && cfg.coverage_min <= cfg.coverage_max
                && cfg.coverage_max <= 1.0,
            "coverage fractions must satisfy 0 <= min <= max <= 1"
        );
        Self { cfg }
    }

    /// Generate the full instance (without external ISPs; see
    /// [`attach_external_isps`]).
    pub fn generate(&self) -> PocTopology {
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
        let cities = self.place_cities(&mut rng);
        let bps = self.build_bps(&cities, &mut rng);
        let routers = place_routers(&cities, &bps, self.cfg.colocation_threshold);
        let links = self.offer_links(&cities, &bps, &routers, &mut rng);
        let topo = PocTopology { cities, bps, routers, links };
        debug_assert!(topo.validate().is_ok());
        topo
    }

    fn place_cities(&self, rng: &mut ChaCha8Rng) -> Vec<City> {
        let n = self.cfg.n_cities;
        let side = self.cfg.plane_km;
        let min_sep = side / (n as f64).sqrt() / 2.0;
        let mut placed: Vec<Point> = Vec::with_capacity(n);
        while placed.len() < n {
            let p = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            if placed.iter().all(|q| q.distance(p) >= min_sep) {
                placed.push(p);
            }
        }
        placed
            .into_iter()
            .enumerate()
            .map(|(i, pos)| {
                // Log-normal-ish population weight: exp(N(0, 0.8)).
                let z: f64 = sample_std_normal(rng);
                City {
                    id: PopId::from_index(i),
                    name: format!("city{i:02}"),
                    pos,
                    weight: (0.8 * z).exp(),
                }
            })
            .collect()
    }

    fn build_bps(&self, cities: &[City], rng: &mut ChaCha8Rng) -> Vec<BpNetwork> {
        let n_bps = self.cfg.n_bps;
        (0..n_bps)
            .map(|b| {
                // Heavy-tailed size ramp: BP 0 is largest.
                let t = if n_bps == 1 { 0.0 } else { b as f64 / (n_bps - 1) as f64 };
                let cov = self.cfg.coverage_max
                    - (self.cfg.coverage_max - self.cfg.coverage_min)
                        * t.powf(1.0 / COVERAGE_GAMMA);
                let size = ((cov * cities.len() as f64).round() as usize).clamp(2, cities.len());
                let members = grow_region(cities, size, rng);
                let edges = match self.cfg.internal_style {
                    InternalStyle::MstPlusShortcuts => internal_network(cities, &members, rng),
                    InternalStyle::Ring => ring_network(cities, &members),
                    InternalStyle::HubAndSpoke => hub_network(cities, &members),
                };
                BpNetwork {
                    id: BpId::from_index(b),
                    name: format!("BP-{b:02}"),
                    cities: members,
                    edges,
                }
            })
            .collect()
    }

    fn offer_links(
        &self,
        cities: &[City],
        bps: &[BpNetwork],
        routers: &[PocRouter],
        rng: &mut ChaCha8Rng,
    ) -> Vec<LogicalLink> {
        let router_at_city: HashMap<PopId, RouterId> =
            routers.iter().map(|r| (r.city, r.id)).collect();
        let mut links = Vec::new();
        let (eff_lo, eff_hi) = EFFICIENCY_RANGE;
        let (noise_lo, noise_hi) = NOISE_RANGE;
        let cap_total: f64 = CAPACITY_MENU.iter().map(|(_, w)| w).sum();
        let cost_model = CostModel::default();

        for bp in bps {
            let efficiency = rng.gen_range(eff_lo..=eff_hi);
            // POC-router cities this BP is present in.
            let bp_router_cities: Vec<PopId> =
                bp.cities.iter().copied().filter(|c| router_at_city.contains_key(c)).collect();
            // All-pairs bounded-hop internal paths among those cities.
            let paths = internal_paths(cities, bp, &bp_router_cities);
            for ((ca, cb), (dist_km, hops)) in paths {
                if hops > MAX_LOGICAL_HOPS {
                    continue;
                }
                if !rng.gen_bool(PAIR_OFFER_PROB) {
                    continue;
                }
                let (ra, rb) = (router_at_city[&ca], router_at_city[&cb]);
                let (a, b) = if ra < rb { (ra, rb) } else { (rb, ra) };
                let capacity = pick_weighted(&CAPACITY_MENU, cap_total, rng);
                let distance_km = dist_km * FIBRE_DETOUR;
                let noise = rng.gen_range(noise_lo..=noise_hi);
                let cost = cost_model.monthly_cost(capacity, distance_km, efficiency, noise);
                links.push(LogicalLink {
                    id: LinkId::from_index(links.len()),
                    owner: LinkOwner::Bp(bp.id),
                    a,
                    b,
                    capacity_gbps: capacity,
                    distance_km,
                    hop_count: hops,
                    true_monthly_cost: cost,
                });
            }
        }
        links
    }
}

/// Attach `cfg.n_isps` external ISPs to an existing topology, appending one
/// full mesh of virtual links per ISP among its attachment routers.
/// Attachment points are chosen as the highest-weight router cities, offset
/// per ISP so different ISPs attach at overlapping-but-distinct sets.
pub fn attach_external_isps(
    topo: &mut PocTopology,
    cfg: &ExternalIspConfig,
    cost_model: &CostModel,
) {
    assert!(cfg.attach_points >= 2, "an ISP needs at least two attachment points");
    assert!(cfg.price_premium >= 1.0, "virtual links are the expensive fallback");
    // Routers sorted by descending city weight (stable across runs).
    let mut by_weight: Vec<RouterId> = topo.routers.iter().map(|r| r.id).collect();
    by_weight.sort_by(|x, y| {
        let wx = topo.city(topo.router(*x).city).weight;
        let wy = topo.city(topo.router(*y).city).weight;
        wy.partial_cmp(&wx).unwrap().then(x.cmp(y))
    });
    for isp in 0..cfg.n_isps {
        // Rotate the weight-ordered list per ISP so different ISPs attach
        // at overlapping-but-distinct router sets.
        let n_attach = cfg.attach_points.min(by_weight.len());
        let attach: Vec<RouterId> =
            (0..n_attach).map(|k| by_weight[(isp + k) % by_weight.len()]).collect();
        for i in 0..attach.len() {
            for j in (i + 1)..attach.len() {
                let (a, b) = if attach[i] < attach[j] {
                    (attach[i], attach[j])
                } else {
                    (attach[j], attach[i])
                };
                let distance_km = topo.router_distance(a, b) * 1.4; // ISPs detour more
                let cost = cost_model.monthly_cost(
                    cfg.capacity_gbps,
                    distance_km.max(1.0),
                    cfg.price_premium,
                    1.0,
                );
                let id = LinkId::from_index(topo.links.len());
                topo.links.push(LogicalLink {
                    id,
                    owner: LinkOwner::Virtual(isp as u32),
                    a,
                    b,
                    capacity_gbps: cfg.capacity_gbps,
                    distance_km,
                    hop_count: 1,
                    true_monthly_cost: cost,
                });
            }
        }
    }
    debug_assert!(topo.validate().is_ok());
}

/// Place POC routers at every city where at least `threshold` BPs have a PoP.
fn place_routers(cities: &[City], bps: &[BpNetwork], threshold: usize) -> Vec<PocRouter> {
    let mut routers = Vec::new();
    for c in cities {
        let colocated: Vec<BpId> =
            bps.iter().filter(|b| b.present_in(c.id)).map(|b| b.id).collect();
        if colocated.len() >= threshold {
            routers.push(PocRouter {
                id: RouterId::from_index(routers.len()),
                city: c.id,
                colocated_bps: colocated,
            });
        }
    }
    routers
}

/// Grow a geographically contiguous region of `size` cities: pick a seed
/// weighted by city weight, then repeatedly add the unclaimed city nearest
/// to the region's centroid-ish frontier (with mild randomization).
fn grow_region(cities: &[City], size: usize, rng: &mut ChaCha8Rng) -> Vec<PopId> {
    let total_w: f64 = cities.iter().map(|c| c.weight).sum();
    let mut pick = rng.gen_range(0.0..total_w);
    let mut seed = cities[0].id;
    for c in cities {
        if pick < c.weight {
            seed = c.id;
            break;
        }
        pick -= c.weight;
    }
    let mut members = vec![seed];
    let mut member_set = vec![false; cities.len()];
    member_set[seed.index()] = true;
    while members.len() < size {
        // Distance of each unclaimed city to its nearest member.
        let mut cands: Vec<(f64, PopId)> = cities
            .iter()
            .filter(|c| !member_set[c.id.index()])
            .map(|c| {
                let d = members
                    .iter()
                    .map(|m| cities[m.index()].pos.distance(c.pos))
                    .fold(f64::INFINITY, f64::min);
                (d, c.id)
            })
            .collect();
        cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let k = cands.len().min(3);
        let chosen = cands[rng.gen_range(0..k)].1;
        member_set[chosen.index()] = true;
        members.push(chosen);
    }
    members.sort();
    members
}

/// Build a BP's internal physical network: Euclidean MST over its cities
/// plus a few shortcut edges for meshiness (degree ≈ 2.5).
fn internal_network(
    cities: &[City],
    members: &[PopId],
    rng: &mut ChaCha8Rng,
) -> Vec<(PopId, PopId)> {
    let n = members.len();
    if n < 2 {
        return Vec::new();
    }
    let pos = |p: PopId| cities[p.index()].pos;
    // Prim's MST, O(n^2): fine for n ≤ ~100.
    let mut in_tree = vec![false; n];
    let mut best = vec![(f64::INFINITY, 0usize); n];
    in_tree[0] = true;
    for j in 1..n {
        best[j] = (pos(members[0]).distance(pos(members[j])), 0);
    }
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let (j, _) = best
            .iter()
            .enumerate()
            .filter(|(j, _)| !in_tree[*j])
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
            .map(|(j, v)| (j, v.0))
            .expect("tree not spanning");
        in_tree[j] = true;
        let parent = best[j].1;
        edges.push(order_pair(members[parent], members[j]));
        for k in 0..n {
            if !in_tree[k] {
                let d = pos(members[j]).distance(pos(members[k]));
                if d < best[k].0 {
                    best[k] = (d, j);
                }
            }
        }
    }
    // Shortcuts: each node connects to its 2nd-nearest non-neighbor with
    // probability 1/2, adding ~n/2 chords.
    let mut have: Vec<(PopId, PopId)> = edges.clone();
    for (i, &m) in members.iter().enumerate() {
        if !rng.gen_bool(0.5) {
            continue;
        }
        let mut others: Vec<(f64, PopId)> = members
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, &o)| (pos(m).distance(pos(o)), o))
            .collect();
        others.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (_, o) in others.into_iter().take(3) {
            let e = order_pair(m, o);
            if !have.contains(&e) {
                have.push(e);
                edges.push(e);
                break;
            }
        }
    }
    edges
}

/// A geographic ring: members ordered by angle around their centroid and
/// connected cyclically (degree 2; any single internal failure leaves the
/// ring connected the other way).
fn ring_network(cities: &[City], members: &[PopId]) -> Vec<(PopId, PopId)> {
    let n = members.len();
    if n < 2 {
        return Vec::new();
    }
    if n == 2 {
        return vec![order_pair(members[0], members[1])];
    }
    let cx: f64 = members.iter().map(|m| cities[m.index()].pos.x).sum::<f64>() / n as f64;
    let cy: f64 = members.iter().map(|m| cities[m.index()].pos.y).sum::<f64>() / n as f64;
    let mut ordered: Vec<PopId> = members.to_vec();
    ordered.sort_by(|a, b| {
        let pa = cities[a.index()].pos;
        let pb = cities[b.index()].pos;
        let ta = (pa.y - cy).atan2(pa.x - cx);
        let tb = (pb.y - cy).atan2(pb.x - cx);
        ta.partial_cmp(&tb).expect("NaN angle").then(a.cmp(b))
    });
    (0..n).map(|i| order_pair(ordered[i], ordered[(i + 1) % n])).collect()
}

/// Hub-and-spoke: every member connects to the highest-weight member,
/// plus a triangle over the hub's nearest neighbours so the hub is not a
/// universal single point of failure.
fn hub_network(cities: &[City], members: &[PopId]) -> Vec<(PopId, PopId)> {
    let n = members.len();
    if n < 2 {
        return Vec::new();
    }
    let hub = *members
        .iter()
        .max_by(|a, b| {
            cities[a.index()]
                .weight
                .partial_cmp(&cities[b.index()].weight)
                .expect("NaN weight")
                .then(b.cmp(a))
        })
        .expect("non-empty");
    let mut edges: Vec<(PopId, PopId)> =
        members.iter().filter(|&&m| m != hub).map(|&m| order_pair(hub, m)).collect();
    // Triangle over the hub's nearest two neighbours.
    let mut near: Vec<PopId> = members.iter().copied().filter(|&m| m != hub).collect();
    near.sort_by(|a, b| {
        let da = cities[hub.index()].pos.distance(cities[a.index()].pos);
        let db = cities[hub.index()].pos.distance(cities[b.index()].pos);
        da.partial_cmp(&db).expect("NaN distance").then(a.cmp(b))
    });
    if near.len() >= 2 {
        let e = order_pair(near[0], near[1]);
        if !edges.contains(&e) {
            edges.push(e);
        }
    }
    edges
}

/// All-pairs internal shortest paths (km, hops) among `targets` inside a
/// BP's physical network. Dijkstra by km from each target; the hop count is
/// that of the km-shortest path.
fn internal_paths(
    cities: &[City],
    bp: &BpNetwork,
    targets: &[PopId],
) -> Vec<((PopId, PopId), (f64, u32))> {
    // Adjacency over the BP's cities.
    let mut adj: HashMap<PopId, Vec<(PopId, f64)>> = HashMap::new();
    for &(u, v) in &bp.edges {
        let d = cities[u.index()].pos.distance(cities[v.index()].pos);
        adj.entry(u).or_default().push((v, d));
        adj.entry(v).or_default().push((u, d));
    }
    let mut out = Vec::new();
    for (ti, &src) in targets.iter().enumerate() {
        // Dijkstra from src.
        let mut dist: HashMap<PopId, (f64, u32)> = HashMap::new();
        dist.insert(src, (0.0, 0));
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
        heap.push(HeapItem { cost: 0.0, hops: 0, node: src });
        while let Some(HeapItem { cost, hops, node }) = heap.pop() {
            if let Some(&(best, _)) = dist.get(&node) {
                if cost > best + 1e-12 {
                    continue;
                }
            }
            if let Some(neigh) = adj.get(&node) {
                for &(nxt, d) in neigh {
                    let nc = cost + d;
                    let nh = hops + 1;
                    let better = match dist.get(&nxt) {
                        None => true,
                        Some(&(c, _)) => nc < c - 1e-12,
                    };
                    if better {
                        dist.insert(nxt, (nc, nh));
                        heap.push(HeapItem { cost: nc, hops: nh, node: nxt });
                    }
                }
            }
        }
        for &dst in targets.iter().skip(ti + 1) {
            if let Some(&(km, hops)) = dist.get(&dst) {
                out.push(((src, dst), (km, hops)));
            }
        }
    }
    out
}

#[derive(PartialEq)]
struct HeapItem {
    cost: f64,
    hops: u32,
    node: PopId,
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on cost.
        other.cost.partial_cmp(&self.cost).unwrap().then(other.hops.cmp(&self.hops))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn order_pair(a: PopId, b: PopId) -> (PopId, PopId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

fn pick_weighted(menu: &[(f64, f64)], total: f64, rng: &mut ChaCha8Rng) -> f64 {
    let mut pick = rng.gen_range(0.0..total);
    for &(v, w) in menu {
        if pick < w {
            return v;
        }
        pick -= w;
    }
    menu.last().expect("non-empty menu").0
}

/// Box-Muller standard normal (avoids pulling in rand_distr).
fn sample_std_normal(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Fnv1a;

    #[test]
    fn generation_is_deterministic() {
        let a = ZooGenerator::new(ZooConfig::small()).generate();
        let b = ZooGenerator::new(ZooConfig::small()).generate();
        assert_eq!(a.n_links(), b.n_links());
        assert_eq!(a.n_routers(), b.n_routers());
        for (x, y) in a.links.iter().zip(&b.links) {
            assert_eq!(x.a, y.a);
            assert_eq!(x.b, y.b);
            assert!((x.true_monthly_cost - y.true_monthly_cost).abs() < 1e-9);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ZooGenerator::new(ZooConfig::small()).generate();
        let b = ZooGenerator::new(ZooConfig::small().with_seed(7)).generate();
        // Extremely unlikely to coincide.
        assert!(
            a.n_links() != b.n_links()
                || a.links
                    .iter()
                    .zip(&b.links)
                    .any(|(x, y)| (x.true_monthly_cost - y.true_monthly_cost).abs() > 1e-9)
        );
    }

    #[test]
    fn small_instance_validates_and_is_nontrivial() {
        let t = ZooGenerator::new(ZooConfig::small()).generate();
        t.validate().unwrap();
        assert!(t.n_routers() >= 4, "expected a few routers, got {}", t.n_routers());
        assert!(t.n_links() >= 20, "expected a few links, got {}", t.n_links());
    }

    #[test]
    fn routers_meet_colocation_threshold() {
        let cfg = ZooConfig::small();
        let t = ZooGenerator::new(cfg.clone()).generate();
        for r in &t.routers {
            assert!(r.colocated_bps.len() >= cfg.colocation_threshold);
            for bp in &r.colocated_bps {
                assert!(t.bps[bp.index()].present_in(r.city));
            }
        }
    }

    #[test]
    fn links_respect_hop_bound_and_ownership() {
        let cfg = ZooConfig::small();
        let t = ZooGenerator::new(cfg.clone()).generate();
        for l in &t.links {
            assert!(l.hop_count <= MAX_LOGICAL_HOPS);
            let bp = l.owner.as_bp().expect("generator emits only BP links");
            let (ca, cb) = (t.router(l.a).city, t.router(l.b).city);
            assert!(t.bps[bp.index()].present_in(ca));
            assert!(t.bps[bp.index()].present_in(cb));
        }
    }

    #[test]
    fn external_isps_append_virtual_mesh() {
        let mut t = ZooGenerator::new(ZooConfig::small()).generate();
        let before = t.n_links();
        let cfg = ExternalIspConfig { n_isps: 2, attach_points: 4, ..Default::default() };
        attach_external_isps(&mut t, &cfg, &CostModel::default());
        let added = t.n_links() - before;
        assert_eq!(added, 2 * (4 * 3 / 2));
        t.validate().unwrap();
        assert_eq!(t.virtual_links().len(), added);
    }

    /// FNV-1a over the JSON bytes of an instance: every city, BP network,
    /// router and link field, including the distances, costs and hop counts
    /// that [`PocTopology::fingerprint`] skips.
    fn json_hash(t: &PocTopology) -> u64 {
        let mut h = Fnv1a::new();
        for b in serde_json::to_vec(t).unwrap() {
            h.mix(b as u64);
        }
        h.finish()
    }

    #[test]
    fn presets_generate_the_pinned_instances() {
        let got: Vec<String> = [ZooConfig::small(), ZooConfig::paper(), ZooConfig::scale()]
            .into_iter()
            .map(|cfg| format!("{:#018x}", json_hash(&ZooGenerator::new(cfg).generate())))
            .collect();
        assert_eq!(got, ["0xcb8ff5d0616164fa", "0x860781ebf3300adf", "0x977d7fa1fc6cb30d"]);
    }

    #[test]
    fn bp_internal_networks_are_connected() {
        let t = ZooGenerator::new(ZooConfig::small()).generate();
        for bp in &t.bps {
            // Union-find over edges must connect all cities.
            let mut parent: HashMap<PopId, PopId> = bp.cities.iter().map(|&c| (c, c)).collect();
            fn find(p: &mut HashMap<PopId, PopId>, x: PopId) -> PopId {
                let mut r = x;
                while p[&r] != r {
                    r = p[&r];
                }
                let mut c = x;
                while p[&c] != r {
                    let nxt = p[&c];
                    p.insert(c, r);
                    c = nxt;
                }
                r
            }
            for &(u, v) in &bp.edges {
                let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
                parent.insert(ru, rv);
            }
            let root = find(&mut parent, bp.cities[0]);
            for &c in &bp.cities {
                assert_eq!(find(&mut parent, c), root, "{} disconnected in {}", c, bp.name);
            }
        }
    }
}

#[cfg(test)]
mod style_tests {
    use super::*;

    fn connected(bp: &BpNetwork) -> bool {
        let mut adj: HashMap<PopId, Vec<PopId>> = HashMap::new();
        for &(u, v) in &bp.edges {
            adj.entry(u).or_default().push(v);
            adj.entry(v).or_default().push(u);
        }
        let mut seen = vec![bp.cities[0]];
        let mut stack = vec![bp.cities[0]];
        while let Some(c) = stack.pop() {
            for &n in adj.get(&c).map(|v| v.as_slice()).unwrap_or(&[]) {
                if !seen.contains(&n) {
                    seen.push(n);
                    stack.push(n);
                }
            }
        }
        seen.len() == bp.cities.len()
    }

    fn degree_of(bp: &BpNetwork, city: PopId) -> usize {
        bp.edges.iter().filter(|&&(u, v)| u == city || v == city).count()
    }

    #[test]
    fn ring_style_is_connected_degree_two() {
        let cfg = ZooConfig { internal_style: InternalStyle::Ring, ..ZooConfig::small() };
        let t = ZooGenerator::new(cfg).generate();
        t.validate().unwrap();
        for bp in &t.bps {
            assert!(connected(bp), "{} disconnected", bp.name);
            if bp.cities.len() >= 3 {
                for &c in &bp.cities {
                    assert_eq!(degree_of(bp, c), 2, "{} not a ring at {c}", bp.name);
                }
            }
        }
    }

    #[test]
    fn hub_style_is_connected_with_a_hub() {
        let cfg = ZooConfig { internal_style: InternalStyle::HubAndSpoke, ..ZooConfig::small() };
        let t = ZooGenerator::new(cfg).generate();
        t.validate().unwrap();
        for bp in &t.bps {
            assert!(connected(bp), "{} disconnected", bp.name);
            if bp.cities.len() >= 4 {
                // Some city has degree >= n-1 (the hub).
                let max_deg = bp.cities.iter().map(|&c| degree_of(bp, c)).max().unwrap_or(0);
                assert!(
                    max_deg >= bp.cities.len() - 1,
                    "{}: no hub found (max degree {max_deg})",
                    bp.name
                );
            }
        }
    }

    #[test]
    fn styles_change_link_offer_structure() {
        let mst = ZooGenerator::new(ZooConfig::small()).generate();
        let ring = ZooGenerator::new(ZooConfig {
            internal_style: InternalStyle::Ring,
            ..ZooConfig::small()
        })
        .generate();
        // Ring internals have longer hop paths, so fewer pairs pass the
        // hop bound — different offer counts are expected.
        assert_ne!(mst.n_links(), ring.n_links());
    }
}

#[cfg(test)]
mod scale_tests {
    use super::*;

    #[test]
    fn scale_preset_hits_roadmap_targets() {
        let t = ZooGenerator::new(ZooConfig::scale()).generate();
        t.validate().unwrap();
        eprintln!(
            "[scale preset] routers={} links={} bps={}",
            t.n_routers(),
            t.n_links(),
            t.bps.len()
        );
        assert!(t.bps.len() >= 100, "got {} BPs", t.bps.len());
        assert!(t.n_links() >= 10_000, "got {} links", t.n_links());
        assert!(t.n_routers() <= 110, "router count must stay tractable, got {}", t.n_routers());
    }
}
