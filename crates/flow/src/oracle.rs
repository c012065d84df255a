//! The acceptability oracle `A(OL)` used by the bandwidth auction.
//!
//! An element of `A(OL)` is a link subset that carries the traffic matrix
//! under the configured [`Constraint`]. The oracle also exposes the routing
//! it found, which the auction's greedy selection reuses.

use crate::cut::CutCertificate;
use crate::failure::{self, FailReason};
use crate::linkset::LinkSet;
use crate::route::{route_tm, route_tm_learning, PassError, RouteError, Routing, Until};
use poc_topology::{PocTopology, RouterId};
use poc_traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};

/// Why a candidate set was rejected (used by the auction's selector to
/// augment the set in a targeted way).
#[derive(Clone, Debug, PartialEq)]
pub enum Rejection {
    /// The base traffic matrix itself could not be routed.
    BaseRoute(RouteError),
    /// Base routing fits but a resilience scenario fails for this pair.
    Resilience { pair: (RouterId, RouterId), reason: FailReason },
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::BaseRoute(e) => write!(f, "{e}"),
            Rejection::Resilience { pair: (src, dst), reason } => {
                write!(f, "{src}->{dst} fails its resilience check: {reason}")
            }
        }
    }
}

/// The paper's three constraint levels (Figure 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Constraint {
    /// #1 — the links handle the offered load.
    BaseLoad,
    /// #2 — and survive any single path failure. The stride controls
    /// deterministic scenario sampling (1 = exhaustive).
    SinglePathFailure { sample_every: usize },
    /// #3 — and can place every pair on a backup avoiding its primary path,
    /// all simultaneously.
    AllPairsBackup,
}

impl Constraint {
    /// The constraint's paper label ("#1", "#2", "#3").
    pub fn label(self) -> &'static str {
        match self {
            Constraint::BaseLoad => "#1",
            Constraint::SinglePathFailure { .. } => "#2",
            Constraint::AllPairsBackup => "#3",
        }
    }

    /// The three paper constraints with `sample_every` for #2.
    pub fn paper_suite(sample_every: usize) -> [Constraint; 3] {
        [
            Constraint::BaseLoad,
            Constraint::SinglePathFailure { sample_every },
            Constraint::AllPairsBackup,
        ]
    }
}

/// A cheap fingerprint of a whole oracle instance: the topology's
/// structural fingerprint extended with the traffic matrix and the
/// constraint level. Two oracles agree on every acceptability verdict iff
/// they agree on this value (up to hash collisions), which is what lets
/// [`FeasibilityCache`] refuse cross-instance reuse instead of silently
/// serving stale verdicts.
pub fn instance_fingerprint(topo: &PocTopology, tm: &TrafficMatrix, constraint: Constraint) -> u64 {
    let mut h = poc_topology::Fnv1a::new();
    h.mix(topo.fingerprint());
    h.mix(tm.n_routers() as u64);
    for (src, dst, demand) in tm.iter_demands() {
        h.mix(src.0 as u64);
        h.mix(dst.0 as u64);
        h.mix(demand.to_bits());
    }
    match constraint {
        Constraint::BaseLoad => h.mix(1),
        Constraint::SinglePathFailure { sample_every } => {
            h.mix(2);
            h.mix(sample_every as u64);
        }
        Constraint::AllPairsBackup => h.mix(3),
    }
    h.finish()
}

/// A [`FeasibilityCache`] was offered to an oracle over a different
/// `(topology, traffic matrix, constraint)` instance than the one it is
/// bound to. Reusing it would silently serve verdicts computed for
/// another instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheMismatch {
    /// Fingerprint the cache is bound to.
    pub bound: u64,
    /// Fingerprint of the instance that tried to attach.
    pub offered: u64,
}

impl std::fmt::Display for CacheMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "feasibility cache bound to instance {:#018x} offered to instance {:#018x}",
            self.bound, self.offered
        )
    }
}

impl std::error::Error for CacheMismatch {}

/// Shared memo of acceptability verdicts, keyed by the candidate
/// [`LinkSet`].
///
/// A verdict is a pure function of `(topo, tm, constraint, links)`, so a
/// cache is only valid for oracles over the same instance. The cache
/// *enforces* that contract: it binds to the [`instance_fingerprint`] of
/// the first instance that attaches (or the one given to
/// [`FeasibilityCache::for_instance`]), and
/// [`FeasibilityOracle::with_cache`] returns a typed [`CacheMismatch`] —
/// and bumps the `flow.cache.mismatch` counter — when a different
/// instance tries to reuse it. `run_auction` makes one per round, and it
/// serves only the round's initial selection: the per-BP Clarke-pivot
/// re-selections never read or write it, because their
/// [`crate::WarmOracle`] verdicts depend on each pivot's witness chain
/// and a cache must hold pure functions of the instance. Thread-safe:
/// reads take a shared lock, inserts an exclusive one; the oracle
/// computation itself runs outside any lock, so concurrent probes of
/// distinct sets never serialize on each other.
///
/// Every lookup is bridged into the global metrics registry as the
/// `flow.cache.hit` / `flow.cache.miss` counters (aggregated across all
/// cache instances in the process); read those from a
/// [`poc_obs::MetricsSnapshot`].
pub struct FeasibilityCache {
    verdicts: parking_lot::RwLock<std::collections::HashMap<LinkSet, bool>>,
    /// Fingerprint of the instance this cache serves; `None` until the
    /// first oracle attaches.
    binding: parking_lot::Mutex<Option<u64>>,
    /// Bridged process-wide counters (lock-free handles into the global
    /// registry, resolved once per cache).
    obs_hits: poc_obs::Counter,
    obs_misses: poc_obs::Counter,
}

impl Default for FeasibilityCache {
    fn default() -> Self {
        Self {
            verdicts: Default::default(),
            binding: parking_lot::Mutex::new(None),
            obs_hits: poc_obs::counter!("flow.cache.hit").clone(),
            obs_misses: poc_obs::counter!("flow.cache.miss").clone(),
        }
    }
}

impl FeasibilityCache {
    /// An unbound cache: it binds to the first instance that attaches via
    /// [`FeasibilityOracle::with_cache`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache pre-bound to `(topo, tm, constraint)`; attaching an oracle
    /// over any other instance is a [`CacheMismatch`].
    pub fn for_instance(topo: &PocTopology, tm: &TrafficMatrix, constraint: Constraint) -> Self {
        let cache = Self::new();
        *cache.binding.lock() = Some(instance_fingerprint(topo, tm, constraint));
        cache
    }

    /// The instance fingerprint this cache is bound to, if any.
    pub fn bound_to(&self) -> Option<u64> {
        *self.binding.lock()
    }

    /// Bind to `fingerprint`, or verify an existing binding. A mismatch is
    /// recorded on the `flow.cache.mismatch` counter.
    fn attach(&self, fingerprint: u64) -> Result<(), CacheMismatch> {
        let mut binding = self.binding.lock();
        match *binding {
            None => {
                *binding = Some(fingerprint);
                Ok(())
            }
            Some(bound) if bound == fingerprint => Ok(()),
            Some(bound) => {
                poc_obs::counter!("flow.cache.mismatch").inc();
                Err(CacheMismatch { bound, offered: fingerprint })
            }
        }
    }

    /// Cached verdict for `links`, or `None` when it has not been computed.
    pub fn lookup(&self, links: &LinkSet) -> Option<bool> {
        let got = self.verdicts.read().get(links).copied();
        match got {
            Some(_) => self.obs_hits.inc(),
            None => self.obs_misses.inc(),
        };
        got
    }

    /// Record a verdict. Idempotent: concurrent computations of the same
    /// key insert the same value.
    pub fn record(&self, links: &LinkSet, verdict: bool) {
        self.verdicts.write().insert(links.clone(), verdict);
    }

    /// Number of distinct link sets memoized.
    pub fn len(&self) -> usize {
        self.verdicts.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.verdicts.read().is_empty()
    }
}

/// The interface the auction's selectors program against: an acceptability
/// oracle `A(OL)` over one `(topology, traffic matrix, constraint)`
/// instance. [`FeasibilityOracle`] is the from-scratch implementation;
/// [`crate::WarmOracle`] layers incremental re-routing on top of it for
/// the auction's Clarke pivots.
///
/// `Sync` is a supertrait because the auction probes oracles from parallel
/// pivot threads.
pub trait AcceptabilityOracle: Sync {
    fn topo(&self) -> &PocTopology;

    fn tm(&self) -> &TrafficMatrix;

    fn constraint(&self) -> Constraint;

    /// Whether `links ∈ A(OL)`: the subset carries the matrix under the
    /// constraint.
    fn acceptable(&self, links: &LinkSet) -> bool;

    /// Full evaluation: the base routing on success, or the reason the set
    /// was rejected.
    fn evaluate(&self, links: &LinkSet) -> Result<Routing, Rejection>;

    /// The pairs of up to `max` failing resilience scenarios for `links`
    /// (empty when the set is acceptable).
    fn failing_scenarios(&self, links: &LinkSet, max: usize) -> Vec<(RouterId, RouterId)>;

    /// As [`Self::acceptable`], but returns the base routing on success.
    fn route(&self, links: &LinkSet) -> Option<Routing> {
        self.evaluate(links).ok()
    }

    /// A known-feasible routing the caller may warm-start from (the last
    /// accepted routing of a [`crate::WarmOracle`]), or `None` for
    /// stateless oracles. Any routing returned here is a genuine
    /// feasibility witness over *some* link set of this instance's traffic
    /// matrix; callers must still re-validate its paths against their own
    /// candidate set before reusing them.
    fn witness(&self) -> Option<Routing> {
        None
    }
}

/// Oracle binding a topology, a traffic matrix, and a constraint level.
pub struct FeasibilityOracle<'a> {
    topo: &'a PocTopology,
    tm: &'a TrafficMatrix,
    constraint: Constraint,
    cache: Option<&'a FeasibilityCache>,
    /// Cuts learned from this oracle's failed passes (or adopted), each
    /// with a distinct side. They depend only on `(topo, tm)`, so a
    /// rejection they prove is the router's own under any constraint.
    cuts: parking_lot::Mutex<Vec<CutCertificate>>,
}

impl<'a> FeasibilityOracle<'a> {
    pub fn new(topo: &'a PocTopology, tm: &'a TrafficMatrix, constraint: Constraint) -> Self {
        assert_eq!(
            tm.n_routers(),
            topo.n_routers(),
            "traffic matrix and topology disagree on router count"
        );
        Self { topo, tm, constraint, cache: None, cuts: Default::default() }
    }

    /// As [`Self::new`], with acceptability verdicts memoized in `cache`.
    /// Binds the cache to this `(topo, tm, constraint)` instance (or
    /// verifies an existing binding); a cache already bound to a different
    /// instance is rejected with [`CacheMismatch`] instead of silently
    /// serving its stale verdicts.
    pub fn with_cache(
        topo: &'a PocTopology,
        tm: &'a TrafficMatrix,
        constraint: Constraint,
        cache: &'a FeasibilityCache,
    ) -> Result<Self, CacheMismatch> {
        cache.attach(instance_fingerprint(topo, tm, constraint))?;
        Ok(Self { cache: Some(cache), ..Self::new(topo, tm, constraint) })
    }

    pub(crate) fn constraint(&self) -> Constraint {
        self.constraint
    }

    pub(crate) fn topo(&self) -> &'a PocTopology {
        self.topo
    }

    pub(crate) fn tm(&self) -> &'a TrafficMatrix {
        self.tm
    }

    /// Whether `links ∈ A(OL)`: the subset carries the matrix under the
    /// constraint. Memoized when the oracle was built
    /// [`Self::with_cache`]; a set one of the oracle's cut certificates
    /// proves infeasible is rejected without routing, and a routing pass
    /// stops at the first router it can no longer serve, which decides
    /// the same verdict sooner (DESIGN.md §4, "Stopping a lost pass").
    /// Every call counts toward the `flow.oracle.check` metric.
    pub fn acceptable(&self, links: &LinkSet) -> bool {
        poc_obs::counter!("flow.oracle.check").inc();
        if let Some(verdict) = self.cache.and_then(|cache| cache.lookup(links)) {
            return verdict;
        }
        let verdict = !self.cut_rejects(links) && self.accepted_routing(links).is_some();
        if let Some(cache) = self.cache {
            cache.record(links, verdict);
        }
        verdict
    }

    /// Whether a held certificate proves that no routing of the matrix
    /// over `links` exists — the rejection [`Self::evaluate`] would reach
    /// by routing. Counted on `flow.cut.rejects`.
    pub(crate) fn cut_rejects(&self, links: &LinkSet) -> bool {
        let proven = self.cuts.lock().iter().any(|cut| cut.violated_by(self.topo, links));
        if proven {
            poc_obs::counter!("flow.cut.rejects").inc();
        }
        proven
    }

    /// The certificates held so far, in the order they were learned.
    pub fn cuts(&self) -> Vec<CutCertificate> {
        self.cuts.lock().clone()
    }

    /// Take over the sides of `cuts` — typically another oracle's over the
    /// same instance. Each is re-derived from this oracle's own topology
    /// and matrix, so what is held is a valid cut whatever was offered; a
    /// side that does not fit the topology, that no demand crosses, or
    /// that is already held is ignored.
    pub(crate) fn adopt_cuts(&self, cuts: &[CutCertificate]) {
        let mut held = self.cuts.lock();
        for cut in cuts {
            let new = self.new_cut(&held, cut.side());
            held.extend(new);
        }
    }

    /// Keep the sides a failed pass over `links` saturated that prove
    /// `links` infeasible. A side `links` has the capacity for is where
    /// the heuristic stranded some of it, not a proof of this failure; it
    /// is dropped rather than carried through every later check.
    fn learn_cuts(&self, links: &LinkSet, sides: &[Vec<bool>]) {
        let mut held = self.cuts.lock();
        for side in sides {
            let new = self.new_cut(&held, side).filter(|cut| cut.violated_by(self.topo, links));
            if let Some(cut) = new {
                poc_obs::counter!("flow.cut.learned").inc();
                held.push(cut);
            }
        }
    }

    /// The certificate of `side` over this instance, unless `held` already
    /// has that side.
    fn new_cut(&self, held: &[CutCertificate], side: &[bool]) -> Option<CutCertificate> {
        if held.iter().any(|cut| cut.side() == side) {
            return None;
        }
        CutCertificate::across(self.topo, self.tm, side.to_vec())
    }

    /// As [`Self::acceptable`], but returns the base routing on success.
    pub fn route(&self, links: &LinkSet) -> Option<Routing> {
        self.evaluate(links).ok()
    }

    /// The pairs of up to `max` failing resilience scenarios for `links`
    /// (empty when the set is acceptable). For
    /// [`Constraint::AllPairsBackup`] the simultaneous-routing check
    /// inherently stops at its first failure, so at most one pair is
    /// returned. A base-routing failure reports its offending pair.
    pub(crate) fn failing_scenarios(
        &self,
        links: &LinkSet,
        max: usize,
    ) -> Vec<(RouterId, RouterId)> {
        let base = match route_tm(self.topo, links, self.tm) {
            Ok(b) => b,
            Err(
                RouteError::Disconnected { src, dst } | RouteError::Unroutable { src, dst, .. },
            ) => return vec![(src, dst)],
        };
        failure::failing_scenarios(self.topo, links, self.tm, &base, self.constraint, max)
            .into_iter()
            .map(|(pair, _)| pair)
            .collect()
    }

    /// Full evaluation: the base routing on success, or the reason the set
    /// was rejected.
    pub(crate) fn evaluate(&self, links: &LinkSet) -> Result<Routing, Rejection> {
        let _span = poc_obs::span!("flow.oracle.evaluate");
        let base = self
            .base_route(links, Until::Failure)
            .map_err(|e| Rejection::BaseRoute(e.unstopped()))?;
        self.resilient(links, base)
    }

    /// [`Self::evaluate`]'s routing on an accept, for a caller that needs
    /// no reason for a rejection: a losing base pass may stop at the first
    /// router it can no longer serve, which gives the same verdict.
    pub(crate) fn accepted_routing(&self, links: &LinkSet) -> Option<Routing> {
        let _span = poc_obs::span!("flow.oracle.evaluate");
        let base = self.base_route(links, Until::Verdict).ok()?;
        self.resilient(links, base).ok()
    }

    /// The base routing of `links`, learning cuts from its failed passes.
    fn base_route(&self, links: &LinkSet, until: Until) -> Result<Routing, PassError> {
        route_tm_learning(self.topo, links, self.tm, until).map_err(|(e, sides)| {
            self.learn_cuts(links, &sides);
            e
        })
    }

    /// `base` if its set also meets the constraint's resilience check.
    fn resilient(&self, links: &LinkSet, base: Routing) -> Result<Routing, Rejection> {
        let mut failed =
            failure::failing_scenarios(self.topo, links, self.tm, &base, self.constraint, 1);
        match failed.pop() {
            None => Ok(base),
            Some((pair, reason)) => Err(Rejection::Resilience { pair, reason }),
        }
    }
}

impl AcceptabilityOracle for FeasibilityOracle<'_> {
    fn topo(&self) -> &PocTopology {
        FeasibilityOracle::topo(self)
    }

    fn tm(&self) -> &TrafficMatrix {
        FeasibilityOracle::tm(self)
    }

    fn constraint(&self) -> Constraint {
        FeasibilityOracle::constraint(self)
    }

    fn acceptable(&self, links: &LinkSet) -> bool {
        FeasibilityOracle::acceptable(self, links)
    }

    fn evaluate(&self, links: &LinkSet) -> Result<Routing, Rejection> {
        FeasibilityOracle::evaluate(self, links)
    }

    fn failing_scenarios(&self, links: &LinkSet, max: usize) -> Vec<(RouterId, RouterId)> {
        FeasibilityOracle::failing_scenarios(self, links, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;
    use poc_topology::{LinkId, RouterId};

    fn tm_for(t: &PocTopology) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(RouterId(0), RouterId(1), 10.0);
        tm.set(RouterId(2), RouterId(3), 10.0);
        tm
    }

    #[test]
    fn constraints_are_ordered_by_stringency_on_fixture() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let full = LinkSet::full(t.n_links());
        let tree = LinkSet::from_links(t.n_links(), [LinkId(0), LinkId(1), LinkId(5)]);

        let o1 = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let o2 = FeasibilityOracle::new(&t, &tm, Constraint::SinglePathFailure { sample_every: 1 });
        let o3 = FeasibilityOracle::new(&t, &tm, Constraint::AllPairsBackup);

        // Full mesh passes everything.
        assert!(o1.acceptable(&full) && o2.acceptable(&full) && o3.acceptable(&full));
        // Tree passes #1 only.
        assert!(o1.acceptable(&tree));
        assert!(!o2.acceptable(&tree));
        assert!(!o3.acceptable(&tree));
    }

    #[test]
    fn route_returns_base_routing() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let full = LinkSet::full(t.n_links());
        let o = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let routing = o.route(&full).unwrap();
        assert_eq!(routing.flows.len(), 2);
    }

    #[test]
    fn empty_set_unacceptable() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let o = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        assert!(!o.acceptable(&LinkSet::empty(t.n_links())));
    }

    /// Candidate subsets exercising hits and misses: the full set, a
    /// spanning-ish tree, singletons, and the empty set.
    fn probe_sets(t: &PocTopology) -> Vec<LinkSet> {
        let n = t.n_links();
        let mut sets = vec![
            LinkSet::full(n),
            LinkSet::from_links(n, [LinkId(0), LinkId(1), LinkId(5)]),
            LinkSet::empty(n),
        ];
        for l in 0..n {
            sets.push(LinkSet::from_links(n, [LinkId::from_index(l)]));
        }
        sets
    }

    #[test]
    fn no_failing_scenario_exactly_when_evaluate_accepts() {
        // The greedy selector stops repairing once `failing_scenarios`
        // comes back empty; that must mean the set is acceptable.
        let t = two_bp_square();
        let tm = tm_for(&t);
        for c in Constraint::paper_suite(1) {
            let o = FeasibilityOracle::new(&t, &tm, c);
            let mut verdicts = [0; 2];
            for s in probe_sets(&t) {
                let accepted = o.evaluate(&s).is_ok();
                verdicts[accepted as usize] += 1;
                assert_eq!(
                    o.failing_scenarios(&s, usize::MAX).is_empty(),
                    accepted,
                    "{} on {s:?}",
                    c.label()
                );
            }
            assert!(verdicts[0] > 0 && verdicts[1] > 0, "{} saw {verdicts:?}", c.label());
        }
    }

    #[test]
    fn cached_oracle_matches_uncached_verdicts() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        for c in Constraint::paper_suite(1) {
            let plain = FeasibilityOracle::new(&t, &tm, c);
            let cache = FeasibilityCache::new();
            let cached = FeasibilityOracle::with_cache(&t, &tm, c, &cache).unwrap();
            // The registry counters aggregate across every cache in the
            // process (tests run concurrently), so measure deltas and
            // assert ≥ this cache's contribution.
            let before = poc_obs::global().snapshot();
            // Two passes: the second must be served from the cache.
            for _ in 0..2 {
                for s in probe_sets(&t) {
                    assert_eq!(
                        cached.acceptable(&s),
                        plain.acceptable(&s),
                        "verdict mismatch under {} for {s:?}",
                        c.label()
                    );
                }
            }
            let after = poc_obs::global().snapshot();
            let delta =
                |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
            let n_sets = probe_sets(&t).len() as u64;
            assert_eq!(cache.len() as u64, n_sets);
            assert!(delta("flow.cache.miss") >= n_sets, "first pass misses every set");
            assert!(delta("flow.cache.hit") >= n_sets, "second pass hits every set");
        }
    }

    #[test]
    fn cache_stats_bridge_into_global_registry() {
        // The bridged counters aggregate across every cache in the
        // process (tests run concurrently), so assert on the delta being
        // at least this cache's contribution.
        let t = two_bp_square();
        let tm = tm_for(&t);
        let before = poc_obs::global().snapshot();
        let cache = FeasibilityCache::new();
        let oracle = FeasibilityOracle::with_cache(&t, &tm, Constraint::BaseLoad, &cache).unwrap();
        let full = LinkSet::full(t.n_links());
        for _ in 0..3 {
            oracle.acceptable(&full);
        }
        let after = poc_obs::global().snapshot();
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert!(delta("flow.cache.miss") >= 1, "first probe misses");
        assert!(delta("flow.cache.hit") >= 2, "repeat probes hit");
        assert!(delta("flow.oracle.check") >= 3, "every acceptable() call counted");
    }

    #[test]
    fn cache_rejects_cross_instance_reuse() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let cache = FeasibilityCache::new();
        assert_eq!(cache.bound_to(), None, "fresh cache is unbound");
        let _bound = FeasibilityOracle::with_cache(&t, &tm, Constraint::BaseLoad, &cache).unwrap();
        let fp = instance_fingerprint(&t, &tm, Constraint::BaseLoad);
        assert_eq!(cache.bound_to(), Some(fp), "first attach binds the cache");

        // Same instance re-attaches fine (the round's per-pivot oracles).
        assert!(FeasibilityOracle::with_cache(&t, &tm, Constraint::BaseLoad, &cache).is_ok());

        let before = poc_obs::global().snapshot();
        // Different constraint: different verdict function, must be refused.
        let err = match FeasibilityOracle::with_cache(&t, &tm, Constraint::AllPairsBackup, &cache) {
            Err(e) => e,
            Ok(_) => panic!("cross-constraint reuse must be refused"),
        };
        assert_eq!(err.bound, fp);
        assert_ne!(err.offered, fp);
        // Different traffic matrix: also refused.
        let mut tm2 = tm_for(&t);
        tm2.set(RouterId(0), RouterId(1), 999.0);
        assert!(FeasibilityOracle::with_cache(&t, &tm2, Constraint::BaseLoad, &cache).is_err());
        let after = poc_obs::global().snapshot();
        let delta = after.counter("flow.cache.mismatch").unwrap_or(0)
            - before.counter("flow.cache.mismatch").unwrap_or(0);
        assert!(delta >= 2, "mismatches are recorded on flow.cache.mismatch");

        // The binding (and the memoized verdicts) survive a rejection.
        assert_eq!(cache.bound_to(), Some(fp));

        // A pre-bound cache refuses a foreign instance outright.
        let pre = FeasibilityCache::for_instance(&t, &tm, Constraint::AllPairsBackup);
        assert!(FeasibilityOracle::with_cache(&t, &tm, Constraint::BaseLoad, &pre).is_err());
        assert!(FeasibilityOracle::with_cache(&t, &tm, Constraint::AllPairsBackup, &pre).is_ok());
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let cache = FeasibilityCache::new();
        let sets = probe_sets(&t);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let o = FeasibilityOracle::with_cache(&t, &tm, Constraint::BaseLoad, &cache)
                        .unwrap();
                    for s in &sets {
                        o.acceptable(s);
                    }
                });
            }
        });
        let plain = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        for s in &sets {
            assert_eq!(cache.lookup(s), Some(plain.acceptable(s)));
        }
    }

    fn r0_to_r3(t: &PocTopology, gbps: f64) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(RouterId(0), RouterId(3), gbps);
        tm
    }

    /// BP0's three links plus the given ones of BP1's (`l3` r0–r3, `l4`
    /// r2–r3, `l5` r1–r3; 40G each).
    fn bp0_and(t: &PocTopology, bp1_links: &[u32]) -> LinkSet {
        LinkSet::from_links(t.n_links(), [0, 1, 2].iter().chain(bp1_links).map(|&l| LinkId(l)))
    }

    #[test]
    fn failed_pass_learns_the_cut_it_saturated() {
        // The `fails_on_infeasible_load` shape: 200G toward r3 over 120G.
        let t = two_bp_square();
        let tm = r0_to_r3(&t, 200.0);
        let o = FeasibilityOracle::new(&t, &tm, Constraint::AllPairsBackup);
        assert!(o.cuts().is_empty());
        let full = LinkSet::full(t.n_links());
        assert!(matches!(
            o.evaluate(&full),
            Err(Rejection::BaseRoute(RouteError::Unroutable { .. }))
        ));
        // Both saturated sides are `{r0, r1, r2}`; one certificate.
        let cuts = o.cuts();
        assert_eq!(cuts.len(), 1, "{cuts:?}");
        assert_eq!(cuts[0].side(), [true, true, true, false]);
        assert_eq!(cuts[0].demand_gbps(), 200.0);
        assert_eq!(cuts[0].crossing(), &LinkSet::from_links(t.n_links(), [3, 4, 5].map(LinkId)));
        // It answers for every other set, whatever the constraint, and the
        // router still explains each rejection as it did.
        for set in [bp0_and(&t, &[]), bp0_and(&t, &[3, 5]), full.clone()] {
            assert!(cuts[0].violated_by(&t, &set));
            assert!(!o.acceptable(&set));
            assert!(matches!(o.evaluate(&set), Err(Rejection::BaseRoute(_))));
            assert_eq!(o.failing_scenarios(&set, 4).len(), 1);
        }
        assert_eq!(o.cuts().len(), 1, "the same side is learned once");
    }

    #[test]
    fn demand_the_cut_can_just_carry_is_not_certified_and_still_routes() {
        let t = two_bp_square();
        for gbps in [80.0, 80.0 + 5e-10] {
            let tm = r0_to_r3(&t, gbps);
            let o = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
            assert!(!o.acceptable(&bp0_and(&t, &[3])), "40G into r3");
            assert_eq!(o.cuts().len(), 1);
            // 80G into r3: the certificate is short of a proof, by nothing
            // or by less than the router forgives, and the router packs it.
            let enough = bp0_and(&t, &[3, 4]);
            assert!(!o.cuts()[0].violated_by(&t, &enough));
            assert!(o.acceptable(&enough), "{gbps} fits 80G");
            assert!(o.evaluate(&enough).is_ok());
        }
    }

    #[test]
    fn disconnected_failure_learns_a_zero_capacity_cut() {
        let t = two_bp_square();
        let tm = r0_to_r3(&t, 1.0);
        let o = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let bp0 = bp0_and(&t, &[]);
        assert_eq!(
            o.evaluate(&bp0),
            Err(Rejection::BaseRoute(RouteError::Disconnected {
                src: RouterId(0),
                dst: RouterId(3)
            }))
        );
        let cuts = o.cuts();
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].side(), [true, true, true, false]);
        assert_eq!(bp0.common(cuts[0].crossing()).count(), 0, "no link of the set crosses it");
        assert!(cuts[0].violated_by(&t, &bp0));
        assert!(!cuts[0].violated_by(&t, &bp0_and(&t, &[4])), "one link reconnects r3");
    }

    #[test]
    fn saturated_side_the_set_has_the_capacity_for_is_not_kept() {
        // `route.rs`'s lured square at 100G: both passes fail, yet every
        // router cut has room (170G leave `{r0, r2}` over 180G) — the two
        // demands contend for `l4` and `l0`, which no cut sees. A failure
        // is not a certificate.
        use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
        let mut t = two_bp_square();
        let isp = ExternalIspConfig {
            n_isps: 1,
            attach_points: 2,
            capacity_gbps: 40.0,
            price_premium: 3.0,
        };
        attach_external_isps(&mut t, &isp, &poc_topology::CostModel::default());
        let active = LinkSet::from_links(t.n_links(), [0, 3, 4, 5, 6].map(LinkId));
        let mut tm = r0_to_r3(&t, 100.0);
        tm.set(RouterId(2), RouterId(1), 70.0);
        let o = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        assert!(o.evaluate(&active).is_err());
        assert_eq!(o.cuts(), Vec::new());
        assert!(!o.acceptable(&active), "rejected by routing, as before");
    }

    #[test]
    fn adopted_cuts_are_rederived_over_the_adopting_instance() {
        let t = two_bp_square();
        let heavy = r0_to_r3(&t, 200.0);
        let teacher = FeasibilityOracle::new(&t, &heavy, Constraint::BaseLoad);
        assert!(!teacher.acceptable(&LinkSet::full(t.n_links())));
        let taught = teacher.cuts();

        let same = FeasibilityOracle::new(&t, &heavy, Constraint::BaseLoad);
        same.adopt_cuts(&taught);
        same.adopt_cuts(&taught);
        assert_eq!(same.cuts(), taught, "held once, equal to the bit");

        // Offered to an oracle over a lighter matrix, the side is kept and
        // the demand is that oracle's own: nothing false is adopted.
        let light = r0_to_r3(&t, 100.0);
        let other = FeasibilityOracle::new(&t, &light, Constraint::BaseLoad);
        other.adopt_cuts(&taught);
        assert_eq!(other.cuts()[0].demand_gbps(), 100.0);
        assert!(other.acceptable(&LinkSet::full(t.n_links())));

        // A side over another router list is ignored.
        let mut wide = taught.clone();
        let foreign = poc_topology::ZooGenerator::new(poc_topology::ZooConfig::small()).generate();
        let mut tm = TrafficMatrix::zero(foreign.n_routers());
        tm.set(RouterId(0), RouterId(1), 1.0);
        let mut side = vec![false; foreign.n_routers()];
        side[0] = true;
        wide.push(CutCertificate::across(&foreign, &tm, side).unwrap());
        let fresh = FeasibilityOracle::new(&t, &heavy, Constraint::BaseLoad);
        fresh.adopt_cuts(&wide);
        assert_eq!(fresh.cuts(), taught);
    }

    #[test]
    fn rejections_print_the_router_and_failure_texts() {
        let base = Rejection::BaseRoute(RouteError::Unroutable {
            src: RouterId(3),
            dst: RouterId(1),
            remaining_gbps: 12.5,
        });
        assert_eq!(base.to_string(), "no residual capacity for 12.50 Gbps of r3->r1");
        let resilience = Rejection::Resilience {
            pair: (RouterId(0), RouterId(2)),
            reason: FailReason::ZeroBackupResidual { pair: (RouterId(0), RouterId(2)) },
        };
        assert_eq!(
            resilience.to_string(),
            "r0->r2 fails its resilience check: zero backup residual for r0->r2"
        );
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Constraint::BaseLoad.label(), "#1");
        assert_eq!(Constraint::SinglePathFailure { sample_every: 1 }.label(), "#2");
        assert_eq!(Constraint::AllPairsBackup.label(), "#3");
        let suite = Constraint::paper_suite(4);
        assert_eq!(suite.len(), 3);
        assert_eq!(suite[1], Constraint::SinglePathFailure { sample_every: 4 });
    }
}
