//! Incremental ("warm-started") acceptability oracle for Clarke pivots.
//!
//! The auction's per-BP pivot re-selections probe link sets that differ
//! from the round's accepted set by one BP's links — and from each other
//! by one link at a time inside the greedy selector's prune loop. A
//! from-scratch [`FeasibilityOracle`] re-routes the *entire* traffic
//! matrix for every probe. [`WarmOracle`] instead keeps the last accepted
//! routing as a *witness* and, for each new candidate set, reuses every
//! flow whose paths survived the change, re-routing only the invalidated
//! flows on the witness's residual capacities. A candidate every witness
//! path survives — an add, or a removal of links no flow rides — keeps
//! the witness as it is, with no residuals rebuilt.
//!
//! ## Verdict semantics
//!
//! The greedy router is a conservative, order-dependent heuristic, so a
//! warm re-route is not guaranteed to reproduce the cold router's packing
//! bit-for-bit. The warm oracle is therefore *layered* on the cold one:
//!
//! - **Warm accept** is final: the warm routing is a genuine feasibility
//!   witness (capacities respected, all demands placed, resilience checked
//!   on the warm base), so accepting on it is sound.
//! - **Warm failure is never a rejection**: if the warm re-route fails, the
//!   delta exceeds `MAX_INVALID_FRAC` (half the flows), or the warm base
//!   fails its resilience check, the oracle falls back to a full
//!   from-scratch evaluation and returns *its* verdict. Under
//!   `acceptable` that fallback's losing pass stops at the first router
//!   it can no longer serve, which decides the same verdict sooner and
//!   learns no cut.
//! - **A violated cut is a rejection with no attempt at all**: when a
//!   [`crate::CutCertificate`] the cold oracle holds shows the candidate's
//!   capacity across some router cut below the demand across it, no
//!   routing exists, so neither a warm witness nor a cold pass could — and
//!   `acceptable` answers `false` with the witness untouched. The cold
//!   oracle learns these cuts from its own failed passes (the fallbacks
//!   above) and [`WarmOracle::adopt_cuts`] hands it a round's earlier ones.
//!
//! Consequently `warm-accepts ⊇ cold-accepts`: the only possible
//! divergence from [`FeasibilityOracle`] is a warm accept on a set the
//! cold heuristic fails to pack — i.e. the warm oracle is (weakly) more
//! complete with respect to true feasibility, never less sound.
//!
//! ## Determinism and pivot parallelism
//!
//! Warm verdicts depend on the witness chain, i.e. on the probe history,
//! so a `WarmOracle` must be *private to one pivot*: the auction seeds one
//! oracle per pivot from the round's initial accepted routing, and the
//! selector drives it sequentially. Because every pivot starts from the
//! same seed and replays a deterministic probe sequence, a round's outcome
//! does not depend on how its pivot threads interleave. For the same
//! reason the warm oracle never reads or writes the round's [`FeasibilityCache`]
//! (whose entries must be pure functions of the instance), and keeps no
//! verdicts of its own: a set probed twice is probed twice, each time
//! against the witness of the moment.
//!
//! [`FeasibilityCache`]: crate::FeasibilityCache

use crate::cut::CutCertificate;
use crate::failure;
use crate::graph::CapacityGraph;
use crate::linkset::LinkSet;
use crate::oracle::{AcceptabilityOracle, Constraint, FeasibilityOracle, Rejection};
use crate::route::{load_path, place_flow, FlowRoute, Routing};
use poc_topology::{PocTopology, RouterId};
use poc_traffic::TrafficMatrix;

/// Fall back to a from-scratch evaluation when more than this fraction of
/// the witness's flows is invalidated by the candidate set: with little
/// left to reuse, a warm attempt only adds overhead before the inevitable
/// full re-route. A pivot removes one BP's links (a few percent of a
/// paper-scale instance), so genuine pivot probes invalidate a small
/// fraction; at half the flows invalidated, warm reuse stops paying for
/// itself.
const MAX_INVALID_FRAC: f64 = 0.5;

/// What the warm path did for one probe (exposed for tests and metrics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmOutcome {
    /// Verdict produced from the reused witness routing.
    Warm { reused: usize, rerouted: usize },
    /// Fell back to a from-scratch evaluation.
    Cold,
}

/// An [`AcceptabilityOracle`] that warm-starts each probe from the last
/// accepted routing. See the module docs for semantics; see
/// [`WarmOracle::seed`] for how the auction primes it.
pub struct WarmOracle<'a> {
    inner: FeasibilityOracle<'a>,
    /// Last accepted routing (the warm-start witness).
    witness: parking_lot::Mutex<Option<Routing>>,
}

impl<'a> WarmOracle<'a> {
    pub fn new(topo: &'a PocTopology, tm: &'a TrafficMatrix, constraint: Constraint) -> Self {
        Self {
            inner: FeasibilityOracle::new(topo, tm, constraint),
            witness: parking_lot::Mutex::new(None),
        }
    }

    /// Prime the witness with a known-feasible routing (typically the
    /// round's initial accepted routing). Unseeded oracles simply answer
    /// their first probe cold and warm-start from its result.
    pub fn seed(&self, routing: Routing) {
        *self.witness.lock() = Some(routing);
    }

    /// Start from cuts another oracle over the same instance has already
    /// learned, each re-derived from this oracle's own topology and matrix:
    /// the auction gives each pivot the initial selection's.
    pub fn adopt_cuts(&self, cuts: &[CutCertificate]) {
        self.inner.adopt_cuts(cuts);
    }

    /// The cut certificates held: adopted, then learned by cold fallbacks.
    pub fn cuts(&self) -> Vec<CutCertificate> {
        self.inner.cuts()
    }

    /// Evaluate `links`, reporting whether the warm path or the cold
    /// fallback produced the verdict. This is the primitive behind the
    /// trait's `evaluate`; tests and benches use it to observe reuse.
    pub fn evaluate_traced(&self, links: &LinkSet) -> (Result<Routing, Rejection>, WarmOutcome) {
        let mut slot = self.witness.lock();
        let (res, outcome) = self.probe(&mut slot, links, || self.inner.evaluate(links));
        (res.cloned(), outcome)
    }

    /// One probe against the witness in `slot`, which the caller holds
    /// locked for the duration, with `cold` the fallback evaluation. The
    /// witness is *taken*: a warm accept moves its surviving flows into
    /// the new witness, a warm failure puts it back untouched, and a cold
    /// accept replaces it. The accepted routing is lent from the slot, so
    /// a verdict-only caller copies nothing.
    fn probe<'s, E>(
        &self,
        slot: &'s mut Option<Routing>,
        links: &LinkSet,
        cold: impl FnOnce() -> Result<Routing, E>,
    ) -> (Result<&'s Routing, E>, WarmOutcome) {
        let _span = poc_obs::span!("flow.warm.evaluate");
        if let Some(prev) = slot.take() {
            match self.try_warm(links, prev) {
                Ok((routing, reused, rerouted)) => {
                    return (Ok(slot.insert(routing)), WarmOutcome::Warm { reused, rerouted });
                }
                Err(prev) => *slot = Some(prev),
            }
        }
        poc_obs::counter!("flow.warm.fallbacks").inc();
        (cold().map(|routing| &*slot.insert(routing)), WarmOutcome::Cold)
    }

    /// Attempt a warm evaluation of `links` against witness `prev`:
    /// `Ok((routing, reused, rerouted))` only when the witness is kept or
    /// the re-route succeeds, *and* the warm base passes the constraint's
    /// resilience check. Any failure hands `prev` back exactly as it came
    /// in and the caller falls back to cold.
    fn try_warm(&self, links: &LinkSet, prev: Routing) -> Result<(Routing, usize, usize), Routing> {
        // A flow survives iff every link of every path it uses is still
        // active in the candidate set. This works for arbitrary candidate
        // sets, not just subsets of the witness's set — links the witness
        // never used are irrelevant.
        let survives =
            |f: &FlowRoute| f.paths.iter().all(|(path, _)| path.iter().all(|&l| links.contains(l)));

        // A candidate that keeps every witness path keeps the witness. Every
        // routing this crate produces records its loads in flow order, so
        // re-loading the survivors in that order would rebuild `prev` bit
        // for bit; only the resilience check has anything left to say.
        let (routing, reused, rerouted) = if prev.flows.iter().all(survives) {
            if !self.resilient(links, &prev) {
                return Err(prev);
            }
            poc_obs::counter!("flow.warm.kept").inc();
            let n_flows = prev.flows.len();
            (prev, n_flows, 0)
        } else {
            let alive: Vec<bool> = prev.flows.iter().map(survives).collect();
            self.reroute(links, prev, &alive)?
        };
        poc_obs::counter!("flow.warm.reused_flows").add(reused as u64);
        poc_obs::counter!("flow.warm.rerouted_flows").add(rerouted as u64);
        Ok((routing, reused, rerouted))
    }

    /// The warm attempt for a candidate that invalidates some witness
    /// flows: rebuild residuals from the survivors (`alive`, by witness
    /// index), re-place the rest, and check the result's resilience. Any
    /// failure hands `prev` back exactly as it came in.
    fn reroute(
        &self,
        links: &LinkSet,
        mut prev: Routing,
        alive: &[bool],
    ) -> Result<(Routing, usize, usize), Routing> {
        let topo = self.inner.topo();
        let n_flows = prev.flows.len();
        let reused = alive.iter().filter(|&&a| a).count();
        let rerouted = n_flows - reused;
        if n_flows > 0 && rerouted as f64 > MAX_INVALID_FRAC * n_flows as f64 {
            return Err(prev);
        }

        // Rebuild residuals with the survivors' loads pre-consumed. The
        // survivors were simultaneously feasible in the witness, so this
        // can never over-commit. A witness path that does not chain over
        // this topology aborts the warm attempt like any other failure.
        let mut g = CapacityGraph::new(topo, links);
        let mut routing = Routing {
            flows: Vec::with_capacity(n_flows),
            load_fwd: vec![0.0; topo.n_links()],
            load_rev: vec![0.0; topo.n_links()],
        };
        for (flow, _) in prev.flows.iter().zip(alive).filter(|(_, &a)| a) {
            for (path, amount) in &flow.paths {
                if load_path(&mut g, &mut routing, flow.src, path, *amount).is_err() {
                    return Err(prev);
                }
            }
        }

        // Re-route the invalidated flows on the residual capacities, in
        // witness order (which descends from the router's largest-first
        // ordering), with the same per-flow placement the full router
        // uses. Any placement failure aborts the warm attempt.
        let mut placed: Vec<FlowRoute> = Vec::with_capacity(rerouted);
        for (fi, (flow, _)) in prev.flows.iter().zip(alive).filter(|(_, &a)| !a).enumerate() {
            match place_flow(
                &mut g,
                &mut routing,
                fi,
                flow.src,
                flow.dst,
                flow.demand_gbps,
                &|_, _| true,
                1.0,
            ) {
                Ok(f) => placed.push(f),
                Err(_) => return Err(prev),
            }
        }

        // Move the survivors into the new routing, ahead of the re-placed
        // flows; the invalidated originals wait aside in case the
        // resilience check sends the witness back.
        let mut invalidated: Vec<FlowRoute> = Vec::with_capacity(rerouted);
        for (flow, &a) in std::mem::take(&mut prev.flows).into_iter().zip(alive) {
            if a {
                routing.flows.push(flow);
            } else {
                invalidated.push(flow);
            }
        }
        routing.flows.extend(placed);

        if !self.resilient(links, &routing) {
            // Interleave the two halves back into witness order.
            routing.flows.truncate(reused);
            let (mut survivors, mut invalidated) =
                (routing.flows.into_iter(), invalidated.into_iter());
            prev.flows = alive
                .iter()
                .filter_map(|&a| if a { survivors.next() } else { invalidated.next() })
                .collect();
            return Err(prev);
        }
        Ok((routing, reused, rerouted))
    }

    /// Whether the warm base `routing` over `links` satisfies the
    /// constraint. Resilience failures are not final (the cold pass may
    /// find a base routing whose scenarios all survive), so a `false` here
    /// aborts to fallback.
    fn resilient(&self, links: &LinkSet, routing: &Routing) -> bool {
        let (topo, tm, constraint) = (self.inner.topo(), self.inner.tm(), self.inner.constraint());
        failure::failing_scenarios(topo, links, tm, routing, constraint, 1).is_empty()
    }
}

impl AcceptabilityOracle for WarmOracle<'_> {
    fn topo(&self) -> &PocTopology {
        self.inner.topo()
    }

    fn tm(&self) -> &TrafficMatrix {
        self.inner.tm()
    }

    fn constraint(&self) -> Constraint {
        self.inner.constraint()
    }

    /// The cold fallback needs only a verdict, so its losing passes stop
    /// at the first router they can no longer serve.
    fn acceptable(&self, links: &LinkSet) -> bool {
        poc_obs::counter!("flow.oracle.check").inc();
        if self.inner.cut_rejects(links) {
            return false;
        }
        let cold = || self.inner.accepted_routing(links).ok_or(());
        self.probe(&mut self.witness.lock(), links, cold).0.is_ok()
    }

    fn evaluate(&self, links: &LinkSet) -> Result<Routing, Rejection> {
        self.evaluate_traced(links).0
    }

    /// A warm accept is a proof that no scenario fails, so the expensive
    /// cold scan (which re-routes the full matrix) only runs for sets the
    /// warm path cannot vouch for. Rejections still delegate to the cold
    /// oracle, keeping the explanations consistent with the verdicts
    /// (warm failures fall back, so warm rejects exactly when cold does).
    fn failing_scenarios(&self, links: &LinkSet, max: usize) -> Vec<(RouterId, RouterId)> {
        {
            let mut slot = self.witness.lock();
            if let Some(prev) = slot.take() {
                match self.try_warm(links, prev) {
                    Ok((routing, _, _)) => {
                        *slot = Some(routing);
                        return Vec::new();
                    }
                    Err(prev) => *slot = Some(prev),
                }
            }
        }
        self.inner.failing_scenarios(links, max)
    }

    /// The current warm witness: selectors use it to warm-start their own
    /// routing phase (reusing surviving flows, re-routing only the
    /// invalidated ones) instead of re-routing the whole matrix.
    fn witness(&self) -> Option<Routing> {
        self.witness.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;
    use poc_topology::{BpId, LinkId};

    fn tm_for(t: &PocTopology) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(RouterId(0), RouterId(1), 10.0);
        tm.set(RouterId(2), RouterId(3), 10.0);
        tm
    }

    /// Every link some path of `routing` rides.
    fn used_links(routing: &Routing) -> impl Iterator<Item = LinkId> + '_ {
        routing.flows.iter().flat_map(|f| f.paths.iter().flat_map(|(path, _)| path.iter().copied()))
    }

    #[test]
    fn unseeded_first_probe_goes_cold_then_warm() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let o = WarmOracle::new(&t, &tm, Constraint::BaseLoad);
        assert!(o.witness().is_none());
        let full = LinkSet::full(t.n_links());
        let (res, outcome) = o.evaluate_traced(&full);
        assert!(res.is_ok());
        assert_eq!(outcome, WarmOutcome::Cold, "no witness yet");
        assert!(o.witness().is_some());
        // Identical set again: everything survives, nothing re-routed.
        let (res, outcome) = o.evaluate_traced(&full);
        assert!(res.is_ok());
        assert_eq!(outcome, WarmOutcome::Warm { reused: 2, rerouted: 0 });
    }

    #[test]
    fn removing_an_unused_bp_reuses_every_flow() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let full = LinkSet::full(t.n_links());
        let o = WarmOracle::new(&t, &tm, Constraint::BaseLoad);
        let seed = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad).route(&full).unwrap();
        // Find a BP whose links carry nothing in the seed routing.
        let used: Vec<LinkId> = used_links(&seed).collect();
        let unused_bp = t
            .bps
            .iter()
            .map(|b| b.id)
            .find(|&b| t.links_of_bp(b).iter().all(|l| !used.contains(l)));
        o.seed(seed);
        if let Some(bp) = unused_bp {
            let mut cand = full.clone();
            for l in t.links_of_bp(bp) {
                cand.remove(l);
            }
            let (res, outcome) = o.evaluate_traced(&cand);
            assert!(res.is_ok());
            assert_eq!(outcome, WarmOutcome::Warm { reused: 2, rerouted: 0 });
        }
    }

    #[test]
    fn invalidated_flow_is_rerouted_and_verdict_matches_cold() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let full = LinkSet::full(t.n_links());
        let cold = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let seed = cold.route(&full).unwrap();
        // Remove the direct link the r0→r1 flow rides: that flow must be
        // re-routed onto a detour, the other reused.
        let direct = seed.primary_path(RouterId(0), RouterId(1)).unwrap()[0];
        let mut cand = full.clone();
        cand.remove(direct);

        let o = WarmOracle::new(&t, &tm, Constraint::BaseLoad);
        o.seed(seed);
        let (res, outcome) = o.evaluate_traced(&cand);
        let warm_routing = res.unwrap();
        assert_eq!(outcome, WarmOutcome::Warm { reused: 1, rerouted: 1 });
        assert!(cold.acceptable(&cand), "cold agrees the set is acceptable");

        // The warm routing is a genuine witness: demands covered, loads
        // within capacity, and only active links used.
        assert_eq!(warm_routing.flows.len(), 2);
        for f in &warm_routing.flows {
            let total: f64 = f.paths.iter().map(|(_, g)| g).sum();
            assert!((total - f.demand_gbps).abs() < 1e-6);
            for (path, _) in &f.paths {
                assert!(path.iter().all(|&l| cand.contains(l)));
            }
        }
        for (i, l) in t.links.iter().enumerate() {
            assert!(warm_routing.load_fwd[i] <= l.capacity_gbps + 1e-6);
            assert!(warm_routing.load_rev[i] <= l.capacity_gbps + 1e-6);
        }
    }

    #[test]
    fn warm_reject_always_confirmed_by_cold() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let o = WarmOracle::new(&t, &tm, Constraint::BaseLoad);
        let full = LinkSet::full(t.n_links());
        o.seed(FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad).route(&full).unwrap());
        // Only BP0's links: r2→r3 has no capacity at all, cold rejects too.
        let bp0 = LinkSet::from_links(t.n_links(), t.links_of_bp(BpId(0)));
        let (res, _) = o.evaluate_traced(&bp0);
        assert!(res.is_err());
        assert!(!FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad).acceptable(&bp0));
    }

    #[test]
    fn certified_reject_leaves_the_witness_as_it_was() {
        let t = two_bp_square();
        let mut tm = tm_for(&t);
        tm.set(RouterId(0), RouterId(3), 80.0);
        let full = LinkSet::full(t.n_links());
        let cold = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad);
        let o = WarmOracle::new(&t, &tm, Constraint::BaseLoad);
        o.seed(cold.route(&full).unwrap());
        // 90G bound for r3 over one 40G link: the warm attempt fails, the
        // cold fallback rejects and learns `{r0, r1, r2} | {r3}`.
        let one_link = LinkSet::from_links(t.n_links(), [0, 1, 2, 3].map(LinkId));
        assert!(!o.acceptable(&one_link));
        assert_eq!(o.cuts().len(), 1);
        // Another 40G set is rejected on that certificate: no warm attempt
        // moved the witness, no fallback replaced it.
        let before = o.witness();
        let other_link = LinkSet::from_links(t.n_links(), [0, 1, 2, 4].map(LinkId));
        assert!(o.cuts()[0].violated_by(&t, &other_link));
        assert!(!o.acceptable(&other_link));
        assert_eq!(o.witness(), before);
        assert!(!o.acceptable(&other_link), "and again when the set is probed again");
        assert_eq!(o.witness(), before);
        // `evaluate` still routes it and says why.
        assert!(matches!(o.evaluate(&other_link), Err(Rejection::BaseRoute(_))));
        assert_eq!(o.witness(), before);
        // Cuts handed over before the first probe do the same for a pivot.
        let pivot = WarmOracle::new(&t, &tm, Constraint::BaseLoad);
        pivot.adopt_cuts(&o.cuts());
        assert!(!pivot.acceptable(&one_link));
        assert!(pivot.witness().is_none(), "rejected before anything was routed");
        assert!(pivot.acceptable(&full));
    }

    #[test]
    fn delta_guard_forces_fallback() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let full = LinkSet::full(t.n_links());
        let seed = FeasibilityOracle::new(&t, &tm, Constraint::BaseLoad).route(&full).unwrap();
        // Every flow invalidated (empty candidate intersects no witness
        // path) → 100% invalid > MAX_INVALID_FRAC → cold fallback.
        let o = WarmOracle::new(&t, &tm, Constraint::BaseLoad);
        o.seed(seed.clone());
        // Drop every link the witness uses.
        let mut cand = full.clone();
        for l in used_links(&seed) {
            cand.remove(l);
        }
        let (_, outcome) = o.evaluate_traced(&cand);
        assert_eq!(outcome, WarmOutcome::Cold, "delta guard must trip");
    }

    #[test]
    fn warm_verdicts_match_cold_across_constraints_on_pivot_sequence() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let full = LinkSet::full(t.n_links());
        for c in Constraint::paper_suite(1) {
            let cold = FeasibilityOracle::new(&t, &tm, c);
            let warm = WarmOracle::new(&t, &tm, c);
            if let Some(seed) = cold.route(&full) {
                warm.seed(seed);
            }
            // Pivot-shaped probes: drop each BP's links, then each single
            // link, from the full set.
            let mut probes = vec![full.clone()];
            for bp in t.bps.iter().map(|b| b.id) {
                let mut s = full.clone();
                for l in t.links_of_bp(bp) {
                    s.remove(l);
                }
                probes.push(s);
            }
            for l in 0..t.n_links() {
                let mut s = full.clone();
                s.remove(LinkId::from_index(l));
                probes.push(s);
            }
            for p in &probes {
                let wv = warm.acceptable(p);
                let cv = cold.acceptable(p);
                if wv != cv {
                    // Only legal divergence: warm accepts with a genuine
                    // witness where the cold heuristic failed to pack.
                    assert!(wv && !cv, "warm may only be more complete ({})", c.label());
                    let routing = warm.evaluate(p).unwrap();
                    for f in &routing.flows {
                        let total: f64 = f.paths.iter().map(|(_, g)| g).sum();
                        assert!((total - f.demand_gbps).abs() < 1e-6);
                    }
                }
            }
        }
    }

    /// `routing`'s recorded per-direction loads, as bits.
    fn load_bits(routing: &Routing) -> (Vec<u64>, Vec<u64>) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (bits(&routing.load_fwd), bits(&routing.load_rev))
    }

    /// The loads of `routing`'s paths summed in flow order from zero, as
    /// bits: what rebuilding residuals from its `flows` would record.
    fn reloaded_bits(t: &PocTopology, routing: &Routing) -> (Vec<u64>, Vec<u64>) {
        let mut g = CapacityGraph::new(t, &LinkSet::full(t.n_links()));
        let mut reloaded = Routing {
            flows: Vec::new(),
            load_fwd: vec![0.0; t.n_links()],
            load_rev: vec![0.0; t.n_links()],
        };
        for f in &routing.flows {
            for (path, amount) in &f.paths {
                load_path(&mut g, &mut reloaded, f.src, path, *amount).expect("a path chains");
            }
        }
        load_bits(&reloaded)
    }

    #[test]
    fn add_only_probe_keeps_the_witness_to_the_bit() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        for c in Constraint::paper_suite(1) {
            // A minimal acceptable set, then its missing links added back
            // one probe at a time: every probe is a pure add.
            let cold = FeasibilityOracle::new(&t, &tm, c);
            let mut cur = LinkSet::full(t.n_links());
            for l in (0..t.n_links()).map(LinkId::from_index) {
                let mut cand = cur.clone();
                cand.remove(l);
                if cold.acceptable(&cand) {
                    cur = cand;
                }
            }
            assert!(cur.len() < t.n_links(), "nothing to add at {}", c.label());
            let o = WarmOracle::new(&t, &tm, c);
            o.seed(cold.route(&cur).unwrap());
            let missing = LinkSet::full(t.n_links()).difference(&cur);
            for l in missing.iter() {
                let before = o.witness().unwrap();
                cur.insert(l);
                let (res, outcome) = o.evaluate_traced(&cur);
                assert_eq!(outcome, WarmOutcome::Warm { reused: 2, rerouted: 0 }, "{}", c.label());
                let after = o.witness().unwrap();
                assert_eq!(res.as_ref(), Ok(&after));
                assert_eq!(after.flows, before.flows, "{}", c.label());
                assert_eq!(load_bits(&after), load_bits(&before), "{}", c.label());
            }
        }
    }

    #[test]
    fn kept_witness_still_faces_the_resilience_check() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let set =
            |links: &[u32]| LinkSet::from_links(t.n_links(), links.iter().map(|&l| LinkId(l)));
        // Without r0–r3 (l3), every backup for 0→1 leaves r0 over r0–r2
        // (l2), and the shortest runs r0–r2–r1. Dropping l2 strands 0→1 on
        // its direct link while both base flows (l0 and l4) stay whole.
        let start = set(&[0, 1, 2, 4, 5]);
        let cand = set(&[0, 1, 4, 5]);
        for c in [Constraint::SinglePathFailure { sample_every: 1 }, Constraint::AllPairsBackup] {
            let cold = FeasibilityOracle::new(&t, &tm, c);
            let seed = cold.route(&start).unwrap();
            assert_eq!(seed.primary_path(RouterId(0), RouterId(1)), Some(&[LinkId(0)][..]));
            assert_eq!(seed.primary_path(RouterId(2), RouterId(3)), Some(&[LinkId(4)][..]));
            assert!(used_links(&seed).all(|l| cand.contains(l)), "every witness path survives");
            assert!(!cold.acceptable(&cand), "{}", c.label());

            let o = WarmOracle::new(&t, &tm, c);
            o.seed(seed.clone());
            assert!(!o.acceptable(&cand), "{}", c.label());
            let (res, outcome) = o.evaluate_traced(&cand);
            assert!(matches!(res, Err(Rejection::Resilience { .. })), "{}", c.label());
            assert_eq!(outcome, WarmOutcome::Cold, "{}", c.label());
            assert_eq!(o.witness(), Some(seed), "the rejected probe left the witness alone");
        }
    }

    #[test]
    fn every_routing_records_its_loads_in_flow_order() {
        use rand::{Rng, SeedableRng};
        let t = poc_topology::ZooGenerator::new(poc_topology::ZooConfig::small()).generate();
        let tm = poc_traffic::TrafficScenario {
            total_gbps: 2500.0,
            ..poc_traffic::TrafficScenario::paper_default()
        }
        .generate(&t);
        let full = LinkSet::full(t.n_links());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let (mut warm_accepts, mut cold_accepts) = (0, 0);
        for c in Constraint::paper_suite(4) {
            let cold = FeasibilityOracle::new(&t, &tm, c);
            let warm = WarmOracle::new(&t, &tm, c);
            let mut cur = full.clone();
            for _ in 0..24 {
                // Drop one of the current set's links, or add back one it
                // lacks, and walk on when the warm oracle accepts.
                let mut cand = cur.clone();
                let l = LinkId::from_index(rng.gen_range(0..t.n_links()));
                if cand.contains(l) {
                    cand.remove(l);
                } else {
                    cand.insert(l);
                }
                if let Ok(routing) = cold.evaluate(&cand) {
                    cold_accepts += 1;
                    assert_eq!(reloaded_bits(&t, &routing), load_bits(&routing), "{}", c.label());
                }
                if let (Ok(routing), WarmOutcome::Warm { .. }) = warm.evaluate_traced(&cand) {
                    warm_accepts += 1;
                    assert_eq!(reloaded_bits(&t, &routing), load_bits(&routing), "{}", c.label());
                    cur = cand;
                }
            }
        }
        assert!(warm_accepts > 0 && cold_accepts > 0, "{warm_accepts} warm, {cold_accepts} cold");
    }
}
