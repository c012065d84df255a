//! Ordering lease migrations so every intermediate state is safe.
//!
//! The planner searches over interleavings of the add set `to ∖ from` and
//! the remove set `from ∖ to`. Each candidate prefix state is admitted
//! through the walk's [`Invariants`]: within the lease budget, and
//! accepted by a [`WarmOracle`] whose accepted routing of one state is the
//! warm witness for the next probe, so verifying a whole plan costs little
//! more than repairing one routing step by step. Greedy order (adds
//! before removes — extra capacity never hurts) is tried first; when a
//! branch dead-ends the search backtracks, memoizing dead states so the
//! same hopeless interleaving is never explored twice.

use poc_flow::Constraint;
use poc_flow::{AcceptabilityOracle, LinkSet, Rejection, WarmOracle};
use poc_topology::{LinkId, PocTopology};
use poc_traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One lease-migration operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransitionOp {
    /// Bring a link into the fabric (book its lease).
    Add(LinkId),
    /// Take a link out of the fabric (expire its lease).
    Remove(LinkId),
}

impl TransitionOp {
    pub fn link(&self) -> LinkId {
        match *self {
            TransitionOp::Add(l) | TransitionOp::Remove(l) => l,
        }
    }

    pub fn is_add(&self) -> bool {
        matches!(self, TransitionOp::Add(_))
    }

    /// The state after applying this op to `state`.
    pub(crate) fn apply(&self, state: &LinkSet) -> LinkSet {
        let mut next = state.clone();
        match *self {
            TransitionOp::Add(l) => next.insert(l),
            TransitionOp::Remove(l) => next.remove(l),
        }
        next
    }
}

impl std::fmt::Display for TransitionOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransitionOp::Add(l) => write!(f, "+{l}"),
            TransitionOp::Remove(l) => write!(f, "-{l}"),
        }
    }
}

/// Search budget: total states explored before the planner gives up
/// with [`TransitionError::NoSafePlan`].
const MAX_EXPLORED: usize = 20_000;

/// Planner knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanConfig {
    /// Headroom budget: no intermediate state may hold more than
    /// `max(|from|, |to|) + max_extra_links` links. `None` means
    /// unbounded — the trivially safe "add everything, then remove"
    /// order is always available (capacity is monotone). A tight budget
    /// models lease-count limits and forces genuine interleaving.
    pub max_extra_links: Option<usize>,
}

/// An ordered, per-step-verified migration from one link set to another.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransitionPlan {
    pub from: LinkSet,
    pub to: LinkSet,
    /// The canonical linearization. Every prefix of it was verified
    /// feasible and resilient at planning time.
    pub steps: Vec<TransitionOp>,
    /// Oracle probes spent planning (for benchmarks).
    pub probes: usize,
}

impl TransitionPlan {
    /// The state after each step; the last equals `to`. (The state
    /// "after zero steps" is `from` and is not included.)
    pub fn states(&self) -> Vec<LinkSet> {
        let mut out = Vec::with_capacity(self.steps.len());
        let mut cur = self.from.clone();
        for op in &self.steps {
            cur = op.apply(&cur);
            out.push(cur.clone());
        }
        out
    }

    /// Consecutive same-kind steps, as index ranges into `steps`. All-add
    /// rounds and all-remove rounds are the executor's antichains: within
    /// a round the operations commute, and every interleaving of an
    /// all-add (all-remove) round stays a superset of the verified round
    /// entry (exit) state.
    pub(crate) fn rounds(&self) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::new();
        let mut start = 0;
        for i in 1..self.steps.len() {
            if self.steps[i].is_add() != self.steps[start].is_add() {
                out.push(start..i);
                start = i;
            }
        }
        if start < self.steps.len() {
            out.push(start..self.steps.len());
        }
        out
    }
}

/// Why no plan was produced.
#[derive(Clone, Debug, PartialEq)]
pub enum TransitionError {
    /// `from` and `to` live in different link universes.
    UniverseMismatch { from: usize, to: usize },
    /// The target set itself fails the oracle — no migration can end
    /// there.
    TargetInfeasible(Rejection),
    /// Every interleaving within budget reaches an infeasible
    /// intermediate state (or the search budget ran out).
    NoSafePlan { explored: usize },
}

impl std::fmt::Display for TransitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransitionError::UniverseMismatch { from, to } => {
                write!(f, "link universes differ: from={from}, to={to}")
            }
            TransitionError::TargetInfeasible(r) => write!(f, "target set infeasible: {r}"),
            TransitionError::NoSafePlan { explored } => {
                write!(f, "no safe transition order exists ({explored} states explored)")
            }
        }
    }
}

impl std::error::Error for TransitionError {}

/// Plan a safe migration `from → to`: an ordering of the add/remove
/// operations in which **every** intermediate link set is admitted by
/// the walk's [`Invariants`] (within `cfg`'s budget, feasible and
/// resilient at `constraint`).
///
/// `from` itself is *not* required to pass — it is whatever the fabric is
/// currently on, possibly degraded by a link cut; the plan's job is to
/// move off it without ever making things unsafe again. The target must
/// pass ([`TransitionError::TargetInfeasible`] otherwise).
pub fn plan_transition(
    topo: &PocTopology,
    tm: &TrafficMatrix,
    constraint: Constraint,
    from: &LinkSet,
    to: &LinkSet,
    cfg: &PlanConfig,
) -> Result<TransitionPlan, TransitionError> {
    if from.universe() != to.universe() {
        return Err(TransitionError::UniverseMismatch { from: from.universe(), to: to.universe() });
    }
    let _span = poc_obs::span!("transition.plan");

    let invariants = Invariants::new(topo, tm, constraint, from, to, cfg)
        .map_err(TransitionError::TargetInfeasible)?;

    let mut search = Search { invariants: &invariants, to, probes: 0, dead: HashSet::new() };
    let mut steps = Vec::new();
    if search.dfs(from.clone(), &mut steps) {
        poc_obs::counter!("transition.plans").inc();
        Ok(TransitionPlan { from: from.clone(), to: to.clone(), steps, probes: search.probes })
    } else {
        Err(TransitionError::NoSafePlan { explored: search.probes })
    }
}

/// What every state of one `from → to` walk must satisfy, stated once:
/// it holds at most `budget` links, and it passes the warm oracle at the
/// head of the walk's witness chain. The planner, the executor
/// re-verifying a plan and a drill auditing the applied states each
/// build their own and [`admit`](Self::admit) states through it.
///
/// The chain is anchored on the target (it must pass, and its routing is
/// the first witness); `from` is evaluated second, so a walk starts from
/// a witness near its first step when `from` still routes, and from the
/// target's when `from` is degraded. Warm verdicts depend on the witness
/// chain, so whoever seeds here and then probes in walk order sees the
/// verdicts the planner saw.
pub struct Invariants<'a> {
    oracle: WarmOracle<'a>,
    /// `max(|from|, |to|) + max_extra_links`: the lease budget.
    budget: usize,
}

impl<'a> Invariants<'a> {
    /// Seed the chain for `from → to` under `cfg`'s budget; the target's
    /// rejection if it does not pass.
    pub fn new(
        topo: &'a PocTopology,
        tm: &'a TrafficMatrix,
        constraint: Constraint,
        from: &LinkSet,
        to: &LinkSet,
        cfg: &PlanConfig,
    ) -> Result<Self, Rejection> {
        let oracle = WarmOracle::new(topo, tm, constraint);
        oracle.evaluate(to)?;
        let _ = oracle.evaluate(from);
        let extra = cfg.max_extra_links.unwrap_or(usize::MAX);
        Ok(Self { oracle, budget: from.len().max(to.len()).saturating_add(extra) })
    }

    /// Whether `state` is within budget and acceptable. Probes the oracle
    /// only for a state within budget, and moves the chain on an accept.
    pub fn admit(&self, state: &LinkSet) -> bool {
        state.len() <= self.budget && self.oracle.acceptable(state)
    }
}

struct Search<'a, 'o> {
    invariants: &'a Invariants<'o>,
    to: &'a LinkSet,
    probes: usize,
    /// States from which no safe completion exists.
    dead: HashSet<LinkSet>,
}

impl Search<'_, '_> {
    /// Extend `steps` from `state` to `self.to`; true on success.
    fn dfs(&mut self, state: LinkSet, steps: &mut Vec<TransitionOp>) -> bool {
        if &state == self.to {
            return true;
        }
        if self.probes >= MAX_EXPLORED {
            return false;
        }

        // Candidate ops, greedy order: adds first (extra capacity only
        // helps), both in ascending link order for determinism.
        let mut candidates: Vec<TransitionOp> = Vec::new();
        if state.len() < self.invariants.budget {
            candidates.extend(self.to.difference(&state).iter().map(TransitionOp::Add));
        }
        candidates.extend(state.difference(self.to).iter().map(TransitionOp::Remove));

        for op in candidates {
            let next = op.apply(&state);
            if self.dead.contains(&next) {
                continue;
            }
            self.probes += 1;
            // A state reached again through a different interleaving is
            // in `dead` by then: no set is probed twice in one search.
            if !self.invariants.admit(&next) {
                self.dead.insert(next);
                continue;
            }
            steps.push(op);
            if self.dfs(next.clone(), steps) {
                return true;
            }
            steps.pop();
            self.dead.insert(next);
        }
        self.dead.insert(state);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_flow::FeasibilityOracle;
    use poc_topology::builder::two_bp_square;
    use poc_topology::RouterId;

    fn tm_for(t: &PocTopology) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(RouterId(0), RouterId(1), 10.0);
        tm.set(RouterId(2), RouterId(3), 10.0);
        tm
    }

    /// A minimal feasible subset: greedily drop links while staying
    /// acceptable.
    fn minimal_feasible(
        t: &PocTopology,
        tm: &TrafficMatrix,
        c: Constraint,
        start: &LinkSet,
        drop_order: impl Iterator<Item = LinkId>,
    ) -> LinkSet {
        let cold = FeasibilityOracle::new(t, tm, c);
        let mut cur = start.clone();
        for l in drop_order {
            if !cur.contains(l) {
                continue;
            }
            let mut cand = cur.clone();
            cand.remove(l);
            if cold.acceptable(&cand) {
                cur = cand;
            }
        }
        cur
    }

    #[test]
    fn noop_transition_has_no_steps() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let full = LinkSet::full(t.n_links());
        let plan =
            plan_transition(&t, &tm, Constraint::BaseLoad, &full, &full, &PlanConfig::default())
                .unwrap();
        assert!(plan.steps.is_empty());
        assert!(plan.states().is_empty());
        assert!(plan.rounds().is_empty());
    }

    #[test]
    fn unbounded_plan_adds_then_removes_and_every_prefix_is_feasible() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        for c in Constraint::paper_suite(1) {
            let full = LinkSet::full(t.n_links());
            // Two different minimal feasible sets, pruned in opposite orders.
            let a = minimal_feasible(&t, &tm, c, &full, (0..t.n_links()).map(LinkId::from_index));
            let b =
                minimal_feasible(&t, &tm, c, &full, (0..t.n_links()).rev().map(LinkId::from_index));
            if a == b {
                continue; // nothing to migrate at this constraint
            }
            let plan = plan_transition(&t, &tm, c, &a, &b, &PlanConfig::default()).unwrap();
            assert_eq!(plan.steps.len(), a.difference(&b).len() + b.difference(&a).len());
            // Greedy unbounded order: all adds precede all removes.
            let first_remove = plan.steps.iter().position(|s| !s.is_add());
            if let Some(fr) = first_remove {
                assert!(
                    plan.steps[fr..].iter().all(|s| !s.is_add()),
                    "unbounded plan should not interleave ({})",
                    c.label()
                );
            }
            // Every intermediate passes the cold oracle too.
            let cold = FeasibilityOracle::new(&t, &tm, c);
            for state in plan.states() {
                assert!(cold.acceptable(&state), "unsafe intermediate at {}", c.label());
            }
            assert_eq!(plan.states().last().unwrap(), &b);
        }
    }

    #[test]
    fn rounds_partition_steps_into_homogeneous_runs() {
        let t = two_bp_square();
        let plan = TransitionPlan {
            from: LinkSet::empty(t.n_links()),
            to: LinkSet::empty(t.n_links()),
            steps: vec![
                TransitionOp::Add(LinkId(0)),
                TransitionOp::Add(LinkId(1)),
                TransitionOp::Remove(LinkId(2)),
                TransitionOp::Add(LinkId(3)),
            ],
            probes: 0,
        };
        assert_eq!(plan.rounds(), vec![0..2, 2..3, 3..4]);
    }

    #[test]
    fn zero_headroom_between_minimal_sets_yields_no_safe_plan() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let c = Constraint::BaseLoad;
        let full = LinkSet::full(t.n_links());
        let a = minimal_feasible(&t, &tm, c, &full, (0..t.n_links()).map(LinkId::from_index));
        let b = minimal_feasible(&t, &tm, c, &full, (0..t.n_links()).rev().map(LinkId::from_index));
        if a == b || a.len() != b.len() {
            return; // needs two same-size minimal sets to force the bind
        }
        // At |state| ≤ max(|a|,|b|) + 0 every add from `a` is blocked
        // (budget) and every remove breaks feasibility (minimality): the
        // planner must prove unsatisfiability, not hang or ship garbage.
        let err = plan_transition(&t, &tm, c, &a, &b, &PlanConfig { max_extra_links: Some(0) })
            .unwrap_err();
        assert!(matches!(err, TransitionError::NoSafePlan { .. }), "got {err}");
    }

    #[test]
    fn tight_headroom_forces_interleaving_but_stays_safe() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let c = Constraint::BaseLoad;
        let full = LinkSet::full(t.n_links());
        let a = minimal_feasible(&t, &tm, c, &full, (0..t.n_links()).map(LinkId::from_index));
        let b = minimal_feasible(&t, &tm, c, &full, (0..t.n_links()).rev().map(LinkId::from_index));
        if a == b {
            return;
        }
        let adds = b.difference(&a).len();
        if adds < 2 {
            return; // headroom 1 only binds with ≥2 adds
        }
        let plan = plan_transition(&t, &tm, c, &a, &b, &PlanConfig { max_extra_links: Some(1) });
        let Ok(plan) = plan else { return };
        let cap = a.len().max(b.len()) + 1;
        let cold = FeasibilityOracle::new(&t, &tm, c);
        for state in plan.states() {
            assert!(state.len() <= cap, "headroom budget violated");
            assert!(cold.acceptable(&state));
        }
        assert_eq!(plan.states().last().unwrap(), &b);
    }

    #[test]
    fn infeasible_target_is_typed() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let err = plan_transition(
            &t,
            &tm,
            Constraint::BaseLoad,
            &LinkSet::full(t.n_links()),
            &LinkSet::empty(t.n_links()),
            &PlanConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TransitionError::TargetInfeasible(_)), "got {err}");
        assert_eq!(
            err.to_string(),
            "target set infeasible: r0 and r1 are disconnected in the active set"
        );
    }

    #[test]
    fn universe_mismatch_is_typed() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let err = plan_transition(
            &t,
            &tm,
            Constraint::BaseLoad,
            &LinkSet::empty(t.n_links()),
            &LinkSet::empty(t.n_links() + 1),
            &PlanConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TransitionError::UniverseMismatch { .. }));
    }

    #[test]
    fn degraded_source_is_allowed() {
        // `from` need not be feasible — that is exactly the post-link-cut
        // replan case. The plan just has to climb out safely.
        let t = two_bp_square();
        let tm = tm_for(&t);
        let c = Constraint::BaseLoad;
        let full = LinkSet::full(t.n_links());
        let degraded = LinkSet::empty(t.n_links()); // nothing routable
        let plan = plan_transition(&t, &tm, c, &degraded, &full, &PlanConfig::default());
        // Either a plan exists (every *intermediate after the first
        // feasible point* is fine) or the planner proves there is none;
        // what it must not do is reject the degraded source outright.
        match plan {
            Ok(p) => assert_eq!(p.states().last().unwrap(), &full),
            Err(TransitionError::NoSafePlan { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
