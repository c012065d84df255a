//! Property tests for the transition planner: for random pairs of real
//! auction outcomes, every intermediate state of the planned migration
//! passes the *cold* feasibility oracle at the operating constraint —
//! the planner verifies with the warm oracle, so this cross-checks that
//! the warm witness chain never vouches for a state the from-scratch
//! oracle would flag, at all three paper constraint levels — and the
//! executor, given the plan and the budget it was planned under, admits
//! every state the planner did.

use poc_auction::{run_auction, GreedySelector, Market};
use poc_flow::{Constraint, FeasibilityOracle, LinkSet};
use poc_topology::builder::two_bp_square;
use poc_topology::RouterId;
use poc_traffic::TrafficMatrix;
use poc_transition::{
    execute_transition, plan_transition, PlanConfig, TransitionError, TransitionHooks,
    TransitionOp, TransitionOutcome,
};
use proptest::prelude::*;

/// Hooks that record the state after every applied step.
#[derive(Default)]
struct Applied(Vec<LinkSet>);

impl TransitionHooks for Applied {
    fn apply_step(
        &mut self,
        _: usize,
        _: TransitionOp,
        state_after: &LinkSet,
    ) -> Result<(), String> {
        self.0.push(state_after.clone());
        Ok(())
    }
}

/// Random sparse demand over the square's four routers.
fn tm_from(demands: &[(u8, u8, u8)]) -> TrafficMatrix {
    let mut tm = TrafficMatrix::zero(4);
    for &(s, d, gbps) in demands {
        let (s, d) = (RouterId((s % 4) as u32), RouterId((d % 4) as u32));
        if s != d {
            tm.set(s, d, 1.0 + f64::from(gbps % 9));
        }
    }
    tm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Plan between the selections of two genuine auction outcomes (same
    /// instance, different demand): every intermediate link set must be
    /// acceptable to a cold oracle at the constraint the plan was made
    /// for — there is no moment during the migration when the fabric is
    /// infeasible or non-resilient.
    #[test]
    fn every_intermediate_state_passes_the_cold_oracle(
        demands_a in prop::collection::vec((0u8..4, 0u8..4, 0u8..9), 1..4),
        demands_b in prop::collection::vec((0u8..4, 0u8..4, 0u8..9), 1..4),
        headroom in 0usize..3,
    ) {
        let topo = two_bp_square();
        for constraint in Constraint::paper_suite(1) {
            let market = Market::truthful(&topo, 3.0);
            let selector = GreedySelector::default();
            let (tm_a, tm_b) = (tm_from(&demands_a), tm_from(&demands_b));
            let (Ok(out_a), Ok(out_b)) = (
                run_auction(&market, &tm_a, constraint, &selector),
                run_auction(&market, &tm_b, constraint, &selector),
            ) else {
                continue; // a demand set the instance cannot serve at all
            };

            // The migration runs under the *new* round's demand: that is
            // what the fabric must keep carrying while leases move.
            let mut cfg = PlanConfig { max_extra_links: Some(headroom) };
            let plan = match plan_transition(
                &topo, &tm_b, constraint, &out_a.selected, &out_b.selected, &cfg,
            ) {
                Ok(plan) => plan,
                // A tight headroom budget may genuinely exclude every safe
                // order; `NoSafePlan` is the typed answer for that. The
                // unbounded fallback must then succeed (add-first order is
                // always safe when capacity may grow).
                Err(TransitionError::NoSafePlan { .. }) => {
                    cfg = PlanConfig::default();
                    plan_transition(
                        &topo, &tm_b, constraint, &out_a.selected, &out_b.selected, &cfg,
                    ).expect("unbounded plan between feasible outcomes must exist")
                }
                Err(e) => panic!("unexpected planner error: {e}"),
            };

            prop_assert_eq!(plan.states().last().unwrap_or(&out_a.selected), &plan.to);
            let cold = FeasibilityOracle::new(&topo, &tm_b, constraint);
            for (i, state) in plan.states().iter().enumerate() {
                prop_assert!(
                    cold.acceptable(state),
                    "step {} of {} leaves an unacceptable intermediate at {} \
                     (|state|={}, from={:?}, to={:?})",
                    i + 1, plan.steps.len(), constraint.label(),
                    state.len(), plan.from, plan.to
                );
            }

            // Executed under the budget it was planned with, the plan
            // lands as planned: the executor's checks agree with the
            // planner's, so they cause no replan.
            let mut applied = Applied::default();
            let states = plan.states();
            let report = execute_transition(&topo, &tm_b, constraint, &cfg, plan, &mut applied)
                .expect("the recording hooks refuse nothing");
            prop_assert_eq!(report.outcome, TransitionOutcome::Committed);
            prop_assert_eq!(report.replans, 0);
            prop_assert_eq!(applied.0, states);
        }
    }

    /// Planning is deterministic: the same inputs give the same step
    /// sequence (the executor journals steps by index, so replay after a
    /// crash must see the identical plan).
    #[test]
    fn planning_is_deterministic(
        demands_a in prop::collection::vec((0u8..4, 0u8..4, 0u8..9), 1..4),
        demands_b in prop::collection::vec((0u8..4, 0u8..4, 0u8..9), 1..4),
    ) {
        let topo = two_bp_square();
        let constraint = Constraint::BaseLoad;
        let market = Market::truthful(&topo, 3.0);
        let selector = GreedySelector::default();
        let (tm_a, tm_b) = (tm_from(&demands_a), tm_from(&demands_b));
        let (Ok(out_a), Ok(out_b)) = (
            run_auction(&market, &tm_a, constraint, &selector),
            run_auction(&market, &tm_b, constraint, &selector),
        ) else {
            return;
        };
        let cfg = PlanConfig::default();
        let p1 = plan_transition(&topo, &tm_b, constraint, &out_a.selected, &out_b.selected, &cfg);
        let p2 = plan_transition(&topo, &tm_b, constraint, &out_a.selected, &out_b.selected, &cfg);
        match (p1, p2) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.steps, b.steps),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => panic!("nondeterministic verdict: {a:?} vs {b:?}"),
        }
    }
}

/// The remove-only direction: migrating to a strict subset (a shrinking
/// re-auction) still verifies every prefix. Deterministic companion to
/// the random cases above.
#[test]
fn shrink_to_subset_is_verified_stepwise() {
    let topo = two_bp_square();
    let mut tm = TrafficMatrix::zero(4);
    tm.set(RouterId(0), RouterId(1), 10.0);
    tm.set(RouterId(2), RouterId(3), 10.0);
    for constraint in Constraint::paper_suite(1) {
        let cold = FeasibilityOracle::new(&topo, &tm, constraint);
        let full = LinkSet::full(topo.n_links());
        // Greedily find a proper feasible subset to shrink to.
        let mut target = full.clone();
        for l in (0..topo.n_links()).map(poc_topology::LinkId::from_index) {
            let mut cand = target.clone();
            cand.remove(l);
            if cold.acceptable(&cand) {
                target = cand;
            }
        }
        if target == full {
            continue;
        }
        let plan = plan_transition(&topo, &tm, constraint, &full, &target, &PlanConfig::default())
            .expect("shrinking to a feasible subset must be plannable");
        assert!(plan.steps.iter().all(|s| !s.is_add()));
        for state in plan.states() {
            assert!(cold.acceptable(&state));
        }
    }
}
