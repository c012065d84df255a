//! The executor re-verifies a plan on the witness chain the planner
//! accepted it on: same seeding, same states, same order, so an
//! undisturbed walk costs one probe per step and never replans.
//!
//! The zoo10 tests are the regression for the spurious `RolledBack after 9
//! replans`: an executor whose oracle started unseeded answered its first
//! probe with the cold packer, which is incomplete, rejected a state the
//! planner's warm chain had proved, replanned into the same rejection
//! until the ceiling, and unwound — with no event injected at all.

use poc_auction::{GreedySelector, Market, Selector};
use poc_flow::{Constraint, FeasibilityOracle, LinkSet};
use poc_topology::builder::two_bp_square;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, LinkId, PocTopology, RouterId, ZooConfig, ZooGenerator};
use poc_traffic::{TrafficMatrix, TrafficScenario};
use poc_transition::{
    execute_transition, plan_transition, PlanConfig, TransitionHooks, TransitionOp,
    TransitionOutcome,
};

/// Hooks that record what was applied.
#[derive(Default)]
struct Applied {
    ops: Vec<TransitionOp>,
    states: Vec<LinkSet>,
}

impl TransitionHooks for Applied {
    fn apply_step(&mut self, _: usize, op: TransitionOp, after: &LinkSet) -> Result<(), String> {
        self.ops.push(op);
        self.states.push(after.clone());
        Ok(())
    }
}

/// Spans named `name` recorded under trace `id`.
fn spans(id: u64, name: &str) -> usize {
    poc_obs::trace::scrape(Some(id), None)
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.name == name)
        .count()
}

/// Plan `from → to`, then execute the plan twice with nothing injected.
/// Each run must commit exactly the planned state sequence with zero
/// replans, spending one verification probe per step (plus the seeding's
/// two evaluations, `to` and `from`).
fn walk_undisturbed(
    topo: &PocTopology,
    tm: &TrafficMatrix,
    c: Constraint,
    from: &LinkSet,
    to: &LinkSet,
) {
    let cfg = PlanConfig::default();
    let plan = plan_transition(topo, tm, c, from, to, &cfg).expect("plannable");
    let n_steps = plan.steps.len();
    poc_obs::trace::recorder().set_enabled(true);
    for _ in 0..2 {
        let id = poc_obs::trace::new_trace_id();
        let _trace = poc_obs::trace::start_trace(id);
        let mut applied = Applied::default();
        let report = execute_transition(topo, tm, c, &cfg, plan.clone(), &mut applied).unwrap();
        assert_eq!(report.outcome, TransitionOutcome::Committed, "{}", c.label());
        assert_eq!(report.replans, 0, "nothing was injected ({})", c.label());
        assert_eq!(report.steps_applied, n_steps);
        assert_eq!(&report.final_state, to);
        assert_eq!(applied.ops, plan.steps, "{}", c.label());
        assert_eq!(applied.states, plan.states(), "{}", c.label());
        assert_eq!(spans(id, "transition.verify"), n_steps, "{}", c.label());
        assert_eq!(spans(id, "flow.warm.evaluate"), n_steps + 2, "{}", c.label());
    }
}

/// A minimal acceptable subset of the square's links, dropping in `order`.
fn minimal_set(
    topo: &PocTopology,
    tm: &TrafficMatrix,
    c: Constraint,
    order: impl Iterator<Item = usize>,
) -> LinkSet {
    let cold = FeasibilityOracle::new(topo, tm, c);
    let mut cur = LinkSet::full(topo.n_links());
    for l in order.map(LinkId::from_index) {
        let mut cand = cur.clone();
        cand.remove(l);
        if cold.acceptable(&cand) {
            cur = cand;
        }
    }
    cur
}

#[test]
fn two_bp_square_walks_replay_the_planners_chain_at_every_constraint() {
    let topo = two_bp_square();
    let mut tm = TrafficMatrix::zero(topo.n_routers());
    tm.set(RouterId(0), RouterId(1), 10.0);
    tm.set(RouterId(2), RouterId(3), 10.0);
    for c in Constraint::paper_suite(1) {
        let a = minimal_set(&topo, &tm, c, 0..topo.n_links());
        let b = minimal_set(&topo, &tm, c, (0..topo.n_links()).rev());
        assert_ne!(a, b, "nothing to migrate at {}", c.label());
        walk_undisturbed(&topo, &tm, c, &a, &b);
    }
}

/// The two entries are one loop: resumed from a plan's own start, the
/// executor plans what the caller of `execute_transition` planned and
/// applies the identical steps through the identical states.
#[test]
fn resuming_from_a_plans_start_applies_the_plans_own_steps_at_every_constraint() {
    let topo = two_bp_square();
    let mut tm = TrafficMatrix::zero(topo.n_routers());
    tm.set(RouterId(0), RouterId(1), 10.0);
    tm.set(RouterId(2), RouterId(3), 10.0);
    let cfg = PlanConfig::default();
    for c in Constraint::paper_suite(1) {
        let a = minimal_set(&topo, &tm, c, 0..topo.n_links());
        let b = minimal_set(&topo, &tm, c, (0..topo.n_links()).rev());
        let plan = plan_transition(&topo, &tm, c, &a, &b, &cfg).expect("plannable");
        assert!(!plan.steps.is_empty(), "nothing to migrate at {}", c.label());

        let mut executed = Applied::default();
        let ran = execute_transition(&topo, &tm, c, &cfg, plan.clone(), &mut executed).unwrap();
        let mut resumed = Applied::default();
        let (from, to) = (plan.from.clone(), plan.to.clone());
        let res = poc_transition::resume_transition(
            &topo,
            &tm,
            c,
            &cfg,
            from.clone(),
            to,
            from,
            &mut resumed,
        )
        .unwrap();

        assert_eq!(resumed.ops, executed.ops, "{}", c.label());
        assert_eq!(resumed.states, executed.states, "{}", c.label());
        assert_eq!(res.outcome, TransitionOutcome::Committed, "{}", c.label());
        assert_eq!(
            (res.steps_applied, res.replans, res.rollbacks, &res.final_state),
            (ran.steps_applied, ran.replans, ran.rollbacks, &ran.final_state),
            "{}",
            c.label()
        );
    }
}

const BASE: Constraint = Constraint::BaseLoad;

/// The benchmark's `zoo10` instance: 40 cities, 10 BPs, 6 000 Gbit/s.
fn zoo10(seed: u64) -> (PocTopology, TrafficMatrix) {
    let zoo = ZooConfig {
        n_cities: 40,
        n_bps: 10,
        coverage_min: 0.30,
        coverage_max: 0.80,
        ..ZooConfig::paper()
    };
    let mut topo = ZooGenerator::new(zoo.with_seed(seed)).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let tm =
        TrafficScenario { total_gbps: 6000.0, ..TrafficScenario::paper_default() }.generate(&topo);
    (topo, tm)
}

/// What a default-configured POC leases under demand scaled by `factor`:
/// the round's selection (the Clarke pivots price it, they do not change
/// it), and so the target of `BeginTransition { demand_scale: factor }`.
fn selection(topo: &PocTopology, tm: &TrafficMatrix, factor: f64) -> LinkSet {
    let mut tm = tm.clone();
    tm.scale(factor);
    let market = Market::truthful(topo, 3.0);
    let oracle = FeasibilityOracle::new(topo, &tm, BASE);
    GreedySelector::default()
        .select(&market, &oracle, market.offered())
        .expect("zoo10 is auctionable at this factor")
        .links
}

/// `epoch_wire_zoo10 --instance-seed 3`: the migration every epoch begins
/// with.
#[test]
fn zoo10_seed3_expand_commits_without_a_replan() {
    let (topo, tm) = zoo10(3);
    let live = selection(&topo, &tm, 1.0);
    let target = selection(&topo, &tm, 1.5);
    assert_ne!(live, target, "nothing to migrate");
    walk_undisturbed(&topo, &tm, BASE, &live, &target);
}

/// The same failure cut down to two steps, each a round of its own, so no
/// probe ordering can hide it. The cold packer rejects `live + l7`, the
/// big walk's first state, which the warm chain routes (an add
/// invalidates no flow of `live`'s routing); it accepts `live + l7 −
/// l994`, so that is a plannable target one add and one remove away.
#[test]
fn zoo10_seed3_cold_rejected_first_state_verifies_on_the_planners_chain() {
    let (topo, tm) = zoo10(3);
    let live = selection(&topo, &tm, 1.0);
    let (add, remove) = (LinkId(7), LinkId(994));
    assert!(!live.contains(add) && live.contains(remove), "the instance changed: pick again");
    let mut first_state = live.clone();
    first_state.insert(add);
    let mut target = first_state.clone();
    target.remove(remove);
    let cold = FeasibilityOracle::new(&topo, &tm, BASE);
    assert!(!cold.acceptable(&first_state), "the instance changed: pick again");
    assert!(cold.acceptable(&target), "the instance changed: pick again");
    walk_undisturbed(&topo, &tm, BASE, &live, &target);
}
