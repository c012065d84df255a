//! Executing a transition plan: ordered verification, journaled steps,
//! mid-flight replanning, rollback.
//!
//! The executor walks the plan's homogeneous rounds (all-add / all-remove
//! runs: ops within a round commute). Before each round it polls
//! [`TransitionHooks::poll_events`] for the outside world intruding — a
//! link cut, a BP recall — and re-admits the round's states in plan
//! order, one probe per step, through [`Invariants`] built for the plan
//! exactly as the planner builds them: the same lease budget from the
//! `cfg` it was given, the same seeding of the witness chain. Warm
//! verdicts depend on that chain; standing where the planner stood and
//! probing what it probed, an undisturbed walk replays the chain the
//! planner accepted, and a caller's plan over the budget is replanned,
//! not applied. Anything off plan triggers a replan from the live state
//! toward the (possibly shrunken) target; when no safe forward plan
//! remains, the executor plans a rollback to the original set, and as a
//! last resort force-restores it atomically.
//!
//! The original set — where an unwind ends — is an input of that one
//! loop, and there are two ways in: [`execute_transition`] walks a plan
//! from its first step, so the original is `plan.from`;
//! [`resume_transition`] picks up a walk part-way (a control plane that
//! recovered a mid-walk lease book from its journal), where the caller
//! names the set the walk began on and the executor plans the rest.
//!
//! Application order is strictly the plan's canonical linearization:
//! every step goes through [`TransitionHooks::apply_step`] so a control
//! plane can journal it durably *before* mutating the lease book —
//! that's what makes a crash at any point recoverable.

use crate::plan::{plan_transition, Invariants, PlanConfig, TransitionOp, TransitionPlan};
use poc_flow::{Constraint, LinkSet};
use poc_topology::{LinkId, PocTopology};
use poc_traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};

/// Something that happened to the network while a transition was in
/// flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransitionEvent {
    /// The link physically failed: it must leave the live set immediately
    /// and can appear in no future state (including rollback).
    LinkCut(LinkId),
    /// The owning BP recalled the link: it may finish serving the current
    /// state but must not be in the target.
    Recall(LinkId),
}

/// How a transition ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransitionOutcome {
    /// All steps applied; the fabric is on the target set.
    Committed,
    /// Forward progress became unsafe; applied steps were unwound by a
    /// planned (per-step-verified) rollback to the original set.
    RolledBack,
    /// Even rollback had no safe step order; the original set was
    /// restored in one atomic install.
    ForceRestored,
}

/// What the executor did.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransitionReport {
    pub outcome: TransitionOutcome,
    /// Steps applied across the original plan and any replans/rollbacks.
    pub steps_applied: usize,
    pub replans: u32,
    pub rollbacks: u32,
    /// The live set when the executor returned.
    pub final_state: LinkSet,
}

/// Executor failures: the planner's own errors never escape (they become
/// rollbacks); only a hook refusing a step does.
#[derive(Debug)]
pub enum ExecError {
    /// A hook failed to apply or restore; the transition cannot proceed
    /// and the caller (control plane) must recover from its journal.
    Hook { step: usize, reason: String },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Hook { step, reason } => write!(f, "hook failed at step {step}: {reason}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The executor's side effects, so the control plane can journal each
/// step before it lands and the simulator can inject failures between
/// rounds.
pub trait TransitionHooks {
    /// Apply one step. `idx` counts applied steps monotonically across
    /// replans (it is the journal sequence number); `state_after` is the
    /// verified link set the fabric is on once this step lands.
    fn apply_step(
        &mut self,
        idx: usize,
        op: TransitionOp,
        state_after: &LinkSet,
    ) -> Result<(), String>;

    /// Drain outside-world events. Called before every round.
    fn poll_events(&mut self) -> Vec<TransitionEvent> {
        Vec::new()
    }

    /// Last-resort atomic restore when not even rollback has a safe step
    /// order. `links` is the set the walk began on, less any link an
    /// event took out of it; the report's `final_state` is the same set.
    fn force_restore(&mut self, links: &LinkSet) -> Result<(), String> {
        let _ = links;
        Ok(())
    }
}

/// Replan ceiling: events keep arriving faster than this and the
/// executor stops chasing the target and unwinds instead.
const MAX_REPLANS: u32 = 8;

/// Run `plan`, applying each step through `hooks`: a walk that starts on
/// `plan.from`, so that is also the set it unwinds to. See the module
/// docs for the replan/rollback state machine.
pub fn execute_transition(
    topo: &PocTopology,
    tm: &TrafficMatrix,
    constraint: Constraint,
    cfg: &PlanConfig,
    plan: TransitionPlan,
    hooks: &mut dyn TransitionHooks,
) -> Result<TransitionReport, ExecError> {
    let (current, target, original) = (plan.from.clone(), plan.to.clone(), plan.from.clone());
    run_walk(topo, tm, constraint, cfg, current, target, original, Some(plan), hooks)
}

/// Pick up a walk that is already under way: the fabric is on `current`,
/// part-way from `original` to `target`. The executor plans the rest
/// itself, and whatever stops it reaching `target` unwinds to `original`
/// — the set the walk began on, which only the caller knows — not to
/// the mid-state it was resumed from.
#[allow(clippy::too_many_arguments)]
pub fn resume_transition(
    topo: &PocTopology,
    tm: &TrafficMatrix,
    constraint: Constraint,
    cfg: &PlanConfig,
    current: LinkSet,
    target: LinkSet,
    original: LinkSet,
    hooks: &mut dyn TransitionHooks,
) -> Result<TransitionReport, ExecError> {
    run_walk(topo, tm, constraint, cfg, current, target, original, None, hooks)
}

/// The one loop behind both entries. The fabric is on `current`, heading
/// for `target` (which becomes `original` once the walk unwinds);
/// `original` is where an unwind ends and what
/// [`TransitionHooks::force_restore`] receives. Events edit all three.
/// `plan` is the caller's plan for `current → target` when it has one;
/// every other plan is made at the head of the loop.
#[allow(clippy::too_many_arguments)]
fn run_walk(
    topo: &PocTopology,
    tm: &TrafficMatrix,
    constraint: Constraint,
    cfg: &PlanConfig,
    mut current: LinkSet,
    mut target: LinkSet,
    mut original: LinkSet,
    mut plan: Option<TransitionPlan>,
    hooks: &mut dyn TransitionHooks,
) -> Result<TransitionReport, ExecError> {
    let _span = poc_obs::span!("transition.run");
    let mut steps_applied = 0usize;
    let mut replans = 0u32;
    let mut rollbacks = 0u32;
    // `replans` when the walk turned back, once it has. The unwind gets
    // the one plan made at that count: if that plan goes stale too, only
    // the atomic restore is left.
    let mut unwinding_since: Option<u32> = None;

    'replan: loop {
        let plan = loop {
            if let Some(p) = plan.take() {
                break p;
            }
            let may_plan = match unwinding_since {
                None => replans <= MAX_REPLANS,
                Some(at) => at == replans,
            };
            if may_plan {
                if let Ok(p) = plan_transition(topo, tm, constraint, &current, &target, cfg) {
                    break p;
                }
            }
            if unwinding_since.is_some() {
                // Not even the unwind has a safe order (or it drifted):
                // restore atomically.
                hooks
                    .force_restore(&original)
                    .map_err(|reason| ExecError::Hook { step: steps_applied, reason })?;
                poc_obs::counter!("transition.steps").inc();
                return Ok(TransitionReport {
                    outcome: TransitionOutcome::ForceRestored,
                    steps_applied,
                    replans,
                    rollbacks,
                    final_state: original,
                });
            }
            // No safe way forward: unwind to the original set.
            unwinding_since = Some(replans);
            rollbacks += 1;
            poc_obs::counter!("transition.rollbacks").inc();
            target = original.clone();
        };

        // Every plan, the caller's and each replan's, is re-verified from
        // the head of its own witness chain, under `cfg`'s budget. A
        // target that no longer passes verifies nothing, and the replan
        // above reports it.
        let invariants = Invariants::new(topo, tm, constraint, &plan.from, &plan.to, cfg).ok();
        let states = plan.states();
        for round in plan.rounds() {
            // 1. Let the outside world intrude.
            let events = hooks.poll_events();
            let drifted = apply_events(&events, &mut current, &mut target, &mut original);

            // 2. Re-admit this round's states in plan order, one probe
            //    per step.
            let verified = !drifted
                && invariants.as_ref().is_some_and(|invariants| {
                    states[round.clone()].iter().all(|state| {
                        let _span = poc_obs::span!("transition.verify");
                        invariants.admit(state)
                    })
                });

            if drifted || !verified {
                replans += 1;
                poc_obs::counter!("transition.replans").inc();
                continue 'replan;
            }

            // 3. Apply the round in canonical order, one journaled step at
            //    a time.
            for i in round {
                let op = plan.steps[i];
                let state_after = &states[i];
                let _step_span = poc_obs::span!("transition.step");
                hooks
                    .apply_step(steps_applied, op, state_after)
                    .map_err(|reason| ExecError::Hook { step: steps_applied, reason })?;
                poc_obs::counter!("transition.steps").inc();
                current = state_after.clone();
                steps_applied += 1;
            }
        }
        return Ok(TransitionReport {
            outcome: if unwinding_since.is_some() {
                TransitionOutcome::RolledBack
            } else {
                TransitionOutcome::Committed
            },
            steps_applied,
            replans,
            rollbacks,
            final_state: current,
        });
    }
}

/// Fold events into the live, target, and original sets. Returns whether
/// anything actually changed (an event about an absent link is a no-op).
fn apply_events(
    events: &[TransitionEvent],
    current: &mut LinkSet,
    target: &mut LinkSet,
    original: &mut LinkSet,
) -> bool {
    let mut changed = false;
    for ev in events {
        match *ev {
            TransitionEvent::LinkCut(l) => {
                // A dead link is gone everywhere: live now, and from every
                // set we might still steer toward.
                for set in [&mut *current, &mut *target, &mut *original] {
                    if set.contains(l) {
                        set.remove(l);
                        changed = true;
                    }
                }
            }
            TransitionEvent::Recall(l) => {
                // Recalled links drain via a planned Remove step: they
                // leave the destinations, not the live set.
                for set in [&mut *target, &mut *original] {
                    if set.contains(l) {
                        set.remove(l);
                        changed = true;
                    }
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_flow::FeasibilityOracle;
    use poc_topology::builder::two_bp_square;
    use poc_topology::{PocTopology, RouterId};
    use poc_traffic::TrafficMatrix;

    fn tm_for(t: &PocTopology) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(RouterId(0), RouterId(1), 10.0);
        tm.set(RouterId(2), RouterId(3), 10.0);
        tm
    }

    /// Hooks that record every applied step and can inject events at a
    /// chosen poll.
    #[derive(Default)]
    struct Recorder {
        applied: Vec<(usize, TransitionOp)>,
        states: Vec<LinkSet>,
        events_at_poll: std::collections::HashMap<usize, Vec<TransitionEvent>>,
        polls: usize,
        restored: Option<LinkSet>,
    }

    impl TransitionHooks for Recorder {
        fn apply_step(
            &mut self,
            idx: usize,
            op: TransitionOp,
            state_after: &LinkSet,
        ) -> Result<(), String> {
            self.applied.push((idx, op));
            self.states.push(state_after.clone());
            Ok(())
        }

        fn poll_events(&mut self) -> Vec<TransitionEvent> {
            let evs = self.events_at_poll.remove(&self.polls).unwrap_or_default();
            self.polls += 1;
            evs
        }

        fn force_restore(&mut self, links: &LinkSet) -> Result<(), String> {
            self.restored = Some(links.clone());
            Ok(())
        }
    }

    fn two_minimal_sets(t: &PocTopology, tm: &TrafficMatrix, c: Constraint) -> (LinkSet, LinkSet) {
        let cold = FeasibilityOracle::new(t, tm, c);
        let full = LinkSet::full(t.n_links());
        let prune = |order: Vec<poc_topology::LinkId>| {
            let mut cur = full.clone();
            for l in order {
                let mut cand = cur.clone();
                cand.remove(l);
                if cand.len() < cur.len() && cold.acceptable(&cand) {
                    cur = cand;
                }
            }
            cur
        };
        let fwd: Vec<_> = (0..t.n_links()).map(poc_topology::LinkId::from_index).collect();
        let rev: Vec<_> = fwd.iter().rev().copied().collect();
        (prune(fwd), prune(rev))
    }

    #[test]
    fn quiet_execution_commits_and_applies_every_step_in_order() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let c = Constraint::BaseLoad;
        let (a, b) = two_minimal_sets(&t, &tm, c);
        if a == b {
            return;
        }
        let cfg = PlanConfig::default();
        let plan = plan_transition(&t, &tm, c, &a, &b, &cfg).unwrap();
        let n_steps = plan.steps.len();
        let mut rec = Recorder::default();
        let report = execute_transition(&t, &tm, c, &cfg, plan, &mut rec).unwrap();
        assert_eq!(report.outcome, TransitionOutcome::Committed);
        assert_eq!(report.steps_applied, n_steps);
        assert_eq!(report.replans, 0);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.final_state, b);
        assert_eq!(rec.applied.len(), n_steps);
        // Step indices are the journal sequence: 0..n in order.
        assert!(rec.applied.iter().enumerate().all(|(i, (idx, _))| i == *idx));
        assert_eq!(rec.states.last().unwrap(), &b);
    }

    #[test]
    fn the_executor_enforces_the_budget_it_is_given() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let c = Constraint::BaseLoad;
        let (a, b) = two_minimal_sets(&t, &tm, c);
        assert_eq!((a.len(), b.len()), (3, 3));
        // Unbounded, the adds-first walk peaks at 5 links.
        let plan = plan_transition(&t, &tm, c, &a, &b, &PlanConfig::default()).unwrap();
        assert_eq!(plan.steps.len(), 4);
        assert_eq!(plan.states().iter().map(LinkSet::len).max(), Some(5));
        // Handed to an executor told to hold at most 3, no step of it
        // lands; no order within 3 exists, so the walk stays put.
        let cfg = PlanConfig { max_extra_links: Some(0) };
        let mut rec = Recorder::default();
        let report = execute_transition(&t, &tm, c, &cfg, plan, &mut rec).unwrap();
        assert!(rec.states.iter().all(|s| s.len() <= 3), "over budget: {:?}", rec.states);
        assert_eq!(report.outcome, TransitionOutcome::RolledBack);
        assert_eq!(report.steps_applied, 0);
        assert_eq!(report.final_state, a);
    }

    #[test]
    fn link_cut_mid_transition_triggers_replan_not_violation() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let c = Constraint::BaseLoad;
        let (a, b) = two_minimal_sets(&t, &tm, c);
        if a == b {
            return;
        }
        let cfg = PlanConfig::default();
        let plan = plan_transition(&t, &tm, c, &a, &b, &cfg).unwrap();
        // Cut a link the target keeps — but only one that is not load-
        // bearing for feasibility: pick a target link whose removal stays
        // acceptable, so a forward replan must exist.
        let cold = FeasibilityOracle::new(&t, &tm, c);
        let Some(cut) = b.iter().find(|&l| {
            let mut s = b.clone();
            s.remove(l);
            cold.acceptable(&s)
        }) else {
            return;
        };
        let mut rec = Recorder::default();
        rec.events_at_poll.insert(0, vec![TransitionEvent::LinkCut(cut)]);
        let report = execute_transition(&t, &tm, c, &cfg, plan, &mut rec).unwrap();
        assert_eq!(report.outcome, TransitionOutcome::Committed);
        assert!(report.replans >= 1, "cut must force a replan");
        assert!(!report.final_state.contains(cut), "dead link must not be in the final set");
        let mut want = b.clone();
        want.remove(cut);
        assert_eq!(report.final_state, want);
        // Every applied state is feasible and never contains the cut link.
        for s in &rec.states {
            assert!(!s.contains(cut));
            assert!(cold.acceptable(s));
        }
    }

    #[test]
    fn recall_mid_transition_drains_the_link_via_a_remove_step() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let c = Constraint::BaseLoad;
        let (a, b) = two_minimal_sets(&t, &tm, c);
        if a == b {
            return;
        }
        let cold = FeasibilityOracle::new(&t, &tm, c);
        let Some(recalled) = b.iter().find(|&l| {
            let mut s = b.clone();
            s.remove(l);
            cold.acceptable(&s)
        }) else {
            return;
        };
        let cfg = PlanConfig::default();
        let plan = plan_transition(&t, &tm, c, &a, &b, &cfg).unwrap();
        let mut rec = Recorder::default();
        rec.events_at_poll.insert(0, vec![TransitionEvent::Recall(recalled)]);
        let report = execute_transition(&t, &tm, c, &cfg, plan, &mut rec).unwrap();
        assert_eq!(report.outcome, TransitionOutcome::Committed);
        assert!(!report.final_state.contains(recalled));
        // Unlike a cut, the recalled link may appear in intermediate
        // states (it drains via a planned Remove) — but each such state
        // still passed the oracle.
        for s in &rec.states {
            assert!(cold.acceptable(s));
        }
    }

    #[test]
    fn impossible_target_after_event_rolls_back() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let c = Constraint::BaseLoad;
        let (a, b) = two_minimal_sets(&t, &tm, c);
        if a == b {
            return;
        }
        let cfg = PlanConfig::default();
        let plan = plan_transition(&t, &tm, c, &a, &b, &cfg).unwrap();
        // Cut every link that is in the target but not the source: the
        // target collapses to a ⊆-of-a set; if that is infeasible the
        // executor must unwind to (what remains of) the original set —
        // never commit an unsafe state.
        let cuts: Vec<_> = b.difference(&a).iter().map(TransitionEvent::LinkCut).collect();
        if cuts.is_empty() {
            return;
        }
        let mut rec = Recorder::default();
        rec.events_at_poll.insert(0, cuts);
        let report = execute_transition(&t, &tm, c, &cfg, plan, &mut rec).unwrap();
        // All surviving-target links were already live, so whatever path
        // was taken, the final state may not contain a cut link and every
        // applied state must have been safe.
        for l in b.difference(&a).iter() {
            assert!(!report.final_state.contains(l));
        }
        let cold = FeasibilityOracle::new(&t, &tm, c);
        for s in &rec.states {
            assert!(cold.acceptable(s));
        }
    }

    /// A walk resumed one step in: `original` is where it began,
    /// `current` the state after the plan's first step. Returns
    /// `(original, current, target)` and a target link not yet live, whose
    /// cut leaves the (minimal) target unable to route.
    fn resumed_one_step_in(
        t: &PocTopology,
        tm: &TrafficMatrix,
        c: Constraint,
    ) -> (LinkSet, LinkSet, LinkSet, LinkId) {
        let (original, target) = two_minimal_sets(t, tm, c);
        let plan = plan_transition(t, tm, c, &original, &target, &PlanConfig::default()).unwrap();
        let current = plan.states()[0].clone();
        assert_ne!(current, original);
        let cut = target.difference(&current).iter().next().expect("a target link not yet live");
        assert!(!original.contains(cut));
        (original, current, target, cut)
    }

    /// Resume `current → target` with `cut` delivered at the first poll.
    fn resume_into_a_cut(
        t: &PocTopology,
        tm: &TrafficMatrix,
        (original, current, target, cut): (&LinkSet, &LinkSet, &LinkSet, LinkId),
    ) -> (TransitionReport, Recorder) {
        let mut rec = Recorder::default();
        rec.events_at_poll.insert(0, vec![TransitionEvent::LinkCut(cut)]);
        let (cfg, c) = (PlanConfig::default(), Constraint::BaseLoad);
        let (current, target, original) = (current.clone(), target.clone(), original.clone());
        let report =
            resume_transition(t, tm, c, &cfg, current, target, original, &mut rec).unwrap();
        (report, rec)
    }

    #[test]
    fn resumed_walk_unwinds_to_the_original_set_not_to_where_it_resumed() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let (original, current, target, cut) = resumed_one_step_in(&t, &tm, Constraint::BaseLoad);
        let (report, rec) = resume_into_a_cut(&t, &tm, (&original, &current, &target, cut));
        assert_eq!(report.outcome, TransitionOutcome::RolledBack);
        assert_eq!((report.replans, report.rollbacks), (1, 1));
        assert_eq!(report.final_state, original, "unwound to the set the walk began on");
        // The unwind is the steps from `current` back, each one verified.
        let undo: Vec<LinkId> = rec.applied.iter().map(|(_, op)| op.link()).collect();
        assert_eq!(undo, current.difference(&original).iter().collect::<Vec<_>>());
        assert!(rec.applied.iter().all(|(_, op)| !op.is_add()));
        assert_eq!(rec.states.last(), Some(&original));
        assert_eq!(rec.restored, None, "a stepwise unwind needs no atomic restore");
    }

    #[test]
    fn force_restore_receives_the_original_set_when_no_unwind_order_exists() {
        let t = two_bp_square();
        let tm = tm_for(&t);
        let c = Constraint::BaseLoad;
        let (mut original, mut current, target, cut) = resumed_one_step_in(&t, &tm, c);
        // The walk began on a degraded set: a link the target drops was
        // already gone, so the original cannot route and nothing can end
        // on it step by step.
        let gone = original.difference(&target).iter().next().unwrap();
        original.remove(gone);
        current.remove(gone);
        assert!(!FeasibilityOracle::new(&t, &tm, c).acceptable(&original));
        let (report, rec) = resume_into_a_cut(&t, &tm, (&original, &current, &target, cut));
        assert_eq!(report.outcome, TransitionOutcome::ForceRestored);
        assert_eq!((report.steps_applied, report.rollbacks), (0, 1));
        assert_ne!(original, current);
        assert_eq!(rec.restored.as_ref(), Some(&original), "the original, not the mid-state");
        assert_eq!(report.final_state, original);
    }

    #[test]
    fn hook_failure_surfaces_with_step_index() {
        struct FailingHooks;
        impl TransitionHooks for FailingHooks {
            fn apply_step(&mut self, _: usize, _: TransitionOp, _: &LinkSet) -> Result<(), String> {
                Err("journal full".into())
            }
        }
        let t = two_bp_square();
        let tm = tm_for(&t);
        let c = Constraint::BaseLoad;
        let (a, b) = two_minimal_sets(&t, &tm, c);
        if a == b {
            return;
        }
        let cfg = PlanConfig::default();
        let plan = plan_transition(&t, &tm, c, &a, &b, &cfg).unwrap();
        let err = execute_transition(&t, &tm, c, &cfg, plan, &mut FailingHooks).unwrap_err();
        let ExecError::Hook { step, reason } = err;
        assert_eq!(step, 0);
        assert_eq!(reason, "journal full");
    }
}
