//! The control plane's lease-transition driver.
//!
//! `poc-transition` plans and executes a safe migration between link
//! sets; this module is the glue that makes it *durable*:
//!
//! * [`JournalingHooks`] journals every step as its own
//!   [`JournalEvent::TransitionStep`] record **before** touching the
//!   lease book (write-ahead discipline), so the journal always brackets
//!   exactly the lease operations that landed;
//! * [`run_transition`] is the live `BeginTransition` path:
//!   `TransitionBegun` → journaled steps → `TransitionCommitted` (or
//!   `TransitionAborted`);
//! * [`ReplayTracker`] replays transition records during startup
//!   recovery. `TransitionBegun` recomputes the deterministic target
//!   outcome; each `TransitionStep` re-applies exactly its lease
//!   operation (idempotently — the facade tolerates an already-booked
//!   add and an already-expired remove);
//! * [`finish_open_transition`] resolves a journal that ends
//!   mid-transition (the server died between step records): it hands the
//!   executor the recovered mid-walk set as `current` and the journaled
//!   pre-transition set as `original`, and the executor's own machine —
//!   forward, else unwind, else atomic restore — does the rest. Live and
//!   recovered walks run and close their journal transaction in one
//!   function, [`walk_and_close`], which keeps journaling, so crashing
//!   *again* during recovery is just another recoverable crash.
//!
//! The invariant all paths preserve: a `TransitionAborted` record means
//! the fabric is atomically back on the pre-transition link set, and a
//! `TransitionCommitted` record means it is on the new outcome's set —
//! replay and live execution agree on both.

use crate::journal::{CrashPoint, JournalEvent};
use crate::proto::{Response, TransitionSummary};
use crate::server::{journal_event, Shared};
use crate::shard::Global;
use poc_auction::AuctionOutcome;
use poc_core::lease::LeaseOpError;
use poc_core::poc::Poc;
use poc_flow::LinkSet;
use poc_topology::LinkId;
use poc_transition::{
    execute_transition, plan_transition, resume_transition, ExecError, PlanConfig, TransitionOp,
    TransitionOutcome, TransitionPlan, TransitionReport,
};

/// The traffic matrix a transition *targets*: the live matrix scaled by
/// the operator's demand knob (`None` is the identity). Only the target
/// outcome is computed under this forecast; planning and intermediate
/// verification run against the live matrix — that is the traffic the
/// fabric actually carries while the walk is in progress.
fn scaled_tm(
    tm: &poc_traffic::TrafficMatrix,
    demand_scale: Option<f64>,
) -> poc_traffic::TrafficMatrix {
    let mut tm = tm.clone();
    if let Some(s) = demand_scale {
        tm.scale(s);
    }
    tm
}

/// Apply one self-describing transition step to the facade. Adds are
/// priced from the outcome that actually selected the link: the new
/// outcome for forward steps, the still-current old outcome for
/// rollback re-adds (its lease terms are the ones being restored).
/// Replay uses the same function, so pricing is identical either way.
pub(crate) fn apply_step_to_poc(
    poc: &mut Poc,
    outcome: &AuctionOutcome,
    add: bool,
    link: LinkId,
) -> Result<(), LeaseOpError> {
    if add {
        if outcome.selected.contains(link) {
            poc.transition_add_link(outcome, link)
        } else {
            let old = poc.last_outcome().cloned();
            poc.transition_add_link(old.as_ref().unwrap_or(outcome), link)
        }
    } else {
        poc.transition_remove_link(link)
    }
}

/// [`poc_transition::TransitionHooks`] that journal each step before
/// applying it. An armed [`CrashPoint`] firing mid-journal is stashed in
/// `crashed` (the hook trait speaks `String` errors) and re-raised by
/// the caller so the server dies exactly as it does on every other
/// durability path.
pub(crate) struct JournalingHooks<'a> {
    shared: &'a Shared,
    poc: &'a mut Poc,
    outcome: &'a AuctionOutcome,
    pub crashed: Option<CrashPoint>,
}

impl<'a> JournalingHooks<'a> {
    pub fn new(shared: &'a Shared, poc: &'a mut Poc, outcome: &'a AuctionOutcome) -> Self {
        Self { shared, poc, outcome, crashed: None }
    }

    fn journal(&mut self, event: JournalEvent) -> Result<(), String> {
        match journal_event(self.shared, event) {
            Ok(None) => Ok(()),
            Ok(Some(_refusal)) => Err("durability failure journaling the step".into()),
            Err(p) => {
                self.crashed = Some(p);
                Err(format!("crash injected at {}", p.label()))
            }
        }
    }
}

impl poc_transition::TransitionHooks for JournalingHooks<'_> {
    fn apply_step(
        &mut self,
        _idx: usize,
        op: TransitionOp,
        _state_after: &LinkSet,
    ) -> Result<(), String> {
        self.journal(JournalEvent::TransitionStep { add: op.is_add(), link: op.link().0 })?;
        apply_step_to_poc(self.poc, self.outcome, op.is_add(), op.link()).map_err(|e| e.to_string())
    }

    fn force_restore(&mut self, links: &LinkSet) -> Result<(), String> {
        // Invariant: these hooks deliver no events (no `poll_events`), so
        // nothing edits the executor's original set and `links` is the
        // pre-transition set the walk was started with — the one state a
        // `TransitionAborted` record replays to.
        self.journal(JournalEvent::TransitionAborted)?;
        self.poc.force_install(links);
        Ok(())
    }
}

/// The operator's summary of a finished walk. `replayed` is set for a
/// recovered walk: the steps a crashed server had journaled before
/// recovery took over.
fn summarize(
    report: &TransitionReport,
    poc: &Poc,
    n_from: usize,
    replayed: Option<usize>,
) -> TransitionSummary {
    TransitionSummary {
        outcome: match report.outcome {
            TransitionOutcome::Committed => "committed",
            TransitionOutcome::RolledBack => "rolled_back",
            TransitionOutcome::ForceRestored => "force_restored",
        }
        .into(),
        steps_applied: (replayed.unwrap_or(0) + report.steps_applied) as u64,
        replans: report.replans,
        rollbacks: report.rollbacks,
        n_from_links: n_from,
        n_final_links: poc.installed_links().map_or(0, LinkSet::len),
        recovered: replayed.is_some(),
    }
}

/// The live `BeginTransition` path, called under the global lock. The
/// preconditions (an installed fabric, a computable target outcome) are
/// checked *before* the `TransitionBegun` record lands, so a journaled
/// begin always replays into an open transition.
pub(crate) fn run_transition(
    shared: &Shared,
    g: &mut Global,
    max_extra_links: Option<usize>,
    demand_scale: Option<f64>,
) -> Result<Response, CrashPoint> {
    if let Some(s) = demand_scale {
        if !(s.is_finite() && s > 0.0) {
            return Ok(Response::Error {
                message: format!("demand_scale must be a positive finite factor, got {s}"),
            });
        }
    }
    let forecast = scaled_tm(&g.tm, demand_scale);
    let Some(from) = g.poc.installed_links().cloned() else {
        return Ok(Response::Error {
            message: "no installed fabric to transition from; run an auction first".into(),
        });
    };
    let outcome = match g.poc.compute_auction_outcome(&forecast) {
        Ok(o) => o,
        Err(e) => return Ok(Response::Error { message: e.to_string() }),
    };
    if let Some(refusal) =
        journal_event(shared, JournalEvent::TransitionBegun { max_extra_links, demand_scale })?
    {
        return Ok(refusal);
    }

    // The walk is verified against the live matrix: the current set was
    // selected under it (so a safe first step always exists), and it is
    // what members ride on between steps. The forecast only picks the
    // destination.
    let cfg = PlanConfig { max_extra_links };
    let constraint = g.poc.config().constraint;
    match plan_transition(g.poc.topo(), &g.tm, constraint, &from, &outcome.selected, &cfg) {
        Ok(plan) => walk_and_close(shared, g, outcome, &from, &cfg, Start::Planned(plan)),
        Err(e) => {
            // Nothing was applied; close the journal transaction.
            if let Some(refusal) = journal_event(shared, JournalEvent::TransitionAborted)? {
                return Ok(refusal);
            }
            Ok(Response::Error { message: format!("transition not started: {e}") })
        }
    }
}

/// Where a walk starts.
enum Start {
    /// Live: on the pre-transition set, holding the plan that proved a
    /// safe order exists.
    Planned(TransitionPlan),
    /// Recovery: on whatever set the journal's replayed steps left
    /// installed.
    Recovered { steps_replayed: usize },
}

/// Run one walk toward `outcome` under [`JournalingHooks`] and close its
/// journal transaction — the only place a walk's `TransitionCommitted`
/// or `TransitionAborted` is written (the hook's atomic restore aside).
/// `original` is the pre-transition set: where the executor unwinds to,
/// and what an abort restores.
fn walk_and_close(
    shared: &Shared,
    g: &mut Global,
    outcome: AuctionOutcome,
    original: &LinkSet,
    cfg: &PlanConfig,
    start: Start,
) -> Result<Response, CrashPoint> {
    let topo = g.poc.topo().clone();
    let constraint = g.poc.config().constraint;
    let mut hooks = JournalingHooks::new(shared, &mut g.poc, &outcome);
    let (result, replayed) = match start {
        Start::Planned(plan) => {
            (execute_transition(&topo, &g.tm, constraint, cfg, plan, &mut hooks), None)
        }
        Start::Recovered { steps_replayed } => {
            let current = hooks.poc.installed_links().unwrap_or(original).clone();
            let (target, original) = (outcome.selected.clone(), original.clone());
            let result = resume_transition(
                &topo, &g.tm, constraint, cfg, current, target, original, &mut hooks,
            );
            (result, Some(steps_replayed))
        }
    };
    let crashed = hooks.crashed;
    let report = match result {
        Ok(report) => report,
        Err(ExecError::Hook { step, reason }) => {
            if let Some(p) = crashed {
                return Err(p);
            }
            // A lease operation or journal append refused mid-flight.
            // Every applied step *is* journaled, so closing with an abort
            // record and restoring atomically keeps memory and journal in
            // agreement. If even the abort record cannot land, leave the
            // mid-state as is: it matches the journal exactly, and the
            // next restart resolves it through recovery.
            return Ok(Response::Error {
                message: match journal_event(shared, JournalEvent::TransitionAborted)? {
                    None => {
                        g.poc.force_install(original);
                        format!("transition aborted at step {step}: {reason}")
                    }
                    Some(_refusal) => format!(
                        "transition wedged at step {step} ({reason}); durability is failing — \
                         restart to recover"
                    ),
                },
            });
        }
    };
    let recovered_as = match report.outcome {
        TransitionOutcome::Committed => {
            if let Some(refusal) = journal_event(shared, JournalEvent::TransitionCommitted)? {
                return Ok(refusal);
            }
            g.poc.commit_transition(outcome);
            poc_obs::counter!("transition.recovered.resumed")
        }
        TransitionOutcome::RolledBack => {
            // The executor already walked back to `original` through
            // journaled steps; this record closes the transaction.
            if let Some(refusal) = journal_event(shared, JournalEvent::TransitionAborted)? {
                return Ok(refusal);
            }
            poc_obs::counter!("transition.recovered.rolled_back")
        }
        // `force_restore` journaled the abort and restored already.
        TransitionOutcome::ForceRestored => poc_obs::counter!("transition.recovered.forced"),
    };
    if replayed.is_some() {
        recovered_as.inc();
    }
    let summary = summarize(&report, &g.poc, original.len(), replayed);
    g.last_transition = Some(summary.clone());
    Ok(Response::TransitionDone(summary))
}

/// Replay-side state of one in-flight transition.
pub(crate) struct OpenTransition {
    pub outcome: AuctionOutcome,
    /// The installed set when the transition began — what an abort
    /// restores.
    pub original: LinkSet,
    pub max_extra_links: Option<usize>,
    pub steps_replayed: usize,
}

/// Absorbs transition records during journal replay. Non-transition
/// events pass through untouched ([`ReplayTracker::absorb`] returns
/// `false`); a journal ending with an open transition is resolved by
/// [`finish_open_transition`] after replay.
#[derive(Default)]
pub(crate) struct ReplayTracker {
    open: Option<OpenTransition>,
}

impl ReplayTracker {
    /// Absorb one replayed event if it belongs to the transition family.
    pub fn absorb(&mut self, shared: &Shared, event: &JournalEvent) -> bool {
        match event {
            JournalEvent::TransitionBegun { max_extra_links, demand_scale } => {
                let g = shared.state.global.lock();
                let tm = scaled_tm(&g.tm, *demand_scale);
                let original = g.poc.installed_links().cloned();
                let outcome = g.poc.compute_auction_outcome(&tm).ok();
                drop(g);
                // The live path checks both preconditions before
                // journaling the begin record, so these recompute
                // deterministically; `None` here would mean a journal
                // from a different program version — ignore the family.
                self.open = original.zip(outcome).map(|(original, outcome)| OpenTransition {
                    outcome,
                    original,
                    max_extra_links: *max_extra_links,
                    steps_replayed: 0,
                });
                true
            }
            JournalEvent::TransitionStep { add, link } => {
                if let Some(open) = &mut self.open {
                    let mut g = shared.state.global.lock();
                    let _ = apply_step_to_poc(&mut g.poc, &open.outcome, *add, LinkId(*link));
                    open.steps_replayed += 1;
                }
                true
            }
            JournalEvent::TransitionCommitted => {
                if let Some(open) = self.open.take() {
                    let mut g = shared.state.global.lock();
                    g.poc.commit_transition(open.outcome);
                }
                true
            }
            JournalEvent::TransitionAborted => {
                if let Some(open) = self.open.take() {
                    let mut g = shared.state.global.lock();
                    g.poc.force_install(&open.original);
                }
                true
            }
            _ => false,
        }
    }

    /// A transition the journal never closed, if any.
    pub fn take_open(self) -> Option<OpenTransition> {
        self.open
    }
}

/// Resolve a journal that ended mid-transition: the executor resumes
/// from the recovered installed set toward the target and, failing that,
/// unwinds to the journaled pre-transition set, all under the walk's own
/// lease budget. New records are journaled throughout, so recovery
/// itself is crash-resumable. A typed refusal (the journal is failing)
/// leaves the mid-state matching the journal for the next restart.
pub(crate) fn finish_open_transition(
    shared: &Shared,
    open: OpenTransition,
) -> Result<(), CrashPoint> {
    poc_obs::counter!("transition.recovered").inc();
    let mut g = shared.state.global.lock();
    let OpenTransition { outcome, original, max_extra_links, steps_replayed } = open;
    let cfg = PlanConfig { max_extra_links };
    let start = Start::Recovered { steps_replayed };
    walk_and_close(shared, &mut g, outcome, &original, &cfg, start).map(|_response| ())
}
