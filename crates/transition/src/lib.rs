//! Safe auction-to-auction transitions for the POC.
//!
//! When a re-auction selects a different link set than the one the fabric
//! is installed on (a BP recalled a link, prices moved, demand shifted),
//! the POC cannot atomically swap thousands of leases: links are added
//! and removed one operation at a time, and the fabric between those
//! operations is what members actually ride on. This crate makes that
//! migration *safe*:
//!
//! * [`plan::Invariants`] states once what every intermediate link set of
//!   a walk must satisfy: it holds no more than the lease budget
//!   (`max(|from|, |to|) + max_extra_links`), and it is **feasible and
//!   resilient** under the operating [`Constraint`](poc_flow::Constraint)
//!   — verified with the incremental
//!   [`WarmOracle`](poc_flow::WarmOracle), carrying the routing witness
//!   from step to step. The planner, the executor and the drill in
//!   `poc-netsim` each admit states through their own.
//! * [`plan::plan_transition`] orders the lease add/remove operations so
//!   that every intermediate set is admitted. A greedy order that
//!   dead-ends is repaired by backtracking; if no safe order exists at
//!   all, the typed [`TransitionError::NoSafePlan`] says so rather than
//!   shipping an unsafe plan.
//! * [`exec::execute_transition`] runs a plan round by round (a round is
//!   a run of consecutive same-kind operations), re-admitting each
//!   round's states in plan order through `Invariants` built exactly as
//!   the planner's were, and applying each step
//!   through [`exec::TransitionHooks`] so a controller can journal it
//!   durably before touching the lease book. Mid-flight events — link
//!   cuts, BP recalls — trigger a replan toward the (possibly shrunken)
//!   target; when no safe forward plan remains, the executor plans a
//!   rollback to the original set, and as a last resort force-restores
//!   it atomically. [`exec::resume_transition`] enters the same loop
//!   part-way through a walk, with the set it began on as an argument.
//!
//! The control plane (`poc-ctrlplane`) journals every step as its own
//! record, so a controller killed at any crash point recovers into
//! "resume the remaining steps" or "roll back the applied ones" — never a
//! half-migrated lease book.

pub mod exec;
pub mod plan;

pub use exec::{
    execute_transition, resume_transition, ExecError, TransitionEvent, TransitionHooks,
    TransitionOutcome, TransitionReport,
};
pub use plan::{
    plan_transition, Invariants, PlanConfig, TransitionError, TransitionOp, TransitionPlan,
};
