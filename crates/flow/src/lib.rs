//! Routing and feasibility substrate for the POC.
//!
//! The bandwidth auction (paper §3.3) needs an *acceptability oracle*: given
//! a set of offered links `OL`, decide whether a candidate subset can
//! (i) carry the POC's upper-bound traffic matrix and (ii) meet additional
//! constraints such as surviving path failures. The paper evaluates three
//! constraint levels (Figure 2):
//!
//! * **Constraint #1** — the links handle the offered load;
//! * **Constraint #2** — they still do assuming any single path between a
//!   pair of routers has failed;
//! * **Constraint #3** — they do assuming a path between *each* pair of
//!   routers has failed.
//!
//! This crate implements the machinery: a bitset [`LinkSet`] over offered
//! links, a capacity-aware [`graph::CapacityGraph`], a greedy
//! multi-commodity router with flow splitting ([`route`]), Dinic max-flow
//! ([`maxflow`]) as an exact single-commodity oracle, failure-scenario
//! checking ([`failure`]), the top-level [`oracle::FeasibilityOracle`]
//! with the cut certificates ([`cut`]) that spare it a routing pass on
//! sets already proven infeasible and the early stop that ends a losing
//! pass at the first router it can no longer serve, and its incremental
//! counterpart [`warm::WarmOracle`] that warm-starts the auction's
//! Clarke-pivot probes from the previous accepted routing.

pub mod cut;
pub mod failure;
pub mod graph;
mod linkset;
pub mod maxflow;
pub mod oracle;
pub mod route;
pub mod warm;

pub use cut::CutCertificate;
pub use failure::FailReason;
pub use graph::CapacityGraph;
pub use linkset::LinkSet;
pub use maxflow::FlowError;
pub use oracle::{
    instance_fingerprint, AcceptabilityOracle, CacheMismatch, Constraint, FeasibilityCache,
    FeasibilityOracle, Rejection,
};
pub use route::{route_tm, sorted_demands, RouteError, Routing};
pub use warm::{WarmOracle, WarmOutcome};
