//! Discrete-event simulation of the POC fabric.
//!
//! The paper's POC is "a transparent fabric" between attachment points
//! (§1.2); this crate simulates it. The packet engine moves persistent
//! and on/off sources' packets over the leased links, meters per-member
//! usage for the settlement ledger, and throttles traffic classes for the
//! neutrality-enforcement experiment. The failure drill keeps the one
//! thing the engine lacks, link outages with rerouting, as its own fluid
//! sweep over split, pinned traffic-engineered placement.
//!
//! * [`fairness`] — progressive-filling max-min fair rate allocation;
//! * [`engine`] — the packet-level discrete-event core: ns-resolution
//!   event queue of propagation-pipe exits, directional FIFO links that
//!   compute each departure on acceptance (Lindley's recursion) and
//!   tail-drop at full buffers, store-and-forward + propagation latency,
//!   millions of user-flows, ingress throttles;
//! * [`drill`] — failure drills measuring delivered-traffic availability
//!   by a fluid sweep over outage windows (experiment E-R1), plus
//!   mid-transition drills that cut and recall links while a lease
//!   migration is in flight and prove the executor replans instead of
//!   ever applying an infeasible intermediate set;
//! * [`discrim`] — the throttling detector over the engine's per-class
//!   goodput (experiment E-N1's data-plane half).

pub mod discrim;
pub mod drill;
pub mod engine;
pub mod fairness;

pub use discrim::detect_throttling;
pub use drill::{
    run_drill, run_transition_drill, DrillError, DrillReport, DrillSpec, TransitionDrillError,
    TransitionDrillReport, TransitionDrillSpec,
};
pub use engine::{
    Engine, EngineConfig, EngineError, EngineReport, IngressThrottle, LinkDrops, LinkLoad,
    SourceKind, TagStats,
};
pub use fairness::max_min_rates;
