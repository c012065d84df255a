//! Flow-level discrete-event simulation of the POC fabric.
//!
//! The paper's POC is "a transparent fabric" between attachment points
//! (§1.2); this crate simulates it at flow granularity: persistent and
//! on/off flows between routers, max-min fair bandwidth sharing on the
//! leased links, link failures with rerouting, per-member usage accounting
//! that feeds the settlement ledger, and observable-throughput evidence
//! for the neutrality-enforcement experiments.
//!
//! * [`fairness`] — progressive-filling max-min fair rate allocation;
//! * [`sim`] — the flow-level event loop: flow arrivals/departures, link
//!   down/up, rerouting, usage metering;
//! * [`engine`] — the packet-level discrete-event core: ns-resolution
//!   event queue, directional FIFO link buffers with tail drops,
//!   store-and-forward + propagation latency, millions of user-flows;
//! * [`drill`] — failure drills measuring delivered-traffic availability
//!   (experiment E-R1), plus mid-transition drills that cut and recall
//!   links while a lease migration is in flight and prove the executor
//!   replans instead of ever applying an infeasible intermediate set;
//! * [`discrim`] — throttling injection and its observable goodput
//!   signature (experiment E-N1's data-plane half).

pub mod discrim;
pub mod drill;
pub mod engine;
pub mod fairness;
pub mod sim;
pub mod workload;

pub use discrim::{detect_throttling, detect_throttling_packets, ThrottleSpec};
pub use drill::{
    run_drill, run_transition_drill, DrillError, DrillReport, DrillSpec, TransitionDrillError,
    TransitionDrillReport, TransitionDrillSpec,
};
pub use engine::{Engine, EngineConfig, EngineError, EngineReport, LinkLoad, SourceKind, TagStats};
pub use fairness::max_min_rates;
pub use sim::{FlowSpec, SimConfig, SimError, SimReport, Simulator};
pub use workload::{generate_onoff, WorkloadConfig};
