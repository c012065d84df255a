//! Synthetic traffic-matrix substrate.
//!
//! The paper's auction (§3.3) assumes "some upper-bound estimate of its
//! traffic matrix (how much traffic flows between each pair of attachment
//! points)" and evaluates on "a synthetic traffic matrix between all POC
//! routers". This crate generates such matrices with the gravity model
//! (the standard synthetic WAN workload) and provides the [`TrafficMatrix`] container consumed by the feasibility
//! oracle, the failure drills and the packet engine.

pub mod arrivals;
pub mod matrix;
pub mod models;

pub use arrivals::{pair_demands, total_user_flows, PairDemand, UserFlowModel};
pub use matrix::TrafficMatrix;
pub use models::TrafficScenario;
