//! The Public Option for the Core — the POC control plane.
//!
//! This crate assembles the paper's proposal (§1.2, §3) as a runnable
//! system on top of the substrates:
//!
//! * [`entity`] — the ecosystem registry: LMPs, CSPs, BPs, external ISPs,
//!   and where they attach to the POC fabric;
//! * [`tos`] — the terms-of-service: the §3.4 peering conditions as an
//!   executable neutrality-enforcement engine distinguishing posted-price
//!   QoS (allowed) from source/destination discrimination (violation);
//! * [`settlement`] — the §3.2 payment structure as a double-entry ledger:
//!   everyone pays directly for what they receive, and the nonprofit POC
//!   breaks even;
//! * [`lease`] — the lease lifecycle: auction outcomes become monthly
//!   leases; BPs can recall links (the paper's overbuy-then-recall story),
//!   which flags a re-auction;
//! * [`fabric`] — the forwarding state installed from the selected link
//!   set: next-hop tables, path queries;
//! * [`services`] — the §3.1 optional offerings: anycast, multicast, and
//!   openly-priced QoS tiers;
//! * [`poc`] — the facade tying it together: attach members, run auction
//!   rounds, install fabrics, run billing cycles.

pub mod entity;
pub mod fabric;
pub mod lease;
pub mod poc;
pub mod services;
pub mod settlement;
pub mod tos;

pub use entity::{EntityId, EntityKind, Registry};
pub use fabric::ForwardingState;
pub use lease::{Lease, LeaseBook, LeaseOpError, LeaseState};
pub use poc::{BillingSummary, Poc, PocConfig};
pub use services::{AnycastGroup, MulticastTree, QosCatalog, QosTier};
pub use settlement::{Account, Ledger, Posting};
pub use tos::{PolicyAction, PolicyBasis, TrafficPolicy, Verdict};
