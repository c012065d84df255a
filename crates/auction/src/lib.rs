//! The POC's strategy-proof bandwidth auction (paper §3.3).
//!
//! Each Bandwidth Provider α offers a set of links `L_α` with a minimal
//! acceptable price for each subset (`C_α : 2^{L_α} → $`, non-additive
//! pricing allowed). External ISPs contribute contract-priced *virtual
//! links* `VL`. Over the offered set `OL = VL ∪ ⋃_α L_α` the POC picks the
//! cheapest subset that satisfies its feasibility constraints,
//!
//! ```text
//! SL = argmin C(L)  where  L ∈ A(OL),
//! ```
//!
//! and pays each BP by the Clarke pivot rule,
//!
//! ```text
//! P_α = C_α(SL_α) + ( C(SL_−α) − C(SL) ),
//! ```
//!
//! where `SL_−α` re-runs the selection with α's links withdrawn. The pivot
//! term makes truthful cost revelation a dominant strategy (for an exact
//! optimizer) and Figure 2 reports the resulting *payment-over-bid* margins
//! `PoB = (P_α − C_α(SL_α)) / C_α(SL_α)`.
//!
//! Module map: [`bids`] the bid language, [`market`] the offered-link
//! market, [`select`] cheapest-acceptable-set optimizers (greedy+prune for
//! paper scale, exhaustive for tests), [`vcg`] payments and outcomes,
//! [`collusion`] the §3.3 link-withholding experiments.

pub mod bids;
pub mod collusion;
pub mod market;
pub mod select;
pub mod vcg;

pub use bids::{BpBid, SubsetPricing};
pub use market::{Market, MarketError};
pub use select::{
    CompositeSelector, ExhaustiveSelector, ForwardGreedySelector, GreedySelector, SelectionResult,
    Selector,
};
pub use vcg::{run_auction, AuctionOutcome, BpSettlement};
