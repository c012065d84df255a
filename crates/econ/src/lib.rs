//! The paper's economic model of network neutrality (§4).
//!
//! A unit mass of consumers buys from `S` independent CSPs through `L`
//! LMPs. Each CSP `s` has a willingness-to-pay distribution `F_s` inducing
//! a demand curve `D_s(p) = 1 − F_s(p)`. Three regimes are compared:
//!
//! * **NN** (network neutrality): no termination fees; each CSP posts the
//!   monopoly price `p*_s = argmax p·D_s(p)`.
//! * **UR-unilateral**: each LMP unilaterally sets the revenue-maximizing
//!   termination fee `t*_s = argmax t·D_s(p_s(t))`, the CSP responds with
//!   `p_s(t) = argmax (p−t)·D_s(p)` — "double marginalization".
//! * **UR-bargaining**: fees from the Nash bargaining solution,
//!   `t_s = (p_s − r_l^s c_l)/2`, renegotiated to the fixed point
//!   `t* = (p_s(t*) − ⟨rc⟩_s)/2`.
//!
//! The paper's analytic results, which the experiment suite regenerates:
//! Lemma 1 (`p_s(t)` strictly increasing under smooth convex vanishing
//! demand), social welfare strictly decreasing in fees (so
//! `W_NN ≥ W_NBS ≥ W_unilateral`), and the incumbent advantage — fees
//! decrease in the churn rate `r_l^s`, so large LMPs (low churn loss)
//! extract more and large CSPs (high churn threat) pay less.

pub mod demand;
pub mod entry;
pub mod fees;
pub mod lemma;
pub mod model;
pub mod welfare;

pub use demand::{Demand, Exponential, Linear, Logistic, ParetoTail};
pub use entry::{deterrence_band, entry_decision, EntryOutcome};
pub use fees::{bargaining_equilibrium, nbs_fee, unilateral_fee, BargainingOutcome};
pub use model::{CspKind, Economy, LmpKind, Regime, RegimeReport};
pub use welfare::{consumer_surplus, social_welfare};
