//! Entry deterrence (experiment E-I1): the innovation cost of termination
//! fees, the §4.5 claim that fees "hinder innovation (by favoring
//! incumbents)" made quantitative.
//!
//! For exponential demand, prints the largest entry cost an entrant CSP
//! can recover under network neutrality and under bargained fees, across
//! churn threats, and under unilateral fees. The other §4 tables (Lemma 1,
//! welfare by regime, NBS fees, fixed points) are the `lemma1_monotonicity`,
//! `welfare_regimes`, `nbs_fees` and `equilibrium` benches.
//!
//! Run with: `cargo run --release --example neutrality_welfare`

use public_option_core::econ::entry::{deterrence_band, max_viable_entry_cost};
use public_option_core::econ::{Exponential, Regime};

fn main() {
    let demand = Exponential::new(0.1);
    println!("=== Entry deterrence: max viable entry cost by regime ===");
    println!("{:>8}{:>12}{:>12}{:>16}", "⟨rc⟩", "K_max(NN)", "K_max(UR)", "deterred band");
    for avg_rc in [0.2, 1.0, 3.0] {
        let (k_ur, k_nn) = deterrence_band(&demand, avg_rc);
        println!("{avg_rc:>8.1}{k_nn:>12.3}{k_ur:>12.3}{:>16.3}", k_nn - k_ur);
    }
    let k_uni = max_viable_entry_cost(&demand, 0.0, Regime::UnilateralFees);
    println!(
        "under unilateral fees viability drops to K ≤ {k_uni:.3} — every innovation \
         with entry cost inside the band is foreclosed by the fee regime."
    );
}
