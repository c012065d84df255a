//! E-W1 — §4.3/4.4 social welfare by regime: NN ≥ UR-bargaining ≥
//! UR-unilateral, with consumer surplus highest under NN.

use poc_econ::Economy;

fn main() {
    let economy = Economy::example();
    let reports = economy.compare_regimes();
    println!("\n=== E-W1 / §4 welfare by regime ===");
    println!("{:<16}{:>10}{:>12}{:>10}", "regime", "welfare", "consumer CS", "fees");
    for r in &reports {
        println!(
            "{:<16}{:>10.2}{:>12.2}{:>10.2}",
            r.regime.label(),
            r.total_welfare(),
            r.total_consumer_surplus(),
            r.total_fees()
        );
    }
    let [nn, uni, nbs] = &reports;
    println!(
        "W_NN ≥ W_NBS ≥ W_unilateral: {}",
        nn.total_welfare() >= nbs.total_welfare() - 1e-9
            && nbs.total_welfare() >= uni.total_welfare() - 1e-9
    );
    println!("\nper-CSP prices (fees raise prices, Lemma 1 at work):");
    println!("{:<26}{:>8}{:>10}{:>10}", "CSP", "NN", "UR-uni", "UR-NBS");
    for i in 0..economy.csps.len() {
        println!(
            "{:<26}{:>8.2}{:>10.2}{:>10.2}",
            economy.csps[i].name, nn.per_csp[i].price, uni.per_csp[i].price, nbs.per_csp[i].price
        );
    }
}
