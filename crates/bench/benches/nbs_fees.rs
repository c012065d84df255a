//! E-B1 — §4.5 incumbent advantage: the Nash-bargained fee
//! t = (p − r·c)/2 falls with the churn rate r, so incumbent LMPs (low r)
//! extract more and incumbent CSPs (high churn threat) pay less.

use poc_econ::fees::nbs_fee;
use poc_econ::Economy;

fn main() {
    println!("\n=== E-B1 / §4.5 NBS fee vs churn rate (p = 20, c = 50) ===");
    println!("{:>6}{:>10}", "r", "fee");
    for i in 0..=10 {
        let r = i as f64 / 25.0; // 0 .. 0.4
        println!("{r:>6.2}{:>10.2}", nbs_fee(20.0, r, 50.0));
    }
    println!("\nper-(CSP, LMP) fees in the example economy:");
    let economy = Economy::example();
    for (s, csp) in economy.csps.iter().enumerate() {
        println!("{}:", csp.name);
        for (lmp, r, fee) in economy.per_lmp_nbs_fees(s) {
            println!("  {lmp:<24} r = {r:>5.2}  t = {fee:>7.2}");
        }
    }
}
