//! E-EQ — §4.5 third model: the renegotiation fixed point
//! t* = (p*(t*) − ⟨rc⟩)/2 exists, is unique in practice, and the iterated
//! best-response converges for every demand family.

use poc_econ::demand::{Exponential, Logistic, ParetoTail};
use poc_econ::fees::bargaining_equilibrium;
use poc_econ::Demand;

fn main() {
    println!("\n=== E-EQ / §4.5 renegotiation fixed points ===");
    let families: Vec<(&str, Box<dyn Demand>)> = vec![
        ("exponential λ=0.1", Box::new(Exponential::new(0.1))),
        ("pareto σ=5 k=2.5", Box::new(ParetoTail::new(5.0, 2.5))),
        ("logistic μ=15 s=4", Box::new(Logistic::new(15.0, 4.0))),
    ];
    println!(
        "{:<22}{:>8}{:>10}{:>10}{:>8}{:>12}",
        "family", "⟨rc⟩", "t*", "p*(t*)", "iters", "converged"
    );
    for (name, d) in &families {
        for avg_rc in [0.0, 3.0, 9.0] {
            let out = bargaining_equilibrium(d.as_ref(), avg_rc);
            println!(
                "{name:<22}{avg_rc:>8.1}{:>10.3}{:>10.3}{:>8}{:>12}",
                out.fee, out.price, out.iterations, out.converged
            );
        }
    }
}
