//! E-L1 — Lemma 1: the CSP's best-response price p*(t) is strictly
//! increasing in the termination fee for every demand family meeting the
//! lemma's hypotheses (and, as the paper's sufficiency caveat predicts,
//! even for linear demand which violates them).

use poc_econ::demand::{Exponential, Linear, Logistic, ParetoTail};
use poc_econ::lemma::{is_strictly_increasing, price_response_curve};
use poc_econ::Demand;

fn main() {
    println!("\n=== E-L1 / Lemma 1: p*(t) sweeps ===");
    let families: Vec<(&str, Box<dyn Demand>)> = vec![
        ("exponential λ=0.1", Box::new(Exponential::new(0.1))),
        ("pareto σ=5 k=2", Box::new(ParetoTail::new(5.0, 2.0))),
        ("logistic μ=15 s=4", Box::new(Logistic::new(15.0, 4.0))),
        ("linear b=40 (violates hypotheses)", Box::new(Linear::new(40.0))),
    ];
    print!("{:<36}", "family \\ t");
    for t in [0.0, 4.0, 8.0, 12.0, 16.0, 20.0] {
        print!("{t:>8.1}");
    }
    println!("{:>14}", "monotone?");
    for (name, d) in &families {
        let curve = price_response_curve(d.as_ref(), 20.0, 6);
        print!("{name:<36}");
        for (_, p) in &curve {
            print!("{p:>8.2}");
        }
        println!("{:>14}", is_strictly_increasing(&curve, 1e-6));
    }
}
