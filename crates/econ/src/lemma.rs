//! Numerical verification of Lemma 1 (experiment E-L1).
//!
//! Lemma 1: if `D` is strictly positive with continuous first and second
//! derivatives, strictly decreasing, strictly convex, and asymptotically
//! vanishing, then the CSP's best-response price `p*(t)` is strictly
//! increasing in the termination fee `t`. [`price_response_curve`] sweeps
//! `t` and [`is_strictly_increasing`] checks the conclusion; together they
//! regenerate the lemma as an executable experiment.

use crate::demand::Demand;
use crate::fees::monopoly_price;

/// Sample `(t, p*(t))` over `n` evenly spaced fees in `[0, t_max]`.
pub fn price_response_curve(demand: &dyn Demand, t_max: f64, n: usize) -> Vec<(f64, f64)> {
    assert!(t_max > 0.0 && n >= 2, "need a positive sweep with >= 2 samples");
    (0..n)
        .map(|i| {
            let t = t_max * i as f64 / (n - 1) as f64;
            (t, monopoly_price(demand, t))
        })
        .collect()
}

/// Whether successive prices strictly increase (tolerating solver noise of
/// `tol` in the flat direction).
pub fn is_strictly_increasing(curve: &[(f64, f64)], tol: f64) -> bool {
    curve.windows(2).all(|w| w[1].1 > w[0].1 - tol && w[1].1 >= w[0].1 - tol)
        && curve.last().map(|l| l.1).unwrap_or(0.0) > curve.first().map(|f| f.1).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{Exponential, Linear, Logistic, ParetoTail};

    #[test]
    fn lemma_holds_for_exponential() {
        let d = Exponential::new(0.15);
        let curve = price_response_curve(&d, 20.0, 41);
        assert!(is_strictly_increasing(&curve, 1e-6));
        // Slope is exactly 1 for the exponential: p*(t) = t + 1/λ.
        let slope = (curve[40].1 - curve[0].1) / 20.0;
        assert!((slope - 1.0).abs() < 1e-4, "slope {slope}");
    }

    #[test]
    fn lemma_holds_for_pareto() {
        let d = ParetoTail::new(5.0, 2.0);
        let curve = price_response_curve(&d, 10.0, 21);
        assert!(is_strictly_increasing(&curve, 1e-6));
        // Slope k/(k−1) = 2 for k = 2.
        let slope = (curve[20].1 - curve[0].1) / 10.0;
        assert!((slope - 2.0).abs() < 1e-3, "slope {slope}");
    }

    #[test]
    fn lemma_conclusion_even_for_linear() {
        // Linear demand violates the hypotheses yet p*(t) = (b+t)/2 still
        // increases — sufficiency, not necessity.
        let d = Linear::new(40.0);
        let curve = price_response_curve(&d, 30.0, 31);
        assert!(is_strictly_increasing(&curve, 1e-6));
    }

    #[test]
    fn lemma_holds_for_logistic_sweep() {
        let d = Logistic::new(20.0, 4.0);
        let curve = price_response_curve(&d, 15.0, 31);
        assert!(is_strictly_increasing(&curve, 1e-6));
    }
}
