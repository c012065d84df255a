//! The traffic-matrix container.

use poc_topology::RouterId;
use serde::{Deserialize, Serialize};

/// A dense origin-destination demand matrix over `n` POC routers, Gbit/s.
///
/// Demands are directed: `demand(a, b)` is traffic entering the POC at
/// router `a` destined to router `b`. The diagonal is always zero.
///
/// ```
/// use poc_traffic::TrafficMatrix;
/// use poc_topology::RouterId;
///
/// let mut tm = TrafficMatrix::zero(3);
/// tm.set(RouterId(0), RouterId(2), 40.0);
/// tm.set(RouterId(2), RouterId(0), 10.0);
/// tm.scale_to_total(100.0);
/// assert_eq!(tm.demand(RouterId(0), RouterId(2)), 80.0);
/// assert_eq!(tm.n_flows(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    n: usize,
    /// Row-major `n × n`, Gbit/s.
    demand: Vec<f64>,
}

impl TrafficMatrix {
    /// An all-zero matrix over `n` routers.
    pub fn zero(n: usize) -> Self {
        Self { n, demand: vec![0.0; n * n] }
    }

    pub fn n_routers(&self) -> usize {
        self.n
    }

    /// Demand from `a` to `b`, Gbit/s.
    #[inline]
    pub fn demand(&self, a: RouterId, b: RouterId) -> f64 {
        self.demand[a.index() * self.n + b.index()]
    }

    /// Set the demand from `a` to `b`.
    ///
    /// # Panics
    /// Panics on the diagonal or on invalid values.
    pub fn set(&mut self, a: RouterId, b: RouterId, gbps: f64) {
        assert!(a != b, "no self-demand");
        assert!(gbps.is_finite() && gbps >= 0.0, "invalid demand");
        self.demand[a.index() * self.n + b.index()] = gbps;
    }

    /// Total offered load, Gbit/s.
    pub fn total(&self) -> f64 {
        self.demand.iter().sum()
    }

    /// Largest single demand, Gbit/s.
    pub fn max_demand(&self) -> f64 {
        self.demand.iter().copied().fold(0.0, f64::max)
    }

    /// Multiply every demand by `factor` (capacity-planning headroom).
    pub fn scale(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "invalid scale factor");
        for d in &mut self.demand {
            *d *= factor;
        }
    }

    /// Clamp every demand at `cap` Gbit/s.
    pub fn cap_demands(&mut self, cap: f64) {
        assert!(cap.is_finite() && cap > 0.0, "invalid demand cap");
        for d in &mut self.demand {
            if *d > cap {
                *d = cap;
            }
        }
    }

    /// Rescale so the total offered load equals `total_gbps`.
    /// No-op on an all-zero matrix.
    pub fn scale_to_total(&mut self, total_gbps: f64) {
        let t = self.total();
        if t > 0.0 {
            self.scale(total_gbps / t);
        }
    }

    /// Iterate over the non-zero directed demands as `(src, dst, gbps)`.
    pub fn iter_demands(&self) -> impl Iterator<Item = (RouterId, RouterId, f64)> + '_ {
        let n = self.n;
        self.demand
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0.0)
            .map(move |(i, &d)| (RouterId::from_index(i / n), RouterId::from_index(i % n), d))
    }

    /// Number of strictly positive demands.
    pub fn n_flows(&self) -> usize {
        self.demand.iter().filter(|&&d| d > 0.0).count()
    }

    /// Whether `other` holds the same demands bit for bit
    /// (`f64::to_bits`), which `==` does not say: it reads `0.0 == -0.0`.
    pub fn same_bits(&self, other: &Self) -> bool {
        self.n == other.n
            && self.demand.iter().zip(&other.demand).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    #[test]
    fn zero_matrix_has_no_flows() {
        let tm = TrafficMatrix::zero(5);
        assert_eq!(tm.total(), 0.0);
        assert_eq!(tm.n_flows(), 0);
        assert_eq!(tm.iter_demands().count(), 0);
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut tm = TrafficMatrix::zero(3);
        tm.set(r(0), r(2), 4.5);
        tm.set(r(2), r(0), 1.5);
        assert_eq!(tm.demand(r(0), r(2)), 4.5);
        assert_eq!(tm.demand(r(2), r(0)), 1.5);
        assert_eq!(tm.total(), 6.0);
        assert_eq!(tm.n_flows(), 2);
        assert_eq!(tm.max_demand(), 4.5);
    }

    #[test]
    #[should_panic(expected = "no self-demand")]
    fn self_demand_rejected() {
        TrafficMatrix::zero(3).set(r(1), r(1), 1.0);
    }

    #[test]
    fn scale_to_total_hits_target() {
        let mut tm = TrafficMatrix::zero(3);
        tm.set(r(0), r(1), 2.0);
        tm.set(r(1), r(2), 6.0);
        tm.scale_to_total(100.0);
        assert!((tm.total() - 100.0).abs() < 1e-9);
        // Relative proportions preserved.
        assert!((tm.demand(r(1), r(2)) / tm.demand(r(0), r(1)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn scale_to_total_on_zero_is_noop() {
        let mut tm = TrafficMatrix::zero(2);
        tm.scale_to_total(10.0);
        assert_eq!(tm.total(), 0.0);
    }

    #[test]
    fn iter_demands_yields_sorted_flat_order() {
        let mut tm = TrafficMatrix::zero(3);
        tm.set(r(2), r(0), 1.0);
        tm.set(r(0), r(1), 2.0);
        let v: Vec<_> = tm.iter_demands().collect();
        assert_eq!(v, vec![(r(0), r(1), 2.0), (r(2), r(0), 1.0)]);
    }

    #[test]
    fn same_bits_tells_a_negative_zero_and_a_scale_apart() {
        let mut a = TrafficMatrix::zero(3);
        a.set(r(0), r(1), 0.1);
        let mut b = a.clone();
        assert!(a.same_bits(&b));
        b.scale(1.0);
        assert!(a.same_bits(&b), "x1.0 keeps every bit");
        b.set(r(2), r(0), -0.0);
        assert!(a == b && !a.same_bits(&b));
        let mut c = a.clone();
        c.scale(1.5);
        assert!(!a.same_bits(&c));
        assert!(!a.same_bits(&TrafficMatrix::zero(2)));
    }
}
