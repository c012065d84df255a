//! Traffic-matrix generator.
//!
//! One synthetic workload family, seeded and deterministic: the classic
//! WAN **gravity** model, demand(a→b) ∝ w(a)·w(b) × a lognormal jitter,
//! where `w` is the city weight of the router's location. The Figure-2
//! reproduction and every example run on it.

use crate::matrix::TrafficMatrix;
use poc_topology::{PocTopology, RouterId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Per-pair demand ceiling, Gbit/s, applied after scaling: 1.5× the
/// largest (100G) link. Gravity matrices produce elephant pairs; the cap
/// keeps single demands routable without extreme splitting, so the
/// realized total may fall below `total_gbps` when it binds.
pub const DEMAND_CAP_GBPS: f64 = 150.0;

/// A complete workload description: jitter, seed, and target total load.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficScenario {
    /// Sigma of the gravity model's multiplicative lognormal-ish jitter
    /// (0 disables it).
    pub jitter_sigma: f64,
    pub seed: u64,
    /// Total offered load across all pairs before the cap, Gbit/s.
    pub total_gbps: f64,
}

impl TrafficScenario {
    /// The workload used by the Figure-2 reproduction: gravity with mild
    /// jitter, sized so the paper-scale topology runs at moderate load.
    pub fn paper_default() -> Self {
        Self { jitter_sigma: 0.3, seed: 42, total_gbps: 24000.0 }
    }

    /// Generate the matrix for `topo`: gravity demands scaled to
    /// `total_gbps`, then capped at [`DEMAND_CAP_GBPS`].
    pub fn generate(&self, topo: &PocTopology) -> TrafficMatrix {
        let n = topo.n_routers();
        let mut tm = TrafficMatrix::zero(n);
        if n < 2 {
            return tm;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let weights: Vec<f64> = topo.routers.iter().map(|r| topo.city(r.city).weight).collect();
        fill_gravity(&mut tm, &weights, self.jitter_sigma, &mut rng);
        tm.scale_to_total(self.total_gbps);
        tm.cap_demands(DEMAND_CAP_GBPS);
        tm
    }
}

fn fill_gravity(tm: &mut TrafficMatrix, weights: &[f64], sigma: f64, rng: &mut ChaCha8Rng) {
    let n = weights.len();
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let jitter = if sigma > 0.0 {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (sigma * z).exp()
            } else {
                1.0
            };
            tm.set(
                RouterId::from_index(a),
                RouterId::from_index(b),
                weights[a] * weights[b] * jitter,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
    use poc_topology::{CostModel, Fnv1a, ZooConfig, ZooGenerator};

    fn topo() -> PocTopology {
        ZooGenerator::new(ZooConfig::small()).generate()
    }

    /// FNV-1a over a matrix's JSON bytes: every demand, bit for bit.
    fn json_hash(tm: &TrafficMatrix) -> u64 {
        let mut h = Fnv1a::new();
        for b in serde_json::to_vec(tm).unwrap() {
            h.mix(b as u64);
        }
        h.finish()
    }

    #[test]
    fn scenarios_generate_the_pinned_matrices() {
        let paper = TrafficScenario::paper_default().generate(&topo());
        // The quickstart example's workload, on its topology.
        let mut quick = topo();
        attach_external_isps(&mut quick, &ExternalIspConfig::default(), &CostModel::default());
        let quickstart =
            TrafficScenario { jitter_sigma: 0.2, seed: 7, total_gbps: 2000.0 }.generate(&quick);
        let got = [paper, quickstart].map(|tm| format!("{:#018x}", json_hash(&tm)));
        assert_eq!(got, ["0x6ae0e03bab14c12f", "0x004816b5306b9ad7"]);
    }

    #[test]
    fn gravity_total_matches_target() {
        let t = topo();
        // A total whose largest pair stays under the cap.
        let s = TrafficScenario { total_gbps: 1000.0, ..TrafficScenario::paper_default() };
        let tm = s.generate(&t);
        assert!(tm.max_demand() < DEMAND_CAP_GBPS, "cap bound: {}", tm.max_demand());
        assert!((tm.total() - s.total_gbps).abs() < 1e-6);
        assert_eq!(tm.n_routers(), t.n_routers());
    }

    #[test]
    fn demand_cap_binds() {
        let t = topo();
        let capped = TrafficScenario::paper_default();
        let tm = capped.generate(&t);
        assert!(tm.max_demand() <= DEMAND_CAP_GBPS + 1e-9);
        assert!(tm.total() <= capped.total_gbps + 1e-6);
    }

    #[test]
    fn gravity_is_deterministic_per_seed() {
        let t = topo();
        let s = TrafficScenario::paper_default();
        assert_eq!(s.generate(&t), s.generate(&t));
        let s2 = TrafficScenario { seed: 43, ..s.clone() };
        assert_ne!(s.generate(&t), s2.generate(&t));
    }

    #[test]
    fn gravity_favors_heavy_pairs() {
        let t = topo();
        // 100 Gbit/s in all: no pair can reach the cap.
        let s = TrafficScenario { jitter_sigma: 0.0, seed: 1, total_gbps: 100.0 };
        let tm = s.generate(&t);
        let weights: Vec<f64> = t.routers.iter().map(|r| t.city(r.city).weight).collect();
        // demand(a,b)/demand(c,b) == w(a)/w(c) exactly when jitter is off.
        let n = weights.len();
        assert!(n >= 3);
        let (a, b, c) = (0, 1, 2);
        let ratio = tm.demand(RouterId::from_index(a), RouterId::from_index(b))
            / tm.demand(RouterId::from_index(c), RouterId::from_index(b));
        assert!((ratio - weights[a] / weights[c]).abs() < 1e-9);
    }
}
