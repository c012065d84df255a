//! Synthetic flow workloads beyond the static traffic matrix: Poisson
//! on/off flows with gravity-weighted endpoints and a diurnal intensity
//! profile. Used by the churn and utilization experiments, and by the
//! control-plane demo to produce believable usage reports.

use crate::sim::FlowSpec;
use poc_topology::{PocTopology, RouterId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// On/off workload parameters. All randomness flows from `seed`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadConfig {
    pub seed: u64,
    /// Horizon, hours.
    pub horizon: f64,
    /// Expected number of flow arrivals over the horizon.
    pub n_flows: usize,
    /// Mean per-flow rate, Gbit/s (exponentially distributed).
    pub mean_rate_gbps: f64,
    /// Mean flow duration, hours (exponentially distributed, truncated at
    /// the horizon).
    pub mean_duration_h: f64,
    /// Diurnal modulation amplitude in [0, 1): arrival intensity follows
    /// `1 + A·sin(2π(t − 6)/24)` (evening peak at t ≈ 12 for A > 0 when
    /// the horizon starts at midnight).
    pub diurnal_amplitude: f64,
    /// Tag stamped on every generated flow.
    pub tag: String,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            horizon: 24.0,
            n_flows: 200,
            mean_rate_gbps: 2.0,
            mean_duration_h: 1.5,
            diurnal_amplitude: 0.5,
            tag: "onoff".into(),
        }
    }
}

/// Relative arrival intensity at hour `t` (mean 1 over a 24h cycle).
pub(crate) fn diurnal_factor(t_hours: f64, amplitude: f64) -> f64 {
    assert!((0.0..1.0).contains(&amplitude), "amplitude must be in [0,1)");
    1.0 + amplitude * (std::f64::consts::TAU * (t_hours - 6.0) / 24.0).sin()
}

/// Generate the workload: Poisson arrivals thinned by the diurnal profile,
/// gravity-weighted endpoint choice, exponential rates and durations.
/// Deterministic per config.
pub fn generate_onoff(topo: &PocTopology, cfg: &WorkloadConfig) -> Vec<FlowSpec> {
    assert!(cfg.horizon > 0.0 && cfg.n_flows > 0, "degenerate workload");
    assert!(
        cfg.mean_rate_gbps > 0.0 && cfg.mean_duration_h > 0.0,
        "rates and durations must be positive"
    );
    assert!(topo.n_routers() >= 2, "need at least two routers");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let weights: Vec<f64> = topo.routers.iter().map(|r| topo.city(r.city).weight).collect();
    let total_w: f64 = weights.iter().sum();

    let pick_router = |rng: &mut ChaCha8Rng| -> RouterId {
        let mut x = rng.gen_range(0.0..total_w);
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return RouterId::from_index(i);
            }
            x -= w;
        }
        RouterId::from_index(weights.len() - 1)
    };

    // Thinned Poisson process: candidate arrivals at the peak rate,
    // accepted with probability diurnal/max.
    let peak = 1.0 + cfg.diurnal_amplitude;
    let base_rate = cfg.n_flows as f64 / cfg.horizon; // mean accepted rate
    let candidate_rate = base_rate * peak;
    let mut flows = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / candidate_rate;
        if t >= cfg.horizon {
            break;
        }
        let accept = diurnal_factor(t, cfg.diurnal_amplitude) / peak;
        if !rng.gen_bool(accept.clamp(0.0, 1.0)) {
            continue;
        }
        let src = pick_router(&mut rng);
        let mut dst = pick_router(&mut rng);
        while dst == src {
            dst = pick_router(&mut rng);
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let rate = -u.ln() * cfg.mean_rate_gbps;
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let duration = (-u.ln() * cfg.mean_duration_h).max(1e-3);
        flows.push(FlowSpec {
            src,
            dst,
            demand_gbps: rate,
            start: t,
            end: (t + duration).min(cfg.horizon),
            owner: None,
            tag: cfg.tag.clone(),
            pinned_path: None,
        });
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::{ZooConfig, ZooGenerator};

    fn topo() -> PocTopology {
        ZooGenerator::new(ZooConfig::small()).generate()
    }

    #[test]
    fn generation_is_deterministic() {
        let t = topo();
        let cfg = WorkloadConfig::default();
        let a = generate_onoff(&t, &cfg);
        let b = generate_onoff(&t, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.src, y.src);
            assert_eq!(x.dst, y.dst);
            assert!((x.demand_gbps - y.demand_gbps).abs() < 1e-12);
        }
    }

    #[test]
    fn flow_count_near_target() {
        let t = topo();
        let cfg = WorkloadConfig { n_flows: 400, ..Default::default() };
        let flows = generate_onoff(&t, &cfg);
        let n = flows.len() as f64;
        assert!((n - 400.0).abs() < 120.0, "Poisson count {n} too far from target 400");
    }

    #[test]
    fn flows_respect_horizon_and_validity() {
        let t = topo();
        let cfg = WorkloadConfig::default();
        for f in generate_onoff(&t, &cfg) {
            assert!(f.start >= 0.0 && f.start < cfg.horizon);
            assert!(f.end > f.start && f.end <= cfg.horizon + 1e-12);
            assert!(f.demand_gbps > 0.0);
            assert_ne!(f.src, f.dst);
            assert_eq!(f.tag, "onoff");
        }
    }

    #[test]
    fn diurnal_factor_bounds_and_mean() {
        for a in [0.0, 0.3, 0.9] {
            let mut sum = 0.0;
            for i in 0..240 {
                let f = diurnal_factor(i as f64 / 10.0, a);
                assert!(f >= 1.0 - a - 1e-9 && f <= 1.0 + a + 1e-9);
                sum += f;
            }
            assert!((sum / 240.0 - 1.0).abs() < 1e-2, "mean must be ~1");
        }
    }

    #[test]
    fn diurnal_peak_concentrates_arrivals() {
        let t = topo();
        let cfg = WorkloadConfig {
            n_flows: 3000,
            diurnal_amplitude: 0.9,
            mean_duration_h: 0.2,
            ..Default::default()
        };
        let flows = generate_onoff(&t, &cfg);
        // Peak window (t≈12) vs trough window (t≈0): expect far more
        // arrivals near the peak.
        let peak = flows.iter().filter(|f| (10.0..14.0).contains(&f.start)).count();
        let trough = flows.iter().filter(|f| f.start < 2.0 || f.start >= 22.0).count();
        assert!(peak as f64 > trough as f64 * 2.0, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn heavier_cities_source_more_flows() {
        let t = topo();
        let cfg = WorkloadConfig { n_flows: 3000, ..Default::default() };
        let flows = generate_onoff(&t, &cfg);
        let weights: Vec<f64> = t.routers.iter().map(|r| t.city(r.city).weight).collect();
        let heaviest = (0..weights.len())
            .max_by(|&a, &b| weights[a].partial_cmp(&weights[b]).unwrap())
            .unwrap();
        let lightest = (0..weights.len())
            .min_by(|&a, &b| weights[a].partial_cmp(&weights[b]).unwrap())
            .unwrap();
        let heavy_count = flows.iter().filter(|f| f.src.index() == heaviest).count();
        let light_count = flows.iter().filter(|f| f.src.index() == lightest).count();
        assert!(
            heavy_count > light_count,
            "gravity weighting broken: {heavy_count} vs {light_count}"
        );
    }
}
