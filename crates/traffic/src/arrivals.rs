//! User-flow scaling: from aggregate traffic matrices to packet sources.
//!
//! The gravity matrices describe aggregate Gbit/s between router
//! pairs; the packet engine wants *sources* that stand in for the user
//! flows behind each aggregate. [`UserFlowModel`] fixes the per-user-flow
//! rate (a video stream, a bulk transfer share) and [`pair_demands`]
//! expands a matrix into one [`PairDemand`] per non-zero pair, each
//! carrying the number of user flows it aggregates — millions of them at
//! paper scale, without simulating millions of independent sources.

use crate::matrix::TrafficMatrix;
use poc_topology::RouterId;
use serde::{Deserialize, Serialize};

/// How aggregate demand decomposes into user flows.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct UserFlowModel {
    /// Average rate of one user flow, Gbit/s.
    pub per_flow_gbps: f64,
}

impl Default for UserFlowModel {
    fn default() -> Self {
        // 4 Mbit/s: an HD video stream, the canonical eyeball flow.
        Self { per_flow_gbps: 0.004 }
    }
}

/// One pair's aggregate demand, annotated with the user flows it carries.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PairDemand {
    pub src: RouterId,
    pub dst: RouterId,
    /// Aggregate rate, Gbit/s.
    pub rate_gbps: f64,
    /// `ceil(rate / per_flow_rate)` — how many user flows the aggregate
    /// stands in for (at least 1 for any non-zero demand).
    pub user_flows: u64,
}

/// Expand a traffic matrix into per-pair demands under a user-flow model.
/// Zero-demand pairs are skipped; iteration order (and thus output order)
/// is the matrix's deterministic row-major order.
pub fn pair_demands(tm: &TrafficMatrix, model: &UserFlowModel) -> Vec<PairDemand> {
    let per_flow = model.per_flow_gbps.max(f64::MIN_POSITIVE);
    tm.iter_demands()
        .map(|(src, dst, rate_gbps)| PairDemand {
            src,
            dst,
            rate_gbps,
            user_flows: (rate_gbps / per_flow).ceil().max(1.0) as u64,
        })
        .collect()
}

/// Total user flows a matrix decomposes into under a model.
pub fn total_user_flows(tm: &TrafficMatrix, model: &UserFlowModel) -> u64 {
    pair_demands(tm, model).iter().map(|d| d.user_flows).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::TrafficScenario;
    use poc_topology::{ZooConfig, ZooGenerator};

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    #[test]
    fn counts_round_up_and_total_is_preserved() {
        let mut tm = TrafficMatrix::zero(3);
        tm.set(r(0), r(1), 1.0);
        tm.set(r(1), r(2), 0.0001); // far below one 4 Mbit/s flow
        let demands = pair_demands(&tm, &UserFlowModel::default());
        assert_eq!(demands.len(), 2);
        assert_eq!(demands[0].user_flows, 250);
        assert_eq!(demands[1].user_flows, 1, "tiny demands still carry one flow");
        let total: f64 = demands.iter().map(|d| d.rate_gbps).sum();
        assert!((total - tm.total()).abs() < 1e-12, "aggregate rate unchanged");
    }

    #[test]
    fn paper_scale_matrix_aggregates_millions_of_user_flows() {
        let topo = ZooGenerator::new(ZooConfig::small()).generate();
        let tm = TrafficScenario::paper_default().generate(&topo);
        let n = total_user_flows(&tm, &UserFlowModel::default());
        // paper_default targets 24 Tbit/s; at 4 Mbit/s per user flow the
        // fabric carries millions of flows (the cap may shave the total).
        assert!(n > 1_000_000, "expected millions of user flows, got {n}");
    }

    #[test]
    fn expansion_is_deterministic() {
        let topo = ZooGenerator::new(ZooConfig::small()).generate();
        let tm = TrafficScenario::paper_default().generate(&topo);
        let m = UserFlowModel::default();
        assert_eq!(pair_demands(&tm, &m), pair_demands(&tm, &m));
    }
}
