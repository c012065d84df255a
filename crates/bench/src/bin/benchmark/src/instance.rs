//! The two benchmark instances. The program under test only ever receives
//! the generated topology and matrix.

use crate::tracer::Tracer;
use poc_auction::{GreedySelector, Market, Selector};
use poc_flow::{Constraint, FeasibilityOracle, LinkSet};
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, PocTopology, ZooConfig, ZooGenerator};
use poc_traffic::{TrafficMatrix, TrafficScenario};

pub const CONSTRAINT: Constraint = Constraint::BaseLoad;
/// The forecast factor every migration targets.
pub const HEADROOM: f64 = 1.5;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// 40 cities, 10 BPs, 6 000 Gbit/s: 24 routers / 905 links / 552 flows
    /// at the default instance seed.
    Zoo10,
    /// 56 cities, 14 BPs, 7 000 Gbit/s: 40 routers / 2 398 links / 1 560
    /// flows at the default instance seed.
    Zoo14,
}

pub struct Instance {
    pub label: &'static str,
    pub instance_seed: u64,
    pub topo: PocTopology,
    pub tm: TrafficMatrix,
    pub topology_generate_s: f64,
    pub traffic_generate_s: f64,
}

impl Instance {
    /// `ZooConfig::paper()` with the size's overrides, the default external
    /// ISPs, and `TrafficScenario::paper_default()` at the size's total.
    pub fn generate(size: Size, instance_seed: u64, tracer: &Tracer) -> Self {
        let (label, zoo, total_gbps) = match size {
            Size::Zoo10 => (
                "zoo10",
                ZooConfig {
                    n_cities: 40,
                    n_bps: 10,
                    coverage_min: 0.30,
                    coverage_max: 0.80,
                    ..ZooConfig::paper()
                },
                6000.0,
            ),
            Size::Zoo14 => (
                "zoo14",
                ZooConfig {
                    n_cities: 56,
                    n_bps: 14,
                    coverage_min: 0.28,
                    coverage_max: 0.80,
                    ..ZooConfig::paper()
                },
                7000.0,
            ),
        };
        let (topo, topology_generate_s) = tracer.timed("topology.generate", || {
            let mut topo = ZooGenerator::new(zoo.with_seed(instance_seed)).generate();
            attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
            topo
        });
        let (tm, traffic_generate_s) = tracer.timed("traffic.generate", || {
            TrafficScenario { total_gbps, ..TrafficScenario::paper_default() }.generate(&topo)
        });
        Self { label, instance_seed, topo, tm, topology_generate_s, traffic_generate_s }
    }

    pub fn describe(&self) -> String {
        format!(
            "{} (instance seed {:#x}): {} routers / {} links / {} BPs / {} flows",
            self.label,
            self.instance_seed,
            self.topo.n_routers(),
            self.topo.n_links(),
            self.topo.bps.len(),
            self.tm.n_flows()
        )
    }

    pub fn scaled_tm(&self, factor: f64) -> TrafficMatrix {
        let mut tm = self.tm.clone();
        tm.scale(factor);
        tm
    }

    /// The set the auction selects under demand scaled by `factor` — the
    /// round's initial selection without the Clarke pivots, which do not
    /// change it. A degenerate instance is named, never measured.
    pub fn selection(
        &self,
        selector: &GreedySelector,
        factor: f64,
        tracer: &Tracer,
    ) -> Result<LinkSet, String> {
        let tm = self.scaled_tm(factor);
        let market = Market::truthful(&self.topo, 3.0);
        let oracle = FeasibilityOracle::new(&self.topo, &tm, CONSTRAINT);
        let _span = tracer.enter("auction.select");
        selector.select(&market, &oracle, market.offered()).map(|s| s.links).ok_or_else(|| {
            format!(
                "{} is not auctionable at x{factor}: no acceptable link set (instance seed {:#x})",
                self.label, self.instance_seed
            )
        })
    }
}
