//! Shared fixtures for the experiment benches.
//!
//! Every bench target regenerates one experiment from DESIGN.md's index:
//! it prints the table/series the paper reports (on a laptop-scale
//! instance by default; set `POC_PAPER_SCALE=1` for the full §3.3
//! instance) and times nothing. It is the only program that prints that
//! table.
//!
//! Performance is not measured here: end to end and per layer, that is the
//! package under `src/bin/benchmark/` (`BENCHMARK.json` at the repository
//! root), which is not part of this crate or the workspace.

use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, PocTopology, ZooConfig, ZooGenerator};
use poc_traffic::{TrafficMatrix, TrafficScenario};

/// Whether to run experiment prints at the paper's full scale.
pub fn paper_scale() -> bool {
    std::env::var_os("POC_PAPER_SCALE").is_some()
}

/// The benchmark instance: small by default, paper-scale on request.
pub fn instance() -> (PocTopology, TrafficMatrix) {
    let (zoo, total) =
        if paper_scale() { (ZooConfig::paper(), 24000.0) } else { (ZooConfig::small(), 2500.0) };
    let mut topo = ZooGenerator::new(zoo).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let tm =
        TrafficScenario { total_gbps: total, ..TrafficScenario::paper_default() }.generate(&topo);
    (topo, tm)
}
