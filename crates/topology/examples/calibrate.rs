//! Calibration check for the paper-scale synthetic topology.
//!
//! The rendered table (the deliverable) stays on stdout; the summary
//! line goes to stderr.

use poc_topology::{TopologyStats, ZooConfig, ZooGenerator};

fn main() {
    let t = ZooGenerator::new(ZooConfig::paper()).generate();
    let s = TopologyStats::compute(&t);
    println!("{}", s.render_table());
    let (min, max) = s.share_range();
    eprintln!(
        "calibrate.summary links={} routers={} share_min_pct={:.4} share_max_pct={:.4}",
        s.n_bp_links,
        s.n_routers,
        min * 100.0,
        max * 100.0,
    );
}
