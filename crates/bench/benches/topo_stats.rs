//! E-T1 — §3.3 instance statistics: 20 BPs, ≈4674 logical links, per-BP
//! shares ≈2%–12%. Always printed at paper scale (generation is cheap).

use poc_topology::{TopologyStats, ZooConfig, ZooGenerator};

fn main() {
    let topo = ZooGenerator::new(ZooConfig::paper()).generate();
    let stats = TopologyStats::compute(&topo);
    println!("\n=== E-T1 / §3.3 instance statistics (paper: 20 BPs, 4674 links, 2%–12%) ===");
    println!("{}", stats.render_table());
    let (min, max) = stats.share_range();
    println!(
        "links = {} (paper 4674), shares {:.1}%–{:.1}% (paper ~2%–12%)",
        stats.n_bp_links,
        min * 100.0,
        max * 100.0
    );
}
