//! Paper-scale smoke test: one VCG round per constraint with timing.
//! (Development tool; the polished reproduction is `examples/fig2_auction.rs`
//! at the workspace root.)
//!
//! Progress goes to stderr as `name key=value ...` lines, so stdout stays
//! clean and the lines can be grepped/parsed like any other run log.

use poc_auction::{run_auction, GreedySelector, Market};
use poc_flow::Constraint;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, ZooConfig, ZooGenerator};
use poc_traffic::TrafficScenario;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let mut topo = ZooGenerator::new(ZooConfig::paper()).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let tm = TrafficScenario::paper_default().generate(&topo);
    eprintln!(
        "smoke.generated gen_ms={:.4} links={} routers={} tm_total={:.4}",
        t0.elapsed().as_secs_f64() * 1e3,
        topo.n_links(),
        topo.n_routers(),
        tm.total(),
    );

    let market = Market::truthful(&topo, 3.0);
    let sel = GreedySelector::with_prune_budget(16);
    for c in [
        Constraint::BaseLoad,
        Constraint::SinglePathFailure { sample_every: 32 },
        Constraint::AllPairsBackup,
    ] {
        let t1 = Instant::now();
        match run_auction(&market, &tm, c, &sel) {
            Ok(out) => {
                eprintln!(
                    "smoke.round constraint={} round_ms={:.4} selected={} total_cost={:.4}",
                    c.label(),
                    t1.elapsed().as_secs_f64() * 1e3,
                    out.selected.len(),
                    out.total_cost,
                );
                for (bp, pob) in out.top_pob(5) {
                    eprintln!("smoke.top_pob bp={bp} pob={pob:.4}");
                }
            }
            Err(e) => eprintln!("smoke.round_failed constraint={} error={e}", c.label()),
        }
    }
}
