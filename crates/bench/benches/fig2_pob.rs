//! E-F2 — Figure 2: payment-over-bid margins of the five largest BPs
//! under Constraints #1/#2/#3, with each constraint's round wall time.
//! The rows are #1's five largest BPs; each column reads that BP's own
//! margin under its constraint, `-` where the BP sold nothing.
//!
//! `POC_PAPER_SCALE=1 cargo bench -p poc-bench --bench fig2_pob` prints the
//! full-scale figure (several minutes); the default prints the same series
//! on the laptop-scale instance.

use poc_auction::{run_auction, AuctionOutcome, GreedySelector, Market};
use poc_bench::{instance, paper_scale};
use poc_flow::Constraint;
use std::time::Instant;

fn main() {
    let (topo, tm) = instance();
    let market = Market::truthful(&topo, 3.0);
    let selector = GreedySelector::with_prune_budget(16);
    let stride = if paper_scale() { 32 } else { 4 };
    println!(
        "\n=== E-F2 / Figure 2: PoB margins, five largest BPs ({} scale) ===",
        if paper_scale() { "paper" } else { "small" }
    );
    let mut columns: Vec<(String, AuctionOutcome)> = Vec::new();
    for c in Constraint::paper_suite(stride) {
        let started = Instant::now();
        match run_auction(&market, &tm, c, &selector) {
            Ok(out) => {
                println!(
                    "constraint {}: |SL| = {}, C(SL) = ${:.0}",
                    c.label(),
                    out.selected.len(),
                    out.total_cost
                );
                columns.push((c.label().into(), out));
            }
            Err(e) => println!("constraint {} infeasible: {e}", c.label()),
        }
        println!("constraint {}: round wall time {:.1?}", c.label(), started.elapsed());
    }
    print!("{:<10}", "BP");
    for (label, _) in &columns {
        print!("{label:>12}");
    }
    println!();
    if let Some((_, first)) = columns.first() {
        for (bp, _) in first.top_pob(5) {
            print!("{:<10}", bp.to_string());
            for (_, out) in &columns {
                match out.settlement(bp).and_then(|s| s.pob()) {
                    Some(pob) => print!("{pob:>12.4}"),
                    None => print!("{:>12}", "-"),
                }
            }
            println!();
        }
    }
}
