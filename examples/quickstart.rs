//! Quickstart: stand up a small POC end-to-end.
//!
//! Builds a synthetic topology with external-ISP fallback, runs a VCG
//! bandwidth auction, attaches LMPs and a directly-connected CSP, routes the
//! traffic estimate on the leased fabric, and bills every member for the
//! traffic its routers source — checking the §3.2 invariant that the
//! nonprofit POC breaks even.
//!
//! Run with: `cargo run --release --example quickstart`

use public_option_core::core::entity::EntityId;
use public_option_core::core::poc::{Poc, PocConfig};
use public_option_core::flow::route_tm;
use public_option_core::topology::zoo::{attach_external_isps, ExternalIspConfig};
use public_option_core::topology::{CostModel, RouterId, ZooConfig, ZooGenerator};
use public_option_core::traffic::TrafficScenario;
use std::collections::BTreeMap;

fn main() {
    // 1. A small synthetic WAN: ~6 BPs over 24 cities, plus one external
    //    ISP bounding the auction with contract-priced virtual links.
    let mut topo = ZooGenerator::new(ZooConfig::small()).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    println!(
        "topology: {} routers, {} logical links ({} virtual)",
        topo.n_routers(),
        topo.n_links(),
        topo.virtual_links().len()
    );

    // 2. The POC's upper-bound traffic estimate.
    let scenario = TrafficScenario { jitter_sigma: 0.2, seed: 7, total_gbps: 2000.0 };
    let tm = scenario.generate(&topo);
    println!("traffic matrix: {} flows, {:.0} Gbps total", tm.n_flows(), tm.total());

    // 3. Stand up the POC and run an auction round.
    let mut poc = Poc::new(topo, PocConfig::default());
    let outcome = poc.run_auction_round(&tm).expect("auction feasible");
    let payments: f64 = outcome.settlements.iter().map(|s| s.payment).sum();
    println!(
        "auction: leased {} links, C(SL) = ${:.0}/mo, VCG payments = ${:.0}/mo",
        outcome.selected.len(),
        outcome.total_cost,
        payments
    );
    for (bp, pob) in outcome.top_pob(5) {
        println!("  {bp}: payment-over-bid margin {:.3}", pob);
    }

    // 4. Members attach (LMPs sign the neutrality ToS on attach).
    let lmp_names = ["metro-west", "metro-east", "rural-coop"];
    let mut lmps: Vec<EntityId> = Vec::new();
    for (i, name) in lmp_names.iter().enumerate() {
        let router = RouterId::from_index(i % poc.topo().n_routers());
        lmps.push(poc.attach_lmp(name, router).expect("attach"));
    }
    let csp_router = RouterId::from_index(poc.topo().n_routers() - 1);
    let csp = poc.attach_direct_csp("big-video", csp_router).expect("attach");
    println!("attached {} LMPs and 1 direct CSP", lmps.len());

    // 5. Place the estimate on the leased fabric; each member uses what
    //    its routers source.
    let selected = poc.last_outcome().expect("ran").selected.clone();
    let routing = route_tm(poc.topo(), &selected, &tm).expect("leased fabric carries the estimate");
    let owners: Vec<EntityId> = lmps.iter().copied().chain([csp]).collect();
    let mut usage: BTreeMap<EntityId, f64> = BTreeMap::new();
    for flow in &routing.flows {
        // Round-robin attribution for the demo.
        *usage.entry(owners[flow.src.index() % owners.len()]).or_default() += flow.demand_gbps;
    }
    let usage: Vec<(EntityId, f64)> = usage.into_iter().collect();
    println!(
        "routed {} flows on the leased fabric, usage by {} members",
        routing.flows.len(),
        usage.len()
    );

    // 6. Settle: members pay usage-proportional transit, BPs get their VCG
    //    payments, and the POC nets zero.
    let bill = poc.billing_cycle(&usage).expect("billing");
    println!(
        "billing period {}: outlay ${:.0}, unit price ${:.2}/Gbps, POC net ${:+.6}",
        bill.period, bill.total_outlay, bill.unit_price, bill.poc_net
    );
    assert!(bill.poc_net.abs() < 1e-6, "nonprofit break-even violated");
    assert!(poc.ledger().conservation_error().abs() < 1e-9);
    println!("ledger conserves; POC breaks even. ✓");
}
