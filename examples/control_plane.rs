//! Control-plane demo: the POC controller serving real TCP clients.
//!
//! Spins up the controller on an ephemeral port, then drives it from
//! three clients: two LMPs attaching (concurrently, on their own threads)
//! and reporting usage, and an operator running the auction round, the
//! billing cycle, and a lease walk to a x1.5 demand forecast and back.
//!
//! Run with: `cargo run --release --example control_plane`

use public_option_core::core::poc::{Poc, PocConfig};
use public_option_core::ctrlplane::{AttachRole, PocClient, PocServer};
use public_option_core::topology::zoo::{attach_external_isps, ExternalIspConfig};
use public_option_core::topology::{CostModel, RouterId, ZooConfig, ZooGenerator};
use public_option_core::traffic::TrafficScenario;

fn main() {
    // Controller state: a small synthetic POC.
    let mut topo = ZooGenerator::new(ZooConfig::small()).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let tm = TrafficScenario { jitter_sigma: 0.2, seed: 5, total_gbps: 1500.0 }.generate(&topo);
    let n_routers = topo.n_routers();
    let poc = Poc::new(topo, PocConfig::default());

    let (server, handle) = PocServer::bind("127.0.0.1:0", poc, tm).expect("bind controller");
    let addr = handle.local_addr;
    println!("POC controller listening on {addr}");
    let server_thread = std::thread::spawn(move || server.run());

    // Two LMPs attach concurrently.
    let lmp_thread_a = std::thread::spawn(move || {
        let mut c = PocClient::connect(addr).expect("connect");
        c.ping().expect("ping");
        let id = c.attach("lmp-alpha", AttachRole::Lmp { router: RouterId(0) }).expect("attach");
        println!("lmp-alpha attached as {id}");
        (c, id)
    });
    let lmp_thread_b = std::thread::spawn(move || {
        let mut c = PocClient::connect(addr).expect("connect");
        let id = c
            .attach("lmp-beta", AttachRole::Lmp { router: RouterId::from_index(n_routers - 1) })
            .expect("attach");
        println!("lmp-beta attached as {id}");
        (c, id)
    });
    let (mut client_a, lmp_a) = lmp_thread_a.join().expect("thread");
    let (mut client_b, lmp_b) = lmp_thread_b.join().expect("thread");

    // Operator runs the auction round.
    let mut operator = PocClient::connect(addr).expect("connect");
    let outcome = operator.run_auction().expect("auction");
    println!(
        "auction done: {} links leased, C(SL) = ${:.0}, VCG payments ${:.0}",
        outcome.n_selected_links, outcome.total_cost, outcome.total_payments
    );

    // Members see the installed fabric.
    let path = client_a.path(lmp_a, lmp_b).expect("query");
    println!("fabric path lmp-alpha → lmp-beta: {} hops", path.map(|p| p.len()).unwrap_or(0));

    // Usage reports, then billing.
    client_a.report_usage(lmp_a, 120.0).expect("usage");
    client_b.report_usage(lmp_b, 80.0).expect("usage");
    let bill = operator.run_billing().expect("billing");
    println!(
        "billing period {}: outlay ${:.0}, unit price ${:.2}/Gbps, POC net ${:+.4}",
        bill.period, bill.total_outlay, bill.unit_price, bill.poc_net
    );
    for (entity, charge) in &bill.charges {
        println!("  {entity} owes ${charge:.0}");
    }
    let bal = client_a.balance(lmp_a).expect("balance");
    println!("lmp-alpha ledger balance: ${bal:.0}");

    // Operator walks the fabric to the forecast's selection and back to
    // the round's demand, whose target is the round's own outcome.
    for (label, scale) in [("walk to x1.5", Some(1.5)), ("walk back to x1.0", None)] {
        let walk = operator.begin_transition(None, scale).expect("transition");
        println!(
            "{label}: {} {} -> {} links, {} steps",
            walk.outcome, walk.n_from_links, walk.n_final_links, walk.steps_applied
        );
    }

    handle.shutdown();
    let _ = server_thread.join();
    println!("controller stopped cleanly.");
}
