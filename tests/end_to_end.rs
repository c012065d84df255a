//! Cross-crate integration: the full POC lifecycle on a generated
//! instance — topology → traffic → auction → leases → fabric → routing
//! → settlement — with the system-level invariants the paper's design
//! rests on.

use public_option_core::core::entity::EntityId;
use public_option_core::core::poc::{Poc, PocConfig, PocError};
use public_option_core::core::settlement::Account;
use public_option_core::flow::{route_tm, Constraint};
use public_option_core::topology::zoo::{attach_external_isps, ExternalIspConfig};
use public_option_core::topology::{CostModel, RouterId, ZooConfig, ZooGenerator};
use public_option_core::traffic::TrafficScenario;

fn build_poc(constraint: Constraint) -> (Poc, public_option_core::traffic::TrafficMatrix) {
    let mut topo = ZooGenerator::new(ZooConfig::small()).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let tm = TrafficScenario { jitter_sigma: 0.2, seed: 99, total_gbps: 2000.0 }.generate(&topo);
    let config = PocConfig { constraint, ..PocConfig::default() };
    (Poc::new(topo, config), tm)
}

#[test]
fn full_lifecycle_invariants() {
    let (mut poc, tm) = build_poc(Constraint::BaseLoad);

    // Auction round.
    let outcome = poc.run_auction_round(&tm).expect("feasible");
    let n_links = outcome.selected.len();
    assert!(n_links > 0);
    for s in &outcome.settlements {
        assert!(s.payment >= s.bid_cost - 1e-9, "VCG never pays below bid: {s:?}");
    }
    let selected = outcome.selected.clone();

    // Leases cover exactly the selected BP links; payments due equal VCG.
    let leased = poc.leases().active_links(poc.topo().n_links(), 0);
    let virtual_selected: usize =
        poc.topo().virtual_links().iter().filter(|&&l| selected.contains(l)).count();
    assert_eq!(leased.len() + virtual_selected, n_links);
    let due: f64 = poc.leases().payments_due(0).iter().map(|(_, p)| p).sum();
    let vcg: f64 = poc.last_outcome().unwrap().settlements.iter().map(|s| s.payment).sum();
    assert!((due - vcg).abs() < 1e-6);

    // Fabric reaches every router pair.
    assert!(poc.fabric().unwrap().fully_connected(), "selected set must connect all routers");

    // Members, routing, settlement: each LMP uses what its routers source.
    let lmp_a = poc.attach_lmp("it-a", RouterId(0)).unwrap();
    let lmp_b = poc.attach_lmp("it-b", RouterId::from_index(poc.topo().n_routers() - 1)).unwrap();
    let routing = route_tm(poc.topo(), &selected, &tm).expect("selected fabric carries the matrix");
    for (i, link) in poc.topo().links.iter().enumerate() {
        let load = routing.load_fwd[i].max(routing.load_rev[i]);
        if !selected.contains(link.id) {
            assert_eq!(load, 0.0, "{:?} carries load outside the selection", link.id);
        }
        assert!(load <= link.capacity_gbps + 1e-6, "{:?} over capacity: {load}", link.id);
    }
    let mut usage = [(lmp_a, 0.0), (lmp_b, 0.0)];
    for flow in &routing.flows {
        usage[flow.src.index() % 2].1 += flow.demand_gbps;
    }

    let bill = poc.billing_cycle(&usage).expect("billing");
    assert!(bill.total_outlay > 0.0);
    assert!(bill.poc_net.abs() < 1e-6, "nonprofit break-even");
    assert!(poc.ledger().conservation_error().abs() < 1e-9, "double-entry conservation");

    // Every BP with selected links got paid through the ledger.
    for s in poc.last_outcome().unwrap().settlements.clone() {
        if s.payment > 0.0 {
            let name = format!("bp:{}", poc.topo().bps[s.bp.index()].name);
            let entity = poc.registry().by_name(&name).unwrap().id;
            let balance = poc.ledger().balance(Account::Entity(entity));
            assert!(
                (balance - s.payment).abs() < 1e-6,
                "{name} balance {balance} vs payment {}",
                s.payment
            );
        }
    }
}

#[test]
fn lease_recall_triggers_reauction_flag_and_reround() {
    let (mut poc, tm) = build_poc(Constraint::BaseLoad);
    poc.run_auction_round(&tm).expect("feasible");
    let lease = poc.leases().leases()[0].clone();
    // The paper's overbuy-then-recall story: the BP pulls a link back.
    assert!(!poc.leases().reauction_needed());
    let mut leases = poc.leases().clone();
    leases.recall(lease.bp, lease.link, 0, 1);
    assert!(leases.reauction_needed());
    // A fresh round clears the flag and reinstalls a working fabric.
    poc.run_auction_round(&tm).expect("re-auction feasible");
    assert!(poc.fabric().unwrap().fully_connected());
}

#[test]
fn stricter_constraints_never_cheaper() {
    let (mut poc1, tm) = build_poc(Constraint::BaseLoad);
    let c1_cost = poc1.run_auction_round(&tm).expect("feasible").total_cost;
    let (mut poc2, _) = build_poc(Constraint::SinglePathFailure { sample_every: 2 });
    let c2_cost = poc2.run_auction_round(&tm).expect("feasible").total_cost;
    let (mut poc3, _) = build_poc(Constraint::AllPairsBackup);
    let c3_cost = poc3.run_auction_round(&tm).expect("feasible").total_cost;
    assert!(
        c2_cost >= c1_cost * 0.98,
        "resilience must not be materially cheaper: C2 {c2_cost} vs C1 {c1_cost}"
    );
    assert!(
        c3_cost >= c1_cost * 0.98,
        "resilience must not be materially cheaper: C3 {c3_cost} vs C1 {c1_cost}"
    );
}

#[test]
fn multi_period_billing_accumulates() {
    let (mut poc, tm) = build_poc(Constraint::BaseLoad);
    poc.run_auction_round(&tm).expect("feasible");
    let lmp = poc.attach_lmp("solo", RouterId(0)).unwrap();
    let mut total_charged = 0.0;
    for period in 0..3u32 {
        let bill = poc.billing_cycle(&[(lmp, 10.0 + period as f64)]).unwrap();
        assert_eq!(bill.period, period);
        total_charged += bill.charges[0].1;
    }
    assert_eq!(poc.period(), 3);
    let balance = poc.ledger().balance(Account::Entity(lmp));
    assert!((balance + total_charged).abs() < 1e-6, "LMP owes the sum of its bills");
}

#[test]
fn usage_attribution_to_entity_kind() {
    // Hosted CSP usage rides its LMP's authorization.
    let (mut poc, tm) = build_poc(Constraint::BaseLoad);
    poc.run_auction_round(&tm).expect("feasible");
    let lmp = poc.attach_lmp("host", RouterId(0)).unwrap();
    let csp = poc.attach_hosted_csp("tenant", lmp).unwrap();
    let bill = poc.billing_cycle(&[(lmp, 5.0), (csp, 15.0)]).unwrap();
    assert_eq!(bill.charges.len(), 2);
    let csp_charge = bill.charges.iter().find(|(e, _)| *e == csp).unwrap().1;
    let lmp_charge = bill.charges.iter().find(|(e, _)| *e == lmp).unwrap().1;
    assert!((csp_charge / lmp_charge - 3.0).abs() < 1e-9, "usage-proportional");
}

#[test]
fn unknown_usage_entity_rejected_without_state_change() {
    let (mut poc, tm) = build_poc(Constraint::BaseLoad);
    poc.run_auction_round(&tm).expect("feasible");
    let before = poc.period();
    assert!(poc.billing_cycle(&[(EntityId(4242), 1.0)]).is_err());
    assert_eq!(poc.period(), before, "failed billing must not advance the period");
}

/// Usage that prices at no finite unit price is refused before anything
/// is posted: a report so small that outlay ÷ Σ usage overflows, and two
/// so large that Σ usage does. Ledger, leases and period stay as they were.
#[test]
fn unbillable_usage_rejected_without_state_change() {
    let (mut poc, tm) = build_poc(Constraint::BaseLoad);
    poc.run_auction_round(&tm).expect("feasible");
    let lmp = poc.attach_lmp("tiny", RouterId(0)).unwrap();
    let csp = poc.attach_hosted_csp("huge", lmp).unwrap();
    let n_links = poc.topo().n_links();
    let (period, postings) = (poc.period(), poc.ledger().postings().to_vec());
    let (leased, due) =
        (poc.leases().active_links(n_links, period), poc.leases().payments_due(period));
    for usage in [vec![(lmp, 1e-310)], vec![(lmp, 1e308), (csp, 1e308)]] {
        let err = poc.billing_cycle(&usage).expect_err("no finite unit price");
        assert!(matches!(err, PocError::Unbillable { .. }), "{usage:?}: {err}");
        assert_eq!(poc.period(), period, "{usage:?}");
        assert_eq!(poc.ledger().postings(), &postings[..], "{usage:?}");
        assert_eq!(poc.leases().active_links(n_links, period), leased, "{usage:?}");
        assert_eq!(poc.leases().payments_due(period), due, "{usage:?}");
    }
    // The same members bill normally once their usage prices.
    let bill = poc.billing_cycle(&[(lmp, 1.0), (csp, 3.0)]).expect("billing");
    assert_eq!(bill.period, period);
    assert!(bill.unit_price.is_finite() && bill.unit_price > 0.0);
}

/// The tentpole loop, in process: auction → leases → *packets* → money,
/// the packets on the routing that proved the leases carry the matrix.
/// Delivered bytes from the packet engine are the billing input, and the
/// ledger's double-entry invariants hold on packet-metered usage exactly
/// as they do on routed usage — for constant-rate sources and, in the
/// next billing period, for bursty on/off ones.
#[test]
fn packet_engine_usage_settles_through_ledger() {
    use public_option_core::netsim::engine::{Engine, EngineConfig, SourceKind};
    use public_option_core::traffic::UserFlowModel;

    let (mut poc, tm) = build_poc(Constraint::BaseLoad);
    poc.run_auction_round(&tm).expect("feasible");
    let selected = poc.last_outcome().unwrap().selected.clone();
    let lmp_a = poc.attach_lmp("pk-a", RouterId(0)).unwrap();
    let lmp_b = poc.attach_lmp("pk-b", RouterId::from_index(poc.topo().n_routers() - 1)).unwrap();

    let witness = route_tm(poc.topo(), &selected, &tm).expect("selected fabric carries the matrix");

    let bursty = SourceKind::OnOff { on_ns: 1_000_000, off_ns: 1_000_000 };
    for kind in [SourceKind::Persistent, bursty] {
        let cfg = EngineConfig { horizon_ns: 10_000_000, ..Default::default() };
        let mut eng = Engine::new(poc.topo(), &selected, cfg).expect("valid engine config");
        eng.add_routing(&witness.flows, &UserFlowModel::default(), kind, |src| {
            (Some(if src.index().is_multiple_of(2) { lmp_a } else { lmp_b }), "tm".to_string())
        })
        .expect("the witness runs on the leased fabric");
        assert!(eng.n_user_flows() > 100_000, "paper-scale aggregation");
        let report = eng.run();
        assert!(report.packets_delivered > 0, "{kind:?}: {report:?}");
        assert_eq!(report.usage_by_owner.len(), 2, "{kind:?}: both LMPs metered");
        let metered: f64 = report.usage_by_owner.iter().map(|&(_, g)| g).sum();
        assert!(metered > 0.0);

        // Delivered bytes are the billing input; break-even and
        // conservation hold on the packet-metered period.
        let before: Vec<f64> = report
            .usage_by_owner
            .iter()
            .map(|&(owner, _)| poc.ledger().balance(Account::Entity(owner)))
            .collect();
        let bill = poc.billing_cycle(&report.usage_by_owner).expect("billing");
        assert!((bill.total_usage_gbps - metered).abs() < 1e-9, "bill reflects the meter");
        assert!(bill.poc_net.abs() < 1e-6, "{kind:?}: nonprofit break-even");
        assert!(poc.ledger().conservation_error().abs() < 1e-9);
        for (&(owner, gbps), before) in report.usage_by_owner.iter().zip(before) {
            let balance = poc.ledger().balance(Account::Entity(owner));
            assert!(balance < before, "metered member owes transit: {owner:?} {gbps} → {balance}");
        }
    }

    // The member's statement shows the charges.
    let statement = poc.ledger().statement(Account::Entity(lmp_a));
    assert!(statement.contains("transit"), "{statement}");
    assert!(statement.contains("debit"), "{statement}");
}

/// The same loop over the wire: engine usage flows through `ReportUsage`
/// into a running control-plane server, and `RunBilling` debits exactly
/// the reported amounts.
#[test]
fn packet_engine_usage_settles_over_the_wire() {
    use public_option_core::ctrlplane::{AttachRole, PocClient, PocServer};
    use public_option_core::netsim::engine::{Engine, EngineConfig, SourceKind};
    use public_option_core::traffic::UserFlowModel;

    let (server_poc, tm) = build_poc(Constraint::BaseLoad);
    let (server, handle) = PocServer::bind("127.0.0.1:0", server_poc, tm.clone()).unwrap();
    let join = std::thread::spawn(move || server.run());
    let mut client = PocClient::connect(handle.local_addr).unwrap();

    let a = client.attach("wire-a", AttachRole::Lmp { router: RouterId(0) }).unwrap();
    let b = client.attach("wire-b", AttachRole::Lmp { router: RouterId(1) }).unwrap();
    client.run_auction().unwrap();

    // Mirror the deterministic round locally to learn the leased links,
    // then meter packets on that fabric.
    let (mut mirror, _) = build_poc(Constraint::BaseLoad);
    mirror.run_auction_round(&tm).expect("feasible");
    let selected = mirror.last_outcome().unwrap().selected.clone();
    let witness = route_tm(mirror.topo(), &selected, &tm).unwrap();
    let cfg = EngineConfig { horizon_ns: 5_000_000, ..Default::default() };
    let mut eng = Engine::new(mirror.topo(), &selected, cfg).unwrap();
    eng.add_routing(&witness.flows, &UserFlowModel::default(), SourceKind::Persistent, |src| {
        (Some(if src.index().is_multiple_of(2) { a } else { b }), "tm".to_string())
    })
    .unwrap();
    let report = eng.run();
    assert_eq!(report.usage_by_owner.len(), 2);

    client.report_usage_batch(&report.usage_by_owner).unwrap();
    let bill = client.run_billing().unwrap();
    let metered: f64 = report.usage_by_owner.iter().map(|&(_, g)| g).sum();
    assert!(bill.total_outlay > 0.0);
    assert!(bill.poc_net.abs() < 1e-6, "nonprofit break-even over the wire");
    let charged: f64 = bill.charges.iter().map(|(_, c)| c).sum();
    assert!((charged - bill.total_outlay).abs() < 1e-6, "usage pays the outlay");
    // Charges split usage-proportionally across the two reporters.
    let ca = bill.charges.iter().find(|(e, _)| *e == a).unwrap().1;
    let cb = bill.charges.iter().find(|(e, _)| *e == b).unwrap().1;
    let ua = report.usage_by_owner.iter().find(|(e, _)| *e == a).unwrap().1;
    let ub = report.usage_by_owner.iter().find(|(e, _)| *e == b).unwrap().1;
    assert!((ca / cb - ua / ub).abs() < 1e-6, "usage-proportional split");
    assert!(metered > 0.0);
    // And the members' server-side balances reflect the debit.
    assert!(client.balance(a).unwrap() < 0.0);
    assert!(client.balance(b).unwrap() < 0.0);

    handle.shutdown();
    join.join().unwrap();
}

/// Determinism across the facade: the same seed and inputs produce a
/// byte-identical serialized packet report.
#[test]
fn packet_engine_deterministic_through_facade() {
    use public_option_core::netsim::engine::{Engine, EngineConfig, SourceKind};
    use public_option_core::traffic::UserFlowModel;

    let (mut poc, tm) = build_poc(Constraint::BaseLoad);
    poc.run_auction_round(&tm).expect("feasible");
    let selected = poc.last_outcome().unwrap().selected.clone();
    let witness = route_tm(poc.topo(), &selected, &tm).unwrap();
    let run = || {
        let cfg = EngineConfig { horizon_ns: 5_000_000, seed: 7, ..Default::default() };
        let mut eng = Engine::new(poc.topo(), &selected, cfg).unwrap();
        eng.add_routing(&witness.flows, &UserFlowModel::default(), SourceKind::Persistent, |src| {
            (Some(EntityId(src.0 % 3)), format!("class-{}", src.0 % 2))
        })
        .unwrap();
        serde_json::to_string(&eng.run()).unwrap()
    };
    assert_eq!(run(), run(), "same seed, same inputs, byte-identical report");
}
