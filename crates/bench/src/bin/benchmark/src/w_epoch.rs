//! `epoch_wire_zoo10`: the operator loop over the wire. One connection to
//! a durable server; each epoch is `RunAuction` → `BeginTransition` to the
//! x1.5 forecast → a 5 ms packet-engine run on the leased set in the client
//! (the `poc dataplane --addr` path) → usage reports + `RunBilling` →
//! `BeginTransition` back to x1.0.

use crate::harness::{
    attach_members, attach_members_in_process, build_engine, repeat_setup, Ctx, Server,
};
use crate::instance::{Instance, Size, HEADROOM};
use crate::layers::{self, Counters};
use crate::report::Report;
use crate::stats::median;
use crate::tracer::Tracer;
use poc_auction::{AuctionOutcome, GreedySelector};
use poc_core::entity::EntityId;
use poc_core::poc::{Poc, PocConfig};
use poc_ctrlplane::proto::OutcomeSummary;
use poc_ctrlplane::{FsyncPolicy, PocClient};
use poc_flow::LinkSet;
use poc_netsim::engine::EngineReport;
use std::time::Instant;

const ENGINE_HORIZON_NS: u64 = 5_000_000;

struct World {
    inst: Instance,
    server: Server,
    client: PocClient,
    members: [EntityId; 2],
    /// The set the server leases after a committed migration to x1.5; the
    /// client runs packets on it.
    leased_at_headroom: LinkSet,
}

fn setup(ctx: &Ctx) -> Result<World, String> {
    let quiet = Tracer::new(false);
    let inst = Instance::generate(Size::Zoo10, ctx.instance_seed, &quiet);
    let server = Server::boot(&inst, &ctx.state_root.join("epoch"), true, FsyncPolicy::Always)?;
    let mut client = server.connect()?;
    let members = attach_members(&mut client, &inst)?;
    // The server's selector is PocConfig::default()'s; the client mirrors
    // it to know which links carry packets mid-epoch.
    let leased_at_headroom = inst.selection(&GreedySelector::default(), HEADROOM, &quiet)?;
    inst.selection(&GreedySelector::default(), 1.0, &quiet)?;
    Ok(World { inst, server, client, members, leased_at_headroom })
}

#[derive(Default)]
struct Samples {
    epoch_s: Vec<f64>,
    round_s: Vec<f64>,
    migrate_s: Vec<f64>,
    engine_s: Vec<f64>,
    settle_s: Vec<f64>,
    rounds: Vec<OutcomeSummary>,
    engine: Option<EngineReport>,
    usage: Vec<(EntityId, f64)>,
}

fn run_engine(w: &World, seed: u64) -> Result<EngineReport, String> {
    build_engine(&w.inst, &w.leased_at_headroom, w.members, ENGINE_HORIZON_NS, seed)
        .map(|engine| engine.run())
}

/// One epoch. Every client call is one operation; a failed one drops the
/// epoch's sample and everything timed after it.
fn epoch(w: &mut World, seed: u64, tracer: &Tracer, rep: &mut Report, s: &mut Samples) {
    let _epoch_span = tracer.enter("epoch");
    let epoch_start = Instant::now();

    let (round, round_s) = tracer.timed("wire.run_auction", || w.client.run_auction());
    let Some(round) = rep.op("RunAuction", round) else { return };
    s.round_s.push(round_s);
    s.rounds.push(round);

    let migrate = |w: &mut World, scale: f64, rep: &mut Report| {
        let (done, secs) =
            tracer.timed("wire.begin_transition", || w.client.begin_transition(None, Some(scale)));
        let committed = done.map_err(|e| e.to_string()).and_then(|t| {
            if t.outcome == "committed" {
                Ok(t)
            } else {
                Err(format!("migration ended {} after {} replans", t.outcome, t.replans))
            }
        });
        rep.op("BeginTransition", committed).map(|_| secs)
    };
    let Some(expand_s) = migrate(w, HEADROOM, rep) else { return };

    let (packets, engine_s) = tracer.timed("client.engine_run", || run_engine(w, seed));
    let Some(packets) = rep.op("Engine::run", packets) else { return };

    let before: Vec<f64> = w.members.iter().filter_map(|&m| w.client.balance(m).ok()).collect();
    let (bill, settle_s) = tracer.timed("wire.settle", || {
        w.client.report_usage_batch(&packets.usage_by_owner)?;
        w.client.run_billing()
    });
    rep.ops_attempted += packets.usage_by_owner.len() as u64;
    let Some(bill) = rep.op("ReportUsage batch + RunBilling", bill) else { return };
    let after: Vec<f64> = w.members.iter().filter_map(|&m| w.client.balance(m).ok()).collect();
    rep.check(
        "ledger.balances_move",
        before.len() == 2 && after.len() == 2 && before.iter().zip(&after).all(|(b, a)| a < b),
        || format!("member balances {before:?} -> {after:?} after billing period {}", bill.period),
    );
    let charged: f64 = bill.charges.iter().map(|(_, c)| c).sum();
    rep.check(
        "ledger.conservation",
        bill.total_outlay > 0.0
            && bill.poc_net.abs() <= 1e-6 * bill.total_outlay
            && (charged - bill.total_outlay).abs() <= 1e-6 * bill.total_outlay,
        || {
            format!(
                "period {}: outlay {} charged {charged} POC net {}",
                bill.period, bill.total_outlay, bill.poc_net
            )
        },
    );

    let Some(contract_s) = migrate(w, 1.0, rep) else { return };

    s.epoch_s.push(epoch_start.elapsed().as_secs_f64());
    s.migrate_s.extend([expand_s, contract_s]);
    s.engine_s.push(engine_s);
    s.settle_s.push(settle_s);
    s.usage = packets.usage_by_owner.clone();
    s.engine = Some(packets);
}

fn pass(w: &mut World, ctx: &Ctx, max_epochs: usize, tracer: &Tracer, rep: &mut Report) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    let mut done = 0;
    while done < max_epochs && (done == 0 || start.elapsed().as_secs_f64() < ctx.pass_seconds()) {
        epoch(w, ctx.seed, tracer, rep, &mut s);
        done += 1;
    }
    s
}

fn same_summary(a: &OutcomeSummary, b: &OutcomeSummary) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    a.n_selected_links == b.n_selected_links
        && close(a.total_cost, b.total_cost)
        && close(a.total_payments, b.total_payments)
}

fn summarize(out: &AuctionOutcome) -> OutcomeSummary {
    OutcomeSummary {
        n_selected_links: out.selected.len(),
        total_cost: out.total_cost,
        total_payments: out.settlements.iter().map(|s| s.payment).sum(),
        settlements: out.settlements.iter().map(|s| (s.bp.0, s.payment, s.pob())).collect(),
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::new("epoch_wire_zoo10", ctx.traced);
    let (mut w, setup_s) = repeat_setup(ctx, || setup(ctx), |w: World| w.server.stop())?;
    println!("{}", w.inst.describe());
    let max_epochs = match (ctx.quick, ctx.traced) {
        (true, true) => 1,
        (true, false) => 2,
        (false, _) => usize::MAX,
    };

    let quiet = Tracer::new(false);
    let untraced = pass(&mut w, ctx, max_epochs, &quiet, &mut rep);
    let mut samples = vec![&untraced];

    // The traced pass and the in-process layer calls.
    let tracer = Tracer::new(true);
    let traced;
    if ctx.traced {
        let counters = Counters::start();
        traced = pass(&mut w, ctx, max_epochs, &tracer, &mut rep);
        counters.report_flow(&mut rep);
        counters.report_ctrl(&mut rep);
        samples.push(&traced);
        rep.set_samples("epoch_s", &traced.epoch_s);
        rep.set_samples("round_s", &traced.round_s);
        rep.set_samples("migrate_s", &traced.migrate_s);
        rep.set(
            "obs.trace_overhead_ratio",
            layers::ratio(median(&traced.epoch_s), median(&untraced.epoch_s)),
        );
        if let Some(e) = &traced.engine {
            crate::w_dataplane::report_engine(&mut rep, e, &traced.engine_s, &[]);
        }
    }

    // Output checks shared by both modes.
    let rounds: Vec<&OutcomeSummary> = samples.iter().flat_map(|s| &s.rounds).collect();
    rep.check("rounds.identical", rounds.windows(2).all(|p| same_summary(p[0], p[1])), || {
        "OutcomeSummary differs between rounds of one run".into()
    });
    // The same facade the server wraps, with the same members attached in
    // the same order, so entity ids agree.
    let mut reference = Poc::new(w.inst.topo.clone(), PocConfig::default());
    rep.op("in-process attach", attach_members_in_process(&mut reference, &w.inst));
    let (inproc, inproc_round_s) =
        tracer.timed("core.run_auction_round", || reference.run_auction_round(&w.inst.tm).cloned());
    let inproc = rep.op("in-process Poc::run_auction_round", inproc);
    if let (Some(inproc), Some(first)) = (&inproc, rounds.first()) {
        rep.check("rounds.match_inproc", same_summary(&summarize(inproc), first), || {
            format!("wire round {first:?} differs from in-process {:?}", summarize(inproc))
        });
    }

    if ctx.traced {
        let usage =
            samples.iter().rev().find(|s| !s.usage.is_empty()).map_or(&[][..], |s| &s.usage);
        let lease_frame = rep.op("GetLeases", w.client.leases()).unwrap_or_default();
        w.server.stop();
        recover(&w.inst, &ctx.state_root.join("epoch"), &tracer, &mut rep);
        layer_calls(
            ctx,
            &w.inst,
            &mut reference,
            inproc,
            inproc_round_s,
            usage,
            &lease_frame,
            &tracer,
            &mut rep,
        );
        rep.table.merge(tracer.fold());
    } else {
        w.server.stop();
        rep.set_samples("primary_op_ms", &scaled(&untraced.round_s, 1e3));
        rep.set_samples("companion_op_ms", &scaled(&untraced.migrate_s, 1e3));
        let wall: f64 = untraced.epoch_s.iter().sum();
        rep.set("work_per_s", layers::ratio(untraced.epoch_s.len() as f64, wall));
        rep.set_samples("setup_s", &setup_s);
        println!(
            "epoch_s {:.3} round_s {:.3} migrate_s {:.3} engine_s {:.3} settle_ms {:.2} over {} epochs",
            median(&untraced.epoch_s),
            median(&untraced.round_s),
            median(&untraced.migrate_s),
            median(&untraced.engine_s),
            median(&untraced.settle_s) * 1e3,
            untraced.epoch_s.len()
        );
    }
    Ok(rep)
}

fn scaled(samples: &[f64], by: f64) -> Vec<f64> {
    samples.iter().map(|s| s * by).collect()
}

/// Re-bind on the stopped server's state directory: what a restart costs.
pub fn recover(inst: &Instance, state_dir: &std::path::Path, tracer: &Tracer, rep: &mut Report) {
    let (server, secs) = tracer
        .timed("ctrlplane.recover", || Server::boot(inst, state_dir, false, FsyncPolicy::Always));
    let Some(server) = rep.op("recover from state dir", server) else { return };
    rep.set("ctrlplane.recover_ms", secs * 1e3);
    let info = server.connect().and_then(|mut c| c.recovery_info().map_err(|e| e.to_string()));
    if let Some(Some(info)) = rep.op("GetRecovery", info) {
        rep.set("ctrlplane.replayed_records", info.replayed_records as f64);
    }
    server.stop();
}

/// The in-process layer calls on zoo10, with the server's selector.
#[allow(clippy::too_many_arguments)]
fn layer_calls(
    ctx: &Ctx,
    inst: &Instance,
    reference: &mut Poc,
    live: Option<AuctionOutcome>,
    inproc_round_s: f64,
    usage: &[(EntityId, f64)],
    lease_frame: &[poc_ctrlplane::proto::LeaseWire],
    tracer: &Tracer,
    rep: &mut Report,
) {
    let fresh = Instance::generate(Size::Zoo10, ctx.instance_seed, tracer);
    rep.set("topology.generate_s", fresh.topology_generate_s);
    rep.set("traffic.generate_s", fresh.traffic_generate_s);

    let selector = GreedySelector::default();
    let counters = Counters::start();
    let Some(outcome) = layers::auction(inst, &selector, tracer, rep) else { return };
    let Some(live) = live else { return };
    rep.check("rounds.match_decomposition", outcome.selected == live.selected, || {
        "run_auction and Poc::run_auction_round selected different sets".into()
    });
    layers::flow(inst, &live.selected, tracer, rep);

    // What the server computes first for a `BeginTransition` at HEADROOM.
    let forecast = inst.scaled_tm(HEADROOM);
    let (target, target_s) =
        tracer.timed("auction.target_outcome", || reference.compute_auction_outcome(&forecast));
    let Some(target) = rep.op("target outcome at headroom", target) else { return };
    layers::core(inst, reference, &live, &target, usage, tracer, rep);

    let expand = layers::walk(
        inst,
        &live.selected,
        &target.selected,
        ("transition.plan_expand", "transition.exec_expand"),
        tracer,
        rep,
    );
    let contract = layers::walk(
        inst,
        &target.selected,
        &live.selected,
        ("transition.plan_contract", "transition.exec_contract"),
        tracer,
        rep,
    );
    let (Some(expand), Some(contract)) = (expand, contract) else { return };
    let walk_s = median(&[expand.plan_s + expand.exec_s, contract.plan_s + contract.exec_s]);
    let retries = counters.delta("transition.verify.retries");
    let rejected = layers::unsafe_intermediates(inst, &[&expand, &contract], rep);
    layers::transition(
        inst,
        &live.selected,
        &target.selected,
        &[expand],
        &[contract],
        retries,
        rejected,
        tracer,
        rep,
    );

    // What the wire adds on top of the same work done in process.
    rep.set("ctrlplane.round_overhead_ms", (rep.get("round_s") - inproc_round_s) * 1e3);
    rep.set("ctrlplane.migrate_journal_ms", (rep.get("migrate_s") - target_s - walk_s) * 1e3);

    layers::ctrl_direct(reference, lease_frame, &ctx.state_root.join("scratch"), tracer, rep);
}
