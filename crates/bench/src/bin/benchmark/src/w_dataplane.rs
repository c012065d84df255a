//! `dataplane_zoo14`: the packet engine on the live selection, owners and
//! tags assigned as `poc dataplane` assigns them. The engine is
//! deterministic, so every repetition's report must be byte-identical and
//! only host time varies.

use crate::harness::{attach_members_in_process, build_engine, repeat_setup, Ctx};
use crate::instance::{Instance, Size};
use crate::layers::ratio;
use crate::report::Report;
use crate::stats::median;
use crate::tracer::Tracer;
use poc_auction::GreedySelector;
use poc_core::entity::EntityId;
use poc_core::poc::{Poc, PocConfig};
use poc_flow::LinkSet;
use poc_netsim::engine::{Engine, EngineReport};
use std::time::Instant;

struct World {
    inst: Instance,
    live: LinkSet,
    members: [EntityId; 2],
}

fn setup(ctx: &Ctx) -> Result<World, String> {
    let quiet = Tracer::new(false);
    let inst = Instance::generate(Size::Zoo14, ctx.instance_seed, &quiet);
    let live = inst.selection(&GreedySelector::with_prune_budget(16), 1.0, &quiet)?;
    let mut poc = Poc::new(inst.topo.clone(), PocConfig::default());
    let members = attach_members_in_process(&mut poc, &inst)?;
    Ok(World { inst, live, members })
}

fn build(w: &World, horizon_ns: u64, seed: u64) -> Result<Engine<'_>, String> {
    build_engine(&w.inst, &w.live, w.members, horizon_ns, seed)
}

#[derive(Default)]
struct Samples {
    build_s: Vec<f64>,
    run_s: Vec<f64>,
    reports: Vec<String>,
    last: Option<EngineReport>,
}

/// Build and run the engine until the pass's time is spent. A repetition
/// builds five engines and runs the last. The first build after a run finds
/// the caches and the allocator as the run left them and takes up to twice
/// as long, so it is left out of the samples: mixed in, the build median
/// flipped between the two populations from run to run.
fn pass(w: &World, ctx: &Ctx, horizon_ns: u64, tracer: &Tracer, rep: &mut Report) -> Samples {
    let mut s = Samples::default();
    let max_reps = if ctx.quick { 1 } else { usize::MAX };
    let start = Instant::now();
    while s.run_s.len() < max_reps
        && (s.run_s.is_empty() || start.elapsed().as_secs_f64() < ctx.pass_seconds())
    {
        let _rep_span = tracer.enter("repetition");
        let mut engine = None;
        for nth in 0..5 {
            let (built, secs) =
                tracer.timed("netsim.engine_build", || build(w, horizon_ns, ctx.seed));
            engine = rep.op("Engine::new", built);
            if engine.is_some() && nth > 0 {
                s.build_s.push(secs);
            }
        }
        let Some(engine) = engine else { continue };
        let (report, run_s) = tracer.timed("netsim.engine_run", || engine.run());
        rep.ops_attempted += 1;
        s.run_s.push(run_s);
        s.reports.push(serde_json::to_string(&report).unwrap_or_default());
        s.last = Some(report);
    }
    s
}

/// `netsim.*` from one engine report and the host times around it.
pub fn report_engine(rep: &mut Report, e: &EngineReport, run_s: &[f64], build_s: &[f64]) {
    rep.set_samples("netsim.engine_run_s", run_s);
    if !build_s.is_empty() {
        rep.set_samples(
            "netsim.engine_build_ms",
            &build_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
        );
    }
    rep.set("netsim.events", e.events as f64);
    rep.set("netsim.ns_per_event", ratio(median(run_s) * 1e9, e.events as f64));
    rep.set("netsim.packets_injected", e.packets_injected as f64);
    rep.set("netsim.packets_delivered", e.packets_delivered as f64);
    rep.set("netsim.packets_dropped", e.packets_dropped as f64);
    rep.set("netsim.drop_ratio", ratio(e.packets_dropped as f64, e.packets_injected as f64));
    rep.set("netsim.availability", e.overall_availability());
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::new("dataplane_zoo14", ctx.traced);
    let (w, setup_s) = repeat_setup(ctx, || setup(ctx), drop)?;
    println!("{}", w.inst.describe());
    let horizon_ns = if ctx.quick { 10_000_000 } else { 20_000_000 };
    let quiet = Tracer::new(false);

    // Let the allocator and caches settle before anything is timed.
    if !ctx.quick {
        if let Ok(warm_up) = build(&w, horizon_ns, ctx.seed) {
            std::hint::black_box(warm_up.run());
        }
    }
    let untraced = pass(&w, ctx, horizon_ns, &quiet, &mut rep);
    let mut reports: Vec<&String> = untraced.reports.iter().collect();
    let Some(last) = untraced.last.as_ref() else {
        return Err("no engine repetition completed".into());
    };
    let events = last.events as f64;

    let tracer = Tracer::new(true);
    let traced;
    if ctx.traced {
        traced = pass(&w, ctx, horizon_ns, &tracer, &mut rep);
        reports.extend(&traced.reports);
        report_engine(&mut rep, last, &traced.run_s, &traced.build_s);
        rep.set("engine_events_per_s", ratio(events, median(&traced.run_s)));
        rep.set("obs.trace_overhead_ratio", ratio(median(&traced.run_s), median(&untraced.run_s)));
        let fresh = Instance::generate(Size::Zoo14, ctx.instance_seed, &tracer);
        rep.set("topology.generate_s", fresh.topology_generate_s);
        rep.set("traffic.generate_s", fresh.traffic_generate_s);
        rep.table.merge(tracer.fold());
    } else {
        rep.set_samples(
            "primary_op_ms",
            &untraced.run_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
        );
        rep.set_samples(
            "companion_op_ms",
            &untraced.build_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
        );
        rep.set_samples(
            "work_per_s",
            &untraced.run_s.iter().map(|s| events / s).collect::<Vec<_>>(),
        );
        rep.set_samples("setup_s", &setup_s);
        println!(
            "engine_events_per_s {:.0} over {} repetitions of {} events ({} ms horizon)",
            events / median(&untraced.run_s),
            untraced.run_s.len(),
            last.events,
            horizon_ns / 1_000_000
        );
    }

    rep.check("engine.deterministic", reports.windows(2).all(|p| p[0] == p[1]), || {
        "EngineReport differs between repetitions on identical input".into()
    });
    rep.check(
        "engine.counts",
        last.events > 0
            && last.packets_injected > 0
            && last.packets_delivered > 0
            && last.packets_delivered + last.packets_dropped <= last.packets_injected
            && last.unroutable_pairs == 0,
        || {
            format!(
                "events {} injected {} delivered {} dropped {} unroutable pairs {}",
                last.events,
                last.packets_injected,
                last.packets_delivered,
                last.packets_dropped,
                last.unroutable_pairs
            )
        },
    );
    Ok(rep)
}
