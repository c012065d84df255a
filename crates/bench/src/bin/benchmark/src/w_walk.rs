//! `migrate_walk_zoo14`: alternating expand (live → x1.5) and contract
//! (x1.5 → live) walks of `plan_transition` + `execute_transition`, in
//! process, between two selections computed once in set-up. No auction
//! runs in the measured region.

use crate::harness::{repeat_setup, Ctx};
use crate::instance::{Instance, Size, HEADROOM};
use crate::layers::{self, ratio, Counters, Walk};
use crate::report::Report;
use crate::stats::median;
use crate::tracer::Tracer;
use poc_auction::GreedySelector;
use poc_flow::LinkSet;
use std::time::Instant;

struct World {
    inst: Instance,
    live: LinkSet,
    target: LinkSet,
}

fn setup(ctx: &Ctx, tracer: &Tracer) -> Result<World, String> {
    let inst = Instance::generate(Size::Zoo14, ctx.instance_seed, tracer);
    let selector = GreedySelector::with_prune_budget(16);
    let live = inst.selection(&selector, 1.0, tracer)?;
    let target = inst.selection(&selector, HEADROOM, tracer)?;
    if live == target {
        return Err(format!(
            "zoo14 selects the same set at x1.0 and x{HEADROOM}: nothing to migrate (instance seed {:#x})",
            inst.instance_seed
        ));
    }
    Ok(World { inst, live, target })
}

#[derive(Default)]
struct Samples {
    expand: Vec<Walk>,
    contract: Vec<Walk>,
}

impl Samples {
    fn walk_s(walks: &[Walk]) -> Vec<f64> {
        walks.iter().map(|w| w.plan_s + w.exec_s).collect()
    }

    /// Plan steps produced per second of `plan_transition`, both
    /// directions.
    fn planned_steps_per_s(&self) -> f64 {
        let walks = || self.expand.iter().chain(&self.contract);
        ratio(walks().map(|w| w.steps).sum::<usize>() as f64, walks().map(|w| w.plan_s).sum())
    }
}

/// Whole pairs of walks until the pass's time is spent.
fn pass(w: &World, ctx: &Ctx, tracer: &Tracer, rep: &mut Report) -> Samples {
    let mut s = Samples::default();
    let max_pairs = match (ctx.quick, ctx.traced) {
        (true, true) => 1,
        (true, false) => 3,
        (false, _) => usize::MAX,
    };
    let start = Instant::now();
    let mut pairs = 0;
    while pairs < max_pairs && (pairs == 0 || start.elapsed().as_secs_f64() < ctx.pass_seconds()) {
        let _pair = tracer.enter("walk_pair");
        s.expand.extend(layers::walk(
            &w.inst,
            &w.live,
            &w.target,
            ("transition.plan_expand", "transition.exec_expand"),
            tracer,
            rep,
        ));
        s.contract.extend(layers::walk(
            &w.inst,
            &w.target,
            &w.live,
            ("transition.plan_contract", "transition.exec_contract"),
            tracer,
            rep,
        ));
        pairs += 1;
    }
    s
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::new("migrate_walk_zoo14", ctx.traced);
    let quiet = Tracer::new(false);
    let (w, setup_s) = repeat_setup(ctx, || setup(ctx, &quiet), drop)?;
    println!("{}; walking {} <-> {} links", w.inst.describe(), w.live.len(), w.target.len());

    let untraced = pass(&w, ctx, &quiet, &mut rep);
    let mut walked: Vec<&Walk> = untraced.expand.iter().chain(&untraced.contract).collect();

    let tracer = Tracer::new(true);
    let traced;
    if ctx.traced {
        let counters = Counters::start();
        traced = pass(&w, ctx, &tracer, &mut rep);
        let retries = counters.delta("transition.verify.retries");
        counters.report_flow(&mut rep);
        walked.extend(traced.expand.iter().chain(&traced.contract));
        let (expand_s, contract_s) =
            (Samples::walk_s(&traced.expand), Samples::walk_s(&traced.contract));
        rep.set_samples("walk_expand_s", &expand_s);
        rep.set_samples("walk_contract_s", &contract_s);
        let per_pair = |s: &Samples| {
            median(&Samples::walk_s(&s.expand)) + median(&Samples::walk_s(&s.contract))
        };
        rep.set("obs.trace_overhead_ratio", ratio(per_pair(&traced), per_pair(&untraced)));
        let rejected = layers::unsafe_intermediates(&w.inst, &walked, &mut rep);
        layers::transition(
            &w.inst,
            &w.live,
            &w.target,
            &traced.expand,
            &traced.contract,
            retries,
            rejected,
            &tracer,
            &mut rep,
        );
        layers::flow(&w.inst, &w.live, &tracer, &mut rep);
        // Set-up once more under spans: generation and the two selections.
        let (again, _) = tracer.timed("setup", || setup(ctx, &tracer));
        if let Some(again) = rep.op("traced set-up", again) {
            rep.set("topology.generate_s", again.inst.topology_generate_s);
            rep.set("traffic.generate_s", again.inst.traffic_generate_s);
        }
        rep.table.merge(tracer.fold());
        rep.set(
            "auction.select_s",
            ratio(rep.table.total_s("auction.select"), rep.table.count("auction.select") as f64),
        );
    } else {
        let (expand_s, contract_s) =
            (Samples::walk_s(&untraced.expand), Samples::walk_s(&untraced.contract));
        // The expand walk's execution is in no gated number: its concurrent
        // verify makes it 0.4–2.7 s on identical input, and even diluted
        // into steps applied per second of the whole window it spread 24 %
        // over ten runs (README, noise sources).
        let plan_expand_ms: Vec<f64> = untraced.expand.iter().map(|w| w.plan_s * 1e3).collect();
        rep.set_samples("primary_op_ms", &contract_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
        rep.set_samples("companion_op_ms", &plan_expand_ms);
        rep.set("work_per_s", untraced.planned_steps_per_s());
        rep.set_samples("setup_s", &setup_s);
        println!(
            "walk_expand_s {:.3} walk_contract_s {:.3} over {} + {} walks of {} steps",
            median(&expand_s),
            median(&contract_s),
            expand_s.len(),
            contract_s.len(),
            untraced.expand.first().map_or(0, |w| w.steps)
        );
        layers::unsafe_intermediates(&w.inst, &walked, &mut rep);
    }
    Ok(rep)
}
