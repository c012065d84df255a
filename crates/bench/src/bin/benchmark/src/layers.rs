//! The traced pass's direct, in-process calls into each layer's public
//! functions, on the workload's own instance. Each helper records spans
//! through the run's [`Tracer`] and sets the layer's metrics on the
//! [`Report`]; counts are deltas of counters the crates already keep in
//! `poc_obs::global()`.

use crate::instance::{Instance, CONSTRAINT};
use crate::report::Report;
use crate::stats::median;
use crate::tracer::{LayerTable, Tracer};
use poc_auction::{run_auction, AuctionOutcome, GreedySelector, Market, Selector};
use poc_core::entity::EntityId;
use poc_core::poc::Poc;
use poc_core::{ForwardingState, LeaseBook};
use poc_ctrlplane::codec::{read_frame, write_frame};
use poc_ctrlplane::journal::{GroupJournal, JournalEvent};
use poc_ctrlplane::proto::LeaseWire;
use poc_ctrlplane::snapshot::{write_snapshot, ControllerSnapshot};
use poc_ctrlplane::{CrashSwitch, FsyncFault, FsyncPolicy, Request, Response};
use poc_flow::{
    AcceptabilityOracle, CapacityGraph, FeasibilityCache, FeasibilityOracle, LinkSet, WarmOracle,
};
use poc_netsim::{run_transition_drill, TransitionDrillSpec};
use poc_obs::MetricsSnapshot;
use poc_topology::RouterId;
use poc_transition::{
    execute_transition, plan_transition, PlanConfig, TransitionHooks, TransitionOp,
    TransitionOutcome,
};
use std::path::Path;

/// Counter deltas of the process-global registry since `start`.
pub struct Counters {
    before: MetricsSnapshot,
}

impl Counters {
    pub fn start() -> Self {
        Self { before: poc_obs::global().snapshot() }
    }

    /// One fresh snapshot, read as `name -> delta since start`.
    fn deltas(&self) -> impl Fn(&str) -> f64 + '_ {
        let now = poc_obs::global().snapshot();
        move |name| (now.counter(name).unwrap_or(0) - self.before.counter(name).unwrap_or(0)) as f64
    }

    pub fn delta(&self, name: &str) -> u64 {
        self.deltas()(name) as u64
    }

    /// `flow.*` counts since `start`.
    pub fn report_flow(&self, rep: &mut Report) {
        let d = self.deltas();
        let evaluates = |snap: &MetricsSnapshot| {
            snap.histogram("flow.warm.evaluate").map_or(0, |h| h.count) as f64
        };
        let warm_evaluates = evaluates(&poc_obs::global().snapshot()) - evaluates(&self.before);
        rep.set("flow.oracle_checks", d("flow.oracle.check"));
        rep.set("flow.warm_reused_flows", d("flow.warm.reused_flows"));
        rep.set("flow.warm_rerouted_flows", d("flow.warm.rerouted_flows"));
        rep.set("flow.warm_fallbacks", d("flow.warm.fallbacks"));
        rep.set("flow.warm_fallback_ratio", ratio(d("flow.warm.fallbacks"), warm_evaluates));
        let (hit, miss) = (d("flow.cache.hit"), d("flow.cache.miss"));
        rep.set("flow.cache_hit_ratio", ratio(hit, hit + miss));
    }

    /// `ctrlplane.*` journal and admission counts since `start`.
    pub fn report_ctrl(&self, rep: &mut Report) {
        let d = self.deltas();
        let (appends, fsyncs) = (d("ctrl.journal.appends"), d("ctrl.journal.fsyncs"));
        rep.set("ctrlplane.appends", appends);
        rep.set("ctrlplane.fsyncs", fsyncs);
        rep.set("ctrlplane.batch_mean", ratio(appends, fsyncs));
        rep.set("ctrlplane.snapshots", d("ctrl.snapshot.writes"));
        rep.set("ctrlplane.busy_rejections", d("ctrl.admission.rejected"));
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median seconds of `reps` calls to `f`, each under a span.
fn median_secs(tracer: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| tracer.timed(name, &mut f).1).collect();
    median(&samples)
}

/// `auction.*`: the round taken apart the way `run_round` builds it —
/// market, initial selection over the full offer, the seed routing, then
/// one warm re-selection per BP holding links in `SL`, fanned out on
/// scoped threads exactly as `PivotMode::Parallel` does — next to the
/// composite `run_auction`. `auction.unattributed_s` is the composite
/// minus the parts, so drift between this decomposition and `run_round`
/// shows. Returns the composite's outcome.
pub fn auction(
    inst: &Instance,
    selector: &GreedySelector,
    tracer: &Tracer,
    rep: &mut Report,
) -> Option<AuctionOutcome> {
    let (topo, tm) = (&inst.topo, &inst.tm);
    let build = median_secs(tracer, "auction.market_build", 5, || {
        std::hint::black_box(Market::truthful(topo, 3.0));
    });
    rep.set("auction.market_build_ms", build * 1e3);
    let market = Market::truthful(topo, 3.0);

    let cache = FeasibilityCache::new();
    let oracle = FeasibilityOracle::with_cache(topo, tm, CONSTRAINT, &cache)
        .expect("a fresh cache has no prior instance binding");
    let (sl, select_s) =
        tracer.timed("auction.select", || selector.select(&market, &oracle, market.offered()));
    let sl = sl?;
    rep.set("auction.select_s", select_s);
    let (seed, seed_s) = tracer.timed("auction.seed_route", || oracle.route(&sl.links));
    let seed = seed?;

    let pivoting: Vec<_> = market
        .participants()
        .into_iter()
        .filter(|&bp| {
            market.links_of(bp).is_some_and(|owned| !sl.links.intersection(owned).is_empty())
        })
        .collect();
    let (per_pivot, fanout_s) = tracer.timed("auction.pivots_fanout", || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = pivoting
                .iter()
                .map(|&bp| {
                    let (market, seed) = (&market, &seed);
                    scope.spawn(move || {
                        let local = Tracer::new(true);
                        let without = market.offered_without(bp);
                        let warm = WarmOracle::new(topo, tm, CONSTRAINT);
                        warm.seed(seed.clone());
                        let (picked, secs) = local
                            .timed("auction.pivot", || selector.select(market, &warm, &without));
                        (picked.is_some(), secs, local.fold())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("pivot thread panicked")).collect::<Vec<(
                bool,
                f64,
                LayerTable,
            )>>()
        })
    });
    let mut pivot_secs = Vec::new();
    for (feasible, secs, table) in per_pivot {
        rep.check("auction.pivot", feasible, || {
            format!("{} has a BP whose withdrawal leaves no acceptable set", inst.label)
        });
        pivot_secs.push(secs);
        if tracer.enabled() {
            rep.table.merge(table);
        }
    }
    rep.set("auction.pivots", pivot_secs.len() as f64);
    rep.set("auction.pivot_s", median(&pivot_secs));
    rep.set("auction.pivot_max_s", pivot_secs.iter().copied().fold(0.0, f64::max));

    let (outcome, round_s) =
        tracer.timed("auction.round_inproc", || run_auction(&market, tm, CONSTRAINT, selector));
    rep.set("auction.round_inproc_s", round_s);
    rep.set("auction.unattributed_s", round_s - (select_s + seed_s + fanout_s));
    let outcome = rep.op("in-process run_auction", outcome)?;
    rep.check("auction.decomposition", outcome.selected == sl.links, || {
        "the benchmark's initial selection differs from run_auction's".into()
    });
    Some(outcome)
}

/// `flow.*` timings on the selection `sl`: graph build, one Dijkstra, a
/// full matrix routing, a cold evaluate, and a warm evaluate of `sl` minus
/// one link from a witness seeded with `sl`'s routing.
pub fn flow(inst: &Instance, sl: &LinkSet, tracer: &Tracer, rep: &mut Report) {
    let (topo, tm) = (&inst.topo, &inst.tm);
    let graph_s = median_secs(tracer, "flow.graph_build", 200, || {
        std::hint::black_box(CapacityGraph::new(topo, sl));
    });
    rep.set("flow.graph_build_us", graph_s * 1e6);

    let graph = CapacityGraph::new(topo, sl);
    let far = RouterId::from_index(topo.n_routers() - 1);
    let path_s = median_secs(tracer, "flow.shortest_path", 200, || {
        std::hint::black_box(graph.shortest_path(
            RouterId(0),
            far,
            |l, _| topo.link(l).distance_km,
            |_, _| true,
        ));
    });
    rep.set("flow.shortest_path_us", path_s * 1e6);

    let route_s = median_secs(tracer, "flow.route_tm", 10, || {
        std::hint::black_box(poc_flow::route_tm(topo, sl, tm).is_ok());
    });
    rep.set("flow.route_tm_ms", route_s * 1e3);

    let cold = FeasibilityOracle::new(topo, tm, CONSTRAINT);
    let cold_s = median_secs(tracer, "flow.cold_eval", 10, || {
        std::hint::black_box(cold.evaluate(sl).is_ok());
    });
    rep.set("flow.cold_eval_ms", cold_s * 1e3);

    let Ok(witness) = cold.evaluate(sl) else {
        rep.check("flow.cold_eval", false, || "the live selection does not route cold".into());
        return;
    };
    let warm = WarmOracle::new(topo, tm, CONSTRAINT);
    let warm_samples: Vec<f64> = sl
        .iter()
        .take(20)
        .map(|link| {
            let mut probe = sl.clone();
            probe.remove(link);
            warm.seed(witness.clone());
            tracer.timed("flow.warm_eval", || std::hint::black_box(warm.evaluate_traced(&probe))).1
        })
        .collect();
    rep.set("flow.warm_eval_ms", median(&warm_samples) * 1e3);
}

/// `core.*`: booking and installing an outcome (`LeaseBook::ingest_auction`
/// and `ForwardingState::install`, what `Poc::run_auction_round` adds to
/// `compute_auction_outcome`), billing cycles on `poc` (which has run its
/// round and holds both members), and single lease steps over the links
/// only `target` holds.
pub fn core(
    inst: &Instance,
    poc: &mut Poc,
    live: &AuctionOutcome,
    target: &AuctionOutcome,
    usage: &[(EntityId, f64)],
    tracer: &Tracer,
    rep: &mut Report,
) {
    let topo = &inst.topo;
    let install_s = median_secs(tracer, "core.install", 10, || {
        let mut book = LeaseBook::new();
        book.ingest_auction(topo, live, 0);
        std::hint::black_box((book, ForwardingState::install(topo, &live.selected)));
    });
    rep.set("core.install_ms", install_s * 1e3);

    let settle: Vec<f64> = (0..5)
        .filter_map(|_| {
            let (bill, secs) = tracer.timed("core.settle", || poc.billing_cycle(usage));
            rep.op("in-process billing_cycle", bill).map(|_| secs)
        })
        .collect();
    rep.set("core.settle_ms", median(&settle) * 1e3);
    let conservation = poc.ledger().conservation_error();
    rep.check("ledger.conservation", conservation.abs() < 1e-6, || {
        format!("in-process ledger conservation error {conservation:e}")
    });

    let mut steps = Vec::new();
    for link in target.selected.difference(&live.selected).iter().take(32) {
        let (added, add_s) =
            tracer.timed("core.lease_step", || poc.transition_add_link(target, link));
        let (removed, remove_s) =
            tracer.timed("core.lease_step", || poc.transition_remove_link(link));
        if rep.op("transition_add_link", added).is_some()
            && rep.op("transition_remove_link", removed).is_some()
        {
            steps.extend([add_s, remove_s]);
        }
    }
    rep.set("core.lease_step_us", median(&steps) * 1e6);
}

/// Hooks that count steps, keep every applied state for the safety check,
/// and put each hook call under a span so the executor's self time
/// excludes it.
pub struct CountingHooks<'a> {
    pub tracer: &'a Tracer,
    pub steps: usize,
    pub states: Vec<LinkSet>,
}

impl<'a> CountingHooks<'a> {
    pub fn new(tracer: &'a Tracer) -> Self {
        Self { tracer, steps: 0, states: Vec::new() }
    }
}

impl TransitionHooks for CountingHooks<'_> {
    fn apply_step(
        &mut self,
        _: usize,
        _: TransitionOp,
        state_after: &LinkSet,
    ) -> Result<(), String> {
        let _span = self.tracer.enter("transition.apply_step");
        self.steps += 1;
        self.states.push(state_after.clone());
        Ok(())
    }
}

pub struct Walk {
    pub from: LinkSet,
    pub plan_s: f64,
    pub exec_s: f64,
    pub steps: usize,
    pub probes: usize,
    pub replans: u32,
    pub rollbacks: u32,
    pub states: Vec<LinkSet>,
}

/// One `plan_transition` + `execute_transition` walk. `None` (and a failed
/// operation) when planning fails or the walk does not end `Committed`.
pub fn walk(
    inst: &Instance,
    from: &LinkSet,
    to: &LinkSet,
    spans: (&'static str, &'static str),
    tracer: &Tracer,
    rep: &mut Report,
) -> Option<Walk> {
    let (topo, tm) = (&inst.topo, &inst.tm);
    let cfg = PlanConfig::default();
    let (plan, plan_s) =
        tracer.timed(spans.0, || plan_transition(topo, tm, CONSTRAINT, from, to, &cfg));
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            rep.op::<(), _>("plan_transition", Err(format!("{e:?}")));
            return None;
        }
    };
    let (steps, probes) = (plan.steps.len(), plan.probes);
    let mut hooks = CountingHooks::new(tracer);
    let (report, exec_s) =
        tracer.timed(spans.1, || execute_transition(topo, tm, CONSTRAINT, &cfg, plan, &mut hooks));
    let report = rep.op(
        "execute_transition",
        report.map_err(|e| e.to_string()).and_then(|r| {
            if r.outcome == TransitionOutcome::Committed && r.final_state == *to {
                Ok(r)
            } else {
                Err(format!("walk ended {:?} after {} replans", r.outcome, r.replans))
            }
        }),
    )?;
    Some(Walk {
        from: from.clone(),
        plan_s,
        exec_s,
        steps,
        probes,
        replans: report.replans,
        rollbacks: report.rollbacks,
        states: hooks.states,
    })
}

/// Re-check every applied state of `walks`, outside any timed region.
/// First against a cold `FeasibilityOracle`, each distinct state once, on
/// two threads. The cold oracle's greedy packing is incomplete — it can
/// reject a set that routes (`flow::warm`: warm-accepts ⊇ cold-accepts) —
/// so a walk holding a cold-rejected state is walked again, in order, by an
/// independent `WarmOracle` chained from the walk's starting set (the
/// transition drill's recipe), whose accepts carry a genuine routing
/// witness. A state both reject is unsafe; any at all fails the run.
pub fn unsafe_intermediates(inst: &Instance, walks: &[&Walk], rep: &mut Report) -> usize {
    use std::collections::HashSet;
    let distinct: Vec<&LinkSet> = {
        let mut seen = HashSet::new();
        walks.iter().flat_map(|w| &w.states).filter(|s| seen.insert(*s)).collect()
    };
    let cold = FeasibilityOracle::new(&inst.topo, &inst.tm, CONSTRAINT);
    let halves = distinct.split_at(distinct.len() / 2);
    let rejects = |part: &[&'_ LinkSet]| -> Vec<LinkSet> {
        part.iter().filter(|s| !cold.acceptable(s)).map(|s| (*s).clone()).collect()
    };
    let cold_rejected: HashSet<LinkSet> = std::thread::scope(|scope| {
        let other = scope.spawn(|| rejects(halves.0));
        let mut mine = rejects(halves.1);
        mine.extend(other.join().expect("safety-check thread panicked"));
        mine.into_iter().collect()
    });

    let mut unsafe_states: HashSet<&LinkSet> = HashSet::new();
    let mut chained: Vec<&Walk> = Vec::new();
    for walk in walks.iter().filter(|w| w.states.iter().any(|s| cold_rejected.contains(s))) {
        if chained.iter().any(|c| c.from == walk.from && c.states == walk.states) {
            continue;
        }
        chained.push(walk);
        let chain = WarmOracle::new(&inst.topo, &inst.tm, CONSTRAINT);
        chain.acceptable(&walk.from);
        for state in &walk.states {
            if !chain.acceptable(state) && cold_rejected.contains(state) {
                unsafe_states.insert(state);
            }
        }
    }
    if !cold_rejected.is_empty() {
        eprintln!(
            "note: the cold oracle rejects {} of {} distinct applied states; an independent warm \
             chain routes all but {}",
            cold_rejected.len(),
            distinct.len(),
            unsafe_states.len()
        );
    }
    let rejected = unsafe_states.len();
    rep.check("transition.safe_intermediates", rejected == 0, || {
        format!("{rejected} of {} distinct applied states are infeasible", distinct.len())
    });
    rejected
}

/// `transition.*` from the traced walks plus one cut=1/recall=1 drill per
/// direction. `infeasible` is what [`unsafe_intermediates`] found among the
/// walks' applied states.
#[allow(clippy::too_many_arguments)]
pub fn transition(
    inst: &Instance,
    live: &LinkSet,
    target: &LinkSet,
    expand: &[Walk],
    contract: &[Walk],
    retries: u64,
    infeasible: usize,
    tracer: &Tracer,
    rep: &mut Report,
) {
    let med =
        |walks: &[Walk], f: fn(&Walk) -> f64| median(&walks.iter().map(f).collect::<Vec<_>>());
    let (plan_e, plan_c) = (med(expand, |w| w.plan_s), med(contract, |w| w.plan_s));
    let (exec_e, exec_c) = (med(expand, |w| w.exec_s), med(contract, |w| w.exec_s));
    rep.set("transition.plan_expand_s", plan_e);
    rep.set("transition.plan_contract_s", plan_c);
    rep.set("transition.exec_expand_s", exec_e);
    rep.set("transition.exec_contract_s", exec_c);
    rep.set("transition.exec_over_plan", ratio(exec_e + exec_c, plan_e + plan_c));
    let all = || expand.iter().chain(contract);
    let (steps, probes) = (
        all().map(|w| w.steps).sum::<usize>() as f64,
        all().map(|w| w.probes).sum::<usize>() as f64,
    );
    rep.set("transition.steps", steps);
    rep.set("transition.plan_probes", probes);
    rep.set("transition.probes_per_step", ratio(probes, steps));
    rep.set("transition.verify_retries", retries as f64);
    rep.set("transition.replans", all().map(|w| w.replans).sum::<u32>() as f64);
    rep.set("transition.rollbacks", all().map(|w| w.rollbacks).sum::<u32>() as f64);

    // Faults land at the second round boundary, the midpoint of an
    // adds-first plan, so the drill times the mid-flight replan path.
    let spec = TransitionDrillSpec { n_cuts: 1, n_recalls: 1, at_poll: 1 };
    let mut drill_s = Vec::new();
    let mut unsafe_states = 0usize;
    for (from, to) in [(live, target), (target, live)] {
        let (drill, secs) = tracer.timed("transition.drill", || {
            run_transition_drill(&inst.topo, &inst.tm, CONSTRAINT, from, to, &spec)
        });
        if let Some(d) = rep.op("run_transition_drill", drill) {
            drill_s.push(secs);
            unsafe_states += d.unsafe_intermediates + d.dead_link_reappearances;
        }
    }
    rep.set("transition.drill_s", median(&drill_s));
    rep.set("transition.unsafe_intermediates", (unsafe_states + infeasible) as f64);
    rep.check("transition.drill", unsafe_states == 0, || {
        format!("{unsafe_states} unsafe intermediate states under cut=1 recall=1")
    });
}

/// `ctrlplane.*` direct calls: the codec on a small and a large frame, the
/// group journal with and without fsync in a scratch directory, and one
/// snapshot of `poc`'s state.
pub fn ctrl_direct(
    poc: &Poc,
    leases: &[LeaseWire],
    scratch: &Path,
    tracer: &Tracer,
    rep: &mut Report,
) {
    let small = Request::ReportUsage { entity: EntityId(1), gbps: 0.125 };
    let small_s = median_secs(tracer, "ctrlplane.codec_small", 2000, || {
        let mut wire = Vec::with_capacity(64);
        write_frame(&mut wire, &small).expect("encode ReportUsage");
        let back: Request = read_frame(&mut wire.as_slice()).expect("decode ReportUsage");
        std::hint::black_box(back);
    });
    rep.set("ctrlplane.codec_small_us", small_s * 1e6);

    let large = Response::Leases(leases.to_vec());
    let mut frame = Vec::new();
    write_frame(&mut frame, &large).expect("encode Leases");
    rep.set("ctrlplane.lease_frame_bytes", frame.len() as f64);
    let large_s = median_secs(tracer, "ctrlplane.codec_large", 200, || {
        let mut wire = Vec::with_capacity(frame.len());
        write_frame(&mut wire, &large).expect("encode Leases");
        let back: Response = read_frame(&mut wire.as_slice()).expect("decode Leases");
        std::hint::black_box(back);
    });
    rep.set("ctrlplane.codec_large_us", large_s * 1e6);

    let _ = std::fs::create_dir_all(scratch);
    let mut append_us = |policy: FsyncPolicy, span: &'static str, file: &str, reps: usize| {
        let path = scratch.join(file);
        let _ = std::fs::remove_file(&path);
        let journal = match GroupJournal::open(&path, 0, policy, 1, FsyncFault::new()) {
            Ok(j) => j,
            Err(e) => {
                rep.op::<(), _>("open scratch journal", Err(e));
                return 0.0;
            }
        };
        let crash = CrashSwitch::new();
        let samples: Vec<f64> = (0..reps)
            .filter_map(|_| {
                let event = JournalEvent::ReportUsage { entity: EntityId(1), gbps: 0.125 };
                let (appended, secs) = tracer.timed(span, || journal.append(event, &crash));
                appended.ok().map(|_| secs * 1e6)
            })
            .collect();
        median(&samples)
    };
    let sync_us =
        append_us(FsyncPolicy::Always, "ctrlplane.journal_append_sync", "sync.journal", 300);
    let nosync_us =
        append_us(FsyncPolicy::Never, "ctrlplane.journal_append_nosync", "nosync.journal", 3000);
    rep.set("ctrlplane.journal_append_sync_us", sync_us);
    rep.set("ctrlplane.journal_append_nosync_us", nosync_us);
    rep.set("ctrlplane.fsync_share", ratio(sync_us - nosync_us, sync_us));

    let snapshot = ControllerSnapshot {
        seq: 1,
        fingerprint: poc_core::poc::topology_fingerprint(poc.topo()),
        poc: poc.export_state(),
        usage: Default::default(),
    };
    rep.set(
        "ctrlplane.snapshot_bytes",
        serde_json::to_vec(&snapshot).map_or(0.0, |b| b.len() as f64),
    );
    let crash = CrashSwitch::new();
    let snaps: Vec<f64> = (0..5)
        .filter_map(|_| {
            let (wrote, secs) = tracer
                .timed("ctrlplane.snapshot_write", || write_snapshot(scratch, &snapshot, &crash));
            rep.op("write_snapshot", wrote).map(|()| secs * 1e3)
        })
        .collect();
    rep.set("ctrlplane.snapshot_write_ms", median(&snaps));
}
