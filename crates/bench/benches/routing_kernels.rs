//! Micro-benchmarks of the substrate kernels everything else is built on:
//! LinkSet algebra, single-source shortest path (one destination, and the
//! whole tree), full-matrix routing, the packet engine's build,
//! forwarding-table installation, and max-min fair allocation.
//!
//! The `*_selected` cases are shaped like the auction's hot path, the
//! selector's prune loop: a graph over a selection rather than the whole
//! offer, and a matrix the set just fails to carry. The `warm_probe_*`
//! cases are a transition walk's steps: an add, and a remove.

use criterion::{criterion_group, BenchmarkId, Criterion};
use poc_auction::{GreedySelector, Market, Selector};
use poc_bench::{instance, paper_instance};
use poc_core::fabric::ForwardingState;
use poc_flow::{
    route_tm, AcceptabilityOracle, CapacityGraph, Constraint, FeasibilityOracle, LinkSet,
    WarmOracle, WarmOutcome,
};
use poc_netsim::engine::{Engine, EngineConfig, SourceKind};
use poc_netsim::fairness::{max_min_rates, AllocFlow};
use poc_topology::RouterId;
use poc_traffic::UserFlowModel;
use std::time::Duration;

fn bench_linkset(c: &mut Criterion) {
    let (topo, _) = paper_instance();
    let n = topo.n_links();
    let full = LinkSet::full(n);
    let odd =
        LinkSet::from_links(n, (0..n).filter(|i| i % 2 == 1).map(poc_topology::LinkId::from_index));
    c.bench_function("linkset_union_4700", |b| b.iter(|| full.union(&odd)));
    c.bench_function("linkset_difference_4700", |b| b.iter(|| full.difference(&odd)));
    c.bench_function("linkset_iter_count_4700", |b| b.iter(|| odd.iter().count()));
}

fn bench_shortest_path(c: &mut Criterion) {
    let (topo, _) = paper_instance();
    let all = LinkSet::full(topo.n_links());
    let g = CapacityGraph::new(&topo, &all);
    let (src, dst) = (RouterId(0), RouterId(topo.n_routers() as u32 - 1));
    c.bench_function("dijkstra_paper_scale", |b| {
        b.iter(|| {
            g.shortest_path(src, dst, |l, _| topo.link(l).distance_km, |_, _| true)
                .expect("connected")
        })
    });
    // The same search with no destination to stop at: what one source
    // router costs the packet engine, whatever the number of its pairs.
    c.bench_function("shortest_path_tree_paper_scale", |b| {
        b.iter(|| g.shortest_path_tree(src, |l, _| topo.link(l).distance_km, |_, _| true))
    });
}

/// `Engine::new` + `add_traffic_matrix` over the whole offer: one tree per
/// source router, one interned route per demand pair.
fn bench_engine_build(c: &mut Criterion) {
    let (topo, tm) = instance();
    let all = LinkSet::full(topo.n_links());
    c.bench_function(&format!("engine_build_{}_pairs", tm.n_flows()), |b| {
        b.iter(|| {
            let mut engine = Engine::new(&topo, &all, EngineConfig::default()).expect("valid");
            engine
                .add_traffic_matrix(&tm, &UserFlowModel::default(), SourceKind::Persistent, |_| {
                    (None, "tm".to_string())
                })
                .expect("valid demands");
            engine
        })
    });
}

fn bench_route_tm(c: &mut Criterion) {
    let (topo, tm) = instance();
    let all = LinkSet::full(topo.n_links());
    c.bench_function("route_tm_small", |b| {
        b.iter(|| route_tm(&topo, &all, &tm).expect("feasible"))
    });
}

/// The kernels on what a prune probe hands them: the greedy selection, and
/// that selection less its dearest link that the matrix cannot spare.
fn bench_selected(c: &mut Criterion) {
    let (topo, tm) = instance();
    let market = Market::truthful(&topo, 3.0);
    let oracle = FeasibilityOracle::new(&topo, &tm, Constraint::BaseLoad);
    let selected = GreedySelector::default()
        .select(&market, &oracle, market.offered())
        .expect("feasible")
        .links;

    let g = CapacityGraph::new(&topo, &selected);
    let (src, dst) = (RouterId(0), RouterId(topo.n_routers() as u32 - 1));
    c.bench_function("dijkstra_selected_scale", |b| {
        b.iter(|| {
            g.shortest_path(
                src,
                dst,
                |l, _| topo.link(l).distance_km,
                |l, dir| g.residual(l, dir) >= 1.0,
            )
            .expect("connected")
        })
    });

    let mut by_price: Vec<_> = selected.iter().collect();
    by_price.sort_by(|&a, &b| market.unit_price(b).total_cmp(&market.unit_price(a)));
    let short = by_price
        .into_iter()
        .map(|l| {
            let mut s = selected.clone();
            s.remove(l);
            s
        })
        .find(|s| route_tm(&topo, s, &tm).is_err())
        .expect("a pruned selection has a link it cannot spare");
    c.bench_function("route_tm_reject_selected", |b| {
        b.iter(|| route_tm(&topo, &short, &tm).expect_err("rejected"))
    });

    // What the oracle does before it routes a candidate: consult every cut
    // certificate it holds. The store is filled the way a round fills it,
    // by one prune probe per link of the selection; all of it is scanned
    // (the oracle stops at the first cut that proves the candidate), so
    // this over `route_tm_reject_selected` is the most a check costs
    // against the pass it can spare.
    for l in selected.iter() {
        let mut probe = selected.clone();
        probe.remove(l);
        oracle.acceptable(&probe);
    }
    let cuts = oracle.cuts();
    let proving = cuts.iter().filter(|cut| cut.violated_by(&topo, &short)).count();
    println!(
        "cut_check_selected_scale: {} certificates, {proving} prove the candidate",
        cuts.len()
    );
    c.bench_function("cut_check_selected_scale", |b| {
        b.iter(|| cuts.iter().filter(|cut| cut.violated_by(&topo, &short)).count())
    });

    // The warm oracle's two kinds of probe, beside the pass above, against
    // one oracle seeded with the selection's routing. An offered link the
    // selection lacks drops no witness path, so the witness is kept as it
    // is. Removing a loaded link rebuilds residuals from the surviving
    // flows and re-places the rest; adding it back is then kept, but with
    // the re-placed flows, so each iteration first seeds the original
    // witness again (a clone, timed with the two probes).
    let seed = oracle.route(&selected).expect("the selection routes");
    let warm = WarmOracle::new(&topo, &tm, Constraint::BaseLoad);
    let mut plus = selected.clone();
    plus.insert(
        market.offered().difference(&selected).iter().next().expect("an offered link to add"),
    );
    warm.seed(seed.clone());
    let kept = WarmOutcome::Warm { reused: seed.flows.len(), rerouted: 0 };
    assert_eq!(warm.evaluate_traced(&plus).1, kept);
    c.bench_function("warm_probe_kept_selected", |b| b.iter(|| warm.acceptable(&plus)));

    let rides = |l| seed.flows.iter().any(|f| f.paths.iter().any(|(path, _)| path.contains(&l)));
    let minus = selected
        .iter()
        .filter(|&l| rides(l))
        .map(|l| {
            let mut s = selected.clone();
            s.remove(l);
            s
        })
        .find(|s| {
            warm.seed(seed.clone());
            matches!(warm.evaluate_traced(s).1, WarmOutcome::Warm { .. })
        })
        .expect("a loaded link the warm path can re-place");
    c.bench_function("warm_probe_remove_add_selected", |b| {
        b.iter(|| {
            warm.seed(seed.clone());
            (warm.acceptable(&minus), warm.acceptable(&selected))
        })
    });
}

fn bench_forwarding_install(c: &mut Criterion) {
    for (label, (topo, _)) in [("small", instance()), ("paper", paper_instance())] {
        let all = LinkSet::full(topo.n_links());
        c.bench_with_input(BenchmarkId::new("forwarding_install", label), &topo, |b, topo| {
            b.iter(|| ForwardingState::install(topo, &all))
        });
    }
}

fn bench_fairness(c: &mut Criterion) {
    let (topo, tm) = instance();
    let all = LinkSet::full(topo.n_links());
    let routing = route_tm(&topo, &all, &tm).expect("feasible");
    let g = CapacityGraph::new(&topo, &all);
    let flows: Vec<AllocFlow> = routing
        .flows
        .iter()
        .flat_map(|f| {
            f.paths.iter().map(|(path, gbps)| {
                let hops =
                    g.hops(f.src, path).collect::<Result<_, _>>().expect("routed path chains");
                AllocFlow { hops, demand_gbps: *gbps }
            })
        })
        .collect();
    c.bench_function(&format!("max_min_rates_{}_flows", flows.len()), |b| {
        b.iter(|| max_min_rates(&topo, &flows))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(10));
    targets = bench_linkset, bench_shortest_path, bench_engine_build, bench_route_tm, bench_selected, bench_forwarding_install, bench_fairness
}

fn main() {
    benches();
    criterion::Criterion::default().configure_from_args().final_summary();
}
