//! E-OBS — observability overhead on the VCG round.
//!
//! A VCG round runs one full re-selection per participating BP (the
//! `C(SL_−α)` term of the pivot rule), each on its own scoped thread. This
//! bench times that round with the metrics registry and the flight
//! recorder switched off and on, prints the overhead of each, and then
//! runs the statistical timer on the registry pair.
//!
//! `cargo bench -p poc-bench --bench pivot_parallel`; always the
//! laptop-scale instance — paper-scale rounds are minutes long.

use criterion::{criterion_group, BenchmarkId, Criterion};
use poc_auction::{run_auction, GreedySelector, Market};
use poc_flow::Constraint;
use std::time::{Duration, Instant};

/// E-OBS — instrumentation overhead on the parallel pivot path.
///
/// The ISSUE acceptance bar: recording must not add a lock to the pivot
/// hot path, and a fully-enabled registry must stay within a few percent
/// of the no-op configuration. Both configurations run the identical
/// parallel round; only the shared `enabled` flag differs (no-op mode
/// still executes every instrumentation call site, so this measures the
/// real disabled-path cost too: one relaxed atomic load + branch each).
fn print_metrics_overhead() {
    let (topo, tm) = small_bench_instance();
    let market = Market::truthful(&topo, 3.0);
    let selector = GreedySelector::with_prune_budget(8);
    let reg = poc_obs::global();
    let run = || run_auction(&market, &tm, Constraint::BaseLoad, &selector).expect("feasible");
    let time = |reps: u32| {
        // Warm-up outside the timed window (thread pool spin-up, cache
        // registration, page faults).
        run();
        let t0 = Instant::now();
        for _ in 0..reps {
            run();
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };
    const REPS: u32 = 10;
    reg.set_enabled(false);
    let t_noop = time(REPS);
    reg.set_enabled(true);
    let t_enabled = time(REPS);
    let overhead = (t_enabled / t_noop - 1.0) * 100.0;
    println!("\n=== E-OBS / poc-obs overhead on the parallel VCG round ===");
    println!("{:<18}{:>12.2}ms", "no-op registry", t_noop * 1e3);
    println!("{:<18}{:>12.2}ms", "metrics enabled", t_enabled * 1e3);
    println!("overhead: {overhead:+.2}%  (acceptance bar: under ~5%)");

    // Same round again, now with the flight recorder in play: a trace
    // context is installed (as the server does per request), and only the
    // recorder's enabled flag differs between the two configurations.
    // Disabled tracing should be free — begin_span bails on one relaxed
    // load before touching the thread-local — and enabled tracing must
    // stay under the same ~5% bar (enforced in release mode by the
    // `trace_overhead` integration test).
    let recorder = poc_obs::trace::recorder();
    let _trace = poc_obs::trace::start_trace(poc_obs::trace::new_trace_id());
    recorder.set_enabled(false);
    let t_untraced = time(REPS);
    recorder.set_enabled(true);
    let t_traced = time(REPS);
    recorder.set_enabled(false);
    let overhead_off = (t_untraced / t_enabled - 1.0) * 100.0;
    let overhead_on = (t_traced / t_untraced - 1.0) * 100.0;
    println!("\n=== E-OBS / flight-recorder overhead on the parallel VCG round ===");
    println!(
        "{:<18}{:>12.2}ms  ({overhead_off:+.2}% vs metrics alone)",
        "tracing off",
        t_untraced * 1e3
    );
    println!("{:<18}{:>12.2}ms", "tracing on", t_traced * 1e3);
    println!("overhead: {overhead_on:+.2}%  (acceptance bar: under ~5% enabled, ~0% disabled)");
}

fn small_bench_instance() -> (poc_topology::PocTopology, poc_traffic::TrafficMatrix) {
    let mut topo = poc_topology::ZooGenerator::new(poc_topology::ZooConfig::small()).generate();
    poc_topology::zoo::attach_external_isps(
        &mut topo,
        &poc_topology::zoo::ExternalIspConfig::default(),
        &poc_topology::CostModel::default(),
    );
    let tm = poc_traffic::TrafficScenario {
        total_gbps: 2500.0,
        ..poc_traffic::TrafficScenario::paper_default()
    }
    .generate(&topo);
    (topo, tm)
}

fn bench_round_overhead(c: &mut Criterion) {
    let (topo, tm) = small_bench_instance();
    let market = Market::truthful(&topo, 3.0);
    let selector = GreedySelector::with_prune_budget(8);
    // The same round with the observability registry no-op vs live.
    for (label, enabled) in [("metrics_noop", false), ("metrics_enabled", true)] {
        poc_obs::global().set_enabled(enabled);
        c.bench_with_input(BenchmarkId::new("vcg_round_parallel", label), &enabled, |b, _| {
            b.iter(|| run_auction(&market, &tm, Constraint::BaseLoad, &selector).expect("feasible"))
        });
    }
    poc_obs::global().set_enabled(true);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(20));
    targets = bench_round_overhead
}

fn main() {
    print_metrics_overhead();
    benches();
    criterion::Criterion::default().configure_from_args().final_summary();
}
