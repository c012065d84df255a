//! Enforces the flight-recorder overhead bar from DESIGN.md §6: with the
//! recorder enabled, a traced parallel VCG round must stay within ~5% of
//! the identical round with the recorder disabled.
//!
//! Methodology: the two configurations are *interleaved* round-by-round
//! and each side keeps its minimum, so a one-off scheduler hiccup or
//! frequency step hits both sides alike instead of biasing whichever
//! configuration happened to run second. The assertion allows the 5%
//! relative bar plus a small absolute floor so sub-millisecond jitter on
//! a fast host can't fail a run that is within measurement noise.
//!
//! Meaningful only under optimization; the test is a no-op in debug
//! builds (`cargo test --release -p poc-bench` runs it for real, and CI
//! does exactly that).

use poc_auction::{run_auction, GreedySelector, Market};
use poc_flow::Constraint;
use std::time::Instant;

#[test]
fn traced_parallel_round_within_five_percent() {
    if cfg!(debug_assertions) {
        eprintln!("skipping overhead gate in debug build (timings unrepresentative)");
        return;
    }

    let (topo, tm) = poc_bench::instance();
    let market = Market::truthful(&topo, 3.0);
    let selector = GreedySelector::with_prune_budget(8);
    let run = || {
        run_auction(&market, &tm, Constraint::BaseLoad, &selector)
            .expect("bench instance is feasible")
    };

    // Metrics record on both sides — this test isolates the recorder's
    // marginal cost, not the whole observability layer's.
    let recorder = poc_obs::trace::recorder();
    let _trace = poc_obs::trace::start_trace(poc_obs::trace::new_trace_id());

    // Warm-up: thread-pool spin-up, handle registration, page faults.
    run();

    const ROUNDS: usize = 8;
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        recorder.set_enabled(false);
        let t = Instant::now();
        run();
        best_off = best_off.min(t.elapsed().as_secs_f64());

        recorder.set_enabled(true);
        let t = Instant::now();
        run();
        best_on = best_on.min(t.elapsed().as_secs_f64());
    }
    recorder.set_enabled(false);

    let overhead = (best_on / best_off - 1.0) * 100.0;
    eprintln!(
        "traced {:.2}ms vs untraced {:.2}ms: {overhead:+.2}% overhead",
        best_on * 1e3,
        best_off * 1e3
    );
    // 5% relative bar + 2ms absolute jitter floor.
    assert!(
        best_on <= best_off * 1.05 + 2e-3,
        "flight recorder adds {overhead:.2}% to the parallel pivot path \
         (bar: 5%): traced {:.3}ms vs untraced {:.3}ms",
        best_on * 1e3,
        best_off * 1e3
    );
}
