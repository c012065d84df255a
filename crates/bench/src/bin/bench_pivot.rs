//! Warm-vs-cold Clarke-pivot re-selections, emitting `BENCH_pivot.json`.
//!
//! The auction's dominant cost is the per-BP pivot runs (`SL_−α`). This
//! bin measures exactly that kernel: one initial selection over the full
//! offer, then a sample of BP withdrawals re-selected twice — cold (a
//! from-scratch [`FeasibilityOracle`] sharing the initial selection's
//! verdict cache, the reference the warm path is measured against) and
//! warm (a [`WarmOracle`] seeded with the accepted routing, which is what
//! [`poc_auction::run_auction`] does). Results land in a
//! schema-validated JSON artifact so CI and the ROADMAP's perf trajectory
//! can diff runs.
//!
//! Knobs (env):
//! - `POC_BENCH_QUICK=1` — CI smoke mode: small instance, 2 pivots.
//! - `POC_BENCH_PRESET=small|paper|scale` — instance preset
//!   (default `scale`: the 100-BP / 10k-link stress instance).
//! - `POC_BENCH_PIVOTS=N` — number of BP withdrawals to sample.
//! - `POC_BENCH_PRUNE=N` — greedy selector prune budget.
//! - `POC_BENCH_OUT=path` — artifact path (default `BENCH_pivot.json`).
//!
//! Usage: `bench_pivot` to measure, `bench_pivot --validate <path>` to
//! re-read an emitted artifact and check its schema (exit 1 on failure).
//! `--validate` accepts any artifact this workspace emits: the
//! warm-vs-cold report (`"bench": "pivot"`), the control-plane throughput report from `bench_ctrl`
//! (`"bench": "ctrl"`), or the packet-engine throughput report from
//! `bench_dataplane` (`"bench": "dataplane"`).

use poc_auction::{GreedySelector, Market, Selector};
use poc_bench::report::{
    CtrlBenchReport, DataplaneBenchReport, PivotBenchReport, PivotSample, ScaleInfo,
};
use poc_bench::{instance, paper_instance, scale_instance};
use poc_flow::{Constraint, FeasibilityCache, FeasibilityOracle, WarmOracle};
use std::path::Path;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn counter_delta(
    after: &poc_obs::MetricsSnapshot,
    before: &poc_obs::MetricsSnapshot,
    name: &str,
) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--validate") {
        let path = args.get(2).map(String::as_str).unwrap_or("BENCH_pivot.json");
        // Dispatch on the discriminator: each read fails cleanly on the
        // other schema (missing fields), so try both before giving up.
        let as_pivot =
            PivotBenchReport::read(Path::new(path)).and_then(|r| r.validate().map(|()| r));
        match as_pivot {
            Ok(r) => {
                println!(
                    "{path}: valid pivot artifact ({} samples on {} preset, speedup {:.2}x)",
                    r.samples.len(),
                    r.scale.preset,
                    r.speedup
                );
                return;
            }
            Err(pivot_err) => {
                let as_ctrl =
                    CtrlBenchReport::read(Path::new(path)).and_then(|r| r.validate().map(|()| r));
                match as_ctrl {
                    Ok(r) => {
                        println!(
                            "{path}: valid ctrl artifact ({} mode, {:.2}x over baseline)",
                            r.mode, r.speedup
                        );
                        return;
                    }
                    Err(ctrl_err) => {
                        let as_dp = DataplaneBenchReport::read(Path::new(path))
                            .and_then(|r| r.validate().map(|()| r));
                        match as_dp {
                            Ok(r) => {
                                println!(
                                    "{path}: valid dataplane artifact ({} mode, \
                                     {:.1}M events/sec)",
                                    r.mode,
                                    r.events_per_sec / 1e6
                                );
                                return;
                            }
                            Err(dp_err) => {
                                eprintln!("{path}: INVALID artifact");
                                eprintln!("  as pivot: {pivot_err}");
                                eprintln!("  as ctrl: {ctrl_err}");
                                eprintln!("  as dataplane: {dp_err}");
                                std::process::exit(1);
                            }
                        }
                    }
                }
            }
        }
    }

    let quick = std::env::var_os("POC_BENCH_QUICK").is_some();
    let preset = std::env::var("POC_BENCH_PRESET")
        .unwrap_or_else(|_| if quick { "small" } else { "scale" }.into());
    let n_pivots = env_usize("POC_BENCH_PIVOTS", if quick { 2 } else { 4 });
    let prune_budget = env_usize("POC_BENCH_PRUNE", if quick { 16 } else { 8 });

    let (topo, tm) = match preset.as_str() {
        "small" => instance(),
        "paper" => paper_instance(),
        "scale" => scale_instance(),
        other => {
            eprintln!("unknown POC_BENCH_PRESET {other:?} (want small|paper|scale)");
            std::process::exit(2);
        }
    };
    let scale = ScaleInfo {
        preset: preset.clone(),
        n_routers: topo.n_routers(),
        n_links: topo.n_links(),
        n_bps: topo.bps.len(),
    };
    println!(
        "instance: preset={} routers={} links={} bps={}",
        scale.preset, scale.n_routers, scale.n_links, scale.n_bps
    );

    let market = Market::truthful(&topo, 3.0);
    let constraint = Constraint::BaseLoad;
    let selector = GreedySelector::with_prune_budget(prune_budget);

    // The round's initial selection, with the verdict cache every cold
    // pivot will also use.
    let cache = FeasibilityCache::new();
    let oracle = FeasibilityOracle::with_cache(&topo, &tm, constraint, &cache)
        .expect("fresh cache has no binding");
    let t0 = Instant::now();
    let sl = selector
        .select(&market, &oracle, market.offered())
        .expect("bench instance must be feasible over the full offer");
    println!(
        "initial selection: {} links, cost {:.0}, {:.1}s",
        sl.links.len(),
        sl.cost,
        t0.elapsed().as_secs_f64()
    );

    // Warm pivots start from the accepted routing, exactly as the auction
    // seeds them.
    let seed = oracle.route(&sl.links).expect("selector accepted SL, so SL re-routes");

    // Sample the first N participating BPs (ascending id) that actually
    // have links in SL — the ones whose withdrawal forces a real pivot.
    let sampled: Vec<_> = market
        .participants()
        .into_iter()
        .filter(|&bp| {
            let owned = market.links_of(bp).expect("participant owns links");
            !sl.links.intersection(owned).is_empty()
        })
        .take(n_pivots)
        .collect();
    if sampled.is_empty() {
        eprintln!("no participating BP has links in SL; nothing to pivot");
        std::process::exit(2);
    }

    let mut samples = Vec::new();
    let (mut total_cold_ms, mut total_warm_ms) = (0.0f64, 0.0f64);
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
    for bp in sampled {
        let without = market.offered_without(bp);

        let before = poc_obs::global().snapshot();
        let t = Instant::now();
        let cold = selector.select(&market, &oracle, &without);
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        let mid = poc_obs::global().snapshot();
        cache_hits += counter_delta(&mid, &before, "flow.cache.hit");
        cache_misses += counter_delta(&mid, &before, "flow.cache.miss");

        let warm_oracle = WarmOracle::new(&topo, &tm, constraint);
        warm_oracle.seed(seed.clone());
        let t = Instant::now();
        let warm = selector.select(&market, &warm_oracle, &without);
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = poc_obs::global().snapshot();

        let (cold_cost, warm_cost) = (
            cold.as_ref().map_or(f64::NAN, |s| s.cost),
            warm.as_ref().map_or(f64::NAN, |s| s.cost),
        );
        let sample = PivotSample {
            bp: bp.0,
            cold_ms,
            warm_ms,
            speedup: cold_ms / warm_ms,
            reused_flows: counter_delta(&after, &mid, "flow.warm.reused_flows"),
            rerouted_flows: counter_delta(&after, &mid, "flow.warm.rerouted_flows"),
            fallbacks: counter_delta(&after, &mid, "flow.warm.fallbacks"),
        };
        println!(
            "pivot -{bp}: cold {cold_ms:.0}ms (cost {cold_cost:.0}) vs warm {warm_ms:.0}ms \
             (cost {warm_cost:.0}) — {:.2}x, reused {} rerouted {} fallbacks {}",
            sample.speedup, sample.reused_flows, sample.rerouted_flows, sample.fallbacks
        );
        total_cold_ms += cold_ms;
        total_warm_ms += warm_ms;
        samples.push(sample);
    }

    let probes = cache_hits + cache_misses;
    let report = PivotBenchReport {
        bench: "pivot".into(),
        scale,
        constraint: "#1".into(),
        pivot_mode: "sequential".into(),
        samples,
        total_cold_ms,
        total_warm_ms,
        speedup: total_cold_ms / total_warm_ms,
        cold_cache_hit_rate: if probes == 0 { 0.0 } else { cache_hits as f64 / probes as f64 },
    };
    report.validate().expect("freshly measured report must satisfy its own schema");

    let out = std::env::var("POC_BENCH_OUT").unwrap_or_else(|_| "BENCH_pivot.json".into());
    report.write(Path::new(&out)).expect("write artifact");
    println!(
        "total: cold {:.0}ms vs warm {:.0}ms — {:.2}x warm speedup, cold cache hit rate {:.2} \
         -> {out}",
        report.total_cold_ms, report.total_warm_ms, report.speedup, report.cold_cache_hit_rate
    );
}
