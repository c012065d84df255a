//! VCG (Clarke-pivot) payments and the auction outcome (paper §3.3).
//!
//! After selecting `SL`, each participating BP α is paid
//!
//! ```text
//! P_α = C_α(SL_α) + ( C(SL_−α) − C(SL) )
//! ```
//!
//! where `SL_−α` is the selection when α withdraws. Figure 2 plots the
//! payment-over-bid margin `PoB_α = (P_α − C_α(SL_α)) / C_α(SL_α)` for the
//! five largest BPs under the three constraints.
//!
//! With an exact optimizer the pivot term `C(SL_−α) − C(SL)` is always
//! ≥ 0; with the paper-scale heuristic it can come out slightly negative
//! (the heuristic may find a marginally better set on the smaller offer).
//! Payments clamp the pivot at zero — a BP is never paid below its bid —
//! and the raw pivot is retained in [`BpSettlement::raw_pivot`] for
//! diagnostics.

use crate::market::Market;
use crate::select::{SelectionResult, Selector};
use poc_flow::{Constraint, FeasibilityCache, FeasibilityOracle, LinkSet, Routing, WarmOracle};
use poc_topology::BpId;
use poc_traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One BP's auction settlement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BpSettlement {
    pub bp: BpId,
    /// Links of this BP inside `SL` (`SL_α`).
    pub n_selected_links: usize,
    /// `C_α(SL_α)`: the BP's declared price for its selected links.
    pub bid_cost: f64,
    /// `C(SL_−α) − C(SL)` before clamping.
    pub raw_pivot: f64,
    /// The payment `P_α` (pivot clamped at 0).
    pub payment: f64,
}

impl BpSettlement {
    /// Payment-over-bid margin: `(P_α − C_α) / C_α`. `None` when the BP had
    /// no selected links (no bid cost to normalize by).
    pub fn pob(&self) -> Option<f64> {
        (self.bid_cost > 0.0).then(|| (self.payment - self.bid_cost) / self.bid_cost)
    }
}

/// A complete auction round result. Serializable so the control plane
/// can checkpoint the last outcome into its recovery snapshots.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AuctionOutcome {
    pub constraint: Constraint,
    /// The selected set `SL`.
    pub selected: LinkSet,
    /// `C(SL)` under the declared bids.
    pub total_cost: f64,
    /// Per-BP settlements, ascending BP id.
    pub settlements: Vec<BpSettlement>,
}

impl AuctionOutcome {
    /// Settlement of one BP.
    pub fn settlement(&self, bp: BpId) -> Option<&BpSettlement> {
        self.settlements.iter().find(|s| s.bp == bp)
    }

    /// `(bp, PoB)` for the `n` BPs with the largest bid cost in `SL`
    /// (Figure 2 orders the five largest by size).
    pub fn top_pob(&self, n: usize) -> Vec<(BpId, f64)> {
        let mut by_size: Vec<&BpSettlement> =
            self.settlements.iter().filter(|s| s.bid_cost > 0.0).collect();
        by_size.sort_by(|a, b| b.bid_cost.total_cmp(&a.bid_cost).then(a.bp.cmp(&b.bp)));
        by_size.into_iter().take(n).map(|s| (s.bp, s.pob().expect("bid > 0"))).collect()
    }
}

/// Errors from an auction round.
#[derive(Clone, Debug, PartialEq)]
pub enum AuctionError {
    /// No subset of the offered links is acceptable: `A(OL)` is empty.
    Infeasible,
    /// `A(OL − L_α)` is empty for the given BP — the paper assumes the
    /// constraints can be met even if any one BP stays out.
    PivotInfeasible(BpId),
}

impl std::fmt::Display for AuctionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuctionError::Infeasible => write!(f, "no acceptable link set exists (A(OL) empty)"),
            AuctionError::PivotInfeasible(bp) => {
                write!(f, "constraints unmeetable without {bp} (A(OL - L_a) empty)")
            }
        }
    }
}

impl std::error::Error for AuctionError {}

/// Run one auction round: select `SL`, then compute every BP's Clarke
/// payment by re-selecting with that BP withdrawn.
///
/// The pivot re-selections are independent of each other (each
/// re-selects over `OL − L_α` with fixed inputs), so they run on a pool of
/// `min(available_parallelism, pivots)` workers, the calling thread among
/// them: a round's threads and memory are bounded by the machine's cores,
/// not by the number of BPs. Each pivot builds its own [`WarmOracle`],
/// seeded with the routing of `SL` and a copy of the cut certificates the
/// initial selection learned, and drops it when done. No oracle is reused
/// from one pivot to the next: an oracle's witness, and so its verdicts,
/// depend on every probe it has answered, so a reused oracle would make a
/// pivot's answer depend on which pivots its worker happened to run
/// before. Private, identically seeded oracles make the outcome a pure
/// function of the inputs: two rounds on the same inputs are
/// bit-identical on any core count, which journal replay relies on
/// (asserted by the `vcg_round_matches_one_at_a_time_reference` property
/// test).
///
/// Metrics (global `poc-obs` registry): round wall time lands in the
/// `auction.round.parallel` histogram, each pivot re-selection in
/// `auction.pivot`; a successful round bumps `auction.round.count` and
/// refreshes the `auction.pob.mean` gauge, a failed one bumps
/// `auction.round.infeasible`. Pivots additionally feed the
/// `flow.warm.reused_flows` / `flow.warm.rerouted_flows` /
/// `flow.warm.fallbacks` counters, and `flow.cut.learned` /
/// `flow.cut.rejects` count the cut certificates the round's oracles keep
/// and the probes those answer without routing, and `flow.route.stopped`
/// the losing routing passes stopped at the first router they can no
/// longer serve. Instrumentation is
/// lock-free on the pivot threads (pre-resolved atomic handles);
/// `tests/round_metrics.rs` pins what a round records, in its own process.
pub fn run_auction(
    market: &Market<'_>,
    tm: &TrafficMatrix,
    constraint: Constraint,
    selector: &dyn Selector,
) -> Result<AuctionOutcome, AuctionError> {
    let _round = poc_obs::span!("auction.round.parallel");
    let result = run_round(market, tm, constraint, selector);
    match &result {
        Ok(outcome) => {
            poc_obs::counter!("auction.round.count").inc();
            let pobs: Vec<f64> = outcome.settlements.iter().filter_map(|s| s.pob()).collect();
            if !pobs.is_empty() {
                let mean = pobs.iter().sum::<f64>() / pobs.len() as f64;
                poc_obs::gauge!("auction.pob.mean").set(mean);
            }
        }
        Err(_) => poc_obs::counter!("auction.round.infeasible").inc(),
    }
    result
}

/// The uninstrumented round body of [`run_auction`].
fn run_round(
    market: &Market<'_>,
    tm: &TrafficMatrix,
    constraint: Constraint,
    selector: &dyn Selector,
) -> Result<AuctionOutcome, AuctionError> {
    // The cache serves only the initial selection: pivot oracles never
    // touch it — their verdicts depend on per-pivot witness state and must
    // not leak into a cache assumed pure.
    let cache = FeasibilityCache::new();
    let oracle = FeasibilityOracle::with_cache(market.topo(), tm, constraint, &cache)
        .expect("a fresh cache has no prior instance binding");
    let sl: SelectionResult =
        selector.select(market, &oracle, market.offered()).ok_or(AuctionError::Infeasible)?;

    // Pivots start from the round's accepted routing: one extra full
    // evaluation of SL buys every pivot its reuse baseline. If SL somehow
    // fails to re-route (the selector accepted it, so it should not),
    // pivots simply start unseeded and answer their first probe cold.
    let pivot_seed: Option<Routing> = oracle.route(&sl.links);
    // And from the cuts the selection's rejections proved. They depend on
    // the matrix alone, so a pivot stays a function of the round's inputs;
    // each pivot holds its own copy and adds to it privately.
    let pivot_cuts = oracle.cuts();

    // Settle trivial BPs inline; queue a pivot job per BP with links in SL.
    let mut settlements: Vec<Option<BpSettlement>> = Vec::new();
    let mut jobs: Vec<(usize, BpId, usize, f64)> = Vec::new();
    for bp in market.participants() {
        let owned = market.links_of(bp).expect("participant owns links");
        let sl_alpha = sl.links.intersection(owned);
        let bid_cost = market.bp_cost(bp, &sl.links);

        // A BP with no links in SL has marginal value 0 and is paid 0 —
        // skip the expensive pivot run.
        if sl_alpha.is_empty() {
            settlements.push(Some(BpSettlement {
                bp,
                n_selected_links: 0,
                bid_cost: 0.0,
                raw_pivot: 0.0,
                payment: 0.0,
            }));
        } else {
            jobs.push((settlements.len(), bp, sl_alpha.len(), bid_cost));
            settlements.push(None);
        }
    }

    let run_pivot = |bp: BpId, n_selected_links: usize, bid_cost: f64| {
        let _pivot = poc_obs::span!("auction.pivot", bp = bp.0);
        let without = market.offered_without(bp);
        // A private oracle per pivot, identically seeded: no pivot's
        // verdicts depend on another's, or on thread timing.
        let warm = WarmOracle::new(market.topo(), tm, constraint);
        if let Some(seed) = &pivot_seed {
            warm.seed(seed.clone());
        }
        warm.adopt_cuts(&pivot_cuts);
        let sl_minus =
            selector.select(market, &warm, &without).ok_or(AuctionError::PivotInfeasible(bp))?;
        let raw_pivot = sl_minus.cost - sl.cost;
        let payment = bid_cost + raw_pivot.max(0.0);
        Ok(BpSettlement { bp, n_selected_links, bid_cost, raw_pivot, payment })
    };

    // A pool of `min(cores, pivots)` workers, the calling thread among
    // them, each taking the next job by an atomic index until none is
    // left: a round's threads and oracles in flight are bounded by the
    // machine, not by the number of BPs. The index publishes no data
    // (results go through their `OnceLock`s and the scope's join), so it
    // is `Relaxed`.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(jobs.len());
    let next = AtomicUsize::new(0);
    let results: Vec<OnceLock<Result<BpSettlement, AuctionError>>> =
        jobs.iter().map(|_| OnceLock::new()).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(_, bp, n, cost)) = jobs.get(i) else { break };
        let _ = results[i].set(run_pivot(bp, n, cost));
    };
    // Capture the round's trace context before fanning out: each spawned
    // worker adopts it, so pivot spans parent to the round span across
    // the thread boundary (a spawned thread starts with no context of its
    // own; the calling thread already has it).
    let ctx = poc_obs::TraceCtx::current();
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| {
                let _trace = ctx.as_ref().map(poc_obs::TraceCtx::adopt);
                work();
            });
        }
        work();
    });

    // Every pivot ran; reading the results in job order surfaces the
    // failure of the lowest BP id, whichever worker finished first.
    for (&(slot, ..), result) in jobs.iter().zip(results) {
        settlements[slot] = Some(result.into_inner().expect("every job ran")?);
    }

    Ok(AuctionOutcome {
        constraint,
        selected: sl.links,
        total_cost: sl.cost,
        settlements: settlements.into_iter().map(|s| s.expect("every slot settled")).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{ExhaustiveSelector, GreedySelector};
    use poc_topology::builder::two_bp_square;
    use poc_topology::RouterId;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    /// Demand confined to r0/r1/r2, which both BPs can serve end-to-end
    /// (BP1 routes among them via r3), so every pivot run `OL − L_α` stays
    /// feasible without virtual links.
    fn tm(t: &poc_topology::PocTopology) -> TrafficMatrix {
        let mut m = TrafficMatrix::zero(t.n_routers());
        m.set(r(0), r(1), 10.0);
        m.set(r(1), r(2), 5.0);
        m
    }

    #[test]
    fn payments_never_below_bid() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let tm = tm(&t);
        let out = run_auction(&m, &tm, Constraint::BaseLoad, &ExhaustiveSelector).unwrap();
        for s in &out.settlements {
            assert!(s.payment >= s.bid_cost - 1e-9, "{s:?}");
            if let Some(pob) = s.pob() {
                assert!(pob >= -1e-9);
            }
        }
    }

    #[test]
    fn pivot_nonnegative_under_exact_selection() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let tm = tm(&t);
        let out = run_auction(&m, &tm, Constraint::BaseLoad, &ExhaustiveSelector).unwrap();
        for s in &out.settlements {
            assert!(s.raw_pivot >= -1e-9, "exact optimizer: pivot >= 0, got {s:?}");
        }
    }

    #[test]
    fn monopoly_links_earn_positive_margin() {
        // BP1 is the only provider reaching r3, so withdrawing it must be
        // infeasible... unless virtual links exist. Without virtual links,
        // the pivot run fails — the documented paper assumption.
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let mut demand = TrafficMatrix::zero(t.n_routers());
        demand.set(r(0), r(3), 5.0); // only BP1 reaches r3
        let err = run_auction(&m, &demand, Constraint::BaseLoad, &ExhaustiveSelector).unwrap_err();
        assert_eq!(err, AuctionError::PivotInfeasible(poc_topology::BpId(1)));
    }

    #[test]
    fn virtual_links_bound_the_monopoly() {
        use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
        use poc_topology::CostModel;
        let mut t = two_bp_square();
        attach_external_isps(
            &mut t,
            &ExternalIspConfig { n_isps: 1, attach_points: 4, ..Default::default() },
            &CostModel::default(),
        );
        let m = Market::truthful(&t, 3.0);
        let mut demand = tm(&t);
        demand.set(r(0), r(3), 5.0); // r3 reachable only via BP1 or virtual
        let out =
            run_auction(&m, &demand, Constraint::BaseLoad, &GreedySelector::default()).unwrap();
        // Now the pivot exists for both BPs; BP1's margin is bounded by the
        // (expensive) virtual alternative rather than infinite.
        let s1 = out.settlement(poc_topology::BpId(1)).unwrap();
        assert!(s1.payment.is_finite());
        if s1.bid_cost > 0.0 {
            assert!(s1.pob().unwrap() >= 0.0);
        }
    }

    #[test]
    fn unused_bp_paid_nothing() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        // Demand only between r0 and r1: BP0's cheap direct links suffice;
        // exhaustive selection will not lease BP1.
        let mut demand = TrafficMatrix::zero(t.n_routers());
        demand.set(r(0), r(1), 10.0);
        let out = run_auction(&m, &demand, Constraint::BaseLoad, &ExhaustiveSelector).unwrap();
        let s1 = out.settlement(poc_topology::BpId(1)).unwrap();
        assert_eq!(s1.n_selected_links, 0);
        assert_eq!(s1.payment, 0.0);
        assert_eq!(s1.pob(), None);
    }

    #[test]
    fn top_pob_orders_by_bid_size() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let tm = tm(&t);
        // Use virtual links so it completes.
        use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
        use poc_topology::CostModel;
        let mut t2 = t.clone();
        attach_external_isps(
            &mut t2,
            &ExternalIspConfig { n_isps: 1, attach_points: 4, ..Default::default() },
            &CostModel::default(),
        );
        let m2 = Market::truthful(&t2, 3.0);
        let out = run_auction(&m2, &tm, Constraint::BaseLoad, &GreedySelector::default()).unwrap();
        let top = out.top_pob(5);
        assert!(!top.is_empty());
        drop(m);
    }

    #[test]
    fn several_infeasible_pivots_report_the_lowest_bp() {
        // r3 is reachable only over BP1, and 60G r0->r1 fits BP0's 100G
        // links but not BP1's 40G detour: withdrawing either BP is
        // infeasible, and the round must name BP0 whichever thread ends first.
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let mut demand = TrafficMatrix::zero(t.n_routers());
        demand.set(r(0), r(3), 5.0);
        demand.set(r(0), r(1), 60.0);
        for _ in 0..8 {
            let err =
                run_auction(&m, &demand, Constraint::BaseLoad, &ExhaustiveSelector).unwrap_err();
            assert_eq!(err, AuctionError::PivotInfeasible(poc_topology::BpId(0)));
        }
    }

    #[test]
    fn infeasible_market_reports_error() {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let mut demand = TrafficMatrix::zero(t.n_routers());
        demand.set(r(0), r(3), 10_000.0);
        let err = run_auction(&m, &demand, Constraint::BaseLoad, &ExhaustiveSelector).unwrap_err();
        assert_eq!(err, AuctionError::Infeasible);
    }
}
