//! The paper's qualitative claims as executable assertions — the "shape"
//! checks EXPERIMENTS.md records. If any of these fails, the reproduction
//! no longer reproduces.

use public_option_core::auction::{run_auction, GreedySelector, Market, Selector};
use public_option_core::econ::demand::{Exponential, Logistic, ParetoTail};
use public_option_core::econ::fees::{bargaining_equilibrium, monopoly_price, unilateral_fee};
use public_option_core::econ::lemma::{is_strictly_increasing, price_response_curve};
use public_option_core::econ::welfare::social_welfare;
use public_option_core::econ::{Demand, Economy};
use public_option_core::flow::{Constraint, FeasibilityOracle};
use public_option_core::netsim::drill::{run_drill, DrillSpec};
use public_option_core::topology::zoo::{attach_external_isps, ExternalIspConfig};
use public_option_core::topology::{
    CostModel, PocTopology, TopologyStats, ZooConfig, ZooGenerator,
};
use public_option_core::traffic::{TrafficMatrix, TrafficScenario};

fn small_instance() -> (PocTopology, TrafficMatrix) {
    let mut topo = ZooGenerator::new(ZooConfig::small()).generate();
    // Attach the external ISPs at every router so pivot runs stay feasible
    // even under maximal withholding (the paper's A(OL − L_α) assumption).
    let isp = ExternalIspConfig { attach_points: 64, ..Default::default() };
    attach_external_isps(&mut topo, &isp, &CostModel::default());
    let tm = TrafficScenario { jitter_sigma: 0.2, seed: 17, total_gbps: 2500.0 }.generate(&topo);
    (topo, tm)
}

/// E-T1: §3.3's in-text instance statistics.
#[test]
fn shape_t1_instance_statistics() {
    let topo = ZooGenerator::new(ZooConfig::paper()).generate();
    let stats = TopologyStats::compute(&topo);
    assert_eq!(stats.n_bps, 20);
    assert!((4200..=5200).contains(&stats.n_bp_links), "≈4674, got {}", stats.n_bp_links);
    let (min, max) = stats.share_range();
    assert!(min >= 0.015 && max <= 0.14, "shares ~2%–12%, got {min:.3}–{max:.3}");
}

/// E-F2: PoB margins exist, vary across BPs, and never go negative.
#[test]
fn shape_f2_pob_margins() {
    let (topo, tm) = small_instance();
    let market = Market::truthful(&topo, 3.0);
    let selector = GreedySelector::with_prune_budget(8);
    let out = run_auction(&market, &tm, Constraint::BaseLoad, &selector).expect("feasible");
    let pobs = out.top_pob(5);
    assert!(pobs.len() >= 3, "need several BPs in SL");
    for (bp, pob) in &pobs {
        assert!(*pob >= -1e-9, "{bp} has negative PoB {pob}");
        assert!(pob.is_finite());
    }
    // "High variation in the PoB" — the spread must be non-trivial.
    let max = pobs.iter().map(|(_, p)| *p).fold(f64::MIN, f64::max);
    let min = pobs.iter().map(|(_, p)| *p).fold(f64::MAX, f64::min);
    assert!(max - min > 0.01, "margins suspiciously uniform: {pobs:?}");
}

/// E-L1: Lemma 1 across demand families.
#[test]
fn shape_l1_price_monotonicity() {
    let families: Vec<Box<dyn Demand>> = vec![
        Box::new(Exponential::new(0.07)),
        Box::new(Exponential::new(0.4)),
        Box::new(ParetoTail::new(3.0, 1.8)),
        Box::new(ParetoTail::new(12.0, 4.0)),
        Box::new(Logistic::new(18.0, 5.0)),
    ];
    for d in &families {
        let curve = price_response_curve(d.as_ref(), 15.0, 31);
        assert!(is_strictly_increasing(&curve, 1e-6), "p*(t) not increasing");
    }
}

/// E-W1: welfare ordering NN ≥ NBS ≥ unilateral, strict where fees bind.
#[test]
fn shape_w1_welfare_ordering() {
    let economy = Economy::example();
    let [nn, uni, nbs] = economy.compare_regimes();
    assert!(nn.total_welfare() >= nbs.total_welfare() - 1e-9);
    assert!(nbs.total_welfare() >= uni.total_welfare() - 1e-9);
    assert!(nn.total_welfare() > uni.total_welfare(), "fees must strictly hurt welfare");
    assert_eq!(nn.total_fees(), 0.0);
    // Per-CSP: social welfare decreases as the fee rises (Lemma 1 + §4.3).
    for (a, b) in nn.per_csp.iter().zip(&uni.per_csp) {
        assert!(b.social_welfare <= a.social_welfare + 1e-9, "{}", a.csp);
    }
}

/// E-B1: incumbent advantage — NBS fee decreasing in churn; bargained fee
/// below the unilateral fee whenever churn bites.
#[test]
fn shape_b1_incumbent_advantage() {
    let economy = Economy::example();
    for s in 0..economy.csps.len() {
        let fees = economy.per_lmp_nbs_fees(s);
        // LMPs are ordered incumbent-first with ascending churn in the
        // example; fees must not increase along that order whenever access
        // prices are comparable. Check against churn directly instead:
        // higher churn × price ⇒ lower fee, pairwise within the CSP.
        for i in 0..fees.len() {
            for j in 0..fees.len() {
                let (ri, ci) = (fees[i].1, economy.lmps[i].access_price);
                let (rj, cj) = (fees[j].1, economy.lmps[j].access_price);
                if ri * ci > rj * cj {
                    assert!(
                        fees[i].2 <= fees[j].2 + 1e-9,
                        "CSP {s}: churn-threat ordering violated"
                    );
                }
            }
        }
    }
    // Bargaining vs unilateral for a churn-exposed CSP.
    let d = Exponential::new(0.1);
    let (t_uni, _) = unilateral_fee(&d);
    let eq = bargaining_equilibrium(&d, 3.0);
    assert!(eq.fee < t_uni);
}

/// E-EQ: the renegotiation fixed point converges and satisfies its own
/// equation.
#[test]
fn shape_eq_fixed_point() {
    for d in [Exponential::new(0.1), Exponential::new(0.3)] {
        for avg_rc in [0.0, 1.0, 5.0] {
            let out = bargaining_equilibrium(&d, avg_rc);
            assert!(out.converged);
            let fixed = ((monopoly_price(&d, out.fee) - avg_rc) / 2.0).max(0.0);
            assert!(
                (fixed - out.fee).abs() < 1e-6,
                "t* = {} but (p*(t*) − rc)/2 = {fixed}",
                out.fee
            );
        }
    }
    // Welfare at the equilibrium price is below NN welfare when fees > 0.
    let d = Exponential::new(0.1);
    let eq = bargaining_equilibrium(&d, 2.0);
    assert!(eq.fee > 0.0);
    assert!(social_welfare(&d, eq.price) < social_welfare(&d, monopoly_price(&d, 0.0)));
}

/// E-R1: drills — the resilient selections must not be materially less
/// available than base, and availability stays high on redundant fabrics.
#[test]
fn shape_r1_resilience() {
    let (topo, tm) = small_instance();
    let market = Market::truthful(&topo, 3.0);
    let selector = GreedySelector::with_prune_budget(8);
    let spec = DrillSpec { n_failures: 4, outage_hours: 1.0, gap_hours: 0.5 };
    let mut availabilities = Vec::new();
    for c in [Constraint::BaseLoad, Constraint::AllPairsBackup] {
        let oracle = FeasibilityOracle::new(&topo, &tm, c);
        let sel = selector.select(&market, &oracle, market.offered()).expect("feasible");
        let drill = run_drill(&topo, &sel.links, &tm, &spec).expect("routable");
        availabilities.push(drill.availability);
    }
    assert!(
        availabilities[1] >= availabilities[0] - 0.05,
        "resilient selection materially worse under failures: {availabilities:?}"
    );
    assert!(availabilities[1] > 0.8, "resilient fabric should absorb most failures");
}

/// E-C1 bound: under full withholding every payment stays within the
/// per-BP Clarke bound `P_α ≤ C_α + (C_virt − C(SL))`: a pivot's
/// alternatives are at worst the contract-priced virtual links.
#[test]
fn shape_c1_collusion_bounded() {
    use public_option_core::auction::collusion::withholding_experiment;
    use public_option_core::flow::LinkSet;
    let (topo, tm) = small_instance();
    let mut market = Market::truthful(&topo, 3.0);
    let selector = GreedySelector::with_prune_budget(8);
    let report = withholding_experiment(&mut market, &tm, Constraint::BaseLoad, &selector)
        .expect("feasible with full virtual coverage");
    for d in &report.deltas {
        assert!(d.payment_after.is_finite());
    }
    // Holds on this instance, not on the `collusion` bench's (EXPERIMENTS.md).
    assert!(report.total_gain() >= -1e-6, "coalition cannot lose by withholding");

    let oracle = FeasibilityOracle::new(&topo, &tm, Constraint::BaseLoad);
    let virtual_only = LinkSet::from_links(topo.n_links(), topo.virtual_links());
    let c_virt =
        selector.select(&market, &oracle, &virtual_only).expect("virtual links carry the matrix");
    for s in &report.colluded.settlements {
        let cap = s.bid_cost + (c_virt.cost - report.colluded.total_cost);
        assert!(s.payment <= cap, "{}: payment {} above its Clarke bound {cap}", s.bp, s.payment);
    }
}
