//! Count gate on the warm oracle's work over one migration and back: the
//! benchmark's zoo10 instance walks live → x1.5 → live, planned and
//! executed, and each direction's probes, cold fallbacks, reused and
//! re-routed flows and full routing passes are pinned. Alone in its file,
//! so alone in its process, and the global registry's deltas are exact; a
//! count repeats on any runner, which a timing does not.

use poc_auction::{GreedySelector, Market, Selector};
use poc_flow::{Constraint, FeasibilityOracle, LinkSet};
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, PocTopology, ZooConfig, ZooGenerator};
use poc_traffic::{TrafficMatrix, TrafficScenario};
use poc_transition::{
    execute_transition, plan_transition, PlanConfig, TransitionHooks, TransitionOp,
    TransitionOutcome,
};

const BASE: Constraint = Constraint::BaseLoad;

/// The benchmark's default instance seed.
const INSTANCE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The counters pinned per direction, in the order the arrays below hold
/// them.
const COUNTERS: [&str; 6] = [
    "flow.oracle.check",
    "flow.warm.fallbacks",
    "flow.warm.reused_flows",
    "flow.warm.rerouted_flows",
    "flow.route.passes",
    "flow.warm.kept",
];

/// The benchmark's `zoo10` instance: 40 cities, 10 BPs, 6 000 Gbit/s.
fn zoo10() -> (PocTopology, TrafficMatrix) {
    let zoo = ZooConfig {
        n_cities: 40,
        n_bps: 10,
        coverage_min: 0.30,
        coverage_max: 0.80,
        ..ZooConfig::paper()
    };
    let mut topo = ZooGenerator::new(zoo.with_seed(INSTANCE_SEED)).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let tm =
        TrafficScenario { total_gbps: 6000.0, ..TrafficScenario::paper_default() }.generate(&topo);
    (topo, tm)
}

/// What a default-configured POC leases under demand scaled by `factor`.
fn selection(topo: &PocTopology, tm: &TrafficMatrix, factor: f64) -> LinkSet {
    let mut tm = tm.clone();
    tm.scale(factor);
    let market = Market::truthful(topo, 3.0);
    let oracle = FeasibilityOracle::new(topo, &tm, BASE);
    GreedySelector::default()
        .select(&market, &oracle, market.offered())
        .expect("zoo10 is auctionable at this factor")
        .links
}

/// Hooks that accept every step.
struct Accept;

impl TransitionHooks for Accept {
    fn apply_step(&mut self, _: usize, _: TransitionOp, _: &LinkSet) -> Result<(), String> {
        Ok(())
    }
}

/// Plan and execute `from → to` undisturbed; the step count and what the
/// walk added to each of [`COUNTERS`].
fn walk(topo: &PocTopology, tm: &TrafficMatrix, from: &LinkSet, to: &LinkSet) -> (usize, [u64; 6]) {
    let counts = || {
        let snapshot = poc_obs::global().snapshot();
        COUNTERS.map(|name| snapshot.counter(name).unwrap_or(0))
    };
    let before = counts();
    let cfg = PlanConfig::default();
    let plan = plan_transition(topo, tm, BASE, from, to, &cfg).expect("plannable");
    let steps = plan.steps.len();
    let report = execute_transition(topo, tm, BASE, &cfg, plan, &mut Accept).unwrap();
    assert_eq!(report.outcome, TransitionOutcome::Committed);
    assert_eq!((report.replans, &report.final_state), (0, to));
    let after = counts();
    (steps, std::array::from_fn(|i| after[i] - before[i]))
}

#[test]
fn zoo10_walk_there_and_back_does_the_recorded_work() {
    let (topo, tm) = zoo10();
    let live = selection(&topo, &tm, 1.0);
    let target = selection(&topo, &tm, 1.5);
    assert_ne!(live, target, "nothing to migrate");

    // The first five columns were recorded at `42f9e7c`, before the warm
    // oracle kept a witness every path of which the candidate holds; the
    // kept witness changed none of them. Each direction probes 314 sets:
    // 157 steps planned, the same 157 re-verified.
    let (steps, expand) = walk(&topo, &tm, &live, &target);
    assert_eq!(steps, 157);
    assert_eq!(expand, [314, 4, 172_856, 472, 4, 186]);

    let (steps, contract) = walk(&topo, &tm, &target, &live);
    assert_eq!(steps, 157);
    assert_eq!(contract, [314, 12, 167_918, 994, 12, 174]);
}
