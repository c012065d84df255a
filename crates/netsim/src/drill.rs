//! Failure drills: does the leased fabric deliver under fibre cuts?
//!
//! Experiment E-R1: the auction's resilience constraints (#2/#3) buy
//! backup capacity; a drill injects outages on the busiest selected links
//! and measures how much of the offered traffic is still delivered. Sets
//! selected under stricter constraints should show higher availability.
//!
//! The drill is a fluid model: between outage boundaries every routed
//! share runs at its max-min fair rate ([`max_min_rates`]) over the links
//! that are up, on its pinned path while that path survives, else on the
//! distance-shortest surviving path, else not at all.

use crate::fairness::{max_min_rates, AllocFlow};
use poc_flow::graph::Dir;
use poc_flow::{route_tm, CapacityGraph, LinkSet, Routing};
use poc_topology::{LinkId, PocTopology};
use poc_traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};

/// Drill parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DrillSpec {
    /// How many of the most-loaded links to fail (one at a time,
    /// back-to-back windows).
    pub n_failures: usize,
    /// Duration of each failure window, hours.
    pub outage_hours: f64,
    /// Gap between failure windows, hours.
    pub gap_hours: f64,
}

impl Default for DrillSpec {
    fn default() -> Self {
        Self { n_failures: 5, outage_hours: 1.0, gap_hours: 0.5 }
    }
}

/// Drill outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DrillReport {
    /// Delivered over offered Gbit/s·h, across the whole drill.
    pub availability: f64,
    /// Times a split share changed path, summed over shares.
    pub total_reroutes: u32,
    /// Links failed, in schedule order.
    pub failed_links: Vec<LinkId>,
}

/// Errors from [`run_drill`]. A bad [`DrillSpec`] is a caller
/// configuration problem and must surface as a value, not a panic —
/// library callers (the CLI, benches, remote drivers) feed specs from
/// user input.
#[derive(Clone, Debug, PartialEq)]
pub enum DrillError {
    /// `n_failures == 0`, a non-positive/non-finite outage window or a
    /// negative/non-finite gap: the drill would fail nothing, never end
    /// or run its windows out of order.
    DegenerateSpec { n_failures: usize, outage_hours: f64, gap_hours: f64 },
    /// The base traffic matrix could not be routed over the active set.
    Route(poc_flow::RouteError),
}

impl std::fmt::Display for DrillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrillError::DegenerateSpec { n_failures, outage_hours, gap_hours } => write!(
                f,
                "degenerate drill spec: n_failures {n_failures}, outage_hours {outage_hours}, \
                 gap_hours {gap_hours} (need >= 1 failure, a positive finite outage and a \
                 non-negative finite gap)"
            ),
            DrillError::Route(e) => write!(f, "drill unroutable: {e}"),
        }
    }
}

impl std::error::Error for DrillError {}

impl From<poc_flow::RouteError> for DrillError {
    fn from(e: poc_flow::RouteError) -> Self {
        DrillError::Route(e)
    }
}

/// Run a drill: route the matrix over `active` to find the busiest links,
/// then fail the top `spec.n_failures` of them one after another while the
/// matrix's flows run continuously. Each split share of that routing is
/// traffic-engineered placement: pinned to its path, falling back to
/// dynamic rerouting during an outage — the behaviour the resilience
/// constraints provision for.
pub fn run_drill(
    topo: &PocTopology,
    active: &LinkSet,
    tm: &TrafficMatrix,
    spec: &DrillSpec,
) -> Result<DrillReport, DrillError> {
    if spec.n_failures == 0
        || !spec.outage_hours.is_finite()
        || spec.outage_hours <= 0.0
        || !spec.gap_hours.is_finite()
        || spec.gap_hours < 0.0
    {
        return Err(DrillError::DegenerateSpec {
            n_failures: spec.n_failures,
            outage_hours: spec.outage_hours,
            gap_hours: spec.gap_hours,
        });
    }
    let base = route_tm(topo, active, tm)?;
    let failed_links: Vec<LinkId> =
        busiest_links(&base, active).into_iter().take(spec.n_failures).collect();

    // Segment ends, each with the link down in the segment it closes: a
    // gap with every link up before each failure window, the window, and
    // a final gap.
    let window = spec.outage_hours + spec.gap_hours;
    let horizon = window * failed_links.len() as f64 + spec.gap_hours;
    let mut ends: Vec<(f64, Option<LinkId>)> = Vec::with_capacity(2 * failed_links.len() + 1);
    for (i, &link) in failed_links.iter().enumerate() {
        let down_at = spec.gap_hours + i as f64 * window;
        ends.push((down_at, None));
        ends.push((down_at + spec.outage_hours, Some(link)));
    }
    ends.push((horizon, None));
    // At a gap of ≈ 0 a window's end can round an ulp past the next
    // window's start (or the horizon): the earlier boundary wins.
    for k in (1..ends.len()).rev() {
        ends[k - 1].0 = ends[k - 1].0.min(ends[k].0);
    }

    // (flow, pinned path, Gbit/s) per split share of the base routing.
    let shares: Vec<_> = base
        .flows
        .iter()
        .flat_map(|f| f.paths.iter().map(move |(path, gbps)| (f, path, *gbps)))
        .collect();
    let mut offered_gbh = vec![0.0f64; shares.len()];
    let mut delivered_gbh = vec![0.0f64; shares.len()];
    // Each share's hops in the previous segment (none before the first).
    let mut last_routes: Vec<Option<Hops>> = Vec::new();
    let mut total_reroutes = 0u32;
    let mut start = 0.0f64;
    for (end, down) in ends {
        // A segment of at most 1e-12 h merges into the next one, which
        // then starts where this one did.
        if end - start <= 1e-12 {
            continue;
        }
        let dt = end - start;
        start = end;
        let mut up = active.clone();
        if let Some(link) = down {
            up.remove(link);
        }
        let g = CapacityGraph::new(topo, &up);
        let routes: Vec<Option<Hops>> = shares
            .iter()
            .map(|&(f, pinned, _)| {
                let hops_of = |p: &[LinkId]| g.hops(f.src, p).collect::<Result<Vec<_>, _>>().ok();
                Some(pinned)
                    .filter(|p| p.iter().all(|&l| up.contains(l)))
                    .and_then(|p| hops_of(p))
                    .or_else(|| {
                        g.shortest_path(f.src, f.dst, |l, _| topo.link(l).distance_km, |_, _| true)
                            .and_then(|p| hops_of(&p))
                    })
            })
            .collect();
        total_reroutes +=
            routes.iter().zip(&last_routes).filter(|(now, was)| now != was).count() as u32;

        // Every share with demand offers it; a disconnected one delivers
        // nothing.
        let mut carried: Vec<usize> = Vec::new();
        let mut alloc: Vec<AllocFlow> = Vec::new();
        for (i, &(_, _, gbps)) in shares.iter().enumerate().filter(|(_, s)| s.2 > 0.0) {
            offered_gbh[i] += gbps * dt;
            if let Some(hops) = &routes[i] {
                carried.push(i);
                alloc.push(AllocFlow { hops: hops.clone(), demand_gbps: gbps });
            }
        }
        for (&i, rate) in carried.iter().zip(max_min_rates(topo, &alloc)) {
            delivered_gbh[i] += rate * dt;
        }
        last_routes = routes;
    }

    let offered: f64 = offered_gbh.iter().sum();
    let delivered: f64 = delivered_gbh.iter().sum();
    Ok(DrillReport {
        availability: if offered <= 0.0 { 1.0 } else { delivered / offered },
        total_reroutes,
        failed_links,
    })
}

/// The `(link, direction)` hops of a path, from its source.
type Hops = Vec<(LinkId, Dir)>;

/// `active`'s links, busiest first by total directed load under `base`
/// (ties by link id): the order both drills fail links in.
fn busiest_links(base: &Routing, active: &LinkSet) -> Vec<LinkId> {
    let load = |l: LinkId| base.load_fwd[l.index()] + base.load_rev[l.index()];
    let mut links: Vec<LinkId> = active.iter().collect();
    links.sort_by(|&a, &b| load(b).total_cmp(&load(a)).then(a.cmp(&b)));
    links
}

// ---------------------------------------------------------------------------
// Transition drills: fail the fabric *while it is migrating*.
// ---------------------------------------------------------------------------

use poc_flow::{AcceptabilityOracle, Constraint, WarmOracle};
use poc_transition::{
    execute_transition, plan_transition, seeded_oracle, PlanConfig, TransitionError,
    TransitionEvent, TransitionHooks, TransitionOp, TransitionOutcome,
};
use std::collections::HashSet;

/// Parameters of a mid-transition failure drill: which poll (round
/// boundary) the outside world intrudes at, and how hard.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransitionDrillSpec {
    /// Cut this many of the busiest target links (they vanish from the
    /// live set and every future state, rollback included).
    pub n_cuts: usize,
    /// BP-recall this many of the next-busiest target links (they drain
    /// via planned Remove steps and must not survive into the target).
    pub n_recalls: usize,
    /// Which executor poll delivers the events (0 = before the first
    /// round — the plan is stale before a single step lands).
    pub at_poll: usize,
}

impl Default for TransitionDrillSpec {
    fn default() -> Self {
        Self { n_cuts: 1, n_recalls: 1, at_poll: 0 }
    }
}

/// What a mid-transition drill proved.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransitionDrillReport {
    pub outcome: TransitionOutcome,
    pub steps_applied: usize,
    pub replans: u32,
    pub rollbacks: u32,
    /// Links cut / recalled, in injection order.
    pub cut_links: Vec<LinkId>,
    pub recalled_links: Vec<LinkId>,
    /// Applied intermediate states an *independent* oracle rejected
    /// (a fresh [`WarmOracle`], separate from the executor's — warm
    /// accepts carry a genuine routing witness, warm failures fall back
    /// to a full cold evaluation). The whole point of the planner is
    /// that this is zero, whatever was injected.
    pub unsafe_intermediates: usize,
    /// Applied states containing an already-cut link (must be zero: a
    /// dead link may never re-enter the fabric).
    pub dead_link_reappearances: usize,
    /// The live set when the executor finished.
    pub final_state: LinkSet,
}

/// Errors from [`run_transition_drill`].
#[derive(Clone, Debug)]
pub enum TransitionDrillError {
    /// No safe plan exists between the endpoints even before any fault.
    Plan(poc_transition::TransitionError),
    /// The base traffic matrix could not be routed over the target set
    /// (needed to rank links by load for the failure schedule).
    Route(poc_flow::RouteError),
    /// A hook refused mid-drill (cannot happen with the drill's own
    /// in-memory hooks; kept for parity with control-plane callers).
    Exec(String),
}

impl std::fmt::Display for TransitionDrillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransitionDrillError::Plan(e) => write!(f, "transition drill unplannable: {e}"),
            TransitionDrillError::Route(e) => write!(f, "transition drill unroutable: {e}"),
            TransitionDrillError::Exec(e) => write!(f, "transition drill execution failed: {e}"),
        }
    }
}

impl std::error::Error for TransitionDrillError {}

/// Hooks that deliver a scheduled batch of events at one poll and
/// independently re-verify every state the executor applies. The
/// verifier is its own [`WarmOracle`] (not the executor's), seeded by
/// the same [`seeded_oracle`] recipe as the planner and the executor. It
/// then follows the applied state sequence one link at a time, so its
/// witness chain tracks the fabric, and any rejection it produces is a
/// genuine safety violation — an unseeded or cold-only check would
/// misreport feasible sets its greedy router happens not to pack.
struct DrillHooks<'a> {
    verifier: WarmOracle<'a>,
    events: Vec<TransitionEvent>,
    at_poll: usize,
    polls: usize,
    delivered_cuts: HashSet<LinkId>,
    unsafe_intermediates: usize,
    dead_link_reappearances: usize,
}

impl TransitionHooks for DrillHooks<'_> {
    fn apply_step(
        &mut self,
        _idx: usize,
        _op: TransitionOp,
        state_after: &LinkSet,
    ) -> Result<(), String> {
        // `evaluate` (not `acceptable`): it always routes, so every state
        // is judged by the router from the current witness, never by a
        // cut certificate.
        if self.verifier.evaluate(state_after).is_err() {
            self.unsafe_intermediates += 1;
        }
        if self.delivered_cuts.iter().any(|&l| state_after.contains(l)) {
            self.dead_link_reappearances += 1;
        }
        Ok(())
    }

    fn poll_events(&mut self) -> Vec<TransitionEvent> {
        let evs =
            if self.polls == self.at_poll { std::mem::take(&mut self.events) } else { Vec::new() };
        self.polls += 1;
        for ev in &evs {
            if let TransitionEvent::LinkCut(l) = ev {
                self.delivered_cuts.insert(*l);
            }
        }
        evs
    }
}

/// Drill a migration `from → to`: plan it, then — at the chosen round
/// boundary — cut the busiest target links and recall the next-busiest
/// while the executor is mid-walk. The executor must replan (or unwind)
/// rather than ever applying a state the verifier rejects: an
/// independently seeded [`WarmOracle`] at the head of the same witness
/// chain, which follows the applied states and `evaluate`s each one (a
/// warm failure falls back to a full cold evaluation). The report carries
/// the violation counters for callers to assert on.
pub fn run_transition_drill(
    topo: &PocTopology,
    tm: &TrafficMatrix,
    constraint: Constraint,
    from: &LinkSet,
    to: &LinkSet,
    spec: &TransitionDrillSpec,
) -> Result<TransitionDrillReport, TransitionDrillError> {
    let cfg = PlanConfig::default();
    let plan = plan_transition(topo, tm, constraint, from, to, &cfg)
        .map_err(TransitionDrillError::Plan)?;

    // Faults hit where they hurt: the target's busiest links.
    let base = route_tm(topo, to, tm).map_err(TransitionDrillError::Route)?;
    let by_load = busiest_links(&base, to);
    let cut_links: Vec<LinkId> = by_load.iter().take(spec.n_cuts).copied().collect();
    let recalled_links: Vec<LinkId> =
        by_load.iter().skip(spec.n_cuts).take(spec.n_recalls).copied().collect();

    let events = cut_links
        .iter()
        .map(|&l| TransitionEvent::LinkCut(l))
        .chain(recalled_links.iter().map(|&l| TransitionEvent::Recall(l)))
        .collect();
    // The verifier stands at the head of the same witness chain as the
    // planner and the executor, and then follows the applied states.
    let verifier = seeded_oracle(topo, tm, constraint, from, to)
        .map_err(|r| TransitionDrillError::Plan(TransitionError::TargetInfeasible(r)))?;
    let mut hooks = DrillHooks {
        verifier,
        events,
        at_poll: spec.at_poll,
        polls: 0,
        delivered_cuts: HashSet::new(),
        unsafe_intermediates: 0,
        dead_link_reappearances: 0,
    };
    let report = execute_transition(topo, tm, constraint, &cfg, plan, &mut hooks)
        .map_err(|e| TransitionDrillError::Exec(e.to_string()))?;

    Ok(TransitionDrillReport {
        outcome: report.outcome,
        steps_applied: report.steps_applied,
        replans: report.replans,
        rollbacks: report.rollbacks,
        cut_links,
        recalled_links,
        unsafe_intermediates: hooks.unsafe_intermediates,
        dead_link_reappearances: hooks.dead_link_reappearances,
        final_state: report.final_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_flow::FeasibilityOracle;
    use poc_topology::builder::two_bp_square;
    use poc_topology::RouterId;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    /// The drill's fluid sweep on `two_bp_square`, 1 h outages: a pinned
    /// share moves to a backup and back, a severed one loses its window,
    /// windows at gap 0 run back to back, boundaries under 1e-12 h apart
    /// merge, and a 150 G demand split over several paths shares what
    /// survives max-min fairly.
    #[test]
    fn drill_table_on_two_bp_square() {
        let t = two_bp_square();
        let full = LinkSet::full(t.n_links());
        let tree = LinkSet::from_links(t.n_links(), [LinkId(0), LinkId(1), LinkId(5)]);
        // (fabric, Gbit/s r0→r1, failures, gap hours, availability, reroutes)
        let rows: [(&LinkSet, f64, usize, f64, f64, u32); 7] = [
            (&full, 10.0, 1, 0.5, 1.0, 2),
            (&tree, 10.0, 1, 0.5, 0.5, 2),
            (&tree, 10.0, 3, 0.5, 0.8, 2),
            (&full, 10.0, 2, 0.0, 1.0, 1),
            (&tree, 10.0, 2, 0.0, 0.5, 1),
            (&tree, 10.0, 2, 5e-13, 0.5, 1),
            (&full, 150.0, 2, 0.5, 17.0 / 21.0, 4),
        ];
        for (active, gbps, n_failures, gap_hours, availability, reroutes) in rows {
            let mut tm = TrafficMatrix::zero(t.n_routers());
            tm.set(r(0), r(1), gbps);
            let spec = DrillSpec { n_failures, outage_hours: 1.0, gap_hours };
            let rep = run_drill(&t, active, &tm, &spec).unwrap();
            assert!((rep.availability - availability).abs() < 1e-12, "{spec:?} -> {rep:?}");
            assert_eq!(rep.total_reroutes, reroutes, "{spec:?} -> {rep:?}");
            assert_eq!(rep.failed_links.len(), n_failures, "{spec:?} -> {rep:?}");
        }
    }

    #[test]
    fn degenerate_spec_is_a_typed_error_not_a_panic() {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let tm = TrafficMatrix::zero(t.n_routers());
        for spec in [
            DrillSpec { n_failures: 0, outage_hours: 1.0, gap_hours: 0.5 },
            DrillSpec { n_failures: 3, outage_hours: 0.0, gap_hours: 0.5 },
            DrillSpec { n_failures: 3, outage_hours: -1.0, gap_hours: 0.5 },
            DrillSpec { n_failures: 3, outage_hours: f64::NAN, gap_hours: 0.5 },
            DrillSpec { n_failures: 3, outage_hours: f64::INFINITY, gap_hours: 0.5 },
            DrillSpec { n_failures: 3, outage_hours: 1.0, gap_hours: -0.5 },
            DrillSpec { n_failures: 3, outage_hours: 1.0, gap_hours: f64::NAN },
        ] {
            let err = run_drill(&t, &all, &tm, &spec).unwrap_err();
            assert!(matches!(err, DrillError::DegenerateSpec { .. }), "{spec:?} -> {err:?}");
            if spec.gap_hours != 0.5 {
                let msg = err.to_string();
                assert!(msg.contains(&format!("gap_hours {}", spec.gap_hours)), "{msg}");
            }
        }
    }

    #[test]
    fn busiest_link_failed_first() {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 50.0); // direct link carries the most
        let rep = run_drill(&t, &all, &tm, &DrillSpec::default()).unwrap();
        let direct = t.links.iter().find(|l| l.connects(r(0), r(1))).unwrap().id;
        assert_eq!(rep.failed_links[0], direct);
    }

    // -- transition drills --------------------------------------------------

    fn drill_tm(t: &PocTopology) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 10.0);
        tm.set(r(2), r(3), 10.0);
        tm
    }

    /// A minimal acceptable set: greedily prune the full fabric while the
    /// cold oracle keeps saying yes.
    fn minimal_set(t: &PocTopology, tm: &TrafficMatrix, c: Constraint) -> LinkSet {
        let cold = FeasibilityOracle::new(t, tm, c);
        let mut cur = LinkSet::full(t.n_links());
        for i in 0..t.n_links() {
            let mut cand = cur.clone();
            cand.remove(LinkId::from_index(i));
            if cold.acceptable(&cand) {
                cur = cand;
            }
        }
        cur
    }

    #[test]
    fn cut_during_expansion_forces_replan_and_excludes_dead_link() {
        let t = two_bp_square();
        let tm = drill_tm(&t);
        let c = Constraint::BaseLoad;
        let from = minimal_set(&t, &tm, c);
        let to = LinkSet::full(t.n_links());
        assert_ne!(from, to, "two_bp_square must have slack to migrate across");

        // Cut the busiest target link before the first step lands: the
        // redundant full fabric stays feasible without it, so the drill
        // must end committed — on the shrunken target, after a replan.
        let spec = TransitionDrillSpec { n_cuts: 1, n_recalls: 0, at_poll: 0 };
        let rep = run_transition_drill(&t, &tm, c, &from, &to, &spec).unwrap();
        assert_eq!(rep.outcome, TransitionOutcome::Committed, "{rep:?}");
        assert!(rep.replans >= 1, "cut must force a replan: {rep:?}");
        assert_eq!(rep.cut_links.len(), 1);
        assert!(!rep.final_state.contains(rep.cut_links[0]));
        assert_eq!(rep.unsafe_intermediates, 0, "{rep:?}");
        assert_eq!(rep.dead_link_reappearances, 0, "{rep:?}");
        let mut want = to.clone();
        want.remove(rep.cut_links[0]);
        assert_eq!(rep.final_state, want);
    }

    #[test]
    fn recall_during_expansion_drains_the_link_safely() {
        let t = two_bp_square();
        let tm = drill_tm(&t);
        let c = Constraint::BaseLoad;
        let from = minimal_set(&t, &tm, c);
        let to = LinkSet::full(t.n_links());

        let spec = TransitionDrillSpec { n_cuts: 0, n_recalls: 2, at_poll: 0 };
        let rep = run_transition_drill(&t, &tm, c, &from, &to, &spec).unwrap();
        assert_eq!(rep.outcome, TransitionOutcome::Committed, "{rep:?}");
        assert_eq!(rep.recalled_links.len(), 2);
        for &l in &rep.recalled_links {
            assert!(!rep.final_state.contains(l), "recalled link must drain out: {rep:?}");
        }
        assert_eq!(rep.unsafe_intermediates, 0, "{rep:?}");
    }

    #[test]
    fn contraction_under_heavy_cuts_never_applies_unsafe_state() {
        let t = two_bp_square();
        let tm = drill_tm(&t);
        let c = Constraint::BaseLoad;
        let from = LinkSet::full(t.n_links());
        let to = minimal_set(&t, &tm, c);
        assert_ne!(from, to);

        // Cut the two busiest links of an already-minimal target: the
        // target may collapse below feasibility, in which case the
        // executor must unwind rather than press on. Whatever the
        // outcome, the safety counters stay at zero and no dead link
        // survives.
        let spec = TransitionDrillSpec { n_cuts: 2, n_recalls: 1, at_poll: 0 };
        let rep = run_transition_drill(&t, &tm, c, &from, &to, &spec).unwrap();
        assert_eq!(rep.unsafe_intermediates, 0, "{rep:?}");
        assert_eq!(rep.dead_link_reappearances, 0, "{rep:?}");
        for &l in &rep.cut_links {
            assert!(!rep.final_state.contains(l), "dead link in final state: {rep:?}");
        }
        if rep.outcome == TransitionOutcome::Committed {
            for &l in &rep.recalled_links {
                assert!(!rep.final_state.contains(l), "{rep:?}");
            }
        }
    }

    #[test]
    fn noop_migration_commits_without_steps() {
        let t = two_bp_square();
        let tm = drill_tm(&t);
        let c = Constraint::BaseLoad;
        let set = LinkSet::full(t.n_links());
        let rep =
            run_transition_drill(&t, &tm, c, &set, &set, &TransitionDrillSpec::default()).unwrap();
        assert_eq!(rep.outcome, TransitionOutcome::Committed);
        assert_eq!(rep.steps_applied, 0);
        assert_eq!(rep.final_state, set);
    }

    #[test]
    fn transition_drill_report_round_trips_through_serde() {
        let t = two_bp_square();
        let tm = drill_tm(&t);
        let c = Constraint::BaseLoad;
        let from = minimal_set(&t, &tm, c);
        let to = LinkSet::full(t.n_links());
        let rep =
            run_transition_drill(&t, &tm, c, &from, &to, &TransitionDrillSpec::default()).unwrap();
        let json = serde_json::to_string(&rep).unwrap();
        let back: TransitionDrillReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.outcome, rep.outcome);
        assert_eq!(back.steps_applied, rep.steps_applied);
        assert_eq!(back.final_state, rep.final_state);
    }
}
