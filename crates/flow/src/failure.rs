//! Failure-scenario checking for the auction's resilience constraints.
//!
//! The paper's Constraint #2 requires the selected links to carry the
//! traffic matrix "assuming that any single path between a pair of routers
//! has failed", and Constraint #3 "assuming that a path between each pair
//! of routers has failed". We make these precise as follows (DESIGN.md §4):
//!
//! * A *path failure* for pair `(p, q)` means the pair's **primary path**
//!   in the base routing becomes unavailable to it.
//! * **Constraint #2** — for every pair, considered one at a time: with all
//!   other flows keeping their base-routing placements, the pair's own
//!   demand can be re-routed while avoiding every link of its primary path.
//!   Backup capacity may be shared across scenarios (failures are not
//!   simultaneous).
//! * **Constraint #3** — every pair can be placed on a backup avoiding its
//!   own primary path *simultaneously* (backup capacity is not shared).
//!   This is strictly more demanding than #2.

use crate::graph::{CapacityGraph, PathMiss};
use crate::linkset::LinkSet;
use crate::oracle::Constraint;
use crate::route::{route_tm_with_veto, sorted_demands, FlowRoute, RouteError, Routing};
use poc_topology::{LinkId, PocTopology, RouterId};
use poc_traffic::TrafficMatrix;
use std::collections::HashSet;

/// Why a failure scenario could not be absorbed: the cause a
/// [`crate::Rejection::Resilience`] carries beside its pair.
/// [`std::fmt::Display`] renders it as a one-line message.
#[derive(Clone, Debug, PartialEq)]
pub enum FailReason {
    /// Part of the displaced demand has no path at all on the residual
    /// capacities (under the scenario's veto set).
    NoBackupRoute { pair: (RouterId, RouterId), remaining_gbps: f64 },
    /// A backup path exists but its bottleneck residual is zero.
    ZeroBackupResidual { pair: (RouterId, RouterId) },
    /// The demand would need more than the per-flow split budget of
    /// backup paths.
    SplitBudgetExceeded { pair: (RouterId, RouterId) },
    /// Constraint #3: a pair has no connectivity avoiding its primary.
    NoBackupConnectivity,
    /// Constraint #3: backup connectivity exists but the simultaneous
    /// backup demands do not fit.
    BackupUnroutable { remaining_gbps: f64 },
    /// A path of the base routing does not chain from its flow's source
    /// over this topology, so there is no base load to fail over from.
    BrokenPath(PathMiss),
}

impl From<PathMiss> for FailReason {
    fn from(miss: PathMiss) -> Self {
        FailReason::BrokenPath(miss)
    }
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailReason::NoBackupRoute { pair: (src, dst), remaining_gbps } => {
                write!(f, "{remaining_gbps:.2} Gbps of {src}->{dst} has no backup route")
            }
            FailReason::ZeroBackupResidual { pair: (src, dst) } => {
                write!(f, "zero backup residual for {src}->{dst}")
            }
            FailReason::SplitBudgetExceeded { pair: (src, dst) } => {
                write!(f, "{src}->{dst} exceeded backup split budget")
            }
            FailReason::NoBackupConnectivity => write!(f, "no backup connectivity"),
            FailReason::BackupUnroutable { remaining_gbps } => {
                write!(f, "{remaining_gbps:.2} Gbps of backup demand unroutable")
            }
            FailReason::BrokenPath(miss) => write!(f, "broken base routing: {miss}"),
        }
    }
}

/// Maximum paths a re-routed demand may be split across.
const MAX_REROUTE_SPLITS: usize = 64;

/// Up to `max_failures` resilience scenarios of the base routing `base`
/// over `active` that `constraint` checks and that fail, each with its
/// pair and why (empty when every checked scenario survives). The one
/// place a constraint picks its check: #1 has none, #2 fails each sampled
/// flow's primary in turn, and #3 routes every backup at once, which
/// stops at its first failure.
pub(crate) fn failing_scenarios(
    topo: &PocTopology,
    active: &LinkSet,
    tm: &TrafficMatrix,
    base: &Routing,
    constraint: Constraint,
    max_failures: usize,
) -> Vec<((RouterId, RouterId), FailReason)> {
    match constraint {
        Constraint::BaseLoad => Vec::new(),
        Constraint::SinglePathFailure { sample_every } => {
            failing_single_path_scenarios(topo, active, base, sample_every, max_failures)
        }
        Constraint::AllPairsBackup => {
            all_pairs_backup_failure(topo, active, tm, base).into_iter().collect()
        }
    }
}

/// Constraint #2 check: for each flow (every `sample_every`-th, stride 1 =
/// exhaustive), release the flow's own load, then try to re-route its full
/// demand while avoiding its primary path, in the presence of everyone
/// else's base loads. Restores state between scenarios, and collects up
/// to `max_failures` failing scenarios, so the auction's selector can
/// repair many per verification round.
fn failing_single_path_scenarios(
    topo: &PocTopology,
    active: &LinkSet,
    base: &Routing,
    sample_every: usize,
    max_failures: usize,
) -> Vec<((RouterId, RouterId), FailReason)> {
    assert!(sample_every >= 1, "sample stride must be >= 1");
    let mut failures = Vec::new();
    // One graph with all base loads applied; scenarios edit it locally.
    let mut g = CapacityGraph::new(topo, active);
    for flow in &base.flows {
        for (path, gbps) in &flow.paths {
            if let Err(miss) = g.consume_path(flow.src, path, *gbps) {
                return vec![((flow.src, flow.dst), miss.into())];
            }
        }
    }
    for (i, flow) in base.flows.iter().enumerate() {
        if i % sample_every != 0 {
            continue;
        }
        let Some((primary, _)) = flow.primary() else { continue };
        let veto: HashSet<LinkId> = primary.iter().copied().collect();
        if let Err(reason) = fail_primary(&mut g, topo, flow, &veto) {
            failures.push(((flow.src, flow.dst), reason));
            if failures.len() >= max_failures {
                break;
            }
        }
    }
    failures
}

/// One Constraint #2 scenario on the loaded graph `g`: release `flow`'s own
/// load (all its paths fail with the primary corridor, conservatively none
/// of its placements survive), try to re-route its full demand off `veto`,
/// then undo both edits so `g` is back on the base placement.
fn fail_primary(
    g: &mut CapacityGraph<'_>,
    topo: &PocTopology,
    flow: &FlowRoute,
    veto: &HashSet<LinkId>,
) -> Result<(), FailReason> {
    for (path, gbps) in &flow.paths {
        g.release_path(flow.src, path, *gbps)?;
    }
    let rerouted = reroute_demand(g, topo, flow.src, flow.dst, flow.demand_gbps, veto);
    if let Ok(paths) = &rerouted {
        undo(g, flow.src, paths)?;
    }
    for (path, gbps) in &flow.paths {
        g.consume_path(flow.src, path, *gbps)?;
    }
    rerouted.map(drop)
}

/// Constraint #3 check: route every flow off its own primary path, all at
/// once. `None` when that routing succeeds.
fn all_pairs_backup_failure(
    topo: &PocTopology,
    active: &LinkSet,
    tm: &TrafficMatrix,
    base: &Routing,
) -> Option<((RouterId, RouterId), FailReason)> {
    // Vetoes are addressed by flow index in the router's demand order.
    let vetoes: Vec<HashSet<LinkId>> = sorted_demands(tm)
        .iter()
        .map(|&(src, dst, _)| {
            base.primary_path(src, dst).map(|p| p.iter().copied().collect()).unwrap_or_default()
        })
        .collect();
    match route_tm_with_veto(topo, active, tm, |fi, l| !vetoes[fi].contains(&l)) {
        Ok(_) => None,
        Err(RouteError::Disconnected { src, dst }) => {
            Some(((src, dst), FailReason::NoBackupConnectivity))
        }
        Err(RouteError::Unroutable { src, dst, remaining_gbps }) => {
            Some(((src, dst), FailReason::BackupUnroutable { remaining_gbps }))
        }
    }
}

/// Try to place `demand` from `src` to `dst` avoiding `veto` links, over
/// the residual capacities of `g`. On success returns the consumed paths
/// (state in `g` is left consumed); on failure `g` is unchanged.
fn reroute_demand(
    g: &mut CapacityGraph<'_>,
    topo: &PocTopology,
    src: RouterId,
    dst: RouterId,
    demand: f64,
    veto: &HashSet<LinkId>,
) -> Result<Vec<(Vec<LinkId>, f64)>, FailReason> {
    let mut remaining = demand;
    let mut placed: Vec<(Vec<LinkId>, f64)> = Vec::new();
    let mut splits = 0;
    while remaining > 1e-9 {
        let want = remaining;
        let path = g
            .shortest_path(
                src,
                dst,
                |l, _| topo.link(l).distance_km,
                |l, dir| !veto.contains(&l) && g.residual(l, dir) >= want - 1e-9,
            )
            .or_else(|| {
                g.shortest_path(
                    src,
                    dst,
                    |l, _| topo.link(l).distance_km,
                    |l, dir| !veto.contains(&l) && g.residual(l, dir) > 1e-9,
                )
            });
        let Some(path) = path else {
            undo(g, src, &placed)?;
            return Err(FailReason::NoBackupRoute { pair: (src, dst), remaining_gbps: remaining });
        };
        let amount = remaining.min(g.bottleneck(src, &path)?);
        if amount <= 1e-9 {
            undo(g, src, &placed)?;
            return Err(FailReason::ZeroBackupResidual { pair: (src, dst) });
        }
        g.consume_path(src, &path, amount)?;
        remaining -= amount;
        placed.push((path, amount));
        splits += 1;
        if splits > MAX_REROUTE_SPLITS && remaining > 1e-9 {
            undo(g, src, &placed)?;
            return Err(FailReason::SplitBudgetExceeded { pair: (src, dst) });
        }
    }
    Ok(placed)
}

fn undo(
    g: &mut CapacityGraph<'_>,
    src: RouterId,
    placed: &[(Vec<LinkId>, f64)],
) -> Result<(), PathMiss> {
    placed.iter().try_for_each(|(path, gbps)| g.release_path(src, path, *gbps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::route_tm;
    use poc_topology::builder::two_bp_square;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    const C2: Constraint = Constraint::SinglePathFailure { sample_every: 1 };

    /// The first scenario of `base` that `constraint` checks and that fails.
    fn first_failure(
        t: &PocTopology,
        links: &LinkSet,
        tm: &TrafficMatrix,
        base: &Routing,
        constraint: Constraint,
    ) -> Option<((RouterId, RouterId), FailReason)> {
        failing_scenarios(t, links, tm, base, constraint, 1).pop()
    }

    #[test]
    fn redundant_topology_survives_c2() {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 20.0);
        tm.set(r(2), r(3), 10.0);
        let base = route_tm(&t, &all, &tm).unwrap();
        let res = first_failure(&t, &all, &tm, &base, C2);
        assert!(res.is_none(), "{res:?}");
    }

    #[test]
    fn spanning_tree_fails_c2() {
        // Keep only a tree: links 0 (r0-r1), 1 (r1-r2), 5 (r1-r3). No pair
        // has a backup path.
        let t = two_bp_square();
        let tree = LinkSet::from_links(
            t.n_links(),
            [poc_topology::LinkId(0), poc_topology::LinkId(1), poc_topology::LinkId(5)],
        );
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 5.0);
        let base = route_tm(&t, &tree, &tm).unwrap();
        let res = first_failure(&t, &tree, &tm, &base, C2);
        assert!(res.is_some());
    }

    #[test]
    fn c2_scenario_state_is_restored_between_pairs() {
        // Two heavy demands that individually have backups but whose
        // backups share capacity: C2 must still pass because failures are
        // considered one at a time.
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let mut tm = TrafficMatrix::zero(t.n_routers());
        // Both primary paths are direct links; both backups go via r2 and
        // would not fit simultaneously at 90G each (links are 100G), but
        // one-at-a-time they fit.
        tm.set(r(0), r(1), 90.0);
        let base = route_tm(&t, &all, &tm).unwrap();
        let res = first_failure(&t, &all, &tm, &base, C2);
        assert!(res.is_none(), "{res:?}");
    }

    #[test]
    fn c3_requires_disjoint_capacity() {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 10.0);
        tm.set(r(0), r(2), 10.0);
        let base = route_tm(&t, &all, &tm).unwrap();
        let res = first_failure(&t, &all, &tm, &base, Constraint::AllPairsBackup);
        assert!(res.is_none(), "{res:?}");
    }

    #[test]
    fn c3_fails_without_backup_paths() {
        let t = two_bp_square();
        let tree = LinkSet::from_links(
            t.n_links(),
            [poc_topology::LinkId(0), poc_topology::LinkId(1), poc_topology::LinkId(5)],
        );
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 5.0);
        let base = route_tm(&t, &tree, &tm).unwrap();
        let res = first_failure(&t, &tree, &tm, &base, Constraint::AllPairsBackup);
        assert!(res.is_some());
    }

    #[test]
    fn c2_failure_reports_offending_pair() {
        let t = two_bp_square();
        let tree = LinkSet::from_links(
            t.n_links(),
            [poc_topology::LinkId(0), poc_topology::LinkId(1), poc_topology::LinkId(5)],
        );
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 5.0);
        let base = route_tm(&t, &tree, &tm).unwrap();
        let (pair, _) = first_failure(&t, &tree, &tm, &base, C2).expect("a scenario fails");
        assert_eq!(pair, (r(0), r(1)));
    }

    #[test]
    fn c3_stricter_than_c2_under_shared_backup_capacity() {
        // Demands r0→r1 and r1→r0 at 60G: primaries are the direct link
        // (independent directions); backups both need the r0-r2-r1 corridor
        // in opposite directions — full duplex, so both fit. Raise to a
        // level where C2 passes but simultaneous backups via splitting are
        // constrained: use r0→r1 and r2→r1 at 95G. Backup of r0→r1 avoids
        // link 0 → goes r0-r2-r1 (needs 95 on l2,l1). Backup of r2→r1
        // avoids l1 → goes r2-r0-r1 (needs 95 on l2 reverse, l0). One at a
        // time each fits; verify C2 passes (C3 may or may not, depending on
        // split routing — this test pins the C2 behaviour only).
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 60.0);
        tm.set(r(2), r(1), 60.0);
        let base = route_tm(&t, &all, &tm).unwrap();
        let res = first_failure(&t, &all, &tm, &base, C2);
        assert!(res.is_none(), "{res:?}");
    }

    #[test]
    fn fail_reason_display_preserves_legacy_messages() {
        // The reason became a typed enum; the rendered strings are the
        // exact messages the stringly predecessor produced (callers that
        // log or snapshot them must not see a diff).
        let pair = (r(0), r(3));
        for (reason, want) in [
            (
                FailReason::NoBackupRoute { pair, remaining_gbps: 12.5 },
                "12.50 Gbps of r0->r3 has no backup route",
            ),
            (FailReason::ZeroBackupResidual { pair }, "zero backup residual for r0->r3"),
            (FailReason::SplitBudgetExceeded { pair }, "r0->r3 exceeded backup split budget"),
            (FailReason::NoBackupConnectivity, "no backup connectivity"),
            (
                FailReason::BackupUnroutable { remaining_gbps: 3.25 },
                "3.25 Gbps of backup demand unroutable",
            ),
        ] {
            assert_eq!(reason.to_string(), want);
        }
    }

    #[test]
    fn sampling_stride_skips_scenarios() {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 10.0);
        tm.set(r(2), r(3), 10.0);
        let base = route_tm(&t, &all, &tm).unwrap();
        // stride 1000 → only the first (largest) flow's failure is checked.
        let res = first_failure(
            &t,
            &all,
            &tm,
            &base,
            Constraint::SinglePathFailure { sample_every: 1000 },
        );
        assert!(res.is_none());
    }
}
