//! The flow-level event simulator.
//!
//! Inputs: a topology, the leased link set, flows that each span the
//! horizon (optionally pinned to a traffic-engineered path), and link
//! down/up events. The simulator sweeps outage boundaries in order;
//! between consecutive boundaries flow rates are constant and equal to the
//! max-min fair allocation over the surviving links. Flows are (re)routed
//! on every topology event: the pinned path while all its links are up,
//! else the distance-shortest path over the links currently up, or zero
//! rate (outage) if disconnected.
//!
//! Throttling, per-class availability and bursty sources are the packet
//! engine's ([`crate::engine`]); this simulator keeps what only it does:
//! outages with rerouting (E-R1's drills) and split, pinned placement.

use crate::fairness::{max_min_rates, AllocFlow};
use poc_core::entity::EntityId;
use poc_flow::graph::Dir;
use poc_flow::{CapacityGraph, LinkSet, Routing};
use poc_topology::{LinkId, PocTopology, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One simulated flow, offered for the whole horizon.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlowSpec {
    pub src: RouterId,
    pub dst: RouterId,
    /// Offered rate, Gbit/s.
    pub demand_gbps: f64,
    /// Billing attribution (e.g. the LMP or direct CSP originating it).
    pub owner: Option<EntityId>,
    /// Optional pinned path (traffic-engineering placement, e.g. from the
    /// auction's feasibility routing). Used while all its links are up;
    /// outages fall back to dynamic shortest-path rerouting.
    #[serde(default)]
    pub pinned_path: Option<Vec<LinkId>>,
}

impl FlowSpec {
    /// An unattributed flow, routed dynamically.
    pub fn new(src: RouterId, dst: RouterId, demand_gbps: f64) -> Self {
        Self { src, dst, demand_gbps, owner: None, pinned_path: None }
    }
}

/// A scheduled link outage.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkOutage {
    pub link: LinkId,
    pub down_at: f64,
    pub up_at: f64,
}

/// Simulation parameters.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// Simulation horizon, hours.
    pub horizon: f64,
    pub outages: Vec<LinkOutage>,
}

/// Per-flow accounting.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlowStats {
    pub owner: Option<EntityId>,
    /// Gbit/s × hours offered.
    pub offered_gbh: f64,
    /// Gbit/s × hours actually delivered.
    pub delivered_gbh: f64,
    /// Hours spent completely disconnected.
    pub outage_hours: f64,
    /// Times the flow changed path due to topology events.
    pub reroutes: u32,
}

/// Aggregate simulation output.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimReport {
    pub per_flow: Vec<FlowStats>,
    /// Average delivered Gbit/s per owner over the horizon (billing input).
    pub usage_by_owner: Vec<(EntityId, f64)>,
    pub horizon: f64,
    /// Time-weighted mean load per link (both directions summed), Gbit/s,
    /// indexed by link id.
    pub mean_link_load: Vec<f64>,
    /// Peak instantaneous directional load per link, Gbit/s.
    pub peak_link_load: Vec<f64>,
}

impl SimReport {
    /// Mean utilization of a link (mean load over both directions divided
    /// by twice its capacity).
    pub fn mean_utilization(&self, topo: &PocTopology, link: LinkId) -> f64 {
        let cap = topo.link(link).capacity_gbps;
        if cap <= 0.0 {
            0.0
        } else {
            self.mean_link_load[link.index()] / (2.0 * cap)
        }
    }

    /// The `n` most-loaded links by peak directional load.
    pub fn hottest_links(&self, n: usize) -> Vec<(LinkId, f64)> {
        let mut v: Vec<(LinkId, f64)> = self
            .peak_link_load
            .iter()
            .enumerate()
            .map(|(i, &l)| (LinkId::from_index(i), l))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Total delivered / total offered.
    pub fn overall_availability(&self) -> f64 {
        let offered: f64 = self.per_flow.iter().map(|f| f.offered_gbh).sum();
        let delivered: f64 = self.per_flow.iter().map(|f| f.delivered_gbh).sum();
        if offered <= 0.0 {
            1.0
        } else {
            delivered / offered
        }
    }

    pub(crate) fn total_reroutes(&self) -> u32 {
        self.per_flow.iter().map(|f| f.reroutes).sum()
    }
}

/// Errors from [`Simulator::new`] and [`Simulator::add_flow`]. Simulation
/// configs come from user input (CLI flags, drill specs, wire requests),
/// so a bad one must surface as a value, not a panic — the same contract
/// as [`crate::drill::DrillError`] and `poc_flow::FlowError`.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// `horizon <= 0` (or NaN): the simulation would cover no time.
    NonPositiveHorizon { horizon: f64 },
    /// An outage `[down_at, up_at)` with `down_at >= up_at`, a negative
    /// start, or NaN bounds.
    UnorderedInterval { start: f64, end: f64 },
    /// An outage scheduled on a link outside the active (leased) set.
    OutageOnInactiveLink { link: LinkId },
    /// A negative (or NaN) offered rate.
    NegativeDemand { demand_gbps: f64 },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NonPositiveHorizon { horizon } => {
                write!(f, "simulation horizon must be positive, got {horizon}")
            }
            SimError::UnorderedInterval { start, end } => {
                write!(f, "interval [{start}, {end}) must be ordered and non-negative")
            }
            SimError::OutageOnInactiveLink { link } => {
                write!(f, "outage on link {link:?}, which is not in the active set")
            }
            SimError::NegativeDemand { demand_gbps } => {
                write!(f, "offered rate must be non-negative, got {demand_gbps}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The simulator. Build, then [`Simulator::run`].
pub struct Simulator<'t> {
    topo: &'t PocTopology,
    active: LinkSet,
    flows: Vec<FlowSpec>,
    config: SimConfig,
}

impl<'t> Simulator<'t> {
    pub fn new(
        topo: &'t PocTopology,
        active: &LinkSet,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        if config.horizon.is_nan() || config.horizon <= 0.0 {
            return Err(SimError::NonPositiveHorizon { horizon: config.horizon });
        }
        for o in &config.outages {
            if o.down_at.is_nan() || o.up_at.is_nan() || o.down_at < 0.0 || o.down_at >= o.up_at {
                return Err(SimError::UnorderedInterval { start: o.down_at, end: o.up_at });
            }
            if !active.contains(o.link) {
                return Err(SimError::OutageOnInactiveLink { link: o.link });
            }
        }
        Ok(Self { topo, active: active.clone(), flows: Vec::new(), config })
    }

    pub fn add_flow(&mut self, flow: FlowSpec) -> Result<(), SimError> {
        if flow.demand_gbps.is_nan() || flow.demand_gbps < 0.0 {
            return Err(SimError::NegativeDemand { demand_gbps: flow.demand_gbps });
        }
        self.flows.push(flow);
        Ok(())
    }

    /// Add a traffic matrix with traffic-engineered placement: demands are
    /// routed (with splitting) over the active links exactly as the
    /// auction's feasibility oracle routes them, and each split share
    /// becomes a flow pinned to its path. This is how the POC would
    /// actually place traffic on a fabric sized by that same routing.
    /// `owner_of(router)` attributes usage for billing.
    pub fn add_traffic_matrix_routed(
        &mut self,
        tm: &poc_traffic::TrafficMatrix,
        owner_of: impl Fn(RouterId) -> Option<EntityId>,
    ) -> Result<(), poc_flow::RouteError> {
        let routing = poc_flow::route_tm(self.topo, &self.active, tm)?;
        self.add_routing(&routing, owner_of);
        Ok(())
    }

    /// Add each split share of `routing` as one flow pinned to its path.
    pub(crate) fn add_routing(
        &mut self,
        routing: &Routing,
        owner_of: impl Fn(RouterId) -> Option<EntityId>,
    ) {
        for flow in &routing.flows {
            for (path, gbps) in &flow.paths {
                let f = FlowSpec::new(flow.src, flow.dst, *gbps);
                let owner = owner_of(flow.src);
                self.flows.push(FlowSpec { owner, pinned_path: Some(path.clone()), ..f });
            }
        }
    }

    /// Run to the horizon.
    pub fn run(&self) -> SimReport {
        // Event times: the horizon's ends and outage boundaries, deduplicated.
        let mut times: Vec<f64> = vec![0.0, self.config.horizon];
        for o in &self.config.outages {
            times.push(o.down_at.min(self.config.horizon));
            times.push(o.up_at.min(self.config.horizon));
        }
        times.sort_by(|a, b| a.total_cmp(b));
        times.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        let mut stats: Vec<FlowStats> = self
            .flows
            .iter()
            .map(|f| FlowStats {
                owner: f.owner,
                offered_gbh: 0.0,
                delivered_gbh: 0.0,
                outage_hours: 0.0,
                reroutes: 0,
            })
            .collect();
        let mut last_paths: Vec<Option<Vec<(LinkId, Dir)>>> = vec![None; self.flows.len()];
        let mut last_topology_key: Option<Vec<bool>> = None;
        let mut mean_link_load = vec![0.0f64; self.topo.n_links()];
        let mut peak_link_load = vec![0.0f64; self.topo.n_links()];

        for w in times.windows(2) {
            let (t0, t1) = (w[0], w[1]);
            if t1 - t0 <= 1e-12 {
                continue;
            }
            let mid = (t0 + t1) / 2.0;
            // Which links are up during this segment?
            let up: Vec<bool> = (0..self.topo.n_links())
                .map(|i| {
                    let l = LinkId::from_index(i);
                    self.active.contains(l)
                        && !self
                            .config
                            .outages
                            .iter()
                            .any(|o| o.link == l && o.down_at <= mid && mid < o.up_at)
                })
                .collect();
            let topology_changed = last_topology_key.as_ref() != Some(&up);
            if topology_changed {
                let mut surviving = LinkSet::empty(self.topo.n_links());
                for (i, &u) in up.iter().enumerate() {
                    if u {
                        surviving.insert(LinkId::from_index(i));
                    }
                }
                let g = CapacityGraph::new(self.topo, &surviving);
                for (i, f) in self.flows.iter().enumerate() {
                    // Pinned placement wins while all its links are up (and
                    // it chains from the flow's source).
                    let hops_of =
                        |p: &[LinkId]| g.hops(f.src, p).collect::<Result<Vec<_>, _>>().ok();
                    let new_path = f
                        .pinned_path
                        .as_ref()
                        .filter(|p| p.iter().all(|&l| up[l.index()]))
                        .and_then(|p| hops_of(p))
                        .or_else(|| {
                            g.shortest_path(
                                f.src,
                                f.dst,
                                |l, _| self.topo.link(l).distance_km,
                                |_, _| true,
                            )
                            .and_then(|p| hops_of(&p))
                        });
                    if last_topology_key.is_some() && new_path != last_paths[i] {
                        stats[i].reroutes += 1;
                    }
                    last_paths[i] = new_path;
                }
                last_topology_key = Some(up);
            }

            // Flows offering traffic this segment.
            let mut seg_flows: Vec<AllocFlow> = Vec::new();
            let mut seg_index: Vec<usize> = Vec::new();
            for (i, f) in self.flows.iter().enumerate().filter(|(_, f)| f.demand_gbps > 0.0) {
                match &last_paths[i] {
                    Some(hops) => {
                        seg_flows
                            .push(AllocFlow { hops: hops.clone(), demand_gbps: f.demand_gbps });
                        seg_index.push(i);
                    }
                    None => {
                        // Disconnected: full outage this segment.
                        let dt = t1 - t0;
                        stats[i].offered_gbh += f.demand_gbps * dt;
                        stats[i].outage_hours += dt;
                    }
                }
            }
            let rates = max_min_rates(self.topo, &seg_flows);
            let dt = t1 - t0;
            let mut seg_fwd = vec![0.0f64; self.topo.n_links()];
            let mut seg_rev = vec![0.0f64; self.topo.n_links()];
            for (k, &i) in seg_index.iter().enumerate() {
                stats[i].offered_gbh += self.flows[i].demand_gbps * dt;
                stats[i].delivered_gbh += rates[k] * dt;
                for &(l, d) in &seg_flows[k].hops {
                    match d {
                        Dir::Fwd => seg_fwd[l.index()] += rates[k],
                        Dir::Rev => seg_rev[l.index()] += rates[k],
                    }
                }
            }
            for i in 0..self.topo.n_links() {
                mean_link_load[i] += (seg_fwd[i] + seg_rev[i]) * dt;
                peak_link_load[i] = peak_link_load[i].max(seg_fwd[i]).max(seg_rev[i]);
            }
        }

        // Usage per owner, averaged over the horizon.
        let mut usage: BTreeMap<EntityId, f64> = BTreeMap::new();
        for s in &stats {
            if let Some(owner) = s.owner {
                *usage.entry(owner).or_insert(0.0) += s.delivered_gbh / self.config.horizon;
            }
        }
        for l in &mut mean_link_load {
            *l /= self.config.horizon;
        }
        SimReport {
            per_flow: stats,
            usage_by_owner: usage.into_iter().collect(),
            horizon: self.config.horizon,
            mean_link_load,
            peak_link_load,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    fn base_sim(topo: &PocTopology, config: SimConfig) -> Simulator<'_> {
        let all = LinkSet::full(topo.n_links());
        Simulator::new(topo, &all, config).expect("valid test config")
    }

    #[test]
    fn uncongested_flow_fully_delivered() {
        let t = two_bp_square();
        let mut sim = base_sim(&t, SimConfig { horizon: 10.0, ..Default::default() });
        sim.add_flow(FlowSpec::new(r(0), r(1), 20.0)).unwrap();
        let rep = sim.run();
        assert!((rep.overall_availability() - 1.0).abs() < 1e-9);
        assert!((rep.per_flow[0].delivered_gbh - 200.0).abs() < 1e-6);
        assert_eq!(rep.total_reroutes(), 0);
    }

    #[test]
    fn congestion_shares_fairly() {
        let t = two_bp_square();
        let mut sim = base_sim(&t, SimConfig { horizon: 1.0, ..Default::default() });
        // Three 60G flows on the same 100G ingress link direction r0→r1
        // (plus alternate paths available — they'll reroute? No: paths are
        // distance-shortest, all three take the direct link).
        for _ in 0..2 {
            sim.add_flow(FlowSpec::new(r(0), r(1), 60.0)).unwrap();
        }
        let rep = sim.run();
        // 100G split two ways = 50 each.
        for f in &rep.per_flow {
            assert!((f.delivered_gbh - 50.0).abs() < 1e-6, "{f:?}");
        }
    }

    #[test]
    fn outage_causes_reroute_not_loss_when_backup_exists() {
        let t = two_bp_square();
        let direct = t.links.iter().find(|l| l.connects(r(0), r(1))).unwrap().id;
        let config = SimConfig {
            horizon: 10.0,
            outages: vec![LinkOutage { link: direct, down_at: 2.0, up_at: 4.0 }],
        };
        let mut sim = base_sim(&t, config);
        sim.add_flow(FlowSpec::new(r(0), r(1), 10.0)).unwrap();
        let rep = sim.run();
        // Rerouted over r0-r2-r1 during the outage: no loss, 2 reroutes
        // (onto backup and back).
        assert!((rep.overall_availability() - 1.0).abs() < 1e-9, "{rep:?}");
        assert_eq!(rep.per_flow[0].reroutes, 2);
    }

    #[test]
    fn outage_without_backup_is_downtime() {
        let t = two_bp_square();
        // Restrict to the single direct r0-r1 link.
        let direct = t.links.iter().find(|l| l.connects(r(0), r(1))).unwrap().id;
        let only = LinkSet::from_links(t.n_links(), [direct]);
        let config = SimConfig {
            horizon: 10.0,
            outages: vec![LinkOutage { link: direct, down_at: 0.0, up_at: 5.0 }],
        };
        let mut sim = Simulator::new(&t, &only, config).unwrap();
        sim.add_flow(FlowSpec::new(r(0), r(1), 10.0)).unwrap();
        let rep = sim.run();
        assert!((rep.overall_availability() - 0.5).abs() < 1e-9, "{rep:?}");
        assert!((rep.per_flow[0].outage_hours - 5.0).abs() < 1e-9);
    }

    #[test]
    fn usage_attribution_for_billing() {
        let t = two_bp_square();
        let mut sim = base_sim(&t, SimConfig { horizon: 2.0, ..Default::default() });
        let owner = EntityId(5);
        let owned = |spec: FlowSpec| FlowSpec { owner: Some(owner), ..spec };
        sim.add_flow(owned(FlowSpec::new(r(0), r(1), 30.0))).unwrap();
        sim.add_flow(owned(FlowSpec::new(r(1), r(2), 10.0))).unwrap();
        let rep = sim.run();
        assert_eq!(rep.usage_by_owner.len(), 1);
        let (o, gbps) = rep.usage_by_owner[0];
        assert_eq!(o, owner);
        assert!((gbps - 40.0).abs() < 1e-6);
    }

    #[test]
    fn routed_ingestion_splits_and_delivers() {
        // 150G r0→r1 exceeds any single link: routed ingestion splits it
        // across paths and the sim delivers everything.
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let mut tm = poc_traffic::TrafficMatrix::zero(t.n_routers());
        tm.set(r(0), r(1), 150.0);
        let mut sim =
            Simulator::new(&t, &all, SimConfig { horizon: 1.0, ..Default::default() }).unwrap();
        sim.add_traffic_matrix_routed(&tm, |_| None).unwrap();
        assert!(sim.flows.len() >= 2, "expected split placement");
        let rep = sim.run();
        assert!(
            (rep.overall_availability() - 1.0).abs() < 1e-9,
            "TE placement should deliver everything: {rep:?}"
        );
    }

    #[test]
    fn pinned_path_falls_back_on_outage() {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let direct = t.links.iter().find(|l| l.connects(r(0), r(1))).unwrap().id;
        let config = SimConfig {
            horizon: 4.0,
            outages: vec![LinkOutage { link: direct, down_at: 1.0, up_at: 2.0 }],
        };
        let mut sim = Simulator::new(&t, &all, config).unwrap();
        let f = FlowSpec::new(r(0), r(1), 10.0);
        sim.add_flow(FlowSpec { pinned_path: Some(vec![direct]), ..f }).unwrap();
        let rep = sim.run();
        // Fully delivered: dynamic fallback during the outage, pinned
        // placement before and after (2 reroutes).
        assert!((rep.overall_availability() - 1.0).abs() < 1e-9, "{rep:?}");
        assert_eq!(rep.per_flow[0].reroutes, 2);
    }

    #[test]
    fn link_loads_tracked() {
        let t = two_bp_square();
        let mut sim = base_sim(&t, SimConfig { horizon: 2.0, ..Default::default() });
        sim.add_flow(FlowSpec::new(r(0), r(1), 40.0)).unwrap();
        let rep = sim.run();
        let direct = t.links.iter().find(|l| l.connects(r(0), r(1))).unwrap().id;
        // Mean load: 40 Gbps for the whole horizon on one direction.
        assert!((rep.mean_link_load[direct.index()] - 40.0).abs() < 1e-9);
        assert!((rep.peak_link_load[direct.index()] - 40.0).abs() < 1e-9);
        assert_eq!(rep.hottest_links(1)[0].0, direct);
        // Utilization = 40 / (2 × 100).
        assert!((rep.mean_utilization(&t, direct) - 0.2).abs() < 1e-9);
    }

    /// An outage extending past the horizon is clamped: only the in-horizon
    /// part counts as downtime.
    #[test]
    fn outage_clamped_to_horizon() {
        let t = two_bp_square();
        let direct = t.links.iter().find(|l| l.connects(r(0), r(1))).unwrap().id;
        let only = LinkSet::from_links(t.n_links(), [direct]);
        let config = SimConfig {
            horizon: 10.0,
            outages: vec![LinkOutage { link: direct, down_at: 5.0, up_at: 20.0 }],
        };
        let mut sim = Simulator::new(&t, &only, config).unwrap();
        sim.add_flow(FlowSpec::new(r(0), r(1), 10.0)).unwrap();
        let rep = sim.run();
        assert!((rep.per_flow[0].outage_hours - 5.0).abs() < 1e-9, "{rep:?}");
        assert!((rep.overall_availability() - 0.5).abs() < 1e-9);
    }

    /// Outage boundaries closer than the 1e-12 dedup epsilon collapse into
    /// one instead of producing a degenerate zero-length segment: two
    /// back-to-back cuts of the direct link read as one two-hour outage,
    /// rerouted onto the backup once and back once.
    #[test]
    fn near_duplicate_event_times_collapse() {
        let t = two_bp_square();
        let direct = t.links.iter().find(|l| l.connects(r(0), r(1))).unwrap().id;
        let config = SimConfig {
            horizon: 4.0,
            outages: vec![
                LinkOutage { link: direct, down_at: 1.0, up_at: 2.0 },
                LinkOutage { link: direct, down_at: 2.0 + 5e-13, up_at: 3.0 },
            ],
        };
        let mut sim = base_sim(&t, config);
        sim.add_flow(FlowSpec::new(r(0), r(1), 10.0)).unwrap();
        let rep = sim.run();
        assert_eq!(rep.per_flow[0].reroutes, 2, "{rep:?}");
        assert!((rep.per_flow[0].delivered_gbh - 40.0).abs() < 1e-6, "{rep:?}");
        assert!((rep.overall_availability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn construction_and_admission_errors_are_typed() {
        let t = two_bp_square();
        let all = LinkSet::full(t.n_links());
        let direct = t.links.iter().find(|l| l.connects(r(0), r(1))).unwrap().id;

        let e = Simulator::new(&t, &all, SimConfig { horizon: 0.0, ..Default::default() });
        assert_eq!(e.err(), Some(SimError::NonPositiveHorizon { horizon: 0.0 }));
        assert!(Simulator::new(&t, &all, SimConfig { horizon: f64::NAN, ..Default::default() })
            .is_err());

        let bad_outage = SimConfig {
            horizon: 1.0,
            outages: vec![LinkOutage { link: direct, down_at: 3.0, up_at: 2.0 }],
        };
        assert_eq!(
            Simulator::new(&t, &all, bad_outage).err(),
            Some(SimError::UnorderedInterval { start: 3.0, end: 2.0 })
        );

        let inactive = LinkSet::empty(t.n_links());
        let orphan_outage = SimConfig {
            horizon: 1.0,
            outages: vec![LinkOutage { link: direct, down_at: 0.0, up_at: 1.0 }],
        };
        assert_eq!(
            Simulator::new(&t, &inactive, orphan_outage).err(),
            Some(SimError::OutageOnInactiveLink { link: direct })
        );

        let mut sim = base_sim(&t, SimConfig { horizon: 1.0, ..Default::default() });
        let g = FlowSpec::new(r(0), r(1), -1.0);
        assert_eq!(sim.add_flow(g).err(), Some(SimError::NegativeDemand { demand_gbps: -1.0 }));
        // Errors render a human-readable message.
        let msg = SimError::NonPositiveHorizon { horizon: -2.0 }.to_string();
        assert!(msg.contains("-2"), "{msg}");
    }
}
