//! Max-min fair rate allocation by progressive filling.
//!
//! Given flows with fixed paths, demands, and per-direction link
//! capacities, rates rise together until a link saturates; flows crossing
//! the bottleneck freeze at their fair share and the rest keep growing.
//! This is the standard fluid-model abstraction of per-flow fair queueing
//! on the fabric.

use poc_flow::graph::Dir;
use poc_topology::{LinkId, PocTopology};

/// A flow for allocation purposes: the (link, direction) pairs it crosses
/// and its demand ceiling.
#[derive(Clone, Debug)]
pub struct AllocFlow {
    pub hops: Vec<(LinkId, Dir)>,
    pub demand_gbps: f64,
}

/// Compute max-min fair rates over every link's full capacity. Returns one
/// rate per flow (≤ demand).
pub fn max_min_rates(topo: &PocTopology, flows: &[AllocFlow]) -> Vec<f64> {
    let n_links = topo.n_links();
    // Residual capacity per (link, dir).
    let mut residual_fwd: Vec<f64> = topo.links.iter().map(|l| l.capacity_gbps).collect();
    let mut residual_rev = residual_fwd.clone();

    let mut rate = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    // Flows with no hops (same-router or zero demand) freeze at demand.
    for (i, f) in flows.iter().enumerate() {
        if f.hops.is_empty() || f.demand_gbps <= 0.0 {
            rate[i] = f.demand_gbps.max(0.0);
            frozen[i] = true;
        }
    }

    // Progressive filling: at each step find the smallest uniform increment
    // that saturates some link or satisfies some flow; apply and freeze.
    for _ in 0..flows.len() + n_links + 1 {
        // Count unfrozen flows per (link, dir).
        let mut count_fwd = vec![0u32; n_links];
        let mut count_rev = vec![0u32; n_links];
        let mut any_unfrozen = false;
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            any_unfrozen = true;
            for &(l, d) in &f.hops {
                match d {
                    Dir::Fwd => count_fwd[l.index()] += 1,
                    Dir::Rev => count_rev[l.index()] += 1,
                }
            }
        }
        if !any_unfrozen {
            break;
        }
        // Smallest headroom-per-flow across loaded links.
        let mut inc = f64::INFINITY;
        for l in 0..n_links {
            if count_fwd[l] > 0 {
                inc = inc.min(residual_fwd[l] / count_fwd[l] as f64);
            }
            if count_rev[l] > 0 {
                inc = inc.min(residual_rev[l] / count_rev[l] as f64);
            }
        }
        // Smallest remaining-demand among unfrozen flows.
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                inc = inc.min(f.demand_gbps - rate[i]);
            }
        }
        let inc = inc.max(0.0);
        // Apply the increment.
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            rate[i] += inc;
            for &(l, d) in &f.hops {
                match d {
                    Dir::Fwd => residual_fwd[l.index()] -= inc,
                    Dir::Rev => residual_rev[l.index()] -= inc,
                }
            }
        }
        // Freeze satisfied flows and flows crossing saturated links.
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let satisfied = rate[i] >= f.demand_gbps - 1e-9;
            let bottlenecked = f.hops.iter().any(|&(l, d)| match d {
                Dir::Fwd => residual_fwd[l.index()] <= 1e-9,
                Dir::Rev => residual_rev[l.index()] <= 1e-9,
            });
            if satisfied || bottlenecked {
                frozen[i] = true;
            }
        }
    }
    debug_assert!(frozen.iter().all(|&f| f), "progressive filling did not terminate");
    rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;
    use poc_topology::RouterId;

    /// Hops for the direct link between two routers (test helper).
    fn direct_hops(topo: &PocTopology, a: RouterId, b: RouterId) -> Vec<(LinkId, Dir)> {
        let link = topo.links.iter().find(|l| l.connects(a, b)).expect("no direct link");
        let dir = if link.a == a { Dir::Fwd } else { Dir::Rev };
        vec![(link.id, dir)]
    }

    #[test]
    fn unconstrained_flows_get_their_demand() {
        let t = two_bp_square();
        let flows =
            vec![AllocFlow { hops: direct_hops(&t, RouterId(0), RouterId(1)), demand_gbps: 30.0 }];
        let rates = max_min_rates(&t, &flows);
        assert!((rates[0] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn equal_split_on_shared_bottleneck() {
        // Two 80G demands share the 100G r0→r1 direct link: 50/50.
        let t = two_bp_square();
        let hops = direct_hops(&t, RouterId(0), RouterId(1));
        let flows = vec![
            AllocFlow { hops: hops.clone(), demand_gbps: 80.0 },
            AllocFlow { hops, demand_gbps: 80.0 },
        ];
        let rates = max_min_rates(&t, &flows);
        assert!((rates[0] - 50.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn small_flow_satisfied_big_flow_takes_rest() {
        let t = two_bp_square();
        let hops = direct_hops(&t, RouterId(0), RouterId(1));
        let flows = vec![
            AllocFlow { hops: hops.clone(), demand_gbps: 10.0 },
            AllocFlow { hops, demand_gbps: 500.0 },
        ];
        let rates = max_min_rates(&t, &flows);
        assert!((rates[0] - 10.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 90.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let t = two_bp_square();
        let fwd = direct_hops(&t, RouterId(0), RouterId(1));
        let rev = direct_hops(&t, RouterId(1), RouterId(0));
        let flows = vec![
            AllocFlow { hops: fwd, demand_gbps: 90.0 },
            AllocFlow { hops: rev, demand_gbps: 90.0 },
        ];
        let rates = max_min_rates(&t, &flows);
        assert!((rates[0] - 90.0).abs() < 1e-6);
        assert!((rates[1] - 90.0).abs() < 1e-6);
    }

    #[test]
    fn empty_path_flow_passes_through() {
        let t = two_bp_square();
        let flows = vec![AllocFlow { hops: vec![], demand_gbps: 7.0 }];
        let rates = max_min_rates(&t, &flows);
        assert_eq!(rates[0], 7.0);
    }

    #[test]
    fn multi_hop_flow_limited_by_worst_link() {
        // Path r0→r3 via the 40G BP-B links.
        let t = two_bp_square();
        let l3 = t.links.iter().find(|l| l.connects(RouterId(0), RouterId(3))).unwrap();
        let dir = if l3.a == RouterId(0) { Dir::Fwd } else { Dir::Rev };
        let flows = vec![AllocFlow { hops: vec![(l3.id, dir)], demand_gbps: 100.0 }];
        let rates = max_min_rates(&t, &flows);
        assert!((rates[0] - 40.0).abs() < 1e-6);
    }
}
