//! §3.1 network services: anycast, multicast, posted-price QoS.
//!
//! "The POC could support multicast and anycast delivery mechanisms ...
//! the presence of a neutral and nonprofit core might provide a place
//! where such technologies could be tried out without worry about
//! proprietary advantages for one ISP over another."
//!
//! Run with: `cargo run --release --example edge_services`

use public_option_core::core::fabric::ForwardingState;
use public_option_core::core::services::{AnycastGroup, MulticastTree, QosCatalog, QosTier};
use public_option_core::flow::LinkSet;
use public_option_core::topology::zoo::{attach_external_isps, ExternalIspConfig};
use public_option_core::topology::{CostModel, RouterId, ZooConfig, ZooGenerator};

fn main() {
    let mut topo = ZooGenerator::new(ZooConfig::small()).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let all = LinkSet::full(topo.n_links());
    let fabric = ForwardingState::install(&topo, &all);
    let n = topo.n_routers();
    println!("fabric installed over {} links, {} routers\n", topo.n_links(), n);

    // --- Anycast ---------------------------------------------------------
    println!("=== Anycast: nearest-replica resolution ===");
    let replicas: Vec<RouterId> =
        vec![RouterId(0), RouterId::from_index(n / 2), RouterId::from_index(n - 1)];
    let group = AnycastGroup::new("cdn-frontend", replicas.clone());
    println!("replicas at {:?}", replicas);
    for client_idx in [1usize, n / 2 + 1, n - 2] {
        let client = RouterId::from_index(client_idx);
        match group.resolve(&topo, &fabric, client) {
            Some((replica, path)) => {
                let km: f64 = path.iter().map(|&l| topo.link(l).distance_km).sum();
                println!("  client {client} → replica {replica} ({} hops, {km:.0} km)", path.len());
            }
            None => println!("  client {client}: unreachable"),
        }
    }

    // --- Multicast --------------------------------------------------------
    println!("\n=== Multicast: distribution-tree savings ===");
    let source = RouterId(0);
    let subscribers: Vec<RouterId> = (1..n).map(RouterId::from_index).collect();
    let tree = MulticastTree::build(&fabric, source, &subscribers);
    let rate = 5.0;
    let mc = tree.bandwidth_gbps(rate);
    let uc = tree.unicast_bandwidth_gbps(&fabric, rate);
    println!(
        "source {source} → {} subscribers at {rate} Gbps:\n  multicast tree: {} links, {mc:.0} Gbps fabric load\n  unicast copies: {uc:.0} Gbps fabric load\n  saving: {:.0}%",
        subscribers.len(),
        tree.links.len(),
        100.0 * (1.0 - mc / uc)
    );
    assert!(tree.unreachable.is_empty());

    // --- QoS at posted prices ----------------------------------------------
    println!("\n=== QoS catalog (posted prices — open to every member) ===");
    let mut catalog = QosCatalog::new();
    catalog.publish(QosTier { name: "gold".into(), priority: 10, price_per_gbps: 12.0 });
    catalog.publish(QosTier { name: "silver".into(), priority: 5, price_per_gbps: 5.0 });
    for tier in catalog.tiers() {
        println!("  {}: priority +{}, ${}/Gbps/mo", tier.name, tier.priority, tier.price_per_gbps);
    }
    let a = catalog.purchase("gold", 10.0).expect("posted");
    let b = catalog.purchase("gold", 10.0).expect("posted");
    assert_eq!(a, b);
    println!(
        "  identical purchases price identically (${:.0}) — no favoritism possible",
        a.monthly_charge
    );
}
