//! End-to-end control-plane tests: a real TCP server on an ephemeral port,
//! typed clients attaching, auctioning, billing, and querying.

use poc_core::entity::EntityId;
use poc_core::poc::{Poc, PocConfig};
use poc_core::tos::{PolicyAction, PolicyBasis, PolicyMatch, TrafficPolicy};
use poc_ctrlplane::{AttachRole, PocClient, PocServer};
use poc_topology::builder::two_bp_square;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, RouterId};
use poc_traffic::TrafficMatrix;
use std::thread::JoinHandle;

fn start_server() -> (poc_ctrlplane::ServerHandle, JoinHandle<()>) {
    let mut topo = two_bp_square();
    attach_external_isps(
        &mut topo,
        &ExternalIspConfig { n_isps: 1, attach_points: 4, ..Default::default() },
        &CostModel::default(),
    );
    let mut tm = TrafficMatrix::zero(topo.n_routers());
    tm.set(RouterId(0), RouterId(1), 10.0);
    tm.set(RouterId(1), RouterId(2), 5.0);
    let poc = Poc::new(topo, PocConfig::default());
    let (server, handle) = PocServer::bind("127.0.0.1:0", poc, tm).unwrap();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

#[test]
fn ping_pong() {
    let (handle, join) = start_server();
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    client.ping().unwrap();
    handle.shutdown();
    let _ = join.join();
}

/// Replies to pipelined requests must not wait on the peer's delayed
/// ACK: without `TCP_NODELAY` on the server's socket, the second `Pong`
/// of every batch sits in Nagle's buffer for one delayed ACK (≈ 40 ms on
/// Linux), so 20 batches take most of a second instead of milliseconds.
#[test]
fn pipelined_requests_do_not_stall_on_delayed_acks() {
    use poc_ctrlplane::codec::{read_frame, write_frame};
    use poc_ctrlplane::{Request, Response};
    const BATCHES: usize = 20;
    const PIPELINED: usize = 16;

    let (handle, join) = start_server();
    let mut stream = std::net::TcpStream::connect(handle.local_addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let started = std::time::Instant::now();
    for _ in 0..BATCHES {
        for _ in 0..PIPELINED {
            write_frame(&mut stream, &Request::Ping).unwrap();
        }
        for _ in 0..PIPELINED {
            let reply: Response = read_frame(&mut stream).unwrap();
            assert_eq!(reply, Response::Pong);
        }
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(400),
        "{} pipelined pings took {elapsed:?}: replies are waiting on delayed ACKs",
        BATCHES * PIPELINED
    );
    handle.shutdown();
    let _ = join.join();
}

#[test]
fn full_lifecycle_attach_auction_usage_billing() {
    let (handle, join) = start_server();
    let mut operator = PocClient::connect(handle.local_addr).unwrap();
    let mut lmp_client = PocClient::connect(handle.local_addr).unwrap();

    // Attach two LMPs from a second connection.
    let lmp_a = lmp_client.attach("lmp-a", AttachRole::Lmp { router: RouterId(0) }).unwrap();
    let lmp_b = lmp_client.attach("lmp-b", AttachRole::Lmp { router: RouterId(1) }).unwrap();
    assert_ne!(lmp_a, lmp_b);

    // No outcome before the auction.
    assert!(operator.outcome().unwrap().is_none());

    // Run the auction.
    let outcome = operator.run_auction().unwrap();
    assert!(outcome.n_selected_links > 0);
    assert!(outcome.total_cost > 0.0);
    assert_eq!(operator.outcome().unwrap().unwrap(), outcome);

    // Path between the members exists now.
    let path = lmp_client.path(lmp_a, lmp_b).unwrap();
    assert!(path.is_some());
    assert!(!path.unwrap().is_empty());

    // Report usage and bill.
    lmp_client.report_usage(lmp_a, 12.0).unwrap();
    lmp_client.report_usage(lmp_b, 8.0).unwrap();
    let bill = operator.run_billing().unwrap();
    assert!(bill.total_outlay > 0.0);
    assert!(bill.poc_net.abs() < 1e-6, "POC must break even: {bill:?}");
    assert_eq!(bill.charges.len(), 2);

    // Balances reflect the charges.
    let bal_a = lmp_client.balance(lmp_a).unwrap();
    assert!(bal_a < 0.0, "LMP paid the POC: {bal_a}");

    handle.shutdown();
    let _ = join.join();
}

#[test]
fn policy_review_over_the_wire() {
    let (handle, join) = start_server();
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    let lmp = client.attach("lmp", AttachRole::Lmp { router: RouterId(0) }).unwrap();
    // Discriminatory block → violation.
    let verdict = client
        .review_policy(TrafficPolicy {
            lmp,
            matches: PolicyMatch { source: Some(EntityId(999)), ..PolicyMatch::any() },
            action: PolicyAction::Block,
            basis: PolicyBasis::Commercial,
        })
        .unwrap();
    assert!(verdict.is_violation());
    // Posted-price QoS → allowed.
    let verdict = client
        .review_policy(TrafficPolicy {
            lmp,
            matches: PolicyMatch::any(),
            action: PolicyAction::Prioritize(3),
            basis: PolicyBasis::PostedPrice { price: 5.0, openly_offered: true },
        })
        .unwrap();
    assert!(!verdict.is_violation());
    handle.shutdown();
    let _ = join.join();
}

#[test]
fn errors_are_reported_not_fatal() {
    let (handle, join) = start_server();
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    // Billing before any auction → server error, connection stays usable.
    let err = client.run_billing().unwrap_err();
    assert!(err.to_string().contains("no fabric"), "{err}");
    client.ping().unwrap();
    // Duplicate attach name.
    client.attach("dup", AttachRole::Lmp { router: RouterId(0) }).unwrap();
    let err = client.attach("dup", AttachRole::Lmp { router: RouterId(1) }).unwrap_err();
    assert!(err.to_string().contains("already registered"), "{err}");
    // Usage from an unknown entity.
    let err = client.report_usage(EntityId(999), 1.0).unwrap_err();
    assert!(err.to_string().contains("not authorized"), "{err}");
    handle.shutdown();
    let _ = join.join();
}

#[test]
fn concurrent_clients_serialize_cleanly() {
    let (handle, join) = start_server();
    let addr = handle.local_addr;
    let mut workers = Vec::new();
    for i in 0..8 {
        workers.push(std::thread::spawn(move || {
            let mut c = PocClient::connect(addr).unwrap();
            c.ping().unwrap();
            c.attach(&format!("lmp-{i}"), AttachRole::Lmp { router: RouterId(0) }).unwrap()
        }));
    }
    let mut ids = Vec::new();
    for w in workers {
        ids.push(w.join().unwrap());
    }
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 8, "every client got a distinct entity id");
    handle.shutdown();
    let _ = join.join();
}

#[test]
fn metrics_scrape_round_trip() {
    let (handle, join) = start_server();
    let mut operator = PocClient::connect(handle.local_addr).unwrap();

    // Drive an auction round through the wire so the auction and flow
    // layers record into the registry the scrape will return.
    operator.run_auction().unwrap();
    let snap = operator.metrics().unwrap();

    // The paper pipeline ran: the (default parallel) round histogram has
    // at least this round in it, and its pivots probed the shared
    // feasibility cache, whose stats are bridged as named counters.
    let round = snap.histogram("auction.round.parallel").expect("round histogram");
    assert!(round.count >= 1, "round recorded: {round:?}");
    assert!(round.sum > 0, "round took nonzero wall time");
    assert!(round.p50 <= round.p90 && round.p90 <= round.p99);
    assert!(snap.histogram("auction.pivot").expect("pivot histogram").count >= 1);
    assert!(snap.counter("flow.cache.miss").unwrap_or(0) > 0, "pivots probed the cache");
    // Hits depend on pivot overlap; on this small topology the bridge
    // must at least be registered (nonzero-hit coverage lives in
    // poc-flow's cache_stats_bridge test).
    assert!(snap.counter("flow.cache.hit").is_some(), "hit counter bridged");
    assert!(snap.counter("flow.oracle.check").unwrap_or(0) > 0);

    // The control plane measured itself serving us.
    assert!(snap.histogram("ctrl.request.run_auction").expect("request histogram").count >= 1);
    assert!(snap.counter("ctrl.frames.read").unwrap_or(0) >= 2, "auction + metrics frames");
    assert!(snap.counter("ctrl.conn.total").unwrap_or(0) >= 1);

    // A second scrape observes the first one's latency sample.
    let again = operator.metrics().unwrap();
    assert!(again.histogram("ctrl.request.metrics").expect("metrics histogram").count >= 1);

    handle.shutdown();
    let _ = join.join();
}

#[test]
fn shutdown_drains_parked_connections_to_zero() {
    let (handle, join) = start_server();

    // Three clients attach and then park (no further requests): their
    // connection threads sit in the polling read.
    let mut parked = Vec::new();
    for _ in 0..3 {
        let mut c = PocClient::connect(handle.local_addr).unwrap();
        // A served ping guarantees the accept loop registered the
        // connection (connect alone only fills the listen backlog).
        c.ping().unwrap();
        parked.push(c);
    }
    assert_eq!(handle.active_connections(), 3);

    handle.shutdown();
    join.join().expect("server thread");
    // run() returns only after every connection thread exited, so the
    // per-server count must have drained to zero.
    assert_eq!(handle.active_connections(), 0, "parked connections drained");
    drop(parked);
}

#[test]
fn lease_recall_over_the_wire() {
    let (handle, join) = start_server();
    let mut operator = PocClient::connect(handle.local_addr).unwrap();
    operator.run_auction().unwrap();

    // Lease book is populated and all leases are active.
    let leases = operator.leases().unwrap();
    assert!(!leases.is_empty());
    assert!(leases.iter().all(|l| l.state == "active"));

    // A BP recalls its first leased link: lease found, re-auction flagged.
    let lease = leases[0].clone();
    let (found, reauction) = operator.recall_link(lease.bp, lease.link, 1).unwrap();
    assert!(found);
    assert!(reauction);
    let leases = operator.leases().unwrap();
    let recalled = leases.iter().find(|l| l.link == lease.link).unwrap();
    assert!(recalled.state.starts_with("recalled@"), "{recalled:?}");

    // Recalling an unknown link is a clean no-op.
    let (found, _) = operator.recall_link(99, 9999, 1).unwrap();
    assert!(!found);

    // A fresh auction round clears the flag.
    operator.run_auction().unwrap();
    let (_, reauction) = operator.recall_link(99, 9999, 1).unwrap();
    assert!(!reauction, "fresh round must clear the re-auction flag");

    handle.shutdown();
    let _ = join.join();
}
