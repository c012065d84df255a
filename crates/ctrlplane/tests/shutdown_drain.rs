//! `ctrl.shutdown.drain` covers the whole drain: from the accept loop
//! observing shutdown to its last connection thread's exit. One test in
//! its own process, so the global histogram holds exactly the samples
//! this server records.

use poc_core::poc::{Poc, PocConfig};
use poc_ctrlplane::{PocClient, PocServer};
use poc_topology::builder::two_bp_square;
use poc_traffic::TrafficMatrix;
use std::time::Duration;

#[test]
fn shutdown_drain_spans_the_last_parked_connection() {
    const CONNECTIONS: u32 = 8;
    let drain = || poc_obs::global().snapshot().histogram("ctrl.shutdown.drain").cloned();
    let before = drain();

    let topo = two_bp_square();
    let tm = TrafficMatrix::zero(topo.n_routers());
    let (server, handle) =
        PocServer::bind("127.0.0.1:0", Poc::new(topo, PocConfig::default()), tm).unwrap();
    let join = std::thread::spawn(move || server.run());

    // Each connection thread re-checks the shutdown flag when its 100 ms
    // read poll expires, counted from its last request. Eight pings
    // 12.5 ms apart spread those expiries over the whole cycle, so
    // whenever the flag is set, the last thread to see it waits ≥ 87 ms.
    let clients: Vec<PocClient> = (0..CONNECTIONS)
        .map(|_| {
            let mut client = PocClient::connect(handle.local_addr).unwrap();
            client.ping().unwrap();
            std::thread::sleep(Duration::from_micros(12_500));
            client
        })
        .collect();

    handle.shutdown();
    join.join().unwrap();
    drop(clients);

    let after = drain().expect("run() records the drain");
    let (count, sum) = before.map_or((0, 0), |h| (h.count, h.sum));
    assert_eq!(after.count, count + 1, "one server, one drain sample");
    let sample = Duration::from_nanos(after.sum - sum);
    assert!(sample >= Duration::from_millis(50), "drain of {sample:?} misses the parked threads");
}
