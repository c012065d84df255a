//! Group-commit integration tests against a live durable server: the
//! ack ⇔ durable contract under injected fsync failures, and fsync
//! coalescing under concurrent load.
//!
//! The failure contract under test: when the commit-leader's fsync
//! fails, *every* request in that batch gets a typed error and the
//! journal is rolled back — a coalesced mutation is never acknowledged
//! without being on disk, and never left on disk without being
//! acknowledged.

use poc_core::entity::EntityId;
use poc_core::poc::{Poc, PocConfig};
use poc_ctrlplane::server::ServerConfig;
use poc_ctrlplane::{
    AttachRole, ClientConfig, ClientError, DurabilityConfig, FsyncFault, FsyncPolicy, PocClient,
    PocServer, ServerHandle,
};
use poc_topology::builder::two_bp_square;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, RouterId};
use poc_traffic::TrafficMatrix;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

fn build_world() -> (poc_topology::PocTopology, TrafficMatrix) {
    let mut topo = two_bp_square();
    attach_external_isps(
        &mut topo,
        &ExternalIspConfig { n_isps: 1, attach_points: 4, ..Default::default() },
        &CostModel::default(),
    );
    let mut tm = TrafficMatrix::zero(topo.n_routers());
    tm.set(RouterId(0), RouterId(1), 10.0);
    tm.set(RouterId(1), RouterId(2), 5.0);
    (topo, tm)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("poc-gc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_with(state_dir: &Path, config: ServerConfig) -> (ServerHandle, JoinHandle<()>) {
    let (topo, tm) = build_world();
    let poc = Poc::new(topo, PocConfig::default());
    let config = ServerConfig {
        durability: Some(DurabilityConfig {
            state_dir: state_dir.to_path_buf(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 0,
        }),
        ..config
    };
    let (server, handle) = PocServer::bind_with("127.0.0.1:0", poc, tm, config).unwrap();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

/// Satellite regression: an fsync failure mid-group-commit must fail
/// the batched mutation with a *typed* error (never an ack), roll the
/// journal back so the record is gone, and leave the server healthy
/// for the next request.
#[test]
fn fsync_failure_fails_the_batch_and_never_acks_the_mutation() {
    let dir = fresh_dir("fsync-fault");
    let fault = FsyncFault::new();
    let config = ServerConfig { fsync_fault: fault.clone(), ..ServerConfig::default() };
    let (handle, join) = start_with(&dir, config);
    let mut client = PocClient::connect(handle.local_addr).unwrap();

    let a = client.attach("lmp-a", AttachRole::Lmp { router: RouterId(0) }).unwrap();

    // Arm exactly one fsync failure; the next durable mutation's commit
    // leader hits it.
    fault.arm(1);
    let err = client.report_usage(a, 5.0).unwrap_err();
    match err {
        ClientError::Server(msg) => {
            assert!(msg.contains("durability failure"), "typed refusal, got: {msg}");
            assert!(msg.contains("batch rolled back"), "names the rollback, got: {msg}");
        }
        other => panic!("expected a typed server refusal, got {other:?}"),
    }

    // The connection stays usable and the fault was consumed: the next
    // mutation commits normally.
    client.report_usage(a, 7.0).unwrap();
    let metrics = client.metrics().unwrap();
    assert!(metrics.counter("ctrl.journal.batch_failures").unwrap_or(0) >= 1);
    handle.shutdown();
    let _ = join.join();

    // Restart from the same directory: only the *acknowledged* events
    // are in the journal — the attach and the second usage report. The
    // rolled-back report must not reappear.
    let (handle, join) = start_with(&dir, ServerConfig::default());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    let info = client.recovery_info().unwrap().unwrap();
    assert_eq!(info.replayed_records, 2, "attach + acked usage; the aborted report is gone");
    assert!(!info.torn_tail, "rollback truncates cleanly, not a torn tail");
    handle.shutdown();
    let _ = join.join();
}

/// The ack ⇔ durable invariant under a concurrent fault storm: spin
/// client threads through usage reports while fsync failures fire at
/// random points; afterwards the journal must hold exactly the
/// acknowledged mutations — every ack durable, every typed failure
/// rolled back.
#[test]
fn acked_mutations_exactly_match_the_recovered_journal_under_fault_storm() {
    const CLIENTS: usize = 4;
    const REPORTS: usize = 25;

    let dir = fresh_dir("fault-storm");
    let fault = FsyncFault::new();
    let config = ServerConfig { fsync_fault: fault.clone(), ..ServerConfig::default() };
    let (handle, join) = start_with(&dir, config);

    // Each thread owns one attached LMP (distinct shard keys).
    let mut setup = PocClient::connect(handle.local_addr).unwrap();
    let entities: Vec<EntityId> = (0..CLIENTS)
        .map(|i| {
            setup
                .attach(&format!("lmp-{i}"), AttachRole::Lmp { router: RouterId(i as u32 % 4) })
                .unwrap()
        })
        .collect();

    let addr = handle.local_addr;
    let acked: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let entity = entities[i];
                let fault = fault.clone();
                s.spawn(move || {
                    let mut client =
                        PocClient::connect_with(addr, ClientConfig::default().no_retry()).unwrap();
                    let mut acks = 0usize;
                    for n in 0..REPORTS {
                        // Periodically re-arm a failure so faults land at
                        // unpredictable batch boundaries across threads.
                        if i == 0 && n % 7 == 3 {
                            fault.arm(1);
                        }
                        match client.report_usage(entity, 0.5) {
                            Ok(()) => acks += 1,
                            Err(ClientError::Server(msg)) => {
                                assert!(
                                    msg.contains("durability failure"),
                                    "only the typed durability refusal is legitimate: {msg}"
                                );
                            }
                            Err(other) => panic!("transport-level failure: {other:?}"),
                        }
                    }
                    acks
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });

    handle.shutdown();
    let _ = join.join();

    // Recovery replays exactly attaches + acked reports: nothing a
    // client saw fail is on disk, nothing a client saw succeed is lost.
    let (handle, join) = start_with(&dir, ServerConfig::default());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    let info = client.recovery_info().unwrap().unwrap();
    assert_eq!(
        info.replayed_records,
        (CLIENTS + acked) as u64,
        "journal holds exactly the acknowledged mutations ({CLIENTS} attaches + {acked} acks)"
    );
    handle.shutdown();
    let _ = join.join();
}

/// Group commit actually batches: under concurrent durable load, the
/// fsync count stays strictly below the append count (K mutations
/// coalesce behind one commit leader). The metrics registry is
/// process-global, so the assertion is on deltas across the load.
#[test]
fn concurrent_durable_load_coalesces_fsyncs() {
    const CLIENTS: usize = 8;
    const REPORTS: usize = 40;

    let dir = fresh_dir("coalesce");
    let (handle, join) = start_with(&dir, ServerConfig::default());

    let mut setup = PocClient::connect(handle.local_addr).unwrap();
    let entities: Vec<EntityId> = (0..CLIENTS)
        .map(|i| {
            setup
                .attach(&format!("lmp-{i}"), AttachRole::Lmp { router: RouterId(i as u32 % 4) })
                .unwrap()
        })
        .collect();

    let before = setup.metrics().unwrap();
    let addr = handle.local_addr;
    std::thread::scope(|s| {
        for &entity in &entities {
            s.spawn(move || {
                let mut client = PocClient::connect(addr).unwrap();
                for _ in 0..REPORTS {
                    client.report_usage(entity, 0.25).unwrap();
                }
            });
        }
    });
    let after = setup.metrics().unwrap();

    let delta = |name: &str| {
        after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
    };
    let appends = delta("ctrl.journal.appends");
    let fsyncs = delta("ctrl.journal.fsyncs");
    let commits = delta("ctrl.journal.group_commits");
    assert!(appends >= (CLIENTS * REPORTS) as u64, "every report journaled ({appends})");
    assert!(commits >= 1, "the group-commit path ran");
    assert!(
        fsyncs < appends,
        "concurrent appends must coalesce: {fsyncs} fsyncs for {appends} appends"
    );

    handle.shutdown();
    let _ = join.join();
}
