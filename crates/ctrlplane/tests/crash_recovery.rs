//! Crash-injection tests: a live server is killed at every defined
//! [`CrashPoint`] and restarted from its state directory; ledger
//! balances, the lease book, and the last auction outcome must come
//! back identical, with no event applied twice.
//!
//! The crash is simulated, not `abort()`: the armed [`CrashSwitch`]
//! makes the durability layer stop at the chosen point leaving exactly
//! the on-disk wreckage a real death there would (torn record, orphan
//! snapshot tmp, un-truncated journal), the server stops without
//! replying, and the test restarts a fresh server on the same
//! directory — which is precisely what a supervisor restarting a
//! crashed controller process does.

use poc_core::entity::EntityId;
use poc_core::poc::{Poc, PocConfig};
use poc_ctrlplane::server::ServerConfig;
use poc_ctrlplane::{
    AttachRole, ClientError, CrashPoint, CrashSwitch, DurabilityConfig, FsyncPolicy, PocClient,
    PocServer, RecoveryInfo, ServerHandle,
};
use poc_topology::builder::two_bp_square;
use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
use poc_topology::{CostModel, RouterId};
use poc_traffic::TrafficMatrix;
use proptest::prelude::*;
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

/// Start a server persisting to `state_dir`. `snapshot_every == 0`
/// means journal-only (no checkpoints).
fn start_durable(
    state_dir: &Path,
    snapshot_every: u64,
    crash: CrashSwitch,
) -> (ServerHandle, JoinHandle<()>) {
    start_durable_sharded(state_dir, snapshot_every, crash, ServerConfig::default().max_connections)
}

/// [`start_durable`] with an explicit connection cap — and so usage-shard
/// count, one shard per admissible connection — for the
/// sharding/recovery equivalence property below.
fn start_durable_sharded(
    state_dir: &Path,
    snapshot_every: u64,
    crash: CrashSwitch,
    max_connections: usize,
) -> (ServerHandle, JoinHandle<()>) {
    let (topo, tm) = build_world();
    let poc = Poc::new(topo, PocConfig::default());
    let config = ServerConfig {
        durability: Some(DurabilityConfig {
            state_dir: state_dir.to_path_buf(),
            fsync: FsyncPolicy::Always,
            snapshot_every,
        }),
        crash,
        max_connections,
        ..ServerConfig::default()
    };
    let (server, handle) = PocServer::bind_with("127.0.0.1:0", poc, tm, config).unwrap();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

fn start_in_memory() -> (ServerHandle, JoinHandle<()>) {
    let (topo, tm) = build_world();
    let poc = Poc::new(topo, PocConfig::default());
    let (server, handle) = PocServer::bind("127.0.0.1:0", poc, tm).unwrap();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("poc-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The lifecycle every test drives before the crash: two LMPs, an
/// auction, usage reports. Returns the two entity ids.
fn run_setup(client: &mut PocClient) -> (EntityId, EntityId) {
    let a = client.attach("lmp-a", AttachRole::Lmp { router: RouterId(0) }).unwrap();
    let b = client.attach("lmp-b", AttachRole::Lmp { router: RouterId(1) }).unwrap();
    let outcome = client.run_auction().unwrap();
    assert!(outcome.n_selected_links > 0);
    client.report_usage(a, 12.0).unwrap();
    client.report_usage(b, 8.0).unwrap();
    (a, b)
}

/// What the uninterrupted lifecycle (setup + billing) leaves behind:
/// the reference every crashed-and-recovered server is held to.
struct Reference {
    outcome: poc_ctrlplane::proto::OutcomeSummary,
    leases: Vec<poc_ctrlplane::proto::LeaseWire>,
    balance_a: f64,
    balance_b: f64,
}

fn reference_run() -> Reference {
    let (handle, join) = start_in_memory();
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    let (a, b) = run_setup(&mut client);
    client.run_billing().unwrap();
    let reference = Reference {
        outcome: client.outcome().unwrap().unwrap(),
        leases: client.leases().unwrap(),
        balance_a: client.balance(a).unwrap(),
        balance_b: client.balance(b).unwrap(),
    };
    handle.shutdown();
    let _ = join.join();
    reference
}

#[test]
fn clean_restart_preserves_lifecycle_state() {
    let dir = fresh_dir("clean-restart");
    let reference = reference_run();

    let (handle, join) = start_durable(&dir, 0, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    let (a, b) = run_setup(&mut client);
    client.run_billing().unwrap();
    handle.shutdown();
    let _ = join.join();

    // Restart from the state directory: everything must be back.
    let (handle, join) = start_durable(&dir, 0, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    assert_eq!(client.outcome().unwrap().unwrap(), reference.outcome);
    assert_eq!(client.leases().unwrap(), reference.leases);
    assert_eq!(client.balance(a).unwrap(), reference.balance_a);
    assert_eq!(client.balance(b).unwrap(), reference.balance_b);

    // The recovery report is served over the wire: 6 events (2 attach,
    // 1 auction, 2 usage, 1 billing) replayed from a clean journal.
    let info = client.recovery_info().unwrap().unwrap();
    assert_eq!(
        info,
        RecoveryInfo {
            snapshot_seq: None,
            replayed_records: 6,
            skipped_records: 0,
            torn_tail: false,
            skipped_snapshots: 0,
        }
    );

    // Recovery instrumentation reached the metrics registry (shared
    // across tests in this process, so >= not ==).
    let metrics = client.metrics().unwrap();
    assert!(metrics.counter("ctrl.recovery.replayed_records").unwrap_or(0) >= 6);
    assert!(metrics.counter("ctrl.journal.appends").unwrap_or(0) >= 6);
    assert!(metrics.counter("ctrl.journal.fsyncs").unwrap_or(0) >= 1);
    handle.shutdown();
    let _ = join.join();
}

/// A billing cycle whose usage has no finite unit price is refused with
/// an `Error` answer and leaves nothing posted: not when a lone report is
/// so small that outlay ÷ Σ usage overflows, nor when two reports sum past
/// `f64::MAX`. The journaled `RunBilling` replays to the same refusal, so
/// a restart answers the same balances and refuses the same bill.
#[test]
fn unbillable_usage_is_refused_live_and_on_replay() {
    let dir = fresh_dir("unbillable-usage");
    let (handle, join) = start_durable(&dir, 0, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    let a = client.attach("lmp-a", AttachRole::Lmp { router: RouterId(0) }).unwrap();
    let b = client.attach("lmp-b", AttachRole::Lmp { router: RouterId(1) }).unwrap();
    client.run_auction().unwrap();
    let refused = |client: &mut PocClient| match client.run_billing() {
        Err(ClientError::Server(message)) => assert!(message.contains("unit price"), "{message}"),
        other => panic!("expected a refusal, got {other:?}"),
    };

    client.report_usage(a, 1e-310).unwrap();
    refused(&mut client);
    client.ping().unwrap();
    assert_eq!((client.balance(a).unwrap(), client.balance(b).unwrap()), (0.0, 0.0));
    // The refused report stays on the shard; more usage makes it billable.
    client.report_usage(a, 12.0).unwrap();
    client.report_usage(b, 8.0).unwrap();
    let bill = client.run_billing().unwrap();
    assert_eq!(bill.period, 0);

    client.report_usage(a, 1e308).unwrap();
    client.report_usage(b, 1e308).unwrap();
    refused(&mut client);
    let balances = (client.balance(a).unwrap(), client.balance(b).unwrap());
    assert!(balances.0 < 0.0 && balances.1 < 0.0, "{balances:?}");
    let leases = client.leases().unwrap();
    handle.shutdown();
    let _ = join.join();

    let (handle, join) = start_durable(&dir, 0, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    assert_eq!((client.balance(a).unwrap(), client.balance(b).unwrap()), balances);
    assert_eq!(client.leases().unwrap(), leases);
    refused(&mut client);
    handle.shutdown();
    let _ = join.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill a live server at `point` while it executes `RunBilling`,
/// restart from the same directory, and return (client, pre-crash
/// outcome, pre-crash leases, recovery info, handles) for assertions.
fn crash_and_recover(
    point: CrashPoint,
    snapshot_every: u64,
) -> (PocClient, Reference, RecoveryInfo, EntityId, EntityId, ServerHandle, JoinHandle<()>) {
    let dir = fresh_dir(point.label());
    let crash = CrashSwitch::new();
    let (handle, join) = start_durable(&dir, snapshot_every, crash.clone());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    let (a, b) = run_setup(&mut client);
    let pre_outcome = client.outcome().unwrap().unwrap();
    let pre_leases = client.leases().unwrap();

    // Arm the crash and fire the mutation that hits it. The client must
    // see a transport-level failure (never a served reply): the
    // simulated process died before answering.
    crash.arm(point);
    let err = client.run_billing().unwrap_err();
    assert!(
        !matches!(err, ClientError::Server(_) | ClientError::Protocol(_)),
        "{point:?}: crashed request must fail at the transport, got {err:?}"
    );
    // The injected crash stops the whole server, as death would.
    let _ = join.join();

    // Supervisor restart: same directory, fresh process.
    let (handle, join) = start_durable(&dir, snapshot_every, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    let info = client.recovery_info().unwrap().unwrap();
    let reference =
        Reference { outcome: pre_outcome, leases: pre_leases, balance_a: 0.0, balance_b: 0.0 };
    (client, reference, info, a, b, handle, join)
}

#[test]
fn crash_mid_append_loses_only_the_unacknowledged_event() {
    let (mut client, pre, info, a, b, handle, join) = crash_and_recover(CrashPoint::MidAppend, 0);
    // The billing record was torn mid-write: it was never acknowledged,
    // so after recovery it must be absent — balances untouched...
    assert_eq!(client.balance(a).unwrap(), 0.0);
    assert_eq!(client.balance(b).unwrap(), 0.0);
    // ...while everything acknowledged before it survived.
    assert_eq!(client.outcome().unwrap().unwrap(), pre.outcome);
    assert_eq!(client.leases().unwrap(), pre.leases);
    assert!(info.torn_tail, "mid-append crash must leave a (truncated) torn tail");
    assert_eq!(info.replayed_records, 5, "2 attach + 1 auction + 2 usage");

    // The usage reports survived, so re-issuing the lost billing now
    // settles the same charges the uninterrupted run produced.
    let uninterrupted = reference_run();
    client.run_billing().unwrap();
    assert_eq!(client.balance(a).unwrap(), uninterrupted.balance_a);
    assert_eq!(client.balance(b).unwrap(), uninterrupted.balance_b);
    handle.shutdown();
    let _ = join.join();
}

#[test]
fn crash_after_append_applies_the_ambiguous_event_exactly_once() {
    let (mut client, pre, info, a, b, handle, join) = crash_and_recover(CrashPoint::AfterAppend, 0);
    // The record was durable before the reply was lost: recovery must
    // apply it exactly once — balances equal the uninterrupted run's,
    // not zero (lost) and not double (replayed twice).
    let uninterrupted = reference_run();
    assert_eq!(client.balance(a).unwrap(), uninterrupted.balance_a);
    assert_eq!(client.balance(b).unwrap(), uninterrupted.balance_b);
    assert_eq!(client.outcome().unwrap().unwrap(), pre.outcome);
    assert_eq!(client.leases().unwrap(), pre.leases);
    assert!(!info.torn_tail);
    assert_eq!(info.replayed_records, 6, "the ambiguous billing event replays once");
    handle.shutdown();
    let _ = join.join();
}

/// The three snapshot-path crashes share the exactly-once assertion;
/// what differs is the wreckage recovery has to pick through.
fn assert_snapshot_crash_recovers(point: CrashPoint) -> RecoveryInfo {
    // snapshot_every = 1: every mutation checkpoints, so the armed
    // point fires during the billing request's checkpoint.
    let (mut client, pre, info, a, b, handle, join) = crash_and_recover(point, 1);
    let uninterrupted = reference_run();
    assert_eq!(client.balance(a).unwrap(), uninterrupted.balance_a, "{point:?}");
    assert_eq!(client.balance(b).unwrap(), uninterrupted.balance_b, "{point:?}");
    assert_eq!(client.outcome().unwrap().unwrap(), pre.outcome, "{point:?}");
    assert_eq!(client.leases().unwrap(), pre.leases, "{point:?}");
    handle.shutdown();
    let _ = join.join();
    info
}

#[test]
fn crash_mid_snapshot_rename_recovers_from_previous_generation() {
    let info = assert_snapshot_crash_recovers(CrashPoint::MidSnapshotRename);
    // The orphan `.tmp` is ignored; the previous checkpoint (seq 5) plus
    // the journaled billing record rebuild the state.
    assert_eq!(info.snapshot_seq, Some(5));
    assert_eq!(info.replayed_records, 1);
    assert_eq!(info.skipped_snapshots, 0, "an orphan tmp is not a snapshot generation");
}

#[test]
fn crash_with_torn_snapshot_falls_back_past_the_corrupt_generation() {
    let info = assert_snapshot_crash_recovers(CrashPoint::TornSnapshotWrite);
    // The newest generation is torn at its final name: recovery must
    // detect the bad CRC, skip it, and fall back.
    assert_eq!(info.skipped_snapshots, 1, "the torn generation was detected and skipped");
    assert_eq!(info.snapshot_seq, Some(5));
    assert_eq!(info.replayed_records, 1);
}

#[test]
fn crash_after_snapshot_before_truncate_skips_snapshotted_records() {
    let info = assert_snapshot_crash_recovers(CrashPoint::AfterSnapshotBeforeTruncate);
    // The snapshot (seq 6) is durable but the journal still holds the
    // billing record: it must be skipped by sequence number, never
    // applied on top of a snapshot that already contains it.
    assert_eq!(info.snapshot_seq, Some(6));
    assert_eq!(info.skipped_records, 1, "exactly-once: the snapshotted record is not replayed");
    assert_eq!(info.replayed_records, 0);
}

#[test]
fn every_defined_crash_point_is_exercised() {
    // The five tests above cover CrashPoint::ALL; this guards the next
    // person who adds a variant and forgets the integration test.
    assert_eq!(CrashPoint::ALL.len(), 5);
}

#[test]
fn state_dir_from_a_different_topology_is_refused() {
    let dir = fresh_dir("fingerprint");
    // Seed the directory with a checkpoint from the standard world.
    let (handle, join) = start_durable(&dir, 1, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    client.attach("lmp-a", AttachRole::Lmp { router: RouterId(0) }).unwrap();
    handle.shutdown();
    let _ = join.join();

    // A server for a *different* topology must refuse to boot from it:
    // replaying this journal against that topology would be nonsense.
    let topo = two_bp_square(); // no external ISPs ⇒ different fingerprint
    let tm = TrafficMatrix::zero(topo.n_routers());
    let poc = Poc::new(topo, PocConfig::default());
    let config =
        ServerConfig { durability: Some(DurabilityConfig::new(&dir)), ..ServerConfig::default() };
    let err = match PocServer::bind_with("127.0.0.1:0", poc, tm, config) {
        Ok(_) => panic!("a state dir from a different topology was accepted"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("different controller instance"), "{err}");
}

// ---------------------------------------------------------------------------
// Lease transitions: multi-record journal transactions. One
// `BeginTransition` at demand scale 12 on this world journals exactly
// four records — Begun, Step(+l10), Step(-l0), Committed — so the tests
// below can kill the server at *every* record boundary of the
// transaction and demand recovery lands on exactly one of the two
// consistent states: the pre-transition set or the committed target.
// ---------------------------------------------------------------------------

/// The demand scale whose auction target differs from the 1× set on
/// [`build_world`]: {l0, l1} → {l1, l10}, a two-step migration.
const SHIFTED_SCALE: f64 = 12.0;

#[test]
fn committed_transition_survives_restart_and_reverses() {
    // Journal-only, recovery replays the round and then each transition's
    // begin record, so the walk down after the restart reuses the replayed
    // round's outcome. With a snapshot after every mutation, recovery
    // starts from a snapshot, holds no round, and the walk down clears
    // again. Both must land on the same state.
    for snapshot_every in [0, 1] {
        transition_round_trip(snapshot_every);
    }
}

fn transition_round_trip(snapshot_every: u64) {
    let dir = fresh_dir(&format!("txn-lifecycle-{snapshot_every}"));
    let (handle, join) = start_durable(&dir, snapshot_every, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    let (a, b) = run_setup(&mut client);
    let outcome_round = client.outcome().unwrap().unwrap();

    // Migrate onto the set the auction selects at 12× forecast demand.
    let up = client.begin_transition(None, Some(SHIFTED_SCALE)).unwrap();
    assert_eq!(up.outcome, "committed");
    assert_eq!(up.steps_applied, 2, "one add + one remove on this world");
    assert_eq!((up.replans, up.rollbacks, up.recovered), (0, 0, false));
    assert_eq!(client.transition_status().unwrap().unwrap(), up);
    let outcome_up = client.outcome().unwrap().unwrap();
    let leases_up = client.leases().unwrap();
    handle.shutdown();
    let _ = join.join();

    // Restart: the journaled transition family replays into the same
    // committed state (5 setup records + Begun/Step/Step/Committed).
    let (handle, join) = start_durable(&dir, snapshot_every, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    let info = client.recovery_info().unwrap().unwrap();
    if snapshot_every == 0 {
        assert_eq!(info.replayed_records, 9);
    } else {
        assert!(info.snapshot_seq.is_some());
        assert_eq!(info.replayed_records, 0);
    }
    assert_eq!(client.outcome().unwrap().unwrap(), outcome_up);
    assert_eq!(client.leases().unwrap(), leases_up);
    // A fully *replayed* (not resumed) transition leaves no status: the
    // summary is in-memory operator feedback, not recovered state.
    assert!(client.transition_status().unwrap().is_none());

    // And the migration reverses: back down to the live-demand set, which
    // is the round's outcome.
    let down = client.begin_transition(None, None).unwrap();
    assert_eq!(down.outcome, "committed");
    assert_eq!(down.steps_applied, 2);
    assert_eq!(client.outcome().unwrap().unwrap(), outcome_round);
    let leases_down = client.leases().unwrap();
    // Bill the period, so the balances carry the walks' lease prices.
    client.run_billing().unwrap();
    let balances_down = (client.balance(a).unwrap(), client.balance(b).unwrap());
    assert!(balances_down.0 < 0.0 && balances_down.1 < 0.0, "{balances_down:?}");
    handle.shutdown();
    let _ = join.join();

    // Restart once more: replay crosses both walks, and the state holds.
    let (handle, join) = start_durable(&dir, snapshot_every, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    assert_eq!(client.outcome().unwrap().unwrap(), outcome_round);
    assert_eq!(client.leases().unwrap(), leases_down);
    let balances = (client.balance(a).unwrap(), client.balance(b).unwrap());
    assert_eq!(balances.0.to_bits(), balances_down.0.to_bits());
    assert_eq!(balances.1.to_bits(), balances_down.1.to_bits());
    handle.shutdown();
    let _ = join.join();
}

#[test]
fn noop_and_unplannable_transitions_keep_the_journal_consistent() {
    let dir = fresh_dir("txn-refused");
    let (handle, join) = start_durable(&dir, 0, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    run_setup(&mut client);
    let pre_outcome = client.outcome().unwrap().unwrap();
    let pre_leases = client.leases().unwrap();

    // 1× demand: the fabric is already on the auction's set — a noop
    // transition commits with zero steps (journal: Begun, Committed).
    let noop = client.begin_transition(None, None).unwrap();
    assert_eq!((noop.outcome.as_str(), noop.steps_applied), ("committed", 0));

    // With zero headroom links, the 12× swap must interleave removes
    // before adds — and dropping either live link first is infeasible:
    // the planner proves NoSafePlan, nothing is applied, and the journal
    // transaction closes with an abort record.
    let err = client.begin_transition(Some(0), Some(SHIFTED_SCALE)).unwrap_err();
    let ClientError::Server(message) = err else { panic!("expected typed refusal, got {err}") };
    assert!(message.contains("transition not started"), "{message}");
    assert_eq!(client.outcome().unwrap().unwrap(), pre_outcome);
    assert_eq!(client.leases().unwrap(), pre_leases);
    handle.shutdown();
    let _ = join.join();

    // Both closed transactions replay cleanly: 5 setup + 2 noop + 2
    // aborted records rebuild exactly the pre-crash state.
    let (handle, join) = start_durable(&dir, 0, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    assert_eq!(client.recovery_info().unwrap().unwrap().replayed_records, 9);
    assert_eq!(client.outcome().unwrap().unwrap(), pre_outcome);
    assert_eq!(client.leases().unwrap(), pre_leases);
    handle.shutdown();
    let _ = join.join();
}

/// Kill the server at one record boundary inside the transition
/// transaction, restart, and return what a client then observes plus
/// the recovered server's transition status.
fn crash_transition_at(
    name: &str,
    point: CrashPoint,
    skip: u32,
    snapshot_every: u64,
) -> (String, Option<poc_ctrlplane::TransitionSummary>) {
    let dir = fresh_dir(name);
    let crash = CrashSwitch::new();
    let (handle, join) = start_durable(&dir, snapshot_every, crash.clone());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    run_setup(&mut client);

    crash.arm_after(point, skip);
    let err = client.begin_transition(None, Some(SHIFTED_SCALE)).unwrap_err();
    assert!(
        !matches!(err, ClientError::Server(_) | ClientError::Protocol(_)),
        "{point:?}+{skip}: crashed transition must fail at the transport, got {err:?}"
    );
    let _ = join.join();

    let (handle, join) = start_durable(&dir, snapshot_every, CrashSwitch::new());
    let mut client = PocClient::connect(handle.local_addr).unwrap();
    let status = client.transition_status().unwrap();
    let state = observable_state(&mut client);
    handle.shutdown();
    let _ = join.join();
    (state, status)
}

#[test]
fn transition_crash_at_every_record_boundary_resumes_or_rolls_back() {
    // What the two consistent outcomes look like, billing included —
    // computed from uninterrupted durable runs of the same lifecycle.
    let committed = {
        let dir = fresh_dir("txn-ref-committed");
        let (handle, join) = start_durable(&dir, 0, CrashSwitch::new());
        let mut client = PocClient::connect(handle.local_addr).unwrap();
        run_setup(&mut client);
        client.begin_transition(None, Some(SHIFTED_SCALE)).unwrap();
        let state = observable_state(&mut client);
        handle.shutdown();
        let _ = join.join();
        state
    };
    let original = {
        let dir = fresh_dir("txn-ref-original");
        let (handle, join) = start_durable(&dir, 0, CrashSwitch::new());
        let mut client = PocClient::connect(handle.local_addr).unwrap();
        run_setup(&mut client);
        let state = observable_state(&mut client);
        handle.shutdown();
        let _ = join.join();
        state
    };
    assert_ne!(committed, original, "the scaled transition must be observable");

    // The transaction's four records give eight boundaries. A torn
    // begin record never opened the transaction (→ original); every
    // later boundary leaves enough journal for recovery to finish the
    // walk (→ committed, resumed by `finish_open_transition` except the
    // last boundary, where the whole family replays as-is).
    struct Case {
        point: CrashPoint,
        skip: u32,
        expect_committed: bool,
        expect_recovered_status: bool,
    }
    let cases = [
        Case {
            point: CrashPoint::MidAppend,
            skip: 0,
            expect_committed: false,
            expect_recovered_status: false,
        },
        Case {
            point: CrashPoint::AfterAppend,
            skip: 0,
            expect_committed: true,
            expect_recovered_status: true,
        },
        Case {
            point: CrashPoint::MidAppend,
            skip: 1,
            expect_committed: true,
            expect_recovered_status: true,
        },
        Case {
            point: CrashPoint::AfterAppend,
            skip: 1,
            expect_committed: true,
            expect_recovered_status: true,
        },
        Case {
            point: CrashPoint::MidAppend,
            skip: 2,
            expect_committed: true,
            expect_recovered_status: true,
        },
        Case {
            point: CrashPoint::AfterAppend,
            skip: 2,
            expect_committed: true,
            expect_recovered_status: true,
        },
        Case {
            point: CrashPoint::MidAppend,
            skip: 3,
            expect_committed: true,
            expect_recovered_status: true,
        },
        Case {
            point: CrashPoint::AfterAppend,
            skip: 3,
            expect_committed: true,
            expect_recovered_status: false,
        },
    ];
    for case in cases {
        let label = format!("{:?}+{}", case.point, case.skip);
        let (state, status) =
            crash_transition_at(&format!("txn-{label}"), case.point, case.skip, 0);
        let expect = if case.expect_committed { &committed } else { &original };
        assert_eq!(&state, expect, "{label}: wrong recovered state");
        match status {
            Some(s) => {
                assert!(case.expect_recovered_status, "{label}: unexpected status {s:?}");
                assert!(s.recovered, "{label}");
                assert_eq!(s.outcome, "committed", "{label}");
            }
            None => assert!(!case.expect_recovered_status, "{label}: expected a resumed status"),
        }
    }

    // The three snapshot-path crash points fire in the checkpoint cut
    // *after* the transition request: the committed transaction is
    // already durable, so recovery lands on the committed state from
    // wreckage alone (orphan tmp, torn snapshot, un-truncated journal).
    for point in [
        CrashPoint::MidSnapshotRename,
        CrashPoint::TornSnapshotWrite,
        CrashPoint::AfterSnapshotBeforeTruncate,
    ] {
        let (state, _status) =
            crash_transition_at(&format!("txn-snap-{}", point.label()), point, 0, 1);
        assert_eq!(&state, &committed, "{point:?}: wrong recovered state");
    }
}

// ---------------------------------------------------------------------------
// Property: recovery after a crash at an arbitrary record boundary is
// indistinguishable from uninterrupted execution.
// ---------------------------------------------------------------------------

/// One abstract mutating operation, mapped identically onto the crashed
/// and the uninterrupted run.
#[derive(Clone, Debug)]
enum Op {
    Attach(u8),
    Usage(u8, u32),
    Auction,
    Billing,
    Recall(u8, u8),
    /// A lease transition at 1× or the set-shifting 12× demand scale.
    /// Crashing on it cuts at the *begin* record (the request's first
    /// append), so recovery must finish the whole walk to match the
    /// uninterrupted run.
    Transition(bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..6, 0u8..=255, 0u32..2000u32).prop_map(|(kind, x, y)| match kind {
        0 => Op::Attach(x % 6),
        1 => Op::Usage(x % 8, y),
        2 => Op::Auction,
        3 => Op::Billing,
        4 => Op::Recall(x % 3, x % 12),
        _ => Op::Transition(x % 2 == 0),
    })
}

/// Send one op; `Server` errors are legitimate outcomes (duplicate
/// attach, unauthorized usage, unroutable recall) that both runs hit
/// deterministically.
fn send_op(client: &mut PocClient, op: &Op) -> Result<(), ClientError> {
    let r = match op {
        Op::Attach(i) => client
            .attach(&format!("member-{i}"), AttachRole::Lmp { router: RouterId(*i as u32 % 4) })
            .map(|_| ()),
        Op::Usage(e, y) => {
            client.report_usage(EntityId(*e as u32 % 8), *y as f64 / 7.0).map(|_| ())
        }
        Op::Auction => client.run_auction().map(|_| ()),
        Op::Billing => client.run_billing().map(|_| ()),
        Op::Recall(bp, link) => client.recall_link(*bp as u32, *link as u32, 1).map(|_| ()),
        Op::Transition(shift) => {
            client.begin_transition(None, shift.then_some(SHIFTED_SCALE)).map(|_| ())
        }
    };
    match r {
        Ok(()) | Err(ClientError::Server(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Everything a client can observe about controller state, as one
/// comparable string. The trailing billing round makes pending usage
/// observable too.
fn observable_state(client: &mut PocClient) -> String {
    let outcome = client.outcome().unwrap();
    let leases = client.leases().unwrap();
    let balances: Vec<f64> = (0..10).map(|i| client.balance(EntityId(i)).unwrap()).collect();
    let billing = match client.run_billing() {
        Ok(b) => format!("{:?}", (b.period, b.total_outlay, b.unit_price, b.charges)),
        Err(ClientError::Server(m)) => format!("server-error: {m}"),
        Err(e) => panic!("billing probe failed at the transport: {e:?}"),
    };
    format!("outcome {outcome:?}\nleases {leases:?}\nbalances {balances:?}\nbilling {billing}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Run a random op sequence, crash (AfterAppend: the record is
    /// durable, the reply lost) at a random boundary, recover, and
    /// compare every observable against an uninterrupted in-memory run
    /// of the same prefix.
    #[test]
    fn recovery_at_any_record_boundary_matches_uninterrupted_execution(
        ops in prop::collection::vec(op_strategy(), 2..9),
        cut_seed in 0u16..10_000,
        snapshot_every in 0u64..3,
    ) {
        let cut = cut_seed as usize % ops.len();
        let dir = fresh_dir(&format!("prop-{cut_seed}-{}", ops.len()));
        let crash = CrashSwitch::new();

        // Crashed run: ops[..cut] acknowledged; the armed switch fires
        // on the next journal *append*. An op refused before any append
        // (a transition with no installed fabric — the one mutation that
        // checks preconditions pre-journal) returns a typed error and
        // leaves the switch armed, so walk forward until an op actually
        // journals; billing always appends and is the guaranteed
        // fallback.
        let (handle, join) = start_durable(&dir, snapshot_every, crash.clone());
        let mut client = PocClient::connect(handle.local_addr).unwrap();
        for op in &ops[..cut] {
            prop_assert!(send_op(&mut client, op).is_ok());
        }
        crash.arm(CrashPoint::AfterAppend);
        let mut crashed_at: Option<usize> = None;
        for (i, op) in ops[cut..].iter().enumerate() {
            if send_op(&mut client, op).is_err() {
                crashed_at = Some(cut + i);
                break;
            }
        }
        if crashed_at.is_none() {
            prop_assert!(client.run_billing().is_err(), "billing must hit the armed crash");
        }
        let _ = join.join();

        // Recover and read the observable state.
        let (handle, join) = start_durable(&dir, snapshot_every, CrashSwitch::new());
        let mut recovered = PocClient::connect(handle.local_addr).unwrap();
        let state_recovered = observable_state(&mut recovered);
        handle.shutdown();
        let _ = join.join();

        // Uninterrupted run of the same prefix (including the crashed
        // op: its record was durable).
        let (handle, join) = start_in_memory();
        let mut reference = PocClient::connect(handle.local_addr).unwrap();
        match crashed_at {
            Some(last) => {
                for op in &ops[..=last] {
                    prop_assert!(send_op(&mut reference, op).is_ok());
                }
            }
            None => {
                for op in &ops {
                    prop_assert!(send_op(&mut reference, op).is_ok());
                }
                let _ = reference.run_billing();
            }
        }
        let state_reference = observable_state(&mut reference);
        handle.shutdown();
        let _ = join.join();

        prop_assert_eq!(state_recovered, state_reference);
    }

    /// Group-commit recovery is equivalent to per-mutation-fsync
    /// recovery: the same op sequence crashed at the same record
    /// boundary recovers to the same observable state whether the
    /// journal was written through the sharded group-commit pipeline
    /// (cap 8, so 8 shards) or the maximally serialized one (cap 1, so
    /// 1 shard: every mutation its own commit). The journal is a *total order* either
    /// way — sharding may change who holds which lock, never what
    /// replay rebuilds.
    #[test]
    fn group_commit_recovery_matches_per_mutation_fsync_recovery(
        ops in prop::collection::vec(op_strategy(), 2..9),
        cut_seed in 0u16..10_000,
    ) {
        let cut = cut_seed as usize % ops.len();

        let run = |cap: usize| -> String {
            let dir = fresh_dir(&format!("cap{cap}-{cut_seed}-{}", ops.len()));
            let crash = CrashSwitch::new();
            let (handle, join) = start_durable_sharded(&dir, 0, crash.clone(), cap);
            let mut client = PocClient::connect(handle.local_addr).unwrap();
            for op in &ops[..cut] {
                prop_assert!(send_op(&mut client, op).is_ok());
            }
            // As above: skip over pre-journal refusals until an op
            // appends and hits the armed crash (billing as fallback).
            crash.arm(CrashPoint::AfterAppend);
            let mut crashed = false;
            for op in &ops[cut..] {
                if send_op(&mut client, op).is_err() {
                    crashed = true;
                    break;
                }
            }
            if !crashed {
                prop_assert!(client.run_billing().is_err(), "billing must hit the armed crash");
            }
            let _ = join.join();

            let (handle, join) =
                start_durable_sharded(&dir, 0, CrashSwitch::new(), cap);
            let mut recovered = PocClient::connect(handle.local_addr).unwrap();
            let state = observable_state(&mut recovered);
            handle.shutdown();
            let _ = join.join();
            state
        };

        prop_assert_eq!(run(8), run(1));
    }
}
