//! Startup recovery and the durability orchestrator.
//!
//! `Durability` owns the state directory: one append-only journal
//! (`journal.wal`) plus snapshot generations (`snap-*.snap`). The server
//! funnels every mutating event through `Durability::record` *before*
//! applying it, and periodically calls `Durability::checkpoint` to
//! fold the journal into a snapshot and truncate it.
//!
//! `Durability::open` is the recovery path: load the newest valid
//! snapshot (falling back past torn generations), scan the journal's
//! valid prefix (truncating a torn tail), and hand back the events that
//! postdate the snapshot for replay. Records the snapshot already
//! contains — left behind by a crash between snapshot-rename and
//! journal-truncate — are skipped by sequence number, which is what
//! makes recovery exactly-once.

use crate::journal::{
    scan, CrashPoint, CrashSwitch, FsyncFault, FsyncPolicy, GroupJournal, JournalError,
    JournalEvent, JournalRecord,
};
use crate::snapshot::{load_newest, write_snapshot, ControllerSnapshot, SnapshotError};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Journal file name inside the state directory.
const JOURNAL_FILE: &str = "journal.wal";

/// How a server persists its state.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the journal and snapshots (created if absent).
    pub state_dir: PathBuf,
    /// When journal appends reach the platter.
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many journaled events (0 = never
    /// checkpoint; the journal grows until shutdown).
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        Self { state_dir: state_dir.into(), fsync: FsyncPolicy::Always, snapshot_every: 64 }
    }
}

/// What happened during startup recovery; served to clients via
/// `GetRecovery` so tests (and operators) can see exactly how a restart
/// rebuilt its state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecoveryInfo {
    /// Sequence number of the snapshot recovery started from, if any.
    pub snapshot_seq: Option<u64>,
    /// Journal records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Journal records skipped because the snapshot already contained
    /// them (crash between snapshot-rename and journal-truncate).
    pub skipped_records: u64,
    /// Whether the journal had a torn tail (crash mid-append) that was
    /// truncated.
    pub torn_tail: bool,
    /// Newer snapshot generations that failed validation and were
    /// skipped in favour of an older one.
    pub skipped_snapshots: u64,
}

/// Errors from [`Durability::open`].
#[derive(Debug)]
pub(crate) enum RecoveryError {
    Io(std::io::Error),
    /// The newest valid snapshot was taken against a different topology
    /// than the server is booting with; replay would be nonsense.
    TopologyMismatch {
        expected: u64,
        found: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery io: {e}"),
            RecoveryError::TopologyMismatch { expected, found } => write!(
                f,
                "state dir belongs to a different controller instance \
                 (topology fingerprint {found:#x}, this server is {expected:#x})"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// The result of opening a state directory: the live durability handle
/// plus everything the server needs to rebuild in-memory state.
pub(crate) struct Recovered {
    pub durability: Durability,
    /// Newest valid snapshot, to restore wholesale before replay.
    pub snapshot: Option<ControllerSnapshot>,
    /// Journal events newer than the snapshot, in append order.
    pub replay: Vec<JournalEvent>,
    pub info: RecoveryInfo,
}

/// Owns the journal and the checkpoint cadence for one running server.
/// Internally synchronized: shard threads call [`Durability::record`]
/// concurrently and their fsyncs coalesce behind the
/// [`GroupJournal`]'s commit leader. Only [`Durability::checkpoint`]
/// demands external exclusion (the server holds every state lock
/// across it, so no append is in flight when the snapshot seq is
/// captured).
pub(crate) struct Durability {
    dir: PathBuf,
    journal: GroupJournal,
    crash: CrashSwitch,
    /// Events journaled since the last durable checkpoint.
    since_checkpoint: AtomicU64,
    snapshot_every: u64,
    fingerprint: u64,
}

impl Durability {
    /// Open (or create) a state directory and recover from it.
    /// `fingerprint` is the booting server's topology fingerprint; a
    /// snapshot from a different topology is refused. `fault` is the
    /// injectable fsync-failure switch (unarmed in production).
    pub fn open(
        config: &DurabilityConfig,
        fingerprint: u64,
        crash: CrashSwitch,
        fault: FsyncFault,
    ) -> Result<Recovered, RecoveryError> {
        std::fs::create_dir_all(&config.state_dir)?;
        let loaded = load_newest(&config.state_dir)?;
        if let Some(s) = &loaded.snapshot {
            if s.fingerprint != fingerprint {
                return Err(RecoveryError::TopologyMismatch {
                    expected: fingerprint,
                    found: s.fingerprint,
                });
            }
        }
        let snapshot_seq = loaded.snapshot.as_ref().map(|s| s.seq);
        let floor = snapshot_seq.unwrap_or(0);

        let journal_path = journal_path(&config.state_dir);
        let scanned = scan(&journal_path)?;
        let mut skipped = 0u64;
        let mut replay = Vec::new();
        let mut last_seq = floor;
        for JournalRecord { seq, event } in scanned.records {
            if seq <= floor {
                skipped += 1;
                continue;
            }
            last_seq = last_seq.max(seq);
            replay.push(event);
        }
        let journal = GroupJournal::open(
            &journal_path,
            scanned.valid_len,
            config.fsync,
            last_seq + 1,
            fault,
        )?;

        let info = RecoveryInfo {
            snapshot_seq,
            replayed_records: replay.len() as u64,
            skipped_records: skipped,
            torn_tail: scanned.torn_tail,
            skipped_snapshots: loaded.skipped_invalid,
        };
        poc_obs::counter!("ctrl.recovery.replayed_records").add(info.replayed_records);
        if info.torn_tail {
            poc_obs::counter!("ctrl.recovery.torn_tails").inc();
        }

        Ok(Recovered {
            durability: Durability {
                dir: config.state_dir.clone(),
                journal,
                crash,
                since_checkpoint: AtomicU64::new(replay.len() as u64),
                snapshot_every: config.snapshot_every,
                fingerprint,
            },
            snapshot: loaded.snapshot,
            replay,
            info,
        })
    }

    /// Journal one event (write-ahead: call this *before* applying the
    /// event to in-memory state) and wait until it is as durable as the
    /// fsync policy demands. Returns the assigned sequence number.
    /// Concurrent callers coalesce into one group-commit fsync.
    pub fn record(&self, event: JournalEvent) -> Result<u64, JournalError> {
        let seq = self.journal.append(event, &self.crash)?;
        self.since_checkpoint.fetch_add(1, Ordering::SeqCst);
        Ok(seq)
    }

    /// Whether enough events have accumulated that the server should
    /// cut a checkpoint after applying the current one.
    pub fn wants_checkpoint(&self) -> bool {
        self.snapshot_every > 0
            && self.since_checkpoint.load(Ordering::SeqCst) >= self.snapshot_every
    }

    /// Write a snapshot of the state as of the last recorded event,
    /// then truncate the journal. A crash between those two steps
    /// leaves already-snapshotted records in the journal; recovery
    /// skips them by sequence number. The caller must exclude every
    /// concurrent mutation (the server holds all state locks), so the
    /// captured seq is exact.
    pub fn checkpoint(
        &self,
        poc: poc_core::poc::PocState,
        usage: std::collections::BTreeMap<poc_core::entity::EntityId, f64>,
    ) -> Result<(), JournalError> {
        let snapshot = ControllerSnapshot {
            seq: self.journal.next_seq() - 1,
            fingerprint: self.fingerprint,
            poc,
            usage,
        };
        match write_snapshot(&self.dir, &snapshot, &self.crash) {
            Ok(()) => {}
            Err(SnapshotError::Crashed(p)) => return Err(JournalError::Crashed(p)),
            Err(SnapshotError::Io(e)) => return Err(JournalError::Io(e)),
        }
        if self.crash.fire_if(CrashPoint::AfterSnapshotBeforeTruncate) {
            return Err(JournalError::Crashed(CrashPoint::AfterSnapshotBeforeTruncate));
        }
        self.journal.truncate_to_empty()?;
        self.since_checkpoint.store(0, Ordering::SeqCst);
        Ok(())
    }

    /// Flush the journal (shutdown barrier).
    pub fn sync(&self) -> std::io::Result<()> {
        self.journal.sync()
    }
}

/// The journal's path inside a state directory.
fn journal_path(state_dir: &Path) -> PathBuf {
    state_dir.join(JOURNAL_FILE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_core::poc::PocState;
    use std::collections::BTreeMap;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("poc-recovery-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path) -> DurabilityConfig {
        DurabilityConfig {
            state_dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 0,
        }
    }

    fn open(dir: &Path) -> Recovered {
        Durability::open(&config(dir), 0xabc, CrashSwitch::new(), FsyncFault::new()).unwrap()
    }

    #[test]
    fn fresh_dir_recovers_empty() {
        let dir = tmp_dir("fresh");
        let r = open(&dir);
        assert!(r.snapshot.is_none());
        assert!(r.replay.is_empty());
        assert_eq!(
            r.info,
            RecoveryInfo {
                snapshot_seq: None,
                replayed_records: 0,
                skipped_records: 0,
                torn_tail: false,
                skipped_snapshots: 0,
            }
        );
        assert_eq!(r.durability.record(JournalEvent::RunAuction).unwrap(), 1);
    }

    #[test]
    fn recorded_events_replay_in_order_after_reopen() {
        let dir = tmp_dir("replay");
        let r = open(&dir);
        for _ in 0..3 {
            r.durability.record(JournalEvent::RunAuction).unwrap();
        }
        r.durability.record(JournalEvent::RunBilling).unwrap();
        drop(r);

        let r2 = open(&dir);
        assert!(r2.snapshot.is_none());
        assert_eq!(r2.replay.len(), 4);
        assert_eq!(r2.replay[3], JournalEvent::RunBilling);
        assert_eq!(r2.info.replayed_records, 4);
        let next = r2.durability.record(JournalEvent::RunAuction).unwrap();
        assert_eq!(next, 5, "sequence numbers continue past replay");
    }

    #[test]
    fn checkpoint_truncates_journal_and_bounds_replay() {
        let dir = tmp_dir("checkpoint");
        let r = open(&dir);
        for _ in 0..5 {
            r.durability.record(JournalEvent::RunAuction).unwrap();
        }
        r.durability.checkpoint(PocState::default(), BTreeMap::new()).unwrap();
        // Two more after the checkpoint.
        r.durability.record(JournalEvent::RunBilling).unwrap();
        r.durability.record(JournalEvent::RunAuction).unwrap();
        drop(r);

        let r2 = open(&dir);
        assert_eq!(r2.snapshot.as_ref().unwrap().seq, 5);
        assert_eq!(r2.replay.len(), 2, "only post-checkpoint events replay");
        assert_eq!(r2.replay[0], JournalEvent::RunBilling);
        assert_eq!(r2.info.snapshot_seq, Some(5));
        assert_eq!(r2.info.skipped_records, 0, "journal was truncated");
        assert_eq!(r2.durability.record(JournalEvent::RunAuction).unwrap(), 8);
    }

    #[test]
    fn crash_after_snapshot_before_truncate_skips_by_seq() {
        let dir = tmp_dir("skip-by-seq");
        let crash = CrashSwitch::new();
        let r = Durability::open(&config(&dir), 0xabc, crash.clone(), FsyncFault::new()).unwrap();
        for _ in 0..4 {
            r.durability.record(JournalEvent::RunAuction).unwrap();
        }
        crash.arm(CrashPoint::AfterSnapshotBeforeTruncate);
        let err = r.durability.checkpoint(PocState::default(), BTreeMap::new()).unwrap_err();
        assert!(matches!(err, JournalError::Crashed(CrashPoint::AfterSnapshotBeforeTruncate)));
        drop(r);

        // Snapshot is durable at seq 4; the journal still holds seqs 1–4.
        let r2 = open(&dir);
        assert_eq!(r2.snapshot.as_ref().unwrap().seq, 4);
        assert!(r2.replay.is_empty(), "snapshotted records must not replay (exactly-once)");
        assert_eq!(r2.info.skipped_records, 4);
        assert_eq!(r2.durability.record(JournalEvent::RunAuction).unwrap(), 5);
    }

    #[test]
    fn torn_tail_is_reported_and_truncated() {
        let dir = tmp_dir("torn");
        let r = open(&dir);
        r.durability.record(JournalEvent::RunAuction).unwrap();
        r.durability.record(JournalEvent::RunBilling).unwrap();
        drop(r);
        // Tear the tail by hand.
        let path = journal_path(&dir);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let r2 = open(&dir);
        assert!(r2.info.torn_tail);
        assert_eq!(r2.replay.len(), 1, "torn record is gone, prefix survives");
        assert_eq!(r2.durability.record(JournalEvent::RunAuction).unwrap(), 2);
    }

    #[test]
    fn wrong_fingerprint_is_refused() {
        let dir = tmp_dir("fingerprint");
        let r = open(&dir);
        r.durability.record(JournalEvent::RunAuction).unwrap();
        r.durability.checkpoint(PocState::default(), BTreeMap::new()).unwrap();
        drop(r);

        let err =
            match Durability::open(&config(&dir), 0xdead, CrashSwitch::new(), FsyncFault::new()) {
                Ok(_) => panic!("a snapshot from a different topology was accepted"),
                Err(e) => e,
            };
        assert!(matches!(err, RecoveryError::TopologyMismatch { expected: 0xdead, found: 0xabc }));
    }

    #[test]
    fn wants_checkpoint_follows_cadence() {
        let dir = tmp_dir("cadence");
        let mut cfg = config(&dir);
        cfg.snapshot_every = 2;
        let r = Durability::open(&cfg, 0xabc, CrashSwitch::new(), FsyncFault::new()).unwrap();
        assert!(!r.durability.wants_checkpoint());
        r.durability.record(JournalEvent::RunAuction).unwrap();
        assert!(!r.durability.wants_checkpoint());
        r.durability.record(JournalEvent::RunAuction).unwrap();
        assert!(r.durability.wants_checkpoint());
        r.durability.checkpoint(PocState::default(), BTreeMap::new()).unwrap();
        assert!(!r.durability.wants_checkpoint());
    }

    #[test]
    fn recovery_info_round_trips_on_the_wire() {
        let info = RecoveryInfo {
            snapshot_seq: Some(9),
            replayed_records: 3,
            skipped_records: 1,
            torn_tail: true,
            skipped_snapshots: 2,
        };
        let back: RecoveryInfo =
            serde_json::from_slice(&serde_json::to_vec(&info).unwrap()).unwrap();
        assert_eq!(back, info);
    }
}
