//! Append-only write-ahead journal of controller mutations.
//!
//! Every state-mutating request is framed and appended here *before* it
//! is applied to the in-memory [`poc_core::Poc`] (write-ahead
//! discipline), so a controller that loses power mid-period can rebuild
//! its ledger, lease book, and last auction outcome by replaying the
//! journal on top of the newest snapshot (see [`crate::snapshot`] and
//! [`crate::recovery`]).
//!
//! # Record framing
//!
//! ```text
//! [u32 payload length, BE][u32 CRC-32 of payload, BE][payload JSON]
//! ```
//!
//! The payload is one `JournalRecord` (sequence number + event)
//! serialized through the in-tree serde shims. The CRC detects torn or
//! bit-rotted tails: `scan` reads records until the first frame that
//! is truncated, oversized, CRC-mismatched, or unparsable, and reports
//! the byte offset of the last *valid* record so recovery can truncate
//! the tail and keep appending. A torn tail is an expected artifact of
//! a crash mid-append, never an error. Snapshot files use the same
//! `frame` / `unframe` pair, without the journal's 1 MiB record cap.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy`] trades durability for append latency:
//!
//! * [`FsyncPolicy::Always`] — `fdatasync` after every append; an
//!   acknowledged mutation survives power loss.
//! * [`FsyncPolicy::Interval`] — sync at most once per interval;
//!   bounded data loss, amortized sync cost.
//! * [`FsyncPolicy::Never`] — leave it to the OS page cache; survives a
//!   process crash but not power loss.
//!
//! # Group commit
//!
//! [`GroupJournal`] is the journal's one writer. Mutation threads hold
//! only the shard or global state lock their request needs, so appends
//! from different shards race and the journal synchronizes internally:
//! threads append records (buffered, under the appender lock), then
//! wait for a *commit leader* to fsync everything appended so far in
//! one `fdatasync`. Under [`FsyncPolicy::Always`] each acknowledged
//! mutation is still durable before its reply — but K concurrent
//! mutations cost ~1 fsync instead of K (`ctrl.journal.batch_size`
//! histogram, `ctrl.journal.group_commits` counter).
//!
//! The leader fsyncs through a duplicated file handle *without* holding
//! the appender lock: it captures the batch extent (seq, byte length)
//! under the lock, releases it, and syncs while the next batch
//! accumulates behind it. `fdatasync` persists at least everything
//! written before the call, so the captured extent is durable on
//! success; records appended during the sync are simply not
//! acknowledged until the next leader covers them. This pipelining is
//! what lets the batch size approach the number of concurrent writers
//! instead of stalling at whatever queued before the lock was taken.
//!
//! A failed group-commit fsync fails **every** record in the batch: the
//! leader rolls the file back to the durable prefix (so a later sync
//! can never quietly commit bytes whose fsync already failed) and every
//! waiter gets a typed [`JournalError::BatchAborted`]. If the rollback
//! itself fails, the journal is poisoned and refuses all further
//! appends ([`JournalError::Poisoned`]).
//!
//! # Crash injection
//!
//! [`CrashSwitch`] is the durability sibling of
//! [`crate::fault::FaultyTransport`]: tests arm one [`CrashPoint`] and
//! the durability layer simulates a process death at exactly that
//! point (a half-written record, a snapshot tmp that never got renamed,
//! …), letting integration tests kill a live server at each point and
//! prove recovery. [`FsyncFault`] is the non-fatal sibling: it makes
//! the next N group-commit fsyncs fail (as a dying disk would) without
//! killing the process. Production code never arms either.

use crate::proto::AttachRole;
use poc_core::entity::EntityId;
use poc_core::tos::TrafficPolicy;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on one journal record's payload (mirrors the wire codec's
/// frame cap; a larger length prefix means a corrupt header).
pub(crate) const MAX_RECORD: u32 = 1 << 20;

/// Bytes of framing overhead per record (length + CRC).
pub(crate) const RECORD_HEADER: usize = 8;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, computed at compile time.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frame `payload` as `[len][crc][payload]`: the on-disk framing of every
/// journal record and snapshot file.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// The payload of the frame at the head of `bytes`; `None` if the frame is
/// torn, its length exceeds `max_len`, or its CRC does not match.
pub(crate) fn unframe(bytes: &[u8], max_len: usize) -> Option<&[u8]> {
    let header = bytes.get(..RECORD_HEADER)?;
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_be_bytes(header[4..].try_into().expect("4 bytes"));
    if len > max_len {
        return None;
    }
    let payload = bytes.get(RECORD_HEADER..RECORD_HEADER + len)?;
    (crc32(payload) == crc).then_some(payload)
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One state-mutating controller event. Mirrors the mutating subset of
/// [`crate::proto::Request`]; read-only requests are never journaled.
/// Replay goes through the same application path as live requests, so a
/// journaled event that *failed* validation (duplicate attach name,
/// non-finite usage) deterministically fails the same way on replay.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JournalEvent {
    Attach {
        name: String,
        role: AttachRole,
    },
    ReportUsage {
        entity: EntityId,
        gbps: f64,
    },
    RunAuction,
    RunBilling,
    RecallLink {
        bp: u32,
        link: u32,
        notice_periods: u32,
    },
    ReviewPolicy {
        policy: TrafficPolicy,
    },
    /// A lease transition began. Replay recomputes the target outcome
    /// deterministically (`Poc::compute_auction_outcome` against the
    /// journaled-state traffic matrix scaled by `demand_scale`), so the
    /// record only needs the planner budget and the demand knob. After a
    /// replayed `RunAuction`, a target at the round's own demand is that
    /// round's outcome and clears no auction; after a snapshot it clears
    /// to the same bits.
    TransitionBegun {
        max_extra_links: Option<usize>,
        demand_scale: Option<f64>,
    },
    /// One applied transition step. Self-describing — replay applies
    /// exactly this lease operation, never re-plans — so recovery does
    /// not depend on the planner revisiting the same order.
    TransitionStep {
        add: bool,
        link: u32,
    },
    /// The transition reached its target; the new outcome is current.
    TransitionCommitted,
    /// The transition was abandoned; the fabric is back on the
    /// pre-transition link set (rollback steps, if any, were journaled
    /// as their own `TransitionStep` records before this).
    TransitionAborted,
}

impl JournalEvent {
    /// The journal event a replayable mutation is recorded as — the one
    /// table of which requests those are. `None` for read-only requests
    /// (never journaled) and for `BeginTransition`, which journals a
    /// transaction of `Transition*` records of its own
    /// (`crate::transition`).
    pub(crate) fn from_request(request: crate::proto::Request) -> Option<Self> {
        use crate::proto::Request;
        match request {
            Request::Attach { name, role } => Some(JournalEvent::Attach { name, role }),
            Request::ReportUsage { entity, gbps } => {
                Some(JournalEvent::ReportUsage { entity, gbps })
            }
            Request::RunAuction => Some(JournalEvent::RunAuction),
            Request::RunBilling => Some(JournalEvent::RunBilling),
            Request::RecallLink { bp, link, notice_periods } => {
                Some(JournalEvent::RecallLink { bp, link, notice_periods })
            }
            Request::ReviewPolicy { policy } => Some(JournalEvent::ReviewPolicy { policy }),
            // The trace envelope is transparent: a traced mutation
            // journals as the bare mutation (replay never re-traces).
            Request::Traced { request, .. } => Self::from_request(*request),
            Request::BeginTransition { .. }
            | Request::Ping
            | Request::GetOutcome
            | Request::GetBalance { .. }
            | Request::GetPath { .. }
            | Request::GetLeases
            | Request::GetRecovery
            | Request::Metrics
            | Request::TransitionStatus
            | Request::Trace { .. } => None,
        }
    }

    /// Short label for logs and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            JournalEvent::Attach { .. } => "attach",
            JournalEvent::ReportUsage { .. } => "report_usage",
            JournalEvent::RunAuction => "run_auction",
            JournalEvent::RunBilling => "run_billing",
            JournalEvent::RecallLink { .. } => "recall_link",
            JournalEvent::ReviewPolicy { .. } => "review_policy",
            JournalEvent::TransitionBegun { .. } => "transition_begun",
            JournalEvent::TransitionStep { .. } => "transition_step",
            JournalEvent::TransitionCommitted => "transition_committed",
            JournalEvent::TransitionAborted => "transition_aborted",
        }
    }
}

/// One framed journal entry: a monotonically increasing sequence number
/// plus the event. Sequence numbers let recovery skip records already
/// folded into a snapshot (crash after snapshot-rename but before
/// journal truncation must not apply them twice).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct JournalRecord {
    pub seq: u64,
    pub event: JournalEvent,
}

// ---------------------------------------------------------------------------
// Fsync policy
// ---------------------------------------------------------------------------

/// When appends reach the platter. See the module docs for the
/// durability trade-offs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append.
    Always,
    /// Sync at most once per interval (first append after the interval
    /// elapses pays the sync).
    Interval(Duration),
    /// Never sync explicitly; the OS flushes when it pleases.
    Never,
}

impl FsyncPolicy {
    /// Parse a CLI-style policy string: `always`, `never`, or
    /// `interval` (100 ms default interval).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "interval" => Ok(FsyncPolicy::Interval(Duration::from_millis(100))),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("unknown fsync policy {other:?} (use always, interval, never)")),
        }
    }
}

// ---------------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------------

/// A point in the durability path where a test can simulate the process
/// dying. Each point leaves exactly the on-disk wreckage a real crash
/// there would: recovery must cope with every one of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die halfway through writing a journal record: the tail is torn
    /// (header + partial payload). The mutation was never acknowledged
    /// and must be absent after recovery.
    MidAppend,
    /// Die after the record is durably appended but before the reply is
    /// sent. The client sees a transport error (outcome ambiguous); the
    /// mutation must be present after recovery — exactly once.
    AfterAppend,
    /// Die after writing and syncing the snapshot temp file but before
    /// the atomic rename. Recovery must ignore the orphan `.tmp` and
    /// rebuild from the previous snapshot + full journal.
    MidSnapshotRename,
    /// Die while a snapshot lands torn at its *final* name (simulates a
    /// non-atomic filesystem or partial sector write). Recovery must
    /// reject the torn newest generation and fall back to the previous
    /// valid one.
    TornSnapshotWrite,
    /// Die after the snapshot is durable but before the journal is
    /// truncated. The journal still holds records the snapshot already
    /// contains; recovery must skip them by sequence number (the
    /// exactly-once case).
    AfterSnapshotBeforeTruncate,
}

impl CrashPoint {
    /// Every defined crash point (integration tests iterate this).
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::MidAppend,
        CrashPoint::AfterAppend,
        CrashPoint::MidSnapshotRename,
        CrashPoint::TornSnapshotWrite,
        CrashPoint::AfterSnapshotBeforeTruncate,
    ];

    /// Short label for logs and assertions.
    pub fn label(&self) -> &'static str {
        match self {
            CrashPoint::MidAppend => "mid_append",
            CrashPoint::AfterAppend => "after_append",
            CrashPoint::MidSnapshotRename => "mid_snapshot_rename",
            CrashPoint::TornSnapshotWrite => "torn_snapshot_write",
            CrashPoint::AfterSnapshotBeforeTruncate => "after_snapshot_before_truncate",
        }
    }
}

/// Shared, cloneable crash trigger. Tests keep one clone and arm it;
/// the server's durability layer holds the other and checks each point
/// as it passes. Unarmed (the default) it costs one mutex lock per
/// check on the mutation path — irrelevant at control-plane rates.
#[derive(Clone, Debug, Default)]
pub struct CrashSwitch {
    armed: Arc<Mutex<Option<(CrashPoint, u32)>>>,
}

impl CrashSwitch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm the switch: the next time the durability path passes
    /// `point`, it simulates a crash there.
    pub fn arm(&self, point: CrashPoint) {
        self.arm_after(point, 0);
    }

    /// Arm the switch to fire on the `(skip + 1)`-th pass of `point`,
    /// letting tests die at a chosen *record boundary* inside a
    /// multi-record request (a lease transition journals a begin record,
    /// one record per step, and a commit — all within one request, so
    /// re-arming between them is impossible).
    pub fn arm_after(&self, point: CrashPoint, skip: u32) {
        *self.armed.lock().unwrap() = Some((point, skip));
    }

    /// True (and disarms) iff the switch is armed at exactly `point`
    /// and its skip count has run out; earlier passes count down.
    pub(crate) fn fire_if(&self, point: CrashPoint) -> bool {
        let mut armed = self.armed.lock().unwrap();
        match *armed {
            Some((p, 0)) if p == point => {
                *armed = None;
                true
            }
            Some((p, skip)) if p == point => {
                *armed = Some((p, skip - 1));
                false
            }
            _ => false,
        }
    }
}

/// Injectable fsync failure: the next `n` armed group-commit fsyncs
/// fail as a dying disk would, *without* killing the process. Tests use
/// it to prove a failed batch is rolled back and every coalesced
/// mutation in it reports a typed error instead of a bogus ack.
#[derive(Clone, Debug, Default)]
pub struct FsyncFault {
    armed: Arc<AtomicU32>,
}

impl FsyncFault {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm the next `failures` group-commit fsyncs to fail.
    pub fn arm(&self, failures: u32) {
        self.armed.store(failures, Ordering::SeqCst);
    }

    /// True (consuming one armed failure) iff the next sync must fail.
    fn take(&self) -> bool {
        self.armed.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok()
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors from the append path.
#[derive(Debug)]
pub enum JournalError {
    Io(std::io::Error),
    /// A record would exceed the 1 MiB record cap.
    RecordTooLarge(usize),
    /// An armed [`CrashPoint`] fired: the simulated process is dead and
    /// the server must stop without replying.
    Crashed(CrashPoint),
    /// The group-commit fsync covering this record failed; the whole
    /// batch was rolled back from the file and no record in it may be
    /// acknowledged.
    BatchAborted,
    /// A failed group commit could not be rolled back, so the on-disk
    /// suffix is unknowable; the journal refuses all further appends.
    Poisoned,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::RecordTooLarge(n) => {
                write!(f, "journal record of {n} bytes exceeds {MAX_RECORD}")
            }
            JournalError::Crashed(p) => write!(f, "injected crash at {}", p.label()),
            JournalError::BatchAborted => {
                write!(f, "group-commit fsync failed; batch rolled back, mutation not persisted")
            }
            JournalError::Poisoned => {
                write!(f, "journal poisoned by an unrollbackable fsync failure")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Scanning (recovery read path)
// ---------------------------------------------------------------------------

/// Result of scanning a journal file.
#[derive(Debug)]
pub(crate) struct ScanResult {
    /// Every valid record, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix; anything beyond is a torn or
    /// corrupt tail and must be truncated before appending resumes.
    pub valid_len: u64,
    /// Whether trailing bytes past the valid prefix were present.
    pub torn_tail: bool,
}

/// Scan `path`, accepting the longest valid prefix of records. A
/// missing file scans as empty. Corruption never fails the scan — it
/// ends it: a crash tears tails, and a torn tail is recoverable state.
pub(crate) fn scan(path: &Path) -> std::io::Result<ScanResult> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            // Clean end at a record boundary.
            return Ok(ScanResult { records, valid_len: offset as u64, torn_tail: false });
        }
        let Some(payload) = unframe(rest, MAX_RECORD as usize) else {
            break; // torn header or payload, corrupt length, or bit rot
        };
        let Ok(record) = serde_json::from_slice::<JournalRecord>(payload) else {
            break; // framing valid but payload unparsable: treat as corrupt
        };
        records.push(record);
        offset += RECORD_HEADER + payload.len();
    }
    Ok(ScanResult { records, valid_len: offset as u64, torn_tail: true })
}

// ---------------------------------------------------------------------------
// The frame writer (file handle under the group journal)
// ---------------------------------------------------------------------------

/// The journal file handle: frames records onto the file and tracks frame
/// boundaries. Private to [`GroupJournal`], which holds it under the
/// appender lock and owns all policy-driven syncing; the writer itself
/// syncs only where a crash point, a truncation or a rollback demands it.
struct FrameWriter {
    file: File,
    /// Appends since the last explicit sync (gates the
    /// `ctrl.journal.fsyncs` metric).
    unsynced: u64,
    /// Byte length of the file after the last complete append, tracked
    /// arithmetically so the group-commit leader can record (and roll
    /// back to) exact frame boundaries without a metadata syscall.
    end_pos: u64,
}

impl FrameWriter {
    /// Open `path` for appending, first truncating it to `valid_len`
    /// (the scan result) so a torn tail never precedes fresh records.
    fn open(path: &Path, valid_len: u64) -> std::io::Result<Self> {
        let file =
            OpenOptions::new().create(true).truncate(false).read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Self { file, unsynced: 0, end_pos: valid_len })
    }

    /// Append one record, honouring any armed crash point. On success
    /// the record is OS-buffered; durability is the caller's commit.
    fn append(&mut self, record: &JournalRecord, crash: &CrashSwitch) -> Result<(), JournalError> {
        let _span = poc_obs::span!("ctrl.journal.append", event = record.event.label());
        let payload = serde_json::to_vec(record)
            .map_err(|e| JournalError::Io(std::io::Error::other(e.to_string())))?;
        if payload.len() > MAX_RECORD as usize {
            return Err(JournalError::RecordTooLarge(payload.len()));
        }
        let frame = frame(&payload);

        if crash.fire_if(CrashPoint::MidAppend) {
            // The process "dies" with only the header and half the
            // payload on disk: exactly the torn tail scan() truncates.
            let keep = RECORD_HEADER + payload.len() / 2;
            self.file.write_all(&frame[..keep])?;
            let _ = self.file.sync_data();
            return Err(JournalError::Crashed(CrashPoint::MidAppend));
        }

        self.file.write_all(&frame)?;
        self.end_pos += frame.len() as u64;
        poc_obs::counter!("ctrl.journal.appends").inc();
        poc_obs::counter!("ctrl.journal.bytes").add(frame.len() as u64);
        self.unsynced += 1;

        if crash.fire_if(CrashPoint::AfterAppend) {
            // Record durable, reply never sent: the exactly-once case.
            let _ = self.file.sync_data();
            return Err(JournalError::Crashed(CrashPoint::AfterAppend));
        }
        Ok(())
    }

    /// Force a data sync now (shutdown, or an explicit barrier).
    fn sync(&mut self) -> std::io::Result<()> {
        let _span = poc_obs::span!("ctrl.journal.fsync");
        self.file.sync_data()?;
        if self.unsynced > 0 {
            poc_obs::counter!("ctrl.journal.fsyncs").inc();
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Truncate to empty after its contents are folded into a durable
    /// snapshot. Plain `set_len(0)` is enough: a crash *before* this
    /// runs leaves already-snapshotted records behind, and recovery
    /// skips them by sequence number.
    fn truncate_to_empty(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.unsynced = 0;
        self.end_pos = 0;
        Ok(())
    }

    /// Roll the file back to `len` bytes (a frame boundary) after a
    /// failed sync, so bytes whose fsync failed can never be quietly
    /// committed by a later one. The rollback itself is synced; if any
    /// step fails the caller must poison the journal.
    fn rollback_to(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        self.file.sync_data()?;
        self.end_pos = len;
        self.unsynced = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Group commit (concurrent append path)
// ---------------------------------------------------------------------------

/// Unlock a possibly-poisoned std mutex guard: a panicking holder must
/// not wedge the commit protocol (mirrors the parking_lot shim).
fn relock<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Appender {
    writer: FrameWriter,
    /// Sequence number the next appended record gets.
    next_seq: u64,
}

struct CommitState {
    /// Highest sequence number known durable.
    synced_seq: u64,
    /// Byte length of the durable prefix (the rollback target when a
    /// group-commit fsync fails).
    synced_len: u64,
    /// A commit leader is currently syncing.
    leader: bool,
    /// Completed-batch counter. Parity picks which condvar a batch's
    /// waiters sleep on, so a finishing commit wakes only the waiters
    /// it covered (plus one elected next leader) instead of storming
    /// every thread parked on the journal.
    gen: u64,
    /// Highest seq the in-flight batch covers. `u64::MAX` between
    /// leader election and extent capture (every waiter already
    /// appended by then is covered); meaningless when `leader` is
    /// false.
    target: u64,
    /// When the last group commit (or explicit sync) completed; drives
    /// [`FsyncPolicy::Interval`].
    last_commit: Instant,
    /// Inclusive seq ranges rolled back by failed group commits. Their
    /// waiters must see [`JournalError::BatchAborted`] even after later
    /// (fresh) records push `synced_seq` past them.
    aborted: Vec<(u64, u64)>,
    /// A failed rollback left the on-disk suffix unknowable.
    poisoned: bool,
    /// An armed crash point fired: the simulated process is dead, and
    /// every thread still inside the journal dies with it (no replies,
    /// so every in-flight outcome stays ambiguous — exactly crash
    /// semantics).
    dead: Option<CrashPoint>,
}

/// Concurrent, internally synchronized journal with group commit.
///
/// Appends serialize briefly on the appender lock (a buffered write);
/// durability waits coalesce behind a commit leader: the first waiter
/// to find no leader captures the appended extent, releases the lock,
/// and syncs *everything appended so far* in one `fdatasync` while the
/// next batch accumulates behind it. Under concurrency K records cost
/// ~1 fsync; single-threaded use degenerates to exactly the old
/// one-fsync-per-mutation behavior.
pub struct GroupJournal {
    appender: Mutex<Appender>,
    commit: Mutex<CommitState>,
    /// Two wait queues, indexed by batch-generation parity: waiters
    /// covered by the in-flight batch sleep on `committed[gen % 2]`,
    /// waiters for the *next* batch on the other. Completion then
    /// `notify_all`s only its own queue and `notify_one`s the next
    /// (to elect a leader) — next-batch waiters are not stampeded
    /// awake just to go back to sleep.
    committed: [Condvar; 2],
    policy: FsyncPolicy,
    fault: FsyncFault,
    /// Duplicated handle to the journal file: the leader's `fdatasync`
    /// runs on it without the appender lock, so appends proceed during
    /// the device wait (both handles reach the same kernel inode).
    sync_handle: File,
}

impl GroupJournal {
    /// Open `path` at its scanned `valid_len`. `next_seq` seeds the
    /// sequence counter (recovery's `last_seq + 1`).
    pub fn open(
        path: &Path,
        valid_len: u64,
        policy: FsyncPolicy,
        next_seq: u64,
        fault: FsyncFault,
    ) -> std::io::Result<Self> {
        let writer = FrameWriter::open(path, valid_len)?;
        let sync_handle = writer.file.try_clone()?;
        Ok(Self {
            appender: Mutex::new(Appender { writer, next_seq }),
            commit: Mutex::new(CommitState {
                synced_seq: next_seq.saturating_sub(1),
                synced_len: valid_len,
                leader: false,
                gen: 0,
                target: 0,
                last_commit: Instant::now(),
                aborted: Vec::new(),
                poisoned: false,
                dead: None,
            }),
            committed: [Condvar::new(), Condvar::new()],
            policy,
            fault,
            sync_handle,
        })
    }

    /// Sequence number the next appended record will get.
    pub(crate) fn next_seq(&self) -> u64 {
        relock(self.appender.lock()).next_seq
    }

    /// Append one event and return once it is as durable as the policy
    /// demands. Concurrent callers' fsyncs coalesce behind the commit
    /// leader; see the module docs for the failure contract.
    pub fn append(&self, event: JournalEvent, crash: &CrashSwitch) -> Result<u64, JournalError> {
        let seq = {
            let mut ap = relock(self.appender.lock());
            {
                let c = relock(self.commit.lock());
                if let Some(p) = c.dead {
                    return Err(JournalError::Crashed(p));
                }
                if c.poisoned {
                    return Err(JournalError::Poisoned);
                }
            }
            let seq = ap.next_seq;
            match ap.writer.append(&JournalRecord { seq, event }, crash) {
                Ok(()) => {}
                Err(JournalError::Crashed(p)) => {
                    // The simulated process died inside the append. No
                    // record may follow (a MidAppend tear would hide it
                    // from the scanner), and every thread waiting on a
                    // commit dies with the process.
                    relock(self.commit.lock()).dead = Some(p);
                    self.committed[0].notify_all();
                    self.committed[1].notify_all();
                    return Err(JournalError::Crashed(p));
                }
                Err(e) => return Err(e),
            }
            ap.next_seq += 1;
            seq
        };
        match self.policy {
            FsyncPolicy::Always => self.commit(seq)?,
            FsyncPolicy::Interval(d) => {
                let due = relock(self.commit.lock()).last_commit.elapsed() >= d;
                if due {
                    self.commit(seq)?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// Wait until `seq` is durable, becoming the commit leader if
    /// nobody else is syncing. Returns the typed batch error if the
    /// fsync covering `seq` failed.
    fn commit(&self, seq: u64) -> Result<(), JournalError> {
        let _span = poc_obs::span!("ctrl.journal.group_commit");
        let mut c = relock(self.commit.lock());
        loop {
            if let Some(p) = c.dead {
                return Err(JournalError::Crashed(p));
            }
            if c.poisoned {
                return Err(JournalError::Poisoned);
            }
            if c.aborted.iter().any(|&(lo, hi)| (lo..=hi).contains(&seq)) {
                return Err(JournalError::BatchAborted);
            }
            if c.synced_seq >= seq {
                return Ok(());
            }
            if c.leader {
                // Sleep on the queue for the batch that will cover us:
                // the in-flight one if its captured extent includes our
                // seq, the next one otherwise. Re-evaluated every
                // iteration — `gen` may have advanced while we slept.
                let queue = if seq <= c.target { c.gen % 2 } else { (c.gen + 1) % 2 };
                c = relock(self.committed[queue as usize].wait(c));
                continue;
            }
            // Become the leader. Capture the batch extent under the
            // appender lock, then *release it* for the fsync itself:
            // `fdatasync` persists at least everything written before
            // the call, so the captured extent is safely acknowledged on
            // success, while the next batch accumulates behind the freed
            // lock during the device wait.
            c.leader = true;
            c.target = u64::MAX;
            let (base_seq, base_len) = (c.synced_seq, c.synced_len);
            drop(c);

            let (target_seq, target_len) = {
                let ap = relock(self.appender.lock());
                // Publish the real extent (still under the appender
                // lock, so no append can slip between capture and
                // publication): later arrivals with seq beyond it park
                // on the next batch's queue.
                relock(self.commit.lock()).target = ap.next_seq - 1;
                (ap.next_seq - 1, ap.writer.end_pos)
            };
            let synced = if self.fault.take() {
                Err(std::io::Error::other("injected fsync fault"))
            } else {
                let _span = poc_obs::span!("ctrl.journal.fsync");
                self.sync_handle.sync_data()
            };

            match synced {
                Ok(()) => {
                    poc_obs::counter!("ctrl.journal.fsyncs").inc();
                    poc_obs::counter!("ctrl.journal.group_commits").inc();
                    poc_obs::histogram!("ctrl.journal.batch_size").record(target_seq - base_seq);
                    let mut done = relock(self.commit.lock());
                    done.leader = false;
                    // max-guard: an explicit sync() may have advanced
                    // the durable frontier past this batch meanwhile.
                    done.synced_seq = done.synced_seq.max(target_seq);
                    done.synced_len = done.synced_len.max(target_len);
                    done.last_commit = Instant::now();
                    let gen = done.gen;
                    done.gen = gen.wrapping_add(1);
                    // Wake everyone this batch covered; elect (at most)
                    // one next-batch waiter as the new leader. If the
                    // election notify finds nobody parked yet, the next
                    // arrival self-elects on seeing `leader == false`.
                    self.committed[(gen % 2) as usize].notify_all();
                    self.committed[(gen.wrapping_add(1) % 2) as usize].notify_one();
                    // Loop: our own seq is ≤ target_seq, so the next
                    // check returns Ok.
                    c = done;
                }
                Err(_) => {
                    // The batch's bytes may or may not have reached the
                    // platter. Stop the world (the appender lock waits
                    // out any in-flight append), then roll the file back
                    // to the durable prefix so a later sync can never
                    // quietly commit records whose waiters are about to
                    // be told they failed. Records appended *during* the
                    // failed sync are equally unknowable, so the abort
                    // covers everything up to the rollback point.
                    poc_obs::counter!("ctrl.journal.batch_failures").inc();
                    let mut ap = relock(self.appender.lock());
                    let abort_hi = ap.next_seq - 1;
                    let rolled = ap.writer.rollback_to(base_len);
                    let mut done = relock(self.commit.lock());
                    done.leader = false;
                    done.gen = done.gen.wrapping_add(1);
                    let err = match rolled {
                        Ok(()) => {
                            done.aborted.push((base_seq + 1, abort_hi));
                            JournalError::BatchAborted
                        }
                        Err(_) => {
                            done.poisoned = true;
                            JournalError::Poisoned
                        }
                    };
                    // The abort covers every record up to the rollback
                    // point — including next-batch arrivals — so both
                    // queues must drain and observe it.
                    self.committed[0].notify_all();
                    self.committed[1].notify_all();
                    return Err(err);
                }
            }
        }
    }

    /// Force a sync now (shutdown barrier, or an explicit test
    /// barrier). Single-caller semantics: runs outside the leader
    /// protocol but under both locks, so it composes with it.
    pub(crate) fn sync(&self) -> std::io::Result<()> {
        let mut ap = relock(self.appender.lock());
        ap.writer.sync()?;
        let mut c = relock(self.commit.lock());
        c.synced_seq = ap.next_seq - 1;
        c.synced_len = ap.writer.end_pos;
        c.last_commit = Instant::now();
        // The frontier moved outside the leader protocol: drain both
        // queues so covered sleepers re-check it (a group commit only
        // wakes its own batch).
        self.committed[0].notify_all();
        self.committed[1].notify_all();
        Ok(())
    }

    /// Truncate after a checkpoint folded every record into a durable
    /// snapshot. Callers must guarantee no append is in flight (the
    /// server holds every state lock across a checkpoint).
    pub(crate) fn truncate_to_empty(&self) -> std::io::Result<()> {
        let mut ap = relock(self.appender.lock());
        ap.writer.truncate_to_empty()?;
        let mut c = relock(self.commit.lock());
        c.synced_seq = ap.next_seq - 1;
        c.synced_len = 0;
        c.last_commit = Instant::now();
        c.aborted.clear();
        self.committed[0].notify_all();
        self.committed[1].notify_all();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::RouterId;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("poc-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.wal")
    }

    fn rec(seq: u64, event: JournalEvent) -> JournalRecord {
        JournalRecord { seq, event }
    }

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Attach {
                name: "lmp-1".into(),
                role: AttachRole::Lmp { router: RouterId(0) },
            },
            JournalEvent::ReportUsage { entity: EntityId(3), gbps: 12.5 },
            JournalEvent::RunAuction,
            JournalEvent::RecallLink { bp: 1, link: 2, notice_periods: 3 },
            JournalEvent::RunBilling,
        ]
    }

    fn write_all(path: &Path, events: &[JournalEvent]) {
        let mut j = FrameWriter::open(path, 0).unwrap();
        for (i, e) in events.iter().enumerate() {
            j.append(&rec(i as u64 + 1, e.clone()), &CrashSwitch::new()).unwrap();
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_scan_round_trips() {
        let path = tmp("round-trip");
        let events = sample_events();
        write_all(&path, &events);
        let scan = scan(&path).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.records.len(), events.len());
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.event, events[i]);
        }
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn empty_and_missing_files_recover_cleanly() {
        let path = tmp("empty");
        // Missing file: clean empty scan.
        let s = scan(&path).unwrap();
        assert!(s.records.is_empty() && !s.torn_tail && s.valid_len == 0);
        // Empty file: same.
        std::fs::write(&path, b"").unwrap();
        let s = scan(&path).unwrap();
        assert!(s.records.is_empty() && !s.torn_tail && s.valid_len == 0);
    }

    #[test]
    fn corrupt_crc_truncates_at_the_corrupt_record() {
        let path = tmp("crc");
        let events = sample_events();
        write_all(&path, &events);
        let clean = scan(&path).unwrap();
        // Flip one payload byte inside the third record.
        let mut bytes = std::fs::read(&path).unwrap();
        let mut offset = 0usize;
        for _ in 0..2 {
            let len = u32::from_be_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            offset += RECORD_HEADER + len;
        }
        bytes[offset + RECORD_HEADER + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let s = scan(&path).unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.records.len(), 2, "records before the corrupt one survive");
        assert_eq!(s.records[..], clean.records[..2]);
        assert_eq!(s.valid_len as usize, offset);
    }

    #[test]
    fn truncated_length_prefix_is_a_clean_torn_tail() {
        let path = tmp("torn-prefix");
        let events = sample_events();
        write_all(&path, &events);
        let full = std::fs::read(&path).unwrap();
        // Chop mid-way through the last record's header.
        let clean = scan(&path).unwrap();
        let last_start = {
            let mut offset = 0usize;
            for _ in 0..events.len() - 1 {
                let len = u32::from_be_bytes(full[offset..offset + 4].try_into().unwrap()) as usize;
                offset += RECORD_HEADER + len;
            }
            offset
        };
        std::fs::write(&path, &full[..last_start + 3]).unwrap();
        let s = scan(&path).unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.records.len(), events.len() - 1);
        assert_eq!(s.valid_len as usize, last_start);
        assert_eq!(s.records[..], clean.records[..events.len() - 1]);
    }

    #[test]
    fn oversized_length_prefix_is_corrupt_not_a_huge_allocation() {
        let path = tmp("oversize");
        write_all(&path, &sample_events()[..1]);
        let mut bytes = std::fs::read(&path).unwrap();
        let valid = bytes.len();
        bytes.extend_from_slice(&(MAX_RECORD + 1).to_be_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        std::fs::write(&path, &bytes).unwrap();
        let s = scan(&path).unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.valid_len as usize, valid);
    }

    #[test]
    fn open_truncates_torn_tail_and_appends_resume() {
        let path = tmp("resume");
        let events = sample_events();
        write_all(&path, &events);
        // Tear the tail mid-record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let s = scan(&path).unwrap();
        assert!(s.torn_tail);

        // Re-open at the valid prefix and append a fresh record.
        let mut j = FrameWriter::open(&path, s.valid_len).unwrap();
        j.append(&rec(99, JournalEvent::RunAuction), &CrashSwitch::new()).unwrap();
        let s2 = scan(&path).unwrap();
        assert!(!s2.torn_tail, "tail was truncated before appending");
        assert_eq!(s2.records.len(), events.len());
        assert_eq!(s2.records.last().unwrap().seq, 99);
    }

    #[test]
    fn mid_append_crash_leaves_a_truncatable_tail() {
        let path = tmp("crash-mid-append");
        let events = sample_events();
        write_all(&path, &events[..2]);
        let crash = CrashSwitch::new();
        crash.arm(CrashPoint::MidAppend);
        let s0 = scan(&path).unwrap();
        let mut j = FrameWriter::open(&path, s0.valid_len).unwrap();
        let err = j.append(&rec(3, JournalEvent::RunBilling), &crash).unwrap_err();
        assert!(matches!(err, JournalError::Crashed(CrashPoint::MidAppend)), "{err:?}");

        let s = scan(&path).unwrap();
        assert!(s.torn_tail, "half-written record must be detected");
        assert_eq!(s.records.len(), 2, "crashed append must not surface as a record");
    }

    #[test]
    fn truncate_to_empty_resets_the_file() {
        let path = tmp("truncate");
        write_all(&path, &sample_events());
        let s = scan(&path).unwrap();
        let mut j = FrameWriter::open(&path, s.valid_len).unwrap();
        j.truncate_to_empty().unwrap();
        let emptied = scan(&path).unwrap();
        assert!(emptied.records.is_empty() && emptied.valid_len == 0 && !emptied.torn_tail);
        j.append(&rec(7, JournalEvent::RunAuction), &CrashSwitch::new()).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].seq, 7);
    }

    #[test]
    fn fsync_policy_parse() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert!(matches!(FsyncPolicy::parse("interval").unwrap(), FsyncPolicy::Interval(_)));
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    /// Strategy for one arbitrary journal event.
    fn event_strategy() -> impl Strategy<Value = JournalEvent> {
        (0u8..10, 0u32..40, 0u32..8, any_gbps()).prop_map(|(kind, a, b, gbps)| match kind {
            0 => JournalEvent::Attach {
                name: format!("member-{a}"),
                role: if a % 2 == 0 {
                    AttachRole::Lmp { router: RouterId(b) }
                } else {
                    AttachRole::DirectCsp { router: RouterId(b) }
                },
            },
            1 => JournalEvent::ReportUsage { entity: EntityId(a), gbps },
            2 => JournalEvent::RunAuction,
            3 => JournalEvent::RunBilling,
            4 => JournalEvent::RecallLink { bp: a % 4, link: b, notice_periods: a % 3 },
            5 => JournalEvent::TransitionBegun {
                max_extra_links: (a % 2 == 0).then_some(b as usize),
                demand_scale: (a % 3 == 0).then_some(1.0 + f64::from(b % 16) / 4.0),
            },
            6 => JournalEvent::TransitionStep { add: a % 2 == 0, link: b },
            7 => JournalEvent::TransitionCommitted,
            8 => JournalEvent::TransitionAborted,
            _ => JournalEvent::ReviewPolicy {
                policy: TrafficPolicy {
                    lmp: EntityId(a),
                    matches: poc_core::tos::PolicyMatch {
                        source: (a % 2 == 0).then_some(EntityId(b)),
                        ..poc_core::tos::PolicyMatch::any()
                    },
                    action: poc_core::tos::PolicyAction::Block,
                    basis: poc_core::tos::PolicyBasis::Commercial,
                },
            },
        })
    }

    fn any_gbps() -> impl Strategy<Value = f64> {
        (0u32..4, 0u32..10_000).prop_map(|(kind, n)| match kind {
            0 => f64::NAN, // non-finite reports are journaled too
            _ => n as f64 / 7.0,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round-trip: any event sequence scans back verbatim, and any
        /// byte-level truncation of the file yields a prefix of the
        /// original records (never garbage, never an error).
        #[test]
        fn journal_round_trip_and_prefix_property(
            events in prop::collection::vec(event_strategy(), 1..12),
            cut_fraction in 0.0f64..1.0,
        ) {
            let path = tmp("prop");
            write_all(&path, &events);
            let full = scan(&path).unwrap();
            prop_assert!(!full.torn_tail);
            prop_assert_eq!(full.records.len(), events.len());
            for (i, r) in full.records.iter().enumerate() {
                // NaN gbps round-trips as NaN (JSON null); compare via
                // serialization to sidestep NaN != NaN.
                prop_assert_eq!(
                    serde_json::to_vec(&r.event).unwrap(),
                    serde_json::to_vec(&events[i]).unwrap()
                );
            }

            // Arbitrary truncation → longest valid prefix.
            let bytes = std::fs::read(&path).unwrap();
            let cut = (bytes.len() as f64 * cut_fraction) as usize;
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let cut_scan = scan(&path).unwrap();
            prop_assert!(cut_scan.records.len() <= events.len());
            // Compare serialized (NaN-carrying events are not PartialEq
            // to themselves).
            prop_assert_eq!(
                serde_json::to_vec(&cut_scan.records).unwrap(),
                serde_json::to_vec(&full.records[..cut_scan.records.len()].to_vec()).unwrap()
            );
            prop_assert!(cut_scan.valid_len <= cut as u64);
        }
    }
}
