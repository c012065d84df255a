//! Snapshot checkpoints: the controller's full persistent state,
//! written atomically.
//!
//! A snapshot bounds journal replay: once the state as of sequence
//! number `seq` is durably on disk, every journal record with
//! `seq <= snapshot.seq` is dead weight and the journal can be
//! truncated. Snapshots are written with the classic crash-safe
//! recipe:
//!
//! 1. serialize into `snap-<seq>.snap.tmp`;
//! 2. `fsync` the temp file (contents durable, name not);
//! 3. atomically `rename` to `snap-<seq>.snap`;
//! 4. `fsync` the directory (the rename itself durable);
//! 5. delete generations older than the previous one.
//!
//! A crash between any two steps leaves either the old generation
//! intact (steps 1–3) or both generations intact (4–5) — never a state
//! where the newest *valid* snapshot is worse than what we had. The
//! snapshot payload reuses the journal's `[len][crc][payload]` framing
//! so a torn file at the final name (hostile filesystems, injected
//! faults) is *detected* and skipped rather than trusted, falling back
//! to the previous generation.

use crate::journal::{frame, unframe, CrashPoint, CrashSwitch};
use poc_core::entity::EntityId;
use poc_core::poc::PocState;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Everything the controller must persist, captured at one sequence
/// number under the state lock (so it is a consistent point-in-time
/// cut).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ControllerSnapshot {
    /// Sequence number of the last journal event folded in.
    pub seq: u64,
    /// Fingerprint of the topology this state was taken against;
    /// recovery refuses a mismatch.
    pub fingerprint: u64,
    /// The POC facade's persistent state.
    pub poc: PocState,
    /// Usage reported since the last billing cycle.
    pub usage: BTreeMap<EntityId, f64>,
}

/// Errors from the snapshot write path.
#[derive(Debug)]
pub enum SnapshotError {
    Io(std::io::Error),
    /// An armed [`CrashPoint`] fired mid-write.
    Crashed(CrashPoint),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Crashed(p) => write!(f, "injected crash at {}", p.label()),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:020}.snap"))
}

/// Write `snapshot` atomically into `dir`. On success the newest valid
/// generation on disk is `snapshot`; on a crash injection the disk is
/// left exactly as a real crash at that point would leave it.
pub fn write_snapshot(
    dir: &Path,
    snapshot: &ControllerSnapshot,
    crash: &CrashSwitch,
) -> Result<(), SnapshotError> {
    let payload = serde_json::to_vec(snapshot).map_err(|e| std::io::Error::other(e.to_string()))?;
    let bytes = frame(&payload);
    let final_path = snapshot_path(dir, snapshot.seq);

    if crash.fire_if(CrashPoint::TornSnapshotWrite) {
        // Simulate a filesystem that tore the write at the final name:
        // half the framed bytes, then death. Recovery must detect the
        // bad CRC and fall back.
        let mut f = File::create(&final_path)?;
        f.write_all(&bytes[..bytes.len() / 2])?;
        let _ = f.sync_all();
        return Err(SnapshotError::Crashed(CrashPoint::TornSnapshotWrite));
    }

    let tmp_path = final_path.with_extension("snap.tmp");
    {
        let mut f = File::create(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }

    if crash.fire_if(CrashPoint::MidSnapshotRename) {
        // Temp durable, rename never happened: the orphan `.tmp` must
        // be ignored by recovery.
        return Err(SnapshotError::Crashed(CrashPoint::MidSnapshotRename));
    }

    std::fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    poc_obs::counter!("ctrl.snapshot.writes").inc();
    poc_obs::counter!("ctrl.snapshot.bytes").add(bytes.len() as u64);

    // Keep this generation plus one fallback; prune the rest.
    let mut generations = list_generations(dir)?;
    generations.retain(|&(seq, _)| seq != snapshot.seq);
    generations.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    for (_, path) in generations.into_iter().skip(1) {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// All `snap-<seq>.snap` files in `dir` with their parsed sequence
/// numbers (unsorted; `.tmp` orphans are excluded).
fn list_generations(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("snap-").and_then(|s| s.strip_suffix(".snap")) else {
            continue;
        };
        let Ok(seq) = stem.parse::<u64>() else { continue };
        out.push((seq, entry.path()));
    }
    Ok(out)
}

/// Result of loading the newest valid snapshot.
#[derive(Debug, Default)]
pub(crate) struct LoadedSnapshot {
    pub snapshot: Option<ControllerSnapshot>,
    /// Newer generations that existed but failed validation (torn or
    /// corrupt) and were skipped.
    pub skipped_invalid: u64,
}

/// Load the newest generation that validates; torn or corrupt newer
/// generations are skipped (and counted), orphan `.tmp` files are
/// removed.
pub(crate) fn load_newest(dir: &Path) -> std::io::Result<LoadedSnapshot> {
    // Clear orphan temp files from a crash between write and rename.
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.path().extension().and_then(|e| e.to_str()) == Some("tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    let mut generations = list_generations(dir)?;
    generations.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    let mut skipped = 0u64;
    for (_, path) in generations {
        let bytes = std::fs::read(&path)?;
        // No record cap here: a snapshot holds the whole state, and
        // only a CRC-valid frame that parses is trusted.
        let payload = unframe(&bytes, usize::MAX);
        if let Some(snapshot) = payload.and_then(|p| serde_json::from_slice(p).ok()) {
            return Ok(LoadedSnapshot { snapshot: Some(snapshot), skipped_invalid: skipped });
        }
        skipped += 1;
    }
    Ok(LoadedSnapshot { snapshot: None, skipped_invalid: skipped })
}

/// Fsync a directory so a rename inside it is durable (no-op on
/// platforms where directories cannot be opened).
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    match File::open(dir) {
        Ok(f) => f.sync_all(),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("poc-snapshot-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snap(seq: u64) -> ControllerSnapshot {
        let mut usage = BTreeMap::new();
        usage.insert(EntityId(4), seq as f64 * 1.5);
        ControllerSnapshot { seq, fingerprint: 0xfeed, poc: PocState::default(), usage }
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = tmp_dir("round-trip");
        write_snapshot(&dir, &snap(3), &CrashSwitch::new()).unwrap();
        let loaded = load_newest(&dir).unwrap();
        let s = loaded.snapshot.unwrap();
        assert_eq!(s.seq, 3);
        assert_eq!(s.fingerprint, 0xfeed);
        assert_eq!(s.usage[&EntityId(4)], 4.5);
        assert_eq!(loaded.skipped_invalid, 0);
    }

    #[test]
    fn empty_dir_loads_nothing() {
        let dir = tmp_dir("empty");
        let loaded = load_newest(&dir).unwrap();
        assert!(loaded.snapshot.is_none());
    }

    #[test]
    fn newer_generation_wins_and_old_ones_are_pruned() {
        let dir = tmp_dir("generations");
        for seq in [2, 5, 9] {
            write_snapshot(&dir, &snap(seq), &CrashSwitch::new()).unwrap();
        }
        let loaded = load_newest(&dir).unwrap();
        assert_eq!(loaded.snapshot.unwrap().seq, 9);
        // Newest + one fallback survive the prune.
        let mut seqs: Vec<u64> =
            list_generations(&dir).unwrap().into_iter().map(|(s, _)| s).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![5, 9]);
    }

    #[test]
    fn torn_newest_generation_falls_back_to_previous() {
        let dir = tmp_dir("torn");
        write_snapshot(&dir, &snap(4), &CrashSwitch::new()).unwrap();
        let crash = CrashSwitch::new();
        crash.arm(CrashPoint::TornSnapshotWrite);
        let err = write_snapshot(&dir, &snap(8), &crash).unwrap_err();
        assert!(matches!(err, SnapshotError::Crashed(CrashPoint::TornSnapshotWrite)));

        let loaded = load_newest(&dir).unwrap();
        assert_eq!(loaded.snapshot.unwrap().seq, 4, "fell back past the torn generation");
        assert_eq!(loaded.skipped_invalid, 1);
    }

    #[test]
    fn crash_before_rename_leaves_previous_generation_live() {
        let dir = tmp_dir("mid-rename");
        write_snapshot(&dir, &snap(4), &CrashSwitch::new()).unwrap();
        let crash = CrashSwitch::new();
        crash.arm(CrashPoint::MidSnapshotRename);
        let err = write_snapshot(&dir, &snap(8), &crash).unwrap_err();
        assert!(matches!(err, SnapshotError::Crashed(CrashPoint::MidSnapshotRename)));

        let loaded = load_newest(&dir).unwrap();
        assert_eq!(loaded.snapshot.unwrap().seq, 4);
        assert_eq!(loaded.skipped_invalid, 0, "orphan tmp is not a generation");
        // The orphan tmp was cleaned up by the load.
        let tmps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().path().extension().and_then(|x| x.to_str()) == Some("tmp")
            })
            .collect();
        assert!(tmps.is_empty());
    }

    /// The journal caps one record at 1 MiB; a snapshot holds the whole
    /// state, so it has no cap.
    #[test]
    fn a_snapshot_past_the_journal_record_cap_loads() {
        let dir = tmp_dir("large");
        let mut big = snap(3);
        big.usage = (0..80_000).map(|i| (EntityId(i), i as f64 * 0.5)).collect();
        write_snapshot(&dir, &big, &CrashSwitch::new()).unwrap();
        let bytes = std::fs::read(snapshot_path(&dir, 3)).unwrap();
        assert!(bytes.len() > crate::journal::MAX_RECORD as usize, "{} bytes", bytes.len());
        let loaded = load_newest(&dir).unwrap();
        assert_eq!(loaded.skipped_invalid, 0);
        assert_eq!(loaded.snapshot.unwrap().usage, big.usage);
    }

    #[test]
    fn garbage_snapshot_file_is_skipped() {
        let dir = tmp_dir("garbage");
        write_snapshot(&dir, &snap(2), &CrashSwitch::new()).unwrap();
        std::fs::write(dir.join("snap-00000000000000000009.snap"), b"not a snapshot").unwrap();
        let loaded = load_newest(&dir).unwrap();
        assert_eq!(loaded.snapshot.unwrap().seq, 2);
        assert_eq!(loaded.skipped_invalid, 1);
    }
}
