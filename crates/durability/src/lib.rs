//! # sqlpp-durability — crash-safe persistence for the catalog
//!
//! Every byte of catalog state used to die with the process. This crate
//! adds the classic storage-engine trio (DESIGN.md §5.13):
//!
//! * an **append-only write-ahead log** (`wal.log`) of checksummed,
//!   ion_lite-framed records, one per committed catalog mutation, each
//!   stamped with a monotonic log sequence number (LSN) — a DML
//!   statement logs its [`Delta`] (a `patch` record the size of the
//!   change), loads and DDL log full values;
//! * **checkpoint snapshots** (`snap-<lsn>.snap`) of the full catalog —
//!   values, schema attachments, schema epoch — written to a temp file,
//!   fsynced, and atomically renamed, after which the WAL is truncated;
//! * **recovery**: load the newest valid snapshot, replay the WAL tail
//!   above its LSN, tolerate a torn final record (the residue of a
//!   crash mid-append) by stopping at the last checksum-valid frame,
//!   and report mid-log damage as structured corruption — never a
//!   panic, never a silent half-state.
//!
//! The fsync discipline is a dial ([`SyncMode`]): `Always` syncs the
//! log on every commit (every acknowledged commit survives a crash),
//! `OnCheckpoint` syncs only snapshots (a crash may lose the tail since
//! the last checkpoint, but never corrupts), `Never` leaves all
//! flushing to the OS (fastest; survives process death via the page
//! cache, not power loss).
//!
//! Crash behavior is *tested, not argued*: the engine threads
//! [`FaultInjector`] hooks through five sites here (`wal-append`,
//! `wal-fsync`, `snapshot-write`, `snapshot-rename`, `recovery-read`),
//! and the workspace crash harness kills a seeded DML workload at every
//! one of them, recovers, and asserts statement-atomic state.

#![warn(missing_docs)]

mod crc32;
pub mod record;
pub mod snapshot;
pub mod wal;

use std::collections::HashSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

pub use crc32::crc32;
pub use record::{WalOp, WalRecord};
pub use snapshot::{read_snapshot, write_image, CatalogImage, ImageView, Snapshot};
pub use wal::wal_record_ends;

use sqlpp_eval::{FaultInjector, FaultSite};
use sqlpp_schema::SqlppType;
use sqlpp_value::{Delta, Value};

use record::Body;

/// The WAL file name inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

/// When the log is forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// `fsync` after every appended record: an acknowledged commit is on
    /// disk before the catalog publishes it.
    Always,
    /// `fsync` only when a checkpoint snapshot is written; WAL appends
    /// ride the OS page cache in between.
    OnCheckpoint,
    /// Never call `fsync`; all flushing is the OS's business.
    Never,
}

impl SyncMode {
    /// Stable lowercase name (status displays, bench labels).
    pub fn name(self) -> &'static str {
        match self {
            SyncMode::Always => "always",
            SyncMode::OnCheckpoint => "on-checkpoint",
            SyncMode::Never => "never",
        }
    }
}

impl fmt::Display for SyncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How (and where) a catalog persists.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and `snap-*.snap`. Created on open.
    /// One engine per directory — concurrent opens are not coordinated.
    pub dir: PathBuf,
    /// The fsync discipline.
    pub sync: SyncMode,
    /// Fault-injection hook for the storage sites (crash testing only;
    /// `None` in production).
    pub fault: Option<FaultInjector>,
}

impl DurabilityConfig {
    /// Durability in `dir` with the safe default (`SyncMode::Always`).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            sync: SyncMode::Always,
            fault: None,
        }
    }

    /// Sets the fsync discipline.
    pub fn with_sync(mut self, sync: SyncMode) -> Self {
        self.sync = sync;
        self
    }

    /// Attaches a fault-injection hook.
    pub fn with_fault(mut self, fault: FaultInjector) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// Errors from the persistence layer. Everything is structured and
/// recoverable — a failed append leaves the in-memory catalog and the
/// valid log prefix untouched; corruption names the file and offset.
#[derive(Debug)]
pub enum DurabilityError {
    /// An OS-level file operation failed.
    Io {
        /// What was being attempted (`"append"`, `"fsync"`, `"rename"`…).
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The OS error text.
        message: String,
    },
    /// On-disk bytes that a torn write cannot explain: mid-log checksum
    /// failures, undecodable checksum-valid frames, LSNs out of order,
    /// unreadable snapshots.
    Corrupt {
        /// The damaged file.
        path: PathBuf,
        /// Byte offset of the damage (0 for whole-file defects).
        offset: u64,
        /// What was wrong.
        message: String,
    },
    /// An injected fault fired at a storage site (crash testing).
    Injected(String),
    /// A previous append failed in a way that could not be rolled back;
    /// the log refuses further writes until reopened (recovery will
    /// stop at the last valid frame).
    Poisoned,
}

impl DurabilityError {
    fn io(op: &'static str, path: &Path, e: &std::io::Error) -> Self {
        DurabilityError::Io {
            op,
            path: path.to_path_buf(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { op, path, message } => {
                write!(
                    f,
                    "durability I/O error: {op} {}: {message}",
                    path.display()
                )
            }
            DurabilityError::Corrupt {
                path,
                offset,
                message,
            } => write!(
                f,
                "durability corruption in {} at offset {offset}: {message}",
                path.display()
            ),
            DurabilityError::Injected(m) => write!(f, "durability fault injected: {m}"),
            DurabilityError::Poisoned => write!(
                f,
                "write-ahead log poisoned by an unrecoverable append failure; reopen to recover"
            ),
        }
    }
}

impl std::error::Error for DurabilityError {}

/// What recovery reconstructed when the store was opened.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// The catalog contents to install.
    pub image: CatalogImage,
    /// LSN of the snapshot recovery started from, if one existed.
    pub snapshot_lsn: Option<u64>,
    /// WAL records replayed on top of the snapshot.
    pub replayed: u64,
    /// The highest LSN seen (0 for a fresh directory).
    pub last_lsn: u64,
    /// Description of the torn tail that was truncated away, if any.
    pub torn_tail: Option<String>,
}

/// Point-in-time counters for `.wal status` and the end-to-end benchmark.
#[derive(Debug, Clone)]
pub struct WalStatus {
    /// The durability directory.
    pub dir: PathBuf,
    /// The fsync discipline.
    pub sync: SyncMode,
    /// Highest LSN assigned so far (0 = nothing logged).
    pub last_lsn: u64,
    /// LSN of the newest checkpoint snapshot, if any.
    pub snapshot_lsn: Option<u64>,
    /// Records appended since the last checkpoint (what replay would
    /// cost right now).
    pub records_since_checkpoint: u64,
    /// Current WAL file length in bytes.
    pub wal_bytes: u64,
    /// Records appended over this store's lifetime.
    pub appends: u64,
    /// `fsync` calls made over this store's lifetime.
    pub syncs: u64,
    /// Checkpoints taken over this store's lifetime.
    pub checkpoints: u64,
    /// Records replayed when this store was opened.
    pub replayed: u64,
    /// Whether the log has refused writes after an unrecoverable
    /// append failure.
    pub poisoned: bool,
}

struct WalInner {
    file: File,
    /// Length of the valid log prefix — the rollback point if an
    /// append half-lands.
    len: u64,
    next_lsn: u64,
    snapshot_lsn: Option<u64>,
    records_since_checkpoint: u64,
    appends: u64,
    syncs: u64,
    checkpoints: u64,
    poisoned: bool,
    /// Names whose in-memory value the log cannot rebuild (see
    /// [`DurableStore::mark_unanchored`]).
    unanchored: HashSet<String>,
}

/// An open durability directory: the WAL writer plus checkpoint and
/// status operations. One `DurableStore` serializes all log writes
/// internally; the engine additionally holds its catalog `dml_guard`
/// across append+publish so checkpoints capture statement boundaries.
pub struct DurableStore {
    dir: PathBuf,
    sync: SyncMode,
    fault: Option<FaultInjector>,
    replayed: u64,
    inner: Mutex<WalInner>,
}

impl fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("sync", &self.sync)
            .finish_non_exhaustive()
    }
}

impl DurableStore {
    /// Opens (or creates) a durability directory, running full recovery:
    /// orphaned temp files are deleted, the newest valid snapshot is
    /// loaded, the WAL tail above its LSN is replayed, and a torn final
    /// record is truncated away so subsequent appends extend a valid
    /// log. Returns the store plus everything recovery reconstructed.
    pub fn open(config: DurabilityConfig) -> Result<(DurableStore, Recovered), DurabilityError> {
        let dir = config.dir;
        std::fs::create_dir_all(&dir).map_err(|e| DurabilityError::io("create-dir", &dir, &e))?;

        // A crash between snapshot write and rename leaves `.tmp`
        // orphans; they are unreferenced by definition.
        for entry in list_dir(&dir)? {
            if entry.to_string_lossy().ends_with(".tmp") {
                let _ = std::fs::remove_file(&entry);
            }
        }

        // Newest valid snapshot wins; older ones only exist if a crash
        // interrupted the post-checkpoint prune.
        let mut snaps = snapshot_files(&dir)?;
        snaps.sort_by_key(|s| std::cmp::Reverse(s.0));
        let mut snapshot: Option<Snapshot> = None;
        let mut first_bad: Option<DurabilityError> = None;
        for (_lsn, path) in &snaps {
            fault_check(config.fault.as_ref(), FaultSite::RecoveryRead)?;
            match read_snapshot(path) {
                Ok(s) => {
                    snapshot = Some(s);
                    break;
                }
                Err(e) => {
                    if first_bad.is_none() {
                        first_bad = Some(e);
                    }
                }
            }
        }
        if snapshot.is_none() {
            if let Some(e) = first_bad {
                // Snapshots are written atomically, so an invalid one is
                // damage, not a crash artifact.
                return Err(e);
            }
        }
        let (mut image, snap_lsn) = match snapshot {
            Some(s) => (s.image, Some(s.lsn)),
            None => (CatalogImage::default(), None),
        };

        // Replay the WAL tail.
        let wal_path = dir.join(WAL_FILE);
        let min_lsn = snap_lsn.unwrap_or(0);
        let mut last_lsn = min_lsn;
        let mut replayed = 0u64;
        let mut torn_tail = None;
        let mut valid_len = 0u64;
        if wal_path.exists() {
            fault_check(config.fault.as_ref(), FaultSite::RecoveryRead)?;
            let data =
                std::fs::read(&wal_path).map_err(|e| DurabilityError::io("read", &wal_path, &e))?;
            let scan = wal::scan(&data, &wal_path, min_lsn)?;
            for (record, start, _) in scan.records {
                last_lsn = record.lsn;
                apply(&mut image, record.op).map_err(|message| DurabilityError::Corrupt {
                    path: wal_path.clone(),
                    offset: start,
                    message,
                })?;
                replayed += 1;
            }
            valid_len = scan.valid_len;
            torn_tail = scan.torn;
        }

        // Truncate the torn tail so appends extend a valid log, then
        // open for appending.
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(|e| DurabilityError::io("open", &wal_path, &e))?;
        if torn_tail.is_some() {
            file.set_len(valid_len)
                .map_err(|e| DurabilityError::io("truncate", &wal_path, &e))?;
        }

        let recovered = Recovered {
            image,
            snapshot_lsn: snap_lsn,
            replayed,
            last_lsn,
            torn_tail,
        };
        let store = DurableStore {
            dir,
            sync: config.sync,
            fault: config.fault,
            replayed,
            inner: Mutex::new(WalInner {
                file,
                len: valid_len,
                next_lsn: last_lsn + 1,
                snapshot_lsn: snap_lsn,
                records_since_checkpoint: replayed,
                appends: 0,
                syncs: 0,
                checkpoints: 0,
                poisoned: false,
                unanchored: HashSet::new(),
            }),
        };
        Ok((store, recovered))
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fsync discipline.
    pub fn sync_mode(&self) -> SyncMode {
        self.sync
    }

    /// Appends a full-value commit record; returns its LSN. Anchors
    /// `name` (see [`DurableStore::mark_unanchored`]).
    pub fn append_commit(&self, name: &str, value: &Value) -> Result<u64, DurabilityError> {
        self.append_physical(name, "commit", &[Body::Value(value)])
    }

    /// Appends a commit that also attaches a schema (one record — a
    /// CREATE TABLE is a single atomic log entry); returns its LSN.
    pub fn append_commit_with_schema(
        &self,
        name: &str,
        value: &Value,
        schema: &SqlppType,
    ) -> Result<u64, DurabilityError> {
        let body = [Body::Value(value), Body::Schema(schema)];
        self.append_physical(name, "commit-schema", &body)
    }

    /// Appends a schema attachment; returns its LSN.
    pub fn append_schema(&self, name: &str, schema: &SqlppType) -> Result<u64, DurabilityError> {
        self.append_op(|lsn| record::encode_parts(lsn, "schema", name, &[Body::Schema(schema)]))
    }

    /// Appends an unbind record; returns its LSN.
    pub fn append_remove(&self, name: &str) -> Result<u64, DurabilityError> {
        self.append_physical(name, "remove", &[])
    }

    /// Appends one DML statement's delta as a `patch` record; returns
    /// its LSN. The record is the size of the change, whatever the size
    /// of the collection. Replay applies it to the value the earlier
    /// records built, so the caller must only patch an anchored name
    /// ([`DurableStore::is_anchored`]). A failed append leaves the name
    /// unanchored: its record may have reached the log (a failed fsync)
    /// without the catalog applying it.
    pub fn append_patch(&self, name: &str, delta: &Delta) -> Result<u64, DurabilityError> {
        let appended =
            self.append_op(|lsn| record::encode_parts(lsn, "patch", name, &[Body::Delta(delta)]));
        if appended.is_err() {
            self.mark_unanchored(name);
        }
        appended
    }

    /// Records that `name` was bound without a log record (the engine's
    /// unlogged `register`), so replay cannot rebuild its current value
    /// and a patch against it would land on a stale base. The next
    /// full-value record of the name, or the next checkpoint, anchors
    /// it again. The mark lives here, in the one store every session
    /// over the log shares.
    pub fn mark_unanchored(&self, name: &str) {
        self.lock().unanchored.insert(name.to_string());
    }

    /// Whether replay rebuilds `name`'s current value, i.e. whether a
    /// `patch` of it may be logged.
    pub fn is_anchored(&self, name: &str) -> bool {
        !self.lock().unanchored.contains(name)
    }

    /// Appends a record that sets `name` outright, which re-anchors it.
    fn append_physical(
        &self,
        name: &str,
        op: &str,
        body: &[Body<'_>],
    ) -> Result<u64, DurabilityError> {
        let lsn = self.append_op(|lsn| record::encode_parts(lsn, op, name, body))?;
        self.lock().unanchored.remove(name);
        Ok(lsn)
    }

    fn append_op(&self, payload: impl FnOnce(u64) -> Vec<u8>) -> Result<u64, DurabilityError> {
        let mut w = self.lock();
        if w.poisoned {
            return Err(DurabilityError::Poisoned);
        }
        // The append site fires *before* any byte is written: an
        // injected fault here models a crash caught pre-write, so the
        // log is unchanged and the statement must not publish.
        self.fault(FaultSite::WalAppend)?;
        let lsn = w.next_lsn;
        let frame = wal::frame(&payload(lsn));
        let wal_path = self.dir.join(WAL_FILE);
        if let Err(e) = w.file.write_all(&frame) {
            // Part of the frame may have landed — exactly a torn tail.
            // Roll the file back to the last valid boundary; if even
            // that fails, poison the log (recovery tolerates the tail).
            if w.file.set_len(w.len).is_err() {
                w.poisoned = true;
            }
            return Err(DurabilityError::io("append", &wal_path, &e));
        }
        if self.sync == SyncMode::Always {
            // A sync failure means durability is *unknown*: the frame
            // is complete in the OS cache and may or may not reach
            // disk. The record keeps its LSN (later appends must not
            // reuse it), the statement fails un-published, and
            // recovery may legitimately resurrect it — the crash
            // harness accepts either side of the interrupted
            // statement.
            let synced = match self.fault(FaultSite::WalFsync) {
                Ok(()) => w
                    .file
                    .sync_data()
                    .map_err(|e| DurabilityError::io("fsync", &wal_path, &e)),
                Err(e) => Err(e),
            };
            w.len += frame.len() as u64;
            w.next_lsn += 1;
            w.records_since_checkpoint += 1;
            w.appends += 1;
            synced?;
            w.syncs += 1;
        } else {
            w.len += frame.len() as u64;
            w.next_lsn += 1;
            w.records_since_checkpoint += 1;
            w.appends += 1;
        }
        Ok(lsn)
    }

    /// Takes a checkpoint: writes `image` (plus the current last LSN) to
    /// a temp file, fsyncs, atomically renames it to
    /// `snap-<lsn>.snap`, truncates the WAL, and prunes older
    /// snapshots. The caller must pass an image consistent with every
    /// LSN appended so far — the engine does this by holding its
    /// catalog `dml_guard` across the capture and this call.
    pub fn checkpoint(&self, image: &CatalogImage) -> Result<u64, DurabilityError> {
        self.checkpoint_view(&image.view())
    }

    /// [`DurableStore::checkpoint`] from a borrowed image: the values
    /// are encoded where they live. A successful checkpoint anchors
    /// every name — the snapshot holds what the log could not rebuild.
    pub fn checkpoint_view(&self, image: &ImageView<'_>) -> Result<u64, DurabilityError> {
        let mut w = self.lock();
        if w.poisoned {
            return Err(DurabilityError::Poisoned);
        }
        let lsn = w.next_lsn - 1;
        let final_path = self.dir.join(format!("snap-{lsn:020}.snap"));
        let tmp_path = self.dir.join(format!("snap-{lsn:020}.snap.tmp"));
        let written = self
            .fault(FaultSite::SnapshotWrite)
            .and_then(|()| write_image(&tmp_path, lsn, image, self.sync != SyncMode::Never));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(e);
        }
        let renamed = self.fault(FaultSite::SnapshotRename).and_then(|()| {
            std::fs::rename(&tmp_path, &final_path)
                .map_err(|e| DurabilityError::io("rename", &final_path, &e))
        });
        if let Err(e) = renamed {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(e);
        }
        if self.sync != SyncMode::Never {
            // Make the rename itself durable.
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
            w.syncs += 1;
        }
        // The snapshot now covers every logged record: truncate the log.
        // A crash before this truncate is safe — replay skips records
        // at or below the snapshot LSN.
        let wal_path = self.dir.join(WAL_FILE);
        w.file
            .set_len(0)
            .map_err(|e| DurabilityError::io("truncate", &wal_path, &e))?;
        w.len = 0;
        w.records_since_checkpoint = 0;
        w.snapshot_lsn = Some(lsn);
        w.checkpoints += 1;
        w.unanchored.clear();
        // Prune superseded snapshots (best-effort; recovery prefers the
        // newest valid one regardless).
        for (old_lsn, path) in snapshot_files(&self.dir)? {
            if old_lsn < lsn {
                let _ = std::fs::remove_file(path);
            }
        }
        Ok(lsn)
    }

    /// Current counters.
    pub fn status(&self) -> WalStatus {
        let w = self.lock();
        WalStatus {
            dir: self.dir.clone(),
            sync: self.sync,
            last_lsn: w.next_lsn - 1,
            snapshot_lsn: w.snapshot_lsn,
            records_since_checkpoint: w.records_since_checkpoint,
            wal_bytes: w.len,
            appends: w.appends,
            syncs: w.syncs,
            checkpoints: w.checkpoints,
            replayed: self.replayed,
            poisoned: w.poisoned,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fault(&self, site: FaultSite) -> Result<(), DurabilityError> {
        fault_check(self.fault.as_ref(), site)
    }
}

fn fault_check(fault: Option<&FaultInjector>, site: FaultSite) -> Result<(), DurabilityError> {
    if let Some(inj) = fault {
        if let Some(e) = inj.check(site) {
            return Err(DurabilityError::Injected(e.to_string()));
        }
    }
    Ok(())
}

/// Applies one replayed record to a catalog image. Only a patch can
/// fail — one that does not fit the value the earlier records built.
fn apply(image: &mut CatalogImage, op: WalOp) -> Result<(), String> {
    match op {
        WalOp::Commit { name, value } => {
            set_entry(&mut image.values, &name, value);
        }
        WalOp::CommitWithSchema {
            name,
            value,
            schema,
        } => {
            set_entry(&mut image.values, &name, value);
            set_entry(&mut image.schemas, &name, schema);
            image.schema_epoch += 1;
        }
        WalOp::SetSchema { name, schema } => {
            set_entry(&mut image.schemas, &name, schema);
            image.schema_epoch += 1;
        }
        WalOp::Remove { name } => {
            image.values.retain(|(n, _)| *n != name);
            let had_schema = image.schemas.iter().any(|(n, _)| *n == name);
            image.schemas.retain(|(n, _)| *n != name);
            if had_schema {
                image.schema_epoch += 1;
            }
        }
        WalOp::Patch { name, delta } => {
            match image.values.iter_mut().find(|(n, _)| *n == name) {
                Some((_, value)) => delta.apply_to(value),
                None => delta.create().map(|value| image.values.push((name, value))),
            }
            .map_err(|e| format!("patch does not fit its base: {e}"))?;
        }
    }
    Ok(())
}

fn set_entry<T>(entries: &mut Vec<(String, T)>, name: &str, value: T) {
    match entries.iter_mut().find(|(n, _)| n == name) {
        Some((_, slot)) => *slot = value,
        None => entries.push((name.to_string(), value)),
    }
}

fn list_dir(dir: &Path) -> Result<Vec<PathBuf>, DurabilityError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| DurabilityError::io("read-dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| DurabilityError::io("read-dir", dir, &e))?;
        out.push(entry.path());
    }
    Ok(out)
}

/// `(lsn, path)` of every `snap-*.snap` file in the directory.
fn snapshot_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    let mut out = Vec::new();
    for path in list_dir(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(lsn) = name
            .strip_prefix("snap-")
            .and_then(|rest| rest.strip_suffix(".snap"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            out.push((lsn, path));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_value::bag;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sqlpp-durability-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn log_then_reopen_restores_everything() {
        let dir = tmp_dir("roundtrip");
        {
            let (store, rec) = DurableStore::open(DurabilityConfig::new(&dir)).unwrap();
            assert_eq!(rec.last_lsn, 0);
            assert!(rec.image.values.is_empty());
            assert_eq!(store.append_commit("t", &bag![1i64]).unwrap(), 1);
            assert_eq!(store.append_commit("t", &bag![1i64, 2i64]).unwrap(), 2);
            assert_eq!(
                store
                    .append_schema("t", &SqlppType::Bag(Box::new(SqlppType::Int)))
                    .unwrap(),
                3
            );
        }
        let (store, rec) = DurableStore::open(DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(rec.replayed, 3);
        assert_eq!(rec.last_lsn, 3);
        assert_eq!(rec.image.values, vec![("t".to_string(), bag![1i64, 2i64])]);
        assert_eq!(rec.image.schemas.len(), 1);
        assert_eq!(rec.image.schema_epoch, 1);
        // LSNs keep counting from where they stopped.
        assert_eq!(store.append_commit("u", &bag![]).unwrap(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_and_recovery_prefers_it() {
        let dir = tmp_dir("checkpoint");
        let (store, _) = DurableStore::open(DurabilityConfig::new(&dir)).unwrap();
        store.append_commit("t", &bag![1i64]).unwrap();
        store.append_commit("t", &bag![1i64, 2i64]).unwrap();
        let image = CatalogImage {
            values: vec![("t".into(), bag![1i64, 2i64])],
            schemas: vec![],
            schema_epoch: 0,
        };
        assert_eq!(store.checkpoint(&image).unwrap(), 2);
        let st = store.status();
        assert_eq!(st.snapshot_lsn, Some(2));
        assert_eq!(st.wal_bytes, 0);
        // Post-checkpoint commits land in the (now empty) log.
        store.append_commit("t", &bag![1i64, 2i64, 3i64]).unwrap();
        drop(store);
        let (_store, rec) = DurableStore::open(DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(rec.snapshot_lsn, Some(2));
        assert_eq!(rec.replayed, 1);
        assert_eq!(
            rec.image.values,
            vec![("t".to_string(), bag![1i64, 2i64, 3i64])]
        );
        // Exactly one snapshot file and the wal remain.
        let names: Vec<String> = list_dir(&dir)
            .unwrap()
            .iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        {
            let (store, _) = DurableStore::open(DurabilityConfig::new(&dir)).unwrap();
            store.append_commit("a", &bag![1i64]).unwrap();
            store.append_commit("b", &bag![2i64]).unwrap();
        }
        let wal = dir.join(WAL_FILE);
        let full = std::fs::read(&wal).unwrap();
        let ends = wal_record_ends(&wal).unwrap();
        // Chop mid-way through the second record.
        let cut = (ends[0] + ends[1]) / 2;
        std::fs::write(&wal, &full[..cut as usize]).unwrap();
        let (store, rec) = DurableStore::open(DurabilityConfig::new(&dir)).unwrap();
        assert!(rec.torn_tail.is_some());
        assert_eq!(rec.replayed, 1);
        assert_eq!(rec.image.values, vec![("a".to_string(), bag![1i64])]);
        // The torn bytes are gone; a new append produces a clean log.
        store.append_commit("c", &bag![3i64]).unwrap();
        drop(store);
        let (_s, rec2) = DurableStore::open(DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(rec2.replayed, 2);
        assert!(rec2.torn_tail.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_a_structured_error() {
        let dir = tmp_dir("corrupt");
        {
            let (store, _) = DurableStore::open(DurabilityConfig::new(&dir)).unwrap();
            store.append_commit("a", &bag![1i64]).unwrap();
            store.append_commit("b", &bag![2i64]).unwrap();
        }
        let wal = dir.join(WAL_FILE);
        let mut data = std::fs::read(&wal).unwrap();
        let ends = wal_record_ends(&wal).unwrap();
        data[(ends[0] - 2) as usize] ^= 0x10; // flip inside record 1
        std::fs::write(&wal, &data).unwrap();
        match DurableStore::open(DurabilityConfig::new(&dir)) {
            Err(DurabilityError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected corruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `ops` as a raw log (LSNs 1..), opens it, and returns the
    /// outcome plus the byte offset of the last record's frame.
    fn replay_crafted(tag: &str, ops: Vec<WalOp>) -> (Result<Recovered, DurabilityError>, u64) {
        let dir = tmp_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let mut log = Vec::new();
        let mut last = 0;
        for (i, op) in ops.into_iter().enumerate() {
            last = log.len() as u64;
            let record = WalRecord {
                lsn: i as u64 + 1,
                op,
            };
            log.extend(wal::frame(&record::encode_record(&record)));
        }
        std::fs::write(dir.join(WAL_FILE), &log).unwrap();
        let opened = std::panic::catch_unwind(|| DurableStore::open(DurabilityConfig::new(&dir)))
            .expect("replay must not panic");
        let _ = std::fs::remove_dir_all(&dir);
        (opened.map(|(_, recovered)| recovered), last)
    }

    fn commit(name: &str, value: Value) -> WalOp {
        WalOp::Commit {
            name: name.into(),
            value,
        }
    }

    fn patch(name: &str, delta: Delta) -> WalOp {
        WalOp::Patch {
            name: name.into(),
            delta,
        }
    }

    #[test]
    fn patches_replay_through_the_one_apply() {
        let ops = vec![
            commit("t", bag![0i64, 1i64, 2i64, 3i64]),
            patch("t", Delta::Delete(vec![0, 2])),
            patch("t", Delta::Update(vec![(1, Value::Int(9))])),
            patch("t", Delta::Insert(vec![Value::Int(4)])),
            patch("u", Delta::Insert(vec![Value::Null])),
        ];
        let (recovered, _) = replay_crafted("patch-ok", ops);
        let recovered = recovered.unwrap();
        assert_eq!(recovered.replayed, 5);
        assert_eq!(
            recovered.image.values,
            vec![
                ("t".to_string(), bag![1i64, 9i64, 4i64]),
                ("u".to_string(), bag![Value::Null]),
            ]
        );
    }

    #[test]
    fn malformed_patches_are_corruption_at_their_record() {
        let base = || commit("t", bag![0i64, 1i64, 2i64]);
        let row = || Value::Int(7);
        let cases: Vec<(&str, Vec<WalOp>)> = vec![
            (
                "delete-past-end",
                vec![base(), patch("t", Delta::Delete(vec![3]))],
            ),
            (
                "update-past-end",
                vec![base(), patch("t", Delta::Update(vec![(5, row())]))],
            ),
            (
                "delete-descending",
                vec![base(), patch("t", Delta::Delete(vec![2, 1]))],
            ),
            (
                "delete-duplicate",
                vec![base(), patch("t", Delta::Delete(vec![1, 1]))],
            ),
            (
                "update-duplicate",
                vec![
                    base(),
                    patch("t", Delta::Update(vec![(0, row()), (0, row())])),
                ],
            ),
            (
                "delete-unbound",
                vec![base(), patch("x", Delta::Delete(vec![0]))],
            ),
            (
                "update-unbound",
                vec![base(), patch("x", Delta::Update(vec![(0, row())]))],
            ),
            (
                "scalar-target",
                vec![
                    commit("t", Value::Int(1)),
                    patch("t", Delta::Insert(vec![])),
                ],
            ),
        ];
        for (tag, ops) in cases {
            match replay_crafted(tag, ops) {
                (Err(DurabilityError::Corrupt { offset, .. }), last) => {
                    assert_eq!(offset, last, "{tag}: corruption pinned to the patch");
                }
                (other, _) => panic!("{tag}: expected corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn undecodable_patches_are_corruption_at_their_record() {
        let payload = |field: &str, v: Value| {
            let mut t = sqlpp_value::Tuple::new();
            t.insert("lsn", Value::Int(2));
            t.insert("op", Value::Str("patch".into()));
            t.insert("name", Value::Str("t".into()));
            t.insert(field, v);
            sqlpp_formats::ion_lite::to_ion_lite(&Value::Tuple(t))
        };
        let first = wal::frame(&record::encode_record(&WalRecord {
            lsn: 1,
            op: commit("t", bag![0i64]),
        }));
        for (tag, bad) in [
            (
                "negative",
                payload("delete", Value::Array(vec![Value::Int(-1)])),
            ),
            ("unknown-kind", payload("upsert", Value::Array(vec![]))),
        ] {
            let dir = tmp_dir(tag);
            std::fs::create_dir_all(&dir).unwrap();
            let mut log = first.clone();
            log.extend(wal::frame(&bad));
            std::fs::write(dir.join(WAL_FILE), &log).unwrap();
            let opened =
                std::panic::catch_unwind(|| DurableStore::open(DurabilityConfig::new(&dir)))
                    .expect("replay must not panic");
            match opened {
                Err(DurabilityError::Corrupt { offset, .. }) => {
                    assert_eq!(offset, first.len() as u64, "{tag}")
                }
                other => panic!("{tag}: expected corruption, got {other:?}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn register_marks_anchor_again_on_commit_or_checkpoint() {
        let dir = tmp_dir("anchor");
        let (store, _) = DurableStore::open(DurabilityConfig::new(&dir)).unwrap();
        assert!(store.is_anchored("t"));
        store.mark_unanchored("t");
        store.mark_unanchored("u");
        assert!(!store.is_anchored("t"));
        store.append_commit("t", &bag![1i64]).unwrap();
        assert!(store.is_anchored("t"));
        assert!(!store.is_anchored("u"));
        store.checkpoint(&CatalogImage::default()).unwrap();
        assert!(store.is_anchored("u"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_surface_and_do_not_advance_the_log() {
        let dir = tmp_dir("inject");
        let plan = std::sync::atomic::AtomicBool::new(true);
        let inj = FaultInjector::new(move |site| {
            (site == FaultSite::WalAppend && plan.swap(false, std::sync::atomic::Ordering::Relaxed))
                .then(|| sqlpp_eval::EvalError::Resource("injected fault at wal-append".into()))
        });
        let (store, _) = DurableStore::open(DurabilityConfig::new(&dir).with_fault(inj)).unwrap();
        assert!(matches!(
            store.append_commit("t", &bag![1i64]),
            Err(DurabilityError::Injected(_))
        ));
        // The failed append left no bytes; the next one gets LSN 1.
        assert_eq!(store.append_commit("t", &bag![1i64]).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
