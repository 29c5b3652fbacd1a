//! The crash-safe log-structured store backend.
//!
//! Durable state lives in one directory:
//!
//! - One WAL segment file (`wal-00-<first_seq>.log`, see [`crate::segment`])
//!   holds every sealed, checksummed mutation record ([`crate::wal`])
//!   appended since the last checkpoint. Each open and each checkpoint
//!   start a fresh file, and a file is never rotated.
//! - `checkpoint.snap` holds a sealed full-store image (the
//!   [`crate::persist`] payload, wrapped with the sequence number it
//!   covers). A checkpoint bounds replay length: records at or below its
//!   sequence are collapsed into it, and every segment file is deleted.
//!   Checkpoints are the only way WAL space is reclaimed.
//!
//! Recovery on open: sweep leftover `*.tmp` files, load the checkpoint
//! (quarantining a corrupt one to `*.corrupt`), scan every segment with
//! the torn-tail rule (truncating the first corrupt/short record and
//! everything after it), and replay the records above the checkpoint
//! sequence in sequence order. The files scanned stay on disk, never
//! appended again, until the next checkpoint deletes them.
//!
//! Replay also reads directories written by earlier versions of this
//! backend, which routed records over several shard logs (`wal-01-…` and
//! up), rotated segments, and compacted: compaction copied live frames
//! verbatim into another file, so a crash could leave one PUT in two files
//! under the same sequence number. Records from every file merge into one
//! order by their global sequence numbers, and a PUT whose sequence equals
//! the live entry's is skipped as a duplicate. Earlier versions also logged
//! a `Ref` record for every duplicate PUT; `Ref` and `Unref` records still
//! decode, and replay as no-ops.
//!
//! Any failed append or fsync degrades the backend to **read-only**: the
//! store keeps serving GETs but rejects further mutations rather than
//! acknowledging writes it cannot make durable (the disk-full contract).
//! The WAL file is cut back to its last synced length first, so no record
//! of a rejected request replays. Read-write operation resumes on restart
//! once the underlying condition clears.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use speed_enclave::sealing::{SealPolicy, SealedData, Sealer};
use speed_enclave::{Enclave, Platform};
use speed_telemetry::{names, Counter, Gauge, Histogram};
use speed_wire::{CompTag, SyncEntry};

use crate::backend::{BackendStats, Recovery, RecoveryReport, StoreBackend};
use crate::persist::SnapshotLoad;
use crate::segment::{
    corrupt_sibling, list_segments, segment_file_name, sweep_tmp_files, tmp_sibling,
    CHECKPOINT_FILE,
};
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{encode_record, scan_segment, WalOp, WalRecord};
use crate::StoreError;

/// Magic prefix of the checkpoint file, ahead of the sealed payload.
const CKPT_MAGIC: &[u8; 8] = b"SPDCKPT1";

/// Sealing AAD for checkpoints. Distinct from the WAL-record AAD so sealed
/// blobs can never cross roles.
const CHECKPOINT_AAD: &[u8] = b"speed-store-checkpoint-v1";

/// Tuning for the [`LogBackend`].
#[derive(Clone, Debug)]
pub struct LogConfig {
    /// Directory holding segments and the checkpoint. Created on open.
    pub dir: PathBuf,
    /// Records between automatic checkpoints (replay-length bound);
    /// 0 disables automatic checkpointing, and the WAL file then grows
    /// until an explicit [`ResultStore::checkpoint`](crate::ResultStore::checkpoint).
    pub checkpoint_every: u64,
    /// Fsync appended records before acknowledging a request. Disable only
    /// for benchmarking — a power cut may then lose acknowledged writes.
    pub fsync: bool,
}

impl LogConfig {
    /// Defaults rooted at `dir`: a checkpoint every 4096 records, fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        LogConfig { dir: dir.into(), checkpoint_every: 4096, fsync: true }
    }
}

/// Bookkeeping for one segment file.
#[derive(Debug, Default)]
struct Segment {
    path: PathBuf,
    len: u64,
    /// Prefix known durable (covered by a successful fsync). On a failed
    /// flush the file is truncated back to this point so records the
    /// caller reports as failed can never resurface on replay.
    synced_len: u64,
    dirty: bool,
    synced_dir: bool,
}

#[derive(Debug, Default)]
struct Inner {
    /// The store enclave's sealing key, derived once per open: every WAL
    /// record and checkpoint is sealed and opened with it, under the lock.
    sealer: Option<Sealer>,
    /// Next sequence number to assign (1-based; 0 = nothing ever logged).
    next_seq: u64,
    records_since_checkpoint: u64,
    /// The file every append goes to: a fresh `wal-00-<next_seq>.log`
    /// after each open and checkpoint, created by its first append.
    active: Segment,
    /// The segments recovery scanned; the next checkpoint deletes them.
    older: Vec<Segment>,
    read_only: Option<String>,
}

impl Inner {
    fn sealer(&mut self) -> Result<&mut Sealer, StoreError> {
        self.sealer
            .as_mut()
            .ok_or_else(|| StoreError::Protocol("log backend not opened".into()))
    }

    fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.older.iter().chain(std::iter::once(&self.active))
    }
}

#[derive(Debug)]
struct LogTelemetry {
    appends: Counter,
    appended_bytes: Counter,
    replayed: Counter,
    torn: Counter,
    checkpoints: Counter,
    reclaimed: Counter,
    quarantined: Counter,
    recovery: Histogram,
    read_only: Gauge,
}

impl LogTelemetry {
    fn from_global() -> Self {
        let registry = speed_telemetry::global();
        LogTelemetry {
            appends: registry
                .counter(names::STORE_WAL_APPENDS_TOTAL, "WAL records appended"),
            appended_bytes: registry.counter(
                names::STORE_WAL_APPENDED_BYTES_TOTAL,
                "framed WAL bytes appended",
            ),
            replayed: registry.counter(
                names::STORE_WAL_REPLAY_RECORDS_TOTAL,
                "WAL records replayed during recovery",
            ),
            torn: registry.counter(
                names::STORE_WAL_TORN_SEGMENTS_TOTAL,
                "segment files with a truncated torn tail",
            ),
            checkpoints: registry
                .counter(names::STORE_CHECKPOINTS_TOTAL, "checkpoints written"),
            reclaimed: registry.counter(
                names::STORE_COMPACTION_RECLAIMED_BYTES_TOTAL,
                "dead log bytes reclaimed by checkpoints",
            ),
            quarantined: registry.counter(
                names::STORE_SNAPSHOT_QUARANTINED_TOTAL,
                "corrupt checkpoints quarantined to *.corrupt",
            ),
            recovery: registry.histogram(
                names::STORE_RECOVERY_DURATION_NS,
                "backend open/recovery pass duration",
            ),
            read_only: registry.gauge(
                names::STORE_READ_ONLY,
                "1 while the store is degraded to read-only",
            ),
        }
    }
}

/// The crash-safe log-structured [`StoreBackend`]. See the module docs for
/// the on-disk layout and recovery rules.
#[derive(Debug)]
pub struct LogBackend {
    vfs: Arc<dyn Vfs>,
    config: LogConfig,
    telemetry: LogTelemetry,
    inner: Mutex<Inner>,
}

enum CkptLoad {
    Missing,
    Loaded(u64, Vec<SyncEntry>),
    Bad(String),
}

impl LogBackend {
    /// Creates the backend on the production filesystem.
    pub fn new(config: LogConfig) -> Self {
        Self::with_vfs(Arc::new(StdVfs), config)
    }

    /// Creates the backend on an injected [`Vfs`] (fault testing).
    pub fn with_vfs(vfs: Arc<dyn Vfs>, config: LogConfig) -> Self {
        LogBackend {
            vfs,
            config,
            telemetry: LogTelemetry::from_global(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn checkpoint_path(&self) -> PathBuf {
        self.config.dir.join(CHECKPOINT_FILE)
    }

    /// The not-yet-created segment whose first record is `next_seq`.
    fn fresh_segment(&self, next_seq: u64) -> Segment {
        Segment {
            path: self.config.dir.join(segment_file_name(0, next_seq)),
            ..Segment::default()
        }
    }

    /// Degrades to read-only after a failed append or fsync. The active
    /// file is first cut back to its synced prefix: every record past it
    /// belongs to a request that is about to be rejected, and none may
    /// resurface as a phantom entry on replay.
    fn degrade(&self, inner: &mut Inner, reason: String) -> StoreError {
        let keep = inner.active.synced_len;
        inner.active.dirty = false;
        if self.vfs.truncate(&inner.active.path, keep).is_ok() {
            let _ = self.vfs.fsync(&inner.active.path);
            inner.active.len = keep;
        }
        if inner.read_only.is_none() {
            inner.read_only = Some(reason.clone());
            self.telemetry.read_only.set(1);
        }
        StoreError::Io(reason)
    }

    fn load_checkpoint(&self, sealer: &Sealer, path: &Path) -> CkptLoad {
        let bytes = match self.vfs.read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return CkptLoad::Missing
            }
            Err(e) => return CkptLoad::Bad(format!("unreadable checkpoint: {e}")),
        };
        if bytes.len() < CKPT_MAGIC.len() + 12 || &bytes[..8] != CKPT_MAGIC {
            return CkptLoad::Bad("checkpoint header short or wrong magic".into());
        }
        let seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
        let sealed_bytes = &bytes[20..];
        if crate::wal::crc32(sealed_bytes) != crc {
            return CkptLoad::Bad("checkpoint checksum mismatch (torn write?)".into());
        }
        let sealed = match SealedData::from_bytes(sealed_bytes) {
            Ok(sealed) => sealed,
            Err(e) => return CkptLoad::Bad(format!("checkpoint container: {e}")),
        };
        let payload = match sealer.unseal(CHECKPOINT_AAD, &sealed) {
            Ok(payload) => payload,
            Err(e) => return CkptLoad::Bad(format!("checkpoint unseal: {e}")),
        };
        match crate::persist::decode_payload(&payload) {
            Ok(entries) => CkptLoad::Loaded(seq, entries),
            Err(e) => CkptLoad::Bad(format!("checkpoint payload: {e}")),
        }
    }

    /// Appends one sequenced record to the active segment.
    fn append_op(&self, op: WalOp) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if let Some(reason) = &inner.read_only {
            return Err(StoreError::Io(format!("store is read-only: {reason}")));
        }
        let seq = inner.next_seq.max(1);
        let frame = encode_record(inner.sealer()?, &WalRecord { seq, op })?;
        if let Err(e) = self.vfs.append(&inner.active.path, &frame) {
            return Err(self.degrade(&mut inner, format!("WAL append failed: {e}")));
        }
        if !inner.active.synced_dir {
            // First bytes of a fresh segment: the file's directory entry
            // must survive power loss too.
            if let Err(e) = self.vfs.fsync_dir(&self.config.dir) {
                return Err(
                    self.degrade(&mut inner, format!("WAL directory fsync failed: {e}"))
                );
            }
            inner.active.synced_dir = true;
        }
        let frame_len = frame.len() as u64;
        inner.active.len += frame_len;
        inner.active.dirty = true;
        inner.next_seq = seq + 1;
        inner.records_since_checkpoint += 1;
        self.telemetry.appends.inc();
        self.telemetry.appended_bytes.add(frame_len);
        Ok(())
    }
}

impl StoreBackend for LogBackend {
    fn name(&self) -> &'static str {
        "log"
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn open(
        &self,
        platform: &Arc<Platform>,
        enclave: &Arc<Enclave>,
    ) -> Result<Recovery, StoreError> {
        let start = Instant::now();
        let dir = self.config.dir.clone();
        self.vfs.create_dir_all(&dir)?;
        let swept = sweep_tmp_files(self.vfs.as_ref(), &dir);
        let sealer = Sealer::new(platform, enclave, &SealPolicy::MrEnclave);

        let mut report = RecoveryReport {
            backend: "log",
            swept_tmp_files: swept,
            ..RecoveryReport::default()
        };

        // Phase 1: checkpoint.
        let cp_path = self.checkpoint_path();
        let mut checkpoint_seq = 0u64;
        let mut checkpoint_entries: Vec<SyncEntry> = Vec::new();
        match self.load_checkpoint(&sealer, &cp_path) {
            CkptLoad::Missing => report.checkpoint = SnapshotLoad::FreshMissing,
            CkptLoad::Loaded(seq, entries) => {
                checkpoint_seq = seq;
                checkpoint_entries = entries;
                report.checkpoint = SnapshotLoad::Restored;
            }
            CkptLoad::Bad(reason) => {
                // Quarantine the evidence instead of silently discarding it.
                if self.vfs.rename(&cp_path, &corrupt_sibling(&cp_path)).is_ok() {
                    let _ = self.vfs.fsync_dir(&dir);
                    report.quarantined_checkpoint = true;
                }
                self.telemetry.quarantined.inc();
                report.checkpoint = SnapshotLoad::FreshUnreadable(reason);
            }
        }
        report.checkpoint_entries = checkpoint_entries.len();

        // Phase 2: scan segments, cutting torn tails.
        let files = list_segments(self.vfs.as_ref(), &dir)?;
        report.wal_segments = files.len();
        let mut all: Vec<WalRecord> = Vec::new();
        let mut older = Vec::with_capacity(files.len());
        let mut max_seq_seen = checkpoint_seq;
        for file in files {
            let bytes = match self.vfs.read(&file.path) {
                Ok(bytes) => bytes,
                Err(_) => {
                    // An unreadable segment is a torn artifact: skip it but
                    // keep recovering — sealed records elsewhere still pass
                    // integrity checks on their own.
                    report.torn_segments += 1;
                    self.telemetry.torn.inc();
                    continue;
                }
            };
            let scan = scan_segment(&sealer, &bytes);
            if scan.torn {
                // Cut the tail: no append may land after garbage bytes,
                // and the fresh active segment may take this file's name when
                // none of its records survived.
                let _ = self.vfs.truncate(&file.path, scan.valid_len);
                report.torn_segments += 1;
                self.telemetry.torn.inc();
            }
            for record in scan.records {
                max_seq_seen = max_seq_seen.max(record.seq);
                all.push(record);
            }
            older.push(Segment {
                path: file.path,
                len: scan.valid_len,
                ..Segment::default()
            });
        }
        // Merge the files into one global mutation order. The sort is
        // stable, so a compaction duplicate (equal seqs) keeps its file
        // order and the dedup rule below sees the original first.
        all.sort_by_key(|record| record.seq);

        // Phase 3: replay above the checkpoint onto the live map.
        struct Live {
            entry: SyncEntry,
            /// Sequence number of the PUT that made it live; 0 for an
            /// entry restored from the checkpoint.
            put_seq: u64,
            /// Position in the checkpoint (0 for WAL entries).
            position: usize,
        }
        let mut live: HashMap<CompTag, Live> = HashMap::new();
        for (position, entry) in checkpoint_entries.into_iter().enumerate() {
            live.insert(entry.tag, Live { entry, put_seq: 0, position });
        }
        for record in all {
            if record.seq <= checkpoint_seq {
                continue; // collapsed into the checkpoint
            }
            report.wal_records_replayed += 1;
            match record.op {
                WalOp::Put(entry) => {
                    let duplicate =
                        live.get(&entry.tag).is_some_and(|l| l.put_seq == record.seq);
                    if !duplicate {
                        live.insert(
                            entry.tag,
                            Live { entry, put_seq: record.seq, position: 0 },
                        );
                    }
                }
                // Written by earlier versions; no reader ever used the
                // reference counts they kept.
                WalOp::Ref(_) | WalOp::Unref(_) => {}
                WalOp::Delete(tag) => {
                    live.remove(&tag);
                }
            }
        }
        self.telemetry.replayed.add(report.wal_records_replayed);
        // Checkpoint entries first, in checkpoint order, then WAL entries
        // in sequence order.
        let mut live: Vec<Live> = live.into_values().collect();
        live.sort_by_key(|l| (l.put_seq, l.position));
        let entries = live.into_iter().map(|l| l.entry).collect();

        let next_seq = max_seq_seen + 1;
        let mut inner = self.lock();
        *inner = Inner {
            sealer: Some(sealer),
            next_seq,
            records_since_checkpoint: max_seq_seen - checkpoint_seq,
            active: self.fresh_segment(next_seq),
            older,
            read_only: None,
        };
        drop(inner);
        self.telemetry.read_only.set(0);

        report.duration_ns =
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.telemetry.recovery.observe(report.duration_ns);
        Ok(Recovery { entries, report })
    }

    fn record_put(&self, entry: &SyncEntry) -> Result<(), StoreError> {
        self.append_op(WalOp::Put(entry.clone()))
    }

    fn record_delete(&self, tag: &CompTag) -> Result<(), StoreError> {
        self.append_op(WalOp::Delete(*tag))
    }

    fn flush(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if let Some(reason) = &inner.read_only {
            return Err(StoreError::Io(format!("store is read-only: {reason}")));
        }
        if !inner.active.dirty {
            return Ok(());
        }
        if self.config.fsync {
            if let Err(e) = self.vfs.fsync(&inner.active.path) {
                // The caller will reject the writes covered by this flush.
                return Err(self.degrade(&mut inner, format!("WAL fsync failed: {e}")));
            }
        }
        inner.active.dirty = false;
        inner.active.synced_len = inner.active.len;
        Ok(())
    }

    fn checkpoint(
        &self,
        export: &dyn Fn() -> Vec<Vec<SyncEntry>>,
    ) -> Result<(), StoreError> {
        let mut inner = self.lock();
        // Refuse before open, without exporting.
        inner.sealer()?;
        // Export under the lock, before reading the mark: a mutation the
        // export misses cannot have appended its record yet, so the record
        // lands above `seq_mark`, in the segment this checkpoint starts.
        let payload = crate::persist::encode_shard_sections(&export())?;
        let seq_mark = inner.next_seq.saturating_sub(1);
        let sealed = inner.sealer()?.seal(CHECKPOINT_AAD, &payload).to_bytes();
        let mut bytes = Vec::with_capacity(20 + sealed.len());
        bytes.extend_from_slice(CKPT_MAGIC);
        bytes.extend_from_slice(&seq_mark.to_le_bytes());
        bytes.extend_from_slice(&crate::wal::crc32(&sealed).to_le_bytes());
        bytes.extend_from_slice(&sealed);

        let cp = self.checkpoint_path();
        let tmp = tmp_sibling(&cp);
        let written = self
            .vfs
            .write(&tmp, &bytes)
            .and_then(|()| self.vfs.fsync(&tmp))
            .and_then(|()| self.vfs.rename(&tmp, &cp))
            .and_then(|()| self.vfs.fsync_dir(&self.config.dir));
        if let Err(e) = written {
            // A failed checkpoint is not a durability loss: the WAL still
            // holds everything. Clean up and keep running.
            let _ = self.vfs.remove_file(&tmp);
            return Err(StoreError::Io(format!("checkpoint write failed: {e}")));
        }

        // The checkpoint now covers every record on disk (the lock was held
        // throughout): delete every segment and start a fresh active file.
        inner.records_since_checkpoint = 0;
        let fresh = self.fresh_segment(inner.next_seq);
        let active = std::mem::replace(&mut inner.active, fresh);
        for segment in std::mem::take(&mut inner.older).into_iter().chain([active]) {
            // A segment whose removal failed stays on disk harmlessly: its
            // records are all at or below the checkpoint sequence and are
            // skipped on replay. An active file never appended to does not
            // exist, and its failed removal reclaims nothing.
            if self.vfs.remove_file(&segment.path).is_ok() {
                self.telemetry.reclaimed.add(segment.len);
            }
        }
        let _ = self.vfs.fsync_dir(&self.config.dir);
        self.telemetry.checkpoints.inc();
        Ok(())
    }

    fn wants_checkpoint(&self) -> bool {
        if self.config.checkpoint_every == 0 {
            return false;
        }
        let inner = self.lock();
        inner.read_only.is_none()
            && inner.records_since_checkpoint >= self.config.checkpoint_every
    }

    fn read_only(&self) -> Option<String> {
        self.lock().read_only.clone()
    }

    fn stats(&self) -> BackendStats {
        let inner = self.lock();
        BackendStats {
            appended_records: self.telemetry.appends.get(),
            appended_bytes: self.telemetry.appended_bytes.get(),
            segment_files: inner.segments().filter(|s| s.len > 0).count(),
            wal_bytes: inner.segments().map(|s| s.len).sum(),
            reclaimed_bytes: self.telemetry.reclaimed.get(),
            records_since_checkpoint: inner.records_since_checkpoint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::TestVfs;
    use speed_enclave::CostModel;
    use speed_wire::Record;
    use std::sync::atomic::Ordering;

    fn context() -> (Arc<Platform>, Arc<Enclave>) {
        // Seeded: reopening after a "restart" must model the same machine,
        // or the sealed WAL records would be undecryptable by design.
        let platform = Platform::with_seed(CostModel::no_sgx(), Some(0x5eed));
        let enclave = platform.create_enclave(b"log-test-enclave").unwrap();
        (platform, enclave)
    }

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("speed-store-log-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry(fill: u8) -> SyncEntry {
        SyncEntry {
            tag: CompTag::from_bytes([fill; 32]),
            record: Record {
                challenge: vec![fill; 32],
                wrapped_key: [fill; 16],
                nonce: [fill; 12],
                boxed_result: vec![fill; 24],
            },
        }
    }

    fn open_on(_dir: &Path, config: LogConfig) -> (LogBackend, Recovery) {
        let (platform, enclave) = context();
        let backend = LogBackend::new(config);
        let recovery = backend.open(&platform, &enclave).unwrap();
        (backend, recovery)
    }

    #[test]
    fn fresh_open_then_reopen_replays_mutations() {
        let dir = scratch("roundtrip");
        let (backend, recovery) = open_on(&dir, LogConfig::new(&dir));
        assert_eq!(recovery.entries.len(), 0);
        assert_eq!(recovery.report.checkpoint, SnapshotLoad::FreshMissing);

        backend.record_put(&entry(1)).unwrap();
        backend.record_put(&entry(2)).unwrap();
        backend.record_put(&entry(3)).unwrap();
        backend.record_delete(&entry(3).tag).unwrap();
        backend.flush().unwrap();
        drop(backend);

        let (_backend, recovery) = open_on(&dir, LogConfig::new(&dir));
        assert_eq!(recovery.report.wal_records_replayed, 4);
        assert_eq!(recovery.report.torn_segments, 0);
        let mut tags: Vec<u8> =
            recovery.entries.iter().map(|e| e.tag.as_bytes()[0]).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 2]);
        let survivor = recovery.entries.iter().find(|e| e.tag == entry(2).tag).unwrap();
        assert_eq!(survivor.record, entry(2).record);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_deletes_segments_and_bounds_replay() {
        let dir = scratch("checkpoint");
        let (backend, _) = open_on(&dir, LogConfig::new(&dir));
        backend.record_put(&entry(1)).unwrap();
        backend.record_put(&entry(2)).unwrap();
        backend.flush().unwrap();
        backend.checkpoint(&|| vec![vec![entry(1), entry(2)]]).unwrap();
        assert_eq!(backend.stats().wal_bytes, 0, "segments collapsed");
        // Post-checkpoint traffic lands in fresh segments.
        backend.record_put(&entry(3)).unwrap();
        backend.flush().unwrap();
        drop(backend);

        let (_backend, recovery) = open_on(&dir, LogConfig::new(&dir));
        assert_eq!(recovery.report.checkpoint, SnapshotLoad::Restored);
        assert_eq!(recovery.report.checkpoint_entries, 2);
        assert_eq!(recovery.report.wal_records_replayed, 1);
        assert_eq!(recovery.entries.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wants_checkpoint_after_configured_record_count() {
        let dir = scratch("wants-ckpt");
        let mut config = LogConfig::new(&dir);
        config.checkpoint_every = 2;
        let (backend, _) = open_on(&dir, config);
        assert!(!backend.wants_checkpoint());
        backend.record_put(&entry(1)).unwrap();
        backend.record_put(&entry(2)).unwrap();
        backend.flush().unwrap();
        assert!(backend.wants_checkpoint());
        backend.checkpoint(&|| vec![vec![entry(1), entry(2)]]).unwrap();
        assert!(!backend.wants_checkpoint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_recovered() {
        let dir = scratch("torn");
        let (backend, _) = open_on(&dir, LogConfig::new(&dir));
        backend.record_put(&entry(1)).unwrap();
        backend.record_put(&entry(2)).unwrap();
        backend.flush().unwrap();
        drop(backend);

        // Garbage after the last sealed record in every written segment:
        // a crash mid-append.
        let vfs = StdVfs;
        let mut garbaged = 0;
        for file in list_segments(&vfs, &dir).unwrap() {
            if vfs.file_len(&file.path).unwrap() > 0 {
                vfs.append(&file.path, &[0xde, 0xad, 0xbe]).unwrap();
                garbaged += 1;
            }
        }
        assert!(garbaged > 0);

        let (_backend, recovery) = open_on(&dir, LogConfig::new(&dir));
        assert_eq!(recovery.report.torn_segments, garbaged);
        assert_eq!(recovery.entries.len(), 2, "records before the tear survive");
        // The tails were cut: a second reopen sees clean segments.
        let (_backend, recovery) = open_on(&dir, LogConfig::new(&dir));
        assert_eq!(recovery.report.torn_segments, 0);
        assert_eq!(recovery.entries.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_and_wal_still_replays() {
        let dir = scratch("bad-ckpt");
        let (backend, _) = open_on(&dir, LogConfig::new(&dir));
        backend.record_put(&entry(1)).unwrap();
        backend.flush().unwrap();
        backend.checkpoint(&|| vec![vec![entry(1)]]).unwrap();
        backend.record_put(&entry(2)).unwrap();
        backend.flush().unwrap();
        drop(backend);

        // Flip a byte inside the sealed region.
        let cp = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&cp).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&cp, &bytes).unwrap();

        let (_backend, recovery) = open_on(&dir, LogConfig::new(&dir));
        assert!(matches!(recovery.report.checkpoint, SnapshotLoad::FreshUnreadable(_)));
        assert!(recovery.report.quarantined_checkpoint);
        assert!(corrupt_sibling(&cp).exists());
        // Entry 1 lived only in the checkpoint — lost with it (the WAL
        // records below the checkpoint mark were deleted). Entry 2 was
        // written after and replays from its segment.
        assert_eq!(recovery.entries.len(), 1);
        assert_eq!(recovery.entries[0].tag, entry(2).tag);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_multi_log_directory_replays_and_checkpoints_away() {
        use crate::wal::encode_record;

        // A directory as earlier versions wrote it: PUTs routed over shard
        // logs 0-3, a rotated second segment of log 0, a Ref and an Unref,
        // and a compaction duplicate (the frame of PUT 1, at its sequence
        // number, copied into log 0's newer segment before the crash that
        // kept the original file).
        let dir = scratch("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let (platform, enclave) = context();
        let mut sealer = Sealer::new(&platform, &enclave, &SealPolicy::MrEnclave);
        let mut frame = |seq: u64, op: WalOp| {
            encode_record(&mut sealer, &WalRecord { seq, op }).unwrap()
        };
        let put = |fill: u8| WalOp::Put(entry(fill));
        let put_1 = frame(1, put(1));
        let unref_2 = frame(8, WalOp::Unref(entry(2).tag));
        // (log, first_seq, bytes)
        let files = [
            (0, 1, [put_1.clone(), frame(5, put(5))].concat()),
            (1, 1, [frame(2, put(2)), frame(6, WalOp::Ref(entry(2).tag))].concat()),
            (2, 1, frame(3, put(3))),
            (3, 1, frame(4, put(4))),
            (0, 7, [frame(7, put(7)), put_1, unref_2].concat()),
        ];
        let mut legacy = Vec::new();
        for (log, first_seq, bytes) in &files {
            let path = dir.join(segment_file_name(*log, *first_seq));
            std::fs::write(&path, bytes).unwrap();
            legacy.push((path, bytes.len() as u64));
        }
        let expected = |extra: &[u8]| {
            let mut all: Vec<SyncEntry> =
                [1, 2, 3, 4, 5, 7].iter().chain(extra).map(|&fill| entry(fill)).collect();
            all.sort_by_key(|e| e.tag);
            all
        };
        let sorted = |mut entries: Vec<SyncEntry>| {
            entries.sort_by_key(|e| e.tag);
            entries
        };

        let (backend, recovery) = open_on(&dir, LogConfig::new(&dir));
        assert_eq!(recovery.report.wal_segments, 5);
        assert_eq!(recovery.report.torn_segments, 0);
        assert_eq!(recovery.report.wal_records_replayed, 9, "the duplicate is read too");
        // Every entry comes back with its record; the Ref and the Unref of
        // entry 2 replay as no-ops.
        assert_eq!(sorted(recovery.entries), expected(&[]));

        // The next append starts a fresh log-0 file; no legacy file grows.
        backend.record_put(&entry(9)).unwrap();
        backend.flush().unwrap();
        let fresh = dir.join(segment_file_name(0, 9));
        assert!(std::fs::metadata(&fresh).unwrap().len() > 0);
        for (path, len) in &legacy {
            assert_eq!(std::fs::metadata(path).unwrap().len(), *len, "{path:?} grew");
        }

        // A checkpoint deletes every segment, the legacy ones included.
        backend.checkpoint(&|| vec![expected(&[9])]).unwrap();
        assert!(list_segments(&StdVfs, &dir).unwrap().is_empty());
        assert_eq!(backend.stats().wal_bytes, 0);
        drop(backend);

        let (_backend, recovery) = open_on(&dir, LogConfig::new(&dir));
        assert_eq!(recovery.report.checkpoint, SnapshotLoad::Restored);
        assert_eq!(recovery.report.wal_records_replayed, 0);
        assert_eq!(sorted(recovery.entries), expected(&[9]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_failure_degrades_read_only_and_drops_unsynced_records() {
        let dir = scratch("degrade");
        let (platform, enclave) = context();
        let vfs = Arc::new(TestVfs::default());
        let backend =
            LogBackend::with_vfs(Arc::clone(&vfs) as Arc<dyn Vfs>, LogConfig::new(&dir));
        backend.open(&platform, &enclave).unwrap();

        backend.record_put(&entry(1)).unwrap();
        backend.flush().unwrap();

        backend.record_put(&entry(2)).unwrap();
        vfs.fail_fsync.store(true, Ordering::Relaxed);
        assert!(backend.flush().is_err(), "fsync failure must surface");
        assert!(backend.read_only().is_some());
        // Mutations are rejected while degraded; the reason is reported.
        let err = backend.record_put(&entry(3)).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));

        // A restart (new process, disk healthy again) recovers exactly the
        // synced prefix: entry 2 was never acknowledged and never replays.
        let (_backend, recovery) = open_on(&dir, LogConfig::new(&dir));
        assert_eq!(recovery.entries.len(), 1);
        assert_eq!(recovery.entries[0].tag, entry(1).tag);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
