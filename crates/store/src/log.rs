//! The crash-safe log-structured store backend.
//!
//! Durable state lives in one directory:
//!
//! - WAL segment files (`wal-<log>-<first_seq>.log`, see [`crate::segment`])
//!   hold sealed, checksummed mutation records ([`crate::wal`]). Mutations
//!   are routed to one of [`LogConfig::logs`] shard logs by tag so hot
//!   shards don't serialize on one file, while a global sequence number per
//!   record merges the logs back into a single mutation order on replay.
//! - `checkpoint.snap` holds a sealed full-store image (the
//!   [`crate::persist`] payload, wrapped with the sequence number it
//!   covers). A checkpoint bounds replay length: records at or below its
//!   sequence are collapsed into it, and the segments they occupied are
//!   deleted.
//!
//! Recovery on open: sweep leftover `*.tmp` files, load the checkpoint
//! (quarantining a corrupt one to `*.corrupt`), scan every segment with
//! the torn-tail rule (truncating the first corrupt/short record and
//! everything after it), merge records above the checkpoint sequence in
//! sequence order, and rebuild the in-memory index — entry liveness,
//! reference counts, and which segment holds each live record.
//!
//! Compaction rewrites one mostly-dead sealed segment at a time: live PUT
//! frames and still-replayable control frames are copied verbatim into the
//! active segment (already sealed — no re-encryption), then the source file
//! is deleted. A crash between the copy and the delete leaves duplicate
//! records, which replay tolerates: duplicate PUTs are recognized by equal
//! sequence numbers and duplicated Ref/Unref pairs cancel out.
//!
//! Any failed append or fsync degrades the backend to **read-only**: the
//! store keeps serving GETs but rejects further mutations rather than
//! acknowledging writes it cannot make durable (the disk-full contract).
//! Read-write operation resumes on restart once the underlying condition
//! clears.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use speed_enclave::sealing::{SealPolicy, SealedData, Sealer};
use speed_enclave::{Enclave, Platform};
use speed_telemetry::{names, Counter, Gauge, Histogram};
use speed_wire::{CompTag, SyncEntry};

use crate::backend::{
    BackendStats, CompactionStats, Recovery, RecoveryReport, StoreBackend,
};
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
    /// Number of shard logs mutations are routed across by tag.
    pub logs: usize,
    /// Rotate a shard log's active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Records between automatic checkpoints (replay-length bound);
    /// 0 disables automatic checkpointing.
    pub checkpoint_every: u64,
    /// Fsync appended records before acknowledging a request. Disable only
    /// for benchmarking — a power cut may then lose acknowledged writes.
    pub fsync: bool,
    /// Only compact a sealed segment carrying at least this many dead
    /// bytes (and at least half dead overall).
    pub compact_min_dead_bytes: u64,
}

impl LogConfig {
    /// Defaults rooted at `dir`: 4 shard logs, 1 MiB segments, a checkpoint
    /// every 4096 records, fsync on, 4 KiB compaction floor.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        LogConfig {
            dir: dir.into(),
            logs: 4,
            segment_bytes: 1024 * 1024,
            checkpoint_every: 4096,
            fsync: true,
            compact_min_dead_bytes: 4096,
        }
    }
}

/// Which shard log a tag's mutations append to.
fn log_of(tag: &CompTag, logs: usize) -> usize {
    usize::from(tag.as_bytes()[0]) % logs.max(1)
}

/// Bookkeeping for one segment file currently on disk.
#[derive(Debug, Default)]
struct SegmentState {
    log: usize,
    len: u64,
    /// Prefix known durable (covered by a successful fsync). On a failed
    /// flush the file is truncated back to this point so records the
    /// caller reports as failed can never resurface on replay.
    synced_len: u64,
    live_bytes: u64,
    live_records: u64,
    max_seq: u64,
    dirty: bool,
    synced_dir: bool,
}

/// Where one live entry's durable PUT record resides.
#[derive(Debug)]
struct IndexEntry {
    refcount: u32,
    put_seq: u64,
    /// `None` when the entry is represented by the checkpoint.
    segment: Option<PathBuf>,
    frame_bytes: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// The store enclave's sealing key, derived once per open: every WAL
    /// record and checkpoint is sealed and opened with it, under the lock.
    sealer: Option<Sealer>,
    /// Next sequence number to assign (1-based; 0 = nothing ever logged).
    next_seq: u64,
    checkpoint_seq: u64,
    records_since_checkpoint: u64,
    actives: Vec<PathBuf>,
    segments: HashMap<PathBuf, SegmentState>,
    index: HashMap<CompTag, IndexEntry>,
    read_only: Option<String>,
}

impl Inner {
    fn sealer(&mut self) -> Result<&mut Sealer, StoreError> {
        self.sealer
            .as_mut()
            .ok_or_else(|| StoreError::Protocol("log backend not opened".into()))
    }
}

#[derive(Debug)]
struct LogTelemetry {
    appends: Counter,
    appended_bytes: Counter,
    replayed: Counter,
    torn: Counter,
    checkpoints: Counter,
    compactions: Counter,
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
            compactions: registry.counter(
                names::STORE_COMPACTIONS_TOTAL,
                "compaction passes that rewrote a segment",
            ),
            reclaimed: registry.counter(
                names::STORE_COMPACTION_RECLAIMED_BYTES_TOTAL,
                "dead log bytes reclaimed by checkpoints and compaction",
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

    fn degrade(&self, inner: &mut Inner, reason: String) -> StoreError {
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

    /// Appends one sequenced record, updating the index and segment
    /// bookkeeping, rotating the shard log if it grew past the limit.
    fn append_op(&self, op: WalOp) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if let Some(reason) = &inner.read_only {
            return Err(StoreError::Io(format!("store is read-only: {reason}")));
        }
        let seq = inner.next_seq.max(1);
        let record = WalRecord { seq, op };
        let frame = encode_record(inner.sealer()?, &record)?;
        let log = log_of(record.tag(), self.config.logs);
        let path = inner.actives[log].clone();
        if let Err(e) = self.vfs.append(&path, &frame) {
            return Err(self.degrade(&mut inner, format!("WAL append failed: {e}")));
        }
        let frame_len = frame.len() as u64;
        let dir = self.config.dir.clone();
        let state = inner.segments.entry(path.clone()).or_default();
        state.log = log;
        if !state.synced_dir {
            // First bytes of a fresh segment: the file's directory entry
            // must survive power loss too.
            if let Err(e) = self.vfs.fsync_dir(&dir) {
                return Err(
                    self.degrade(&mut inner, format!("WAL directory fsync failed: {e}"))
                );
            }
            let state = inner.segments.get_mut(&path).expect("just inserted");
            state.synced_dir = true;
        }
        let state = inner.segments.get_mut(&path).expect("just inserted");
        state.len += frame_len;
        state.max_seq = seq;
        state.dirty = true;
        let rotate = state.len >= self.config.segment_bytes;
        inner.next_seq = seq + 1;
        inner.records_since_checkpoint += 1;
        self.telemetry.appends.inc();
        self.telemetry.appended_bytes.add(frame_len);
        match &record.op {
            WalOp::Put(entry) => {
                let previous = inner.index.insert(
                    entry.tag,
                    IndexEntry {
                        refcount: 1,
                        put_seq: seq,
                        segment: Some(path.clone()),
                        frame_bytes: frame_len,
                    },
                );
                if let Some(previous) = previous {
                    Self::forget_frame(&mut inner.segments, &previous);
                }
                let state = inner.segments.get_mut(&path).expect("active exists");
                state.live_bytes += frame_len;
                state.live_records += 1;
            }
            WalOp::Ref(tag) => {
                if let Some(entry) = inner.index.get_mut(tag) {
                    entry.refcount = entry.refcount.saturating_add(1);
                }
            }
            WalOp::Unref(tag) => {
                let dead = match inner.index.get_mut(tag) {
                    Some(entry) => {
                        entry.refcount = entry.refcount.saturating_sub(1);
                        entry.refcount == 0
                    }
                    None => false,
                };
                if dead {
                    if let Some(entry) = inner.index.remove(tag) {
                        Self::forget_frame(&mut inner.segments, &entry);
                    }
                }
            }
            WalOp::Delete(tag) => {
                if let Some(entry) = inner.index.remove(tag) {
                    Self::forget_frame(&mut inner.segments, &entry);
                }
            }
        }
        if rotate {
            let next = self.config.dir.join(segment_file_name(log, inner.next_seq));
            inner.actives[log] = next.clone();
            inner
                .segments
                .entry(next)
                .or_insert_with(|| SegmentState { log, ..SegmentState::default() });
        }
        Ok(())
    }

    /// Drops a dead PUT frame from its segment's live accounting.
    fn forget_frame(segments: &mut HashMap<PathBuf, SegmentState>, entry: &IndexEntry) {
        if let Some(path) = &entry.segment {
            if let Some(state) = segments.get_mut(path) {
                state.live_bytes = state.live_bytes.saturating_sub(entry.frame_bytes);
                state.live_records = state.live_records.saturating_sub(1);
            }
        }
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
        let mut all: Vec<(WalRecord, PathBuf, u64)> = Vec::new();
        let mut segments: HashMap<PathBuf, SegmentState> = HashMap::new();
        let mut max_seq_seen = checkpoint_seq;
        for file in &files {
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
                // Cut the tail so post-recovery appends can never land
                // after garbage bytes.
                let _ = self.vfs.truncate(&file.path, scan.valid_len);
                report.torn_segments += 1;
                self.telemetry.torn.inc();
            }
            let mut state = SegmentState {
                log: file.log,
                len: scan.valid_len,
                synced_len: scan.valid_len,
                synced_dir: true,
                ..SegmentState::default()
            };
            for (i, record) in scan.records.into_iter().enumerate() {
                let frame = scan.offsets[i + 1] - scan.offsets[i];
                state.max_seq = state.max_seq.max(record.seq);
                max_seq_seen = max_seq_seen.max(record.seq);
                all.push((record, file.path.clone(), frame));
            }
            segments.insert(file.path.clone(), state);
        }
        // Merge the shard logs back into one global mutation order. The
        // sort is stable, so compaction duplicates (equal seqs) keep their
        // file order and the dedup rule below sees the original first.
        all.sort_by_key(|(record, _, _)| record.seq);

        // Phase 3: replay above the checkpoint onto the live map.
        struct LiveEntry {
            entry: SyncEntry,
            index: IndexEntry,
            order: (u8, u64),
        }
        let mut live: HashMap<CompTag, LiveEntry> = HashMap::new();
        for (i, entry) in checkpoint_entries.into_iter().enumerate() {
            live.insert(
                entry.tag,
                LiveEntry {
                    index: IndexEntry {
                        refcount: 1,
                        put_seq: 0,
                        segment: None,
                        frame_bytes: 0,
                    },
                    order: (0, i as u64),
                    entry,
                },
            );
        }
        for (record, path, frame) in all {
            if record.seq <= checkpoint_seq {
                continue; // collapsed into the checkpoint
            }
            report.wal_records_replayed += 1;
            match record.op {
                WalOp::Put(entry) => {
                    let duplicate = live
                        .get(&entry.tag)
                        .is_some_and(|l| l.index.put_seq == record.seq);
                    if !duplicate {
                        live.insert(
                            entry.tag,
                            LiveEntry {
                                index: IndexEntry {
                                    refcount: 1,
                                    put_seq: record.seq,
                                    segment: Some(path),
                                    frame_bytes: frame,
                                },
                                order: (1, record.seq),
                                entry,
                            },
                        );
                    }
                }
                WalOp::Ref(tag) => {
                    if let Some(l) = live.get_mut(&tag) {
                        l.index.refcount = l.index.refcount.saturating_add(1);
                    }
                }
                WalOp::Unref(tag) => {
                    let dead = match live.get_mut(&tag) {
                        Some(l) => {
                            l.index.refcount = l.index.refcount.saturating_sub(1);
                            l.index.refcount == 0
                        }
                        None => false,
                    };
                    if dead {
                        live.remove(&tag);
                    }
                }
                WalOp::Delete(tag) => {
                    live.remove(&tag);
                }
            }
        }
        self.telemetry.replayed.add(report.wal_records_replayed);

        // Phase 4: rebuild per-segment live accounting and the index.
        let mut ordered: Vec<(&CompTag, &LiveEntry)> = live.iter().collect();
        ordered.sort_by_key(|(_, l)| l.order);
        let entries: Vec<SyncEntry> =
            ordered.iter().map(|(_, l)| l.entry.clone()).collect();
        drop(ordered);
        let mut index = HashMap::with_capacity(live.len());
        for (tag, l) in live {
            if let Some(path) = &l.index.segment {
                if let Some(state) = segments.get_mut(path) {
                    state.live_bytes += l.index.frame_bytes;
                    state.live_records += 1;
                }
            }
            index.insert(tag, l.index);
        }

        // Phase 5: pick the newest segment of each shard log as its active
        // file; fresh logs get a name but no file until the first append.
        let next_seq = max_seq_seen + 1;
        let mut actives = Vec::with_capacity(self.config.logs);
        for log in 0..self.config.logs {
            let newest = files
                .iter()
                .filter(|f| f.log == log)
                .max_by_key(|f| f.first_seq)
                .map(|f| f.path.clone());
            let path = match newest {
                Some(path) => path,
                None => {
                    let path = dir.join(segment_file_name(log, next_seq));
                    segments.insert(
                        path.clone(),
                        SegmentState { log, ..SegmentState::default() },
                    );
                    path
                }
            };
            actives.push(path);
        }

        let mut inner = self.lock();
        *inner = Inner {
            sealer: Some(sealer),
            next_seq,
            checkpoint_seq,
            records_since_checkpoint: max_seq_seen - checkpoint_seq,
            actives,
            segments,
            index,
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

    fn record_ref(&self, tag: &CompTag) -> Result<(), StoreError> {
        self.append_op(WalOp::Ref(*tag))
    }

    fn record_unref(&self, tag: &CompTag) -> Result<(), StoreError> {
        self.append_op(WalOp::Unref(*tag))
    }

    fn record_delete(&self, tag: &CompTag) -> Result<(), StoreError> {
        self.append_op(WalOp::Delete(*tag))
    }

    fn flush(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if let Some(reason) = &inner.read_only {
            return Err(StoreError::Io(format!("store is read-only: {reason}")));
        }
        let dirty: Vec<PathBuf> = inner
            .segments
            .iter()
            .filter(|(_, s)| s.dirty)
            .map(|(p, _)| p.clone())
            .collect();
        if self.config.fsync {
            let mut failed = None;
            for path in &dirty {
                if let Err(e) = self.vfs.fsync(path) {
                    failed = Some(e);
                    break;
                }
            }
            if let Some(e) = failed {
                // The caller will reject the writes covered by this flush.
                // Cut every un-synced suffix (even of segments whose fsync
                // succeeded just now) so a rejected record can never
                // resurface as a phantom entry on replay.
                for path in &dirty {
                    let Some(state) = inner.segments.get_mut(path) else { continue };
                    let keep = state.synced_len;
                    state.dirty = false;
                    if self.vfs.truncate(path, keep).is_ok() {
                        let _ = self.vfs.fsync(path);
                        let state = inner.segments.get_mut(path).expect("still present");
                        state.len = keep;
                    }
                }
                return Err(self.degrade(&mut inner, format!("WAL fsync failed: {e}")));
            }
        }
        for path in &dirty {
            if let Some(state) = inner.segments.get_mut(path) {
                state.dirty = false;
                state.synced_len = state.len;
            }
        }
        Ok(())
    }

    fn checkpoint(
        &self,
        export: &dyn Fn() -> Vec<Vec<SyncEntry>>,
    ) -> Result<(), StoreError> {
        let mut inner = self.lock();
        inner.sealer()?; // refuse before open, without exporting
                         // Export under the lock, before reading the mark: a mutation the
                         // export misses cannot have appended its record yet, so the record
                         // lands above `seq_mark`, in a segment this checkpoint keeps.
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
        // throughout): delete the segments and start fresh actives.
        inner.checkpoint_seq = seq_mark;
        inner.records_since_checkpoint = 0;
        let old: Vec<(PathBuf, u64)> =
            inner.segments.iter().map(|(p, s)| (p.clone(), s.len)).collect();
        inner.segments.clear();
        for (path, len) in old {
            if len == 0 || self.vfs.remove_file(&path).is_ok() {
                self.telemetry.reclaimed.add(len);
            }
            // A segment whose removal failed stays on disk harmlessly: its
            // records are all at or below the checkpoint sequence and are
            // skipped on replay.
        }
        let _ = self.vfs.fsync_dir(&self.config.dir);
        for entry in inner.index.values_mut() {
            entry.segment = None;
            entry.frame_bytes = 0;
        }
        let next_seq = inner.next_seq;
        inner.actives.clear();
        for log in 0..self.config.logs {
            let path = self.config.dir.join(segment_file_name(log, next_seq));
            inner.actives.push(path.clone());
            inner.segments.insert(path, SegmentState { log, ..SegmentState::default() });
        }
        self.telemetry.checkpoints.inc();
        Ok(())
    }

    fn compact(&self) -> Result<CompactionStats, StoreError> {
        let mut inner = self.lock();
        if let Some(reason) = &inner.read_only {
            return Err(StoreError::Io(format!("store is read-only: {reason}")));
        }
        inner.sealer()?; // refuse before open
        let actives = inner.actives.clone();
        let candidate = inner
            .segments
            .iter()
            .filter(|(path, state)| {
                !actives.contains(path)
                    && state.len > 0
                    && state.live_bytes * 2 <= state.len
                    && state.len - state.live_bytes >= self.config.compact_min_dead_bytes
            })
            .max_by_key(|(_, state)| state.len - state.live_bytes)
            .map(|(path, _)| path.clone());
        let Some(source) = candidate else {
            return Ok(CompactionStats::default());
        };

        let bytes = self.vfs.read(&source)?;
        let scan = scan_segment(inner.sealer()?, &bytes);
        let source_log = inner.segments.get(&source).map_or(0, |s| s.log);
        let target = inner.actives[source_log % self.config.logs.max(1)].clone();
        // Copy surviving frames verbatim (already sealed — no re-encrypt):
        // live PUT frames move with their index pointer; control frames
        // (Ref/Unref/Delete) above the checkpoint are still replayable and
        // must be carried; everything at or below the checkpoint sequence
        // is collapsed into it and dropped.
        let mut kept = Vec::new();
        let mut moved: Vec<(CompTag, u64)> = Vec::new();
        let mut kept_live_bytes = 0u64;
        let mut kept_records = 0u64;
        let mut kept_max_seq = 0u64;
        let checkpoint_seq = inner.checkpoint_seq;
        for (i, record) in scan.records.iter().enumerate() {
            if record.seq <= checkpoint_seq {
                continue;
            }
            let frame_len = scan.offsets[i + 1] - scan.offsets[i];
            let keep = match &record.op {
                WalOp::Put(entry) => {
                    let live = inner.index.get(&entry.tag).is_some_and(|e| {
                        e.put_seq == record.seq && e.segment.as_deref() == Some(&source)
                    });
                    if live {
                        moved.push((entry.tag, frame_len));
                        kept_live_bytes += frame_len;
                        kept_records += 1;
                    }
                    live
                }
                WalOp::Ref(_) | WalOp::Unref(_) | WalOp::Delete(_) => true,
            };
            if keep {
                let start = scan.offsets[i] as usize;
                let end = (scan.offsets[i] + frame_len) as usize;
                kept.extend_from_slice(&bytes[start..end]);
                kept_max_seq = kept_max_seq.max(record.seq);
            }
        }

        if !kept.is_empty() {
            // A torn append here would leave garbage mid-active-segment,
            // cutting off every later record at replay — degrade rather
            // than risk acknowledging writes behind a corrupt prefix.
            if let Err(e) = self.vfs.append(&target, &kept) {
                return Err(
                    self.degrade(&mut inner, format!("compaction append failed: {e}"))
                );
            }
            if let Err(e) = self.vfs.fsync(&target) {
                return Err(
                    self.degrade(&mut inner, format!("compaction fsync failed: {e}"))
                );
            }
            let dir = self.config.dir.clone();
            let target_log = source_log % self.config.logs.max(1);
            let state = inner.segments.entry(target.clone()).or_default();
            state.log = target_log;
            if !state.synced_dir {
                if let Err(e) = self.vfs.fsync_dir(&dir) {
                    return Err(self.degrade(
                        &mut inner,
                        format!("compaction dir fsync failed: {e}"),
                    ));
                }
                let state = inner.segments.get_mut(&target).expect("just inserted");
                state.synced_dir = true;
            }
            let state = inner.segments.get_mut(&target).expect("just inserted");
            state.len += kept.len() as u64;
            state.synced_len = state.len;
            state.live_bytes += kept_live_bytes;
            state.live_records += kept_records;
            state.max_seq = state.max_seq.max(kept_max_seq);
            for (tag, frame_len) in &moved {
                if let Some(entry) = inner.index.get_mut(tag) {
                    entry.segment = Some(target.clone());
                    entry.frame_bytes = *frame_len;
                }
            }
        }

        let source_len = inner.segments.get(&source).map_or(0, |s| s.len);
        let mut stats = CompactionStats {
            segments_compacted: 1,
            reclaimed_bytes: source_len.saturating_sub(kept.len() as u64),
            live_records_rewritten: kept_records,
        };
        // If the source file survives removal, replay still converges:
        // duplicate PUTs dedup by sequence number and duplicated
        // Ref/Unref pairs cancel out.
        if self.vfs.remove_file(&source).is_err() {
            stats.reclaimed_bytes = 0;
        }
        inner.segments.remove(&source);
        let _ = self.vfs.fsync_dir(&self.config.dir);
        self.telemetry.compactions.inc();
        self.telemetry.reclaimed.add(stats.reclaimed_bytes);
        Ok(stats)
    }

    fn wants_checkpoint(&self) -> bool {
        if self.config.checkpoint_every == 0 {
            return false;
        }
        let inner = self.lock();
        inner.read_only.is_none()
            && inner.records_since_checkpoint >= self.config.checkpoint_every
    }

    fn wants_compaction(&self) -> bool {
        let inner = self.lock();
        if inner.read_only.is_some() {
            return false;
        }
        inner.segments.iter().any(|(path, state)| {
            !inner.actives.contains(path)
                && state.len > 0
                && state.live_bytes * 2 <= state.len
                && state.len - state.live_bytes >= self.config.compact_min_dead_bytes
        })
    }

    fn read_only(&self) -> Option<String> {
        self.lock().read_only.clone()
    }

    fn stats(&self) -> BackendStats {
        let inner = self.lock();
        BackendStats {
            appended_records: self.telemetry.appends.get(),
            appended_bytes: self.telemetry.appended_bytes.get(),
            segment_files: inner.segments.values().filter(|s| s.len > 0).count(),
            wal_bytes: inner.segments.values().map(|s| s.len).sum(),
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
            hits: u64::from(fill),
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
        backend.record_ref(&entry(2).tag).unwrap();
        backend.record_unref(&entry(2).tag).unwrap(); // back to rc 1, stays live
        backend.record_delete(&entry(3).tag).unwrap();
        backend.flush().unwrap();
        drop(backend);

        let (_backend, recovery) = open_on(&dir, LogConfig::new(&dir));
        assert_eq!(recovery.report.wal_records_replayed, 6);
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
    fn unref_to_zero_removes_entry_across_reopen() {
        let dir = scratch("unref");
        let (backend, _) = open_on(&dir, LogConfig::new(&dir));
        backend.record_put(&entry(7)).unwrap();
        backend.record_unref(&entry(7).tag).unwrap();
        backend.flush().unwrap();
        drop(backend);

        let (_backend, recovery) = open_on(&dir, LogConfig::new(&dir));
        assert!(recovery.entries.is_empty());
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
    fn compaction_reclaims_dead_segment() {
        let dir = scratch("compact");
        let mut config = LogConfig::new(&dir);
        config.logs = 1;
        config.segment_bytes = 1; // every record seals its segment
        config.compact_min_dead_bytes = 1;
        let (backend, _) = open_on(&dir, config.clone());
        backend.record_put(&entry(1)).unwrap();
        backend.record_put(&entry(2)).unwrap();
        backend.record_delete(&entry(1).tag).unwrap();
        backend.flush().unwrap();
        assert!(backend.wants_compaction());
        let stats = backend.compact().unwrap();
        assert_eq!(stats.segments_compacted, 1);
        assert!(stats.reclaimed_bytes > 0);
        drop(backend);

        let (_backend, recovery) = open_on(&dir, config);
        assert_eq!(recovery.entries.len(), 1);
        assert_eq!(recovery.entries[0].tag, entry(2).tag);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_moves_live_put_and_survives_reopen() {
        let dir = scratch("compact-live");
        let mut config = LogConfig::new(&dir);
        config.logs = 1;
        config.segment_bytes = 1;
        config.compact_min_dead_bytes = 1;
        let (backend, _) = open_on(&dir, config.clone());
        backend.record_put(&entry(1)).unwrap();
        backend.record_put(&entry(2)).unwrap();
        backend.record_put(&entry(2)).unwrap(); // dedup by seq keeps newest
        backend.record_delete(&entry(1).tag).unwrap();
        backend.flush().unwrap();
        while backend.wants_compaction() {
            backend.compact().unwrap();
        }
        drop(backend);

        let (_backend, recovery) = open_on(&dir, config);
        assert_eq!(recovery.entries.len(), 1);
        assert_eq!(recovery.entries[0].tag, entry(2).tag);
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
