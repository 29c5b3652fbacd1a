//! Pluggable durability backends for the [`ResultStore`](crate::ResultStore).
//!
//! The store's request path is identical for every backend: the sharded
//! in-enclave metadata dictionary stays the authoritative working state.
//! A [`StoreBackend`] only decides what happens *underneath* it:
//!
//! - [`MemoryBackend`] — the original behavior. Nothing is persisted; a
//!   restart loses the whole store.
//! - [`LogBackend`](crate::LogBackend) — crash-safe log-structured
//!   persistence: every accepted mutation is sealed, checksummed, and
//!   appended to one write-ahead log file before the request is
//!   acknowledged, and periodic checkpoints bound replay length and
//!   reclaim the log's space.
//!
//! The store invokes the backend *after* the in-memory mutation succeeds
//! and *before* acknowledging the request; a backend failure rolls the
//! mutation back so an acknowledged PUT is always durable (or the store
//! has degraded to read-only).

use std::sync::Arc;

use speed_enclave::{Enclave, Platform};
use speed_wire::{CompTag, SyncEntry};

use crate::persist::SnapshotLoad;
use crate::StoreError;

/// What a backend recovered on open.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Live entries to import, in recovery order (checkpoint entries
    /// first, then write-ahead-log entries in sequence order).
    pub entries: Vec<SyncEntry>,
    /// How the recovery went.
    pub report: RecoveryReport,
}

/// Diagnostics from one backend open/recovery pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Backend that produced the report.
    pub backend: &'static str,
    /// How the checkpoint (if any) loaded.
    pub checkpoint: SnapshotLoad,
    /// Entries restored from the checkpoint.
    pub checkpoint_entries: usize,
    /// WAL records replayed on top of the checkpoint.
    pub wal_records_replayed: u64,
    /// Segment files scanned.
    pub wal_segments: usize,
    /// Segment files whose torn/corrupt tail was truncated.
    pub torn_segments: usize,
    /// Leftover `*.tmp` files swept.
    pub swept_tmp_files: usize,
    /// Whether a corrupt checkpoint was quarantined to `*.corrupt`.
    pub quarantined_checkpoint: bool,
    /// Wall-clock nanoseconds the recovery pass took.
    pub duration_ns: u64,
}

impl Default for RecoveryReport {
    fn default() -> Self {
        RecoveryReport {
            backend: "memory",
            checkpoint: SnapshotLoad::FreshMissing,
            checkpoint_entries: 0,
            wal_records_replayed: 0,
            wal_segments: 0,
            torn_segments: 0,
            swept_tmp_files: 0,
            quarantined_checkpoint: false,
            duration_ns: 0,
        }
    }
}

/// Point-in-time durability counters for a backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// WAL records appended since open.
    pub appended_records: u64,
    /// WAL bytes appended since open.
    pub appended_bytes: u64,
    /// Segment files currently on disk.
    pub segment_files: usize,
    /// WAL bytes currently on disk.
    pub wal_bytes: u64,
    /// Log bytes reclaimed by checkpoints since open.
    pub reclaimed_bytes: u64,
    /// Records appended since the last checkpoint (replay debt).
    pub records_since_checkpoint: u64,
}

/// A durability backend under the sharded in-memory dictionary.
///
/// All methods take `&self`: backends are shared by every server worker
/// and use interior locking. Record methods must be atomic per call — a
/// failure means the mutation was *not* made durable and the caller must
/// roll it back or degrade.
pub trait StoreBackend: Send + Sync + std::fmt::Debug {
    /// Short backend name (reports, telemetry).
    fn name(&self) -> &'static str;

    /// Whether mutations must be reported via the `record_*` methods. The
    /// store skips cloning record bytes for non-durable backends.
    fn is_durable(&self) -> bool {
        false
    }

    /// Binds the backend to the store's platform and enclave (sealing
    /// identity) and recovers any previously persisted state.
    ///
    /// # Errors
    ///
    /// Returns an error only if the backend cannot come up at all (e.g.
    /// its directory cannot be created) — unreadable prior state degrades
    /// to a fresh start, never an open failure.
    fn open(
        &self,
        platform: &Arc<Platform>,
        enclave: &Arc<Enclave>,
    ) -> Result<Recovery, StoreError>;

    /// A new entry became live.
    ///
    /// # Errors
    ///
    /// Returns an error if the record could not be made durable; the
    /// caller must roll back the in-memory insert.
    fn record_put(&self, entry: &SyncEntry) -> Result<(), StoreError>;

    /// The entry was removed outright (eviction, dangling blob).
    ///
    /// # Errors
    ///
    /// Returns an error if the record could not be made durable.
    fn record_delete(&self, tag: &CompTag) -> Result<(), StoreError>;

    /// Makes all records appended so far power-loss durable (group
    /// commit). Called once per request before the response is sent.
    ///
    /// # Errors
    ///
    /// Returns an error if the sync failed; the backend degrades to
    /// read-only.
    fn flush(&self) -> Result<(), StoreError>;

    /// Writes a checkpoint of the full store state and drops the WAL
    /// segments it covers.
    ///
    /// `export` returns the state as per-shard sections (see
    /// [`crate::ResultStore::export_shards`]). A durable backend calls it
    /// once it has stopped appending records and before it fixes the
    /// sequence number the checkpoint covers. The store logs a mutation
    /// only after releasing the shard lock it made the change under, so a
    /// mutation the export misses is logged above that sequence number and
    /// outlives the checkpoint. `export` must not call into the backend.
    ///
    /// # Errors
    ///
    /// Returns an error if the checkpoint could not be written; the WAL
    /// is untouched and the store remains writable.
    fn checkpoint(
        &self,
        export: &dyn Fn() -> Vec<Vec<SyncEntry>>,
    ) -> Result<(), StoreError>;

    /// Whether enough records accumulated since the last checkpoint that
    /// the store should checkpoint now.
    fn wants_checkpoint(&self) -> bool {
        false
    }

    /// `Some(reason)` once the backend degraded to read-only (failed
    /// append/sync, disk full). The store rejects further PUTs but keeps
    /// serving GETs.
    fn read_only(&self) -> Option<String> {
        None
    }

    /// Durability counters.
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }
}

/// The non-durable backend: the in-memory dictionary is the whole store,
/// exactly as before the backend seam existed.
#[derive(Debug, Default)]
pub struct MemoryBackend;

impl MemoryBackend {
    /// Creates the (stateless) memory backend.
    pub fn new() -> Self {
        MemoryBackend
    }
}

impl StoreBackend for MemoryBackend {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn open(
        &self,
        _platform: &Arc<Platform>,
        _enclave: &Arc<Enclave>,
    ) -> Result<Recovery, StoreError> {
        Ok(Recovery::default())
    }

    fn record_put(&self, _entry: &SyncEntry) -> Result<(), StoreError> {
        Ok(())
    }

    fn record_delete(&self, _tag: &CompTag) -> Result<(), StoreError> {
        Ok(())
    }

    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn checkpoint(
        &self,
        _export: &dyn Fn() -> Vec<Vec<SyncEntry>>,
    ) -> Result<(), StoreError> {
        Ok(())
    }
}
