//! Store persistence via enclave sealing.
//!
//! A `ResultStore` restart would otherwise lose every cached result. This
//! module snapshots the dictionary *and* the referenced ciphertexts into a
//! single blob sealed under the store enclave's identity
//! ([`SealPolicy::MrEnclave`]): only a store enclave running the identical
//! code on the same platform can restore it. Records inside are themselves
//! RCE-protected, so sealing here adds rollback/integrity protection for
//! the snapshot as a whole rather than confidentiality of individual
//! results.
//!
//! A store persists across restarts through [`crate::LogBackend`], whose
//! checkpoint file wraps this same sealed payload; [`snapshot`] and
//! [`restore`] move a whole store in memory.

use speed_enclave::sealing::{seal, unseal, SealPolicy, SealedData};
use speed_enclave::Platform;
use speed_wire::{Reader, SyncEntry, WireDecode, WireEncode, WireError, Writer};

use crate::store::{ResultStore, StoreConfig};
use crate::StoreError;

/// Sealing AAD. Unchanged across payload versions — an AAD bump would make
/// every pre-existing snapshot unreadable (unsealing authenticates the
/// AAD), so the payload carries its own version discriminator instead.
const SNAPSHOT_AAD: &[u8] = b"speed-store-snapshot-v1";

/// Leading `u32` marking a versioned (v2+) payload. A v1 payload starts
/// with its entry count, which can never reach `u32::MAX` (`encode_entries`
/// rejects such stores), so the sentinel is unambiguous.
const VERSIONED_SENTINEL: u32 = u32::MAX;

/// Current payload version: per-shard sections.
const SNAPSHOT_VERSION: u8 = 2;

fn encode_count(len: usize, writer: &mut Writer) -> Result<(), StoreError> {
    let count = u32::try_from(len).map_err(|_| {
        StoreError::Protocol(format!(
            "snapshot too large: {len} entries exceed the u32 wire limit"
        ))
    })?;
    if count == VERSIONED_SENTINEL {
        return Err(StoreError::Protocol(
            "snapshot too large: entry count collides with the version sentinel".into(),
        ));
    }
    count.encode(writer);
    Ok(())
}

/// Encodes the legacy v1 payload: a flat entry list. Kept (test-only) so
/// the checked-in v1 fixture can be verified against the original encoder.
#[cfg(test)]
fn encode_entries(entries: &[SyncEntry]) -> Result<Vec<u8>, StoreError> {
    let mut writer = Writer::new();
    encode_count(entries.len(), &mut writer)?;
    for entry in entries {
        entry.encode(&mut writer);
    }
    Ok(writer.into_bytes())
}

/// Encodes the v2 payload: sentinel, version byte, then one section per
/// store shard so a large restore can be processed section by section.
/// Shared with the log backend, whose checkpoint wraps this same payload.
pub(crate) fn encode_shard_sections(
    sections: &[Vec<SyncEntry>],
) -> Result<Vec<u8>, StoreError> {
    let mut writer = Writer::new();
    VERSIONED_SENTINEL.encode(&mut writer);
    SNAPSHOT_VERSION.encode(&mut writer);
    encode_count(sections.len(), &mut writer)?;
    for section in sections {
        encode_count(section.len(), &mut writer)?;
        for entry in section {
            entry.encode(&mut writer);
        }
    }
    Ok(writer.into_bytes())
}

fn decode_entry_list(reader: &mut Reader<'_>) -> Result<Vec<SyncEntry>, WireError> {
    let count = u32::decode(reader)? as usize;
    let mut entries = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        entries.push(SyncEntry::decode(reader)?);
    }
    Ok(entries)
}

/// Decodes any known payload version into a flat entry list. Entries route
/// to shards by tag on import, so a snapshot written with one shard count
/// restores correctly into a store with any other.
pub(crate) fn decode_payload(bytes: &[u8]) -> Result<Vec<SyncEntry>, WireError> {
    let mut reader = Reader::new(bytes);
    let head = u32::decode(&mut reader)?;
    let entries = if head == VERSIONED_SENTINEL {
        let version = u8::decode(&mut reader)?;
        if version != SNAPSHOT_VERSION {
            // Future/unknown version byte: refuse rather than misparse.
            return Err(WireError::InvalidTag(version));
        }
        let sections = u32::decode(&mut reader)? as usize;
        let mut entries = Vec::new();
        for _ in 0..sections {
            entries.extend(decode_entry_list(&mut reader)?);
        }
        entries
    } else {
        // v1: `head` is the flat entry count.
        let count = head as usize;
        let mut entries = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            entries.push(SyncEntry::decode(&mut reader)?);
        }
        entries
    };
    reader.finish()?;
    Ok(entries)
}

/// Snapshots the entire store (metadata + ciphertexts + hit counts) into a
/// blob sealed to the store enclave's identity. Written in the v2 per-shard
/// section format; [`restore`] also reads legacy v1 (flat-list) snapshots.
///
/// # Errors
///
/// - [`StoreError::Protocol`] if the store holds more entries than the
///   snapshot wire format can describe (more than `u32::MAX`).
pub fn snapshot(platform: &Platform, store: &ResultStore) -> Result<Vec<u8>, StoreError> {
    let sections = store.export_shards();
    let payload = encode_shard_sections(&sections)?;
    Ok(seal(platform, store.enclave(), &SealPolicy::MrEnclave, SNAPSHOT_AAD, &payload)
        .to_bytes())
}

/// Restores a store from a sealed snapshot, preserving hit counts. Accepts
/// both the current v2 (per-shard) and legacy v1 (flat-list) payloads;
/// entries re-route to shards by tag, so the snapshot's shard layout need
/// not match `config.shards`.
///
/// # Errors
///
/// - [`StoreError::Enclave`] if unsealing fails (snapshot from a different
///   store code version or platform, or tampered bytes).
/// - [`StoreError::Protocol`] if the payload is malformed.
pub fn restore(
    platform: &Platform,
    config: StoreConfig,
    sealed_bytes: &[u8],
) -> Result<ResultStore, StoreError> {
    let store = ResultStore::new(platform, config)?;
    let sealed = SealedData::from_bytes(sealed_bytes)?;
    let payload =
        unseal(platform, store.enclave(), &SealPolicy::MrEnclave, SNAPSHOT_AAD, &sealed)?;
    let entries =
        decode_payload(&payload).map_err(|e| StoreError::Protocol(e.to_string()))?;
    store.import_entries(entries);
    Ok(store)
}

/// How a backend's recovery obtained its checkpoint, reported in
/// [`RecoveryReport::checkpoint`](crate::RecoveryReport::checkpoint).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotLoad {
    /// The checkpoint unsealed and decoded; its entries were imported.
    Restored,
    /// No checkpoint existed; started from the WAL alone.
    FreshMissing,
    /// A checkpoint existed but could not be used (torn write, tampered
    /// bytes, foreign enclave identity, or unreadable file); recovery
    /// started from the WAL alone (see
    /// [`RecoveryReport::quarantined_checkpoint`](crate::RecoveryReport::quarantined_checkpoint)).
    FreshUnreadable(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StoreBackend;
    use crate::vfs::Vfs;
    use speed_enclave::CostModel;
    use speed_wire::{AppId, CompTag, Message, Record};

    fn tag(n: u8) -> CompTag {
        CompTag::from_bytes([n; 32])
    }

    fn record(n: u8) -> Record {
        Record {
            challenge: vec![n; 32],
            wrapped_key: [n; 16],
            nonce: [n; 12],
            boxed_result: vec![n; 40],
        }
    }

    fn populated_store(platform: &Platform) -> ResultStore {
        let store = ResultStore::new(platform, StoreConfig::default()).unwrap();
        for n in 1..=5u8 {
            store.handle(Message::PutRequest {
                app: AppId(1),
                tag: tag(n),
                record: record(n),
            });
        }
        // Give entry 1 some popularity.
        for _ in 0..3 {
            store.handle(Message::GetRequest { app: AppId(1), tag: tag(1) });
        }
        store
    }

    /// The checked-in legacy payload: 3 entries written by the v1 (flat
    /// list) encoder — tags `[n; 32]`, records `record(n)`, hits `2n` for
    /// `n` in 1..=3. Regenerate with `encode_entries` if the fixture must
    /// ever change.
    const V1_PAYLOAD: &[u8] = include_bytes!("../tests/fixtures/snapshot_v1_payload.bin");

    #[test]
    fn v1_snapshot_migrates_to_sharded_store() {
        // Sealing is platform-bound, so the fixture holds the raw payload;
        // sealing it here reproduces exactly what a v1-era store wrote.
        let platform = Platform::new(CostModel::no_sgx());
        let v1_store = ResultStore::new(&platform, StoreConfig::default()).unwrap();
        let sealed = seal(
            &platform,
            v1_store.enclave(),
            &SealPolicy::MrEnclave,
            SNAPSHOT_AAD,
            V1_PAYLOAD,
        )
        .to_bytes();
        drop(v1_store);

        let restored = restore(&platform, StoreConfig::default(), &sealed).unwrap();
        assert_eq!(restored.stats().entries, 3);
        // Hit counts survive the migration: tag 3 carried 6 hits.
        let popular = restored.export_popular(6);
        assert_eq!(popular.len(), 1);
        assert_eq!(popular[0].tag, tag(3));
        assert_eq!(popular[0].hits, 6);
        // Record bytes intact.
        match restored.handle(Message::GetRequest { app: AppId(1), tag: tag(2) }) {
            Message::GetResponse(body) => {
                assert_eq!(body.record.unwrap().boxed_result, vec![2u8; 40]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fixture_matches_v1_encoder() {
        // Guards the fixture against drift: the in-tree v1 encoder still
        // produces byte-identical output for the documented contents.
        let entries: Vec<SyncEntry> = (1..=3u8)
            .map(|n| SyncEntry { tag: tag(n), record: record(n), hits: u64::from(n) * 2 })
            .collect();
        assert_eq!(encode_entries(&entries).unwrap(), V1_PAYLOAD);
    }

    #[test]
    fn v2_snapshot_restores_across_shard_counts() {
        let platform = Platform::new(CostModel::no_sgx());
        let store = populated_store(&platform);
        let sealed = snapshot(&platform, &store).unwrap();
        drop(store);
        // Restore into a store with a different shard layout: entries
        // re-route by tag.
        let restored =
            restore(&platform, StoreConfig::default().with_shards(3), &sealed).unwrap();
        assert_eq!(restored.shard_count(), 3);
        assert_eq!(restored.stats().entries, 5);
        let popular = restored.export_popular(3);
        assert_eq!(popular.len(), 1);
        assert_eq!(popular[0].tag, tag(1));
    }

    #[test]
    fn unknown_snapshot_version_rejected() {
        let platform = Platform::new(CostModel::no_sgx());
        let store = ResultStore::new(&platform, StoreConfig::default()).unwrap();
        let mut payload = Vec::new();
        let mut writer = Writer::new();
        VERSIONED_SENTINEL.encode(&mut writer);
        99u8.encode(&mut writer); // far-future version
        payload.extend(writer.into_bytes());
        let sealed = seal(
            &platform,
            store.enclave(),
            &SealPolicy::MrEnclave,
            SNAPSHOT_AAD,
            &payload,
        )
        .to_bytes();
        let result = restore(&platform, StoreConfig::default(), &sealed);
        assert!(matches!(result, Err(StoreError::Protocol(_))));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let platform = Platform::new(CostModel::no_sgx());
        let store = populated_store(&platform);
        let sealed = snapshot(&platform, &store).unwrap();
        drop(store);

        let restored = restore(&platform, StoreConfig::default(), &sealed).unwrap();
        assert_eq!(restored.stats().entries, 5);
        // Data intact.
        let response =
            restored.handle(Message::GetRequest { app: AppId(2), tag: tag(3) });
        match response {
            Message::GetResponse(body) => {
                assert_eq!(body.record.unwrap().boxed_result, vec![3u8; 40]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Popularity preserved: entry 1 still syncs as popular.
        let popular = restored.export_popular(3);
        assert_eq!(popular.len(), 1);
        assert_eq!(popular[0].tag, tag(1));
    }

    #[test]
    fn tampered_snapshot_rejected() {
        let platform = Platform::new(CostModel::no_sgx());
        let store = populated_store(&platform);
        let mut sealed = snapshot(&platform, &store).unwrap();
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0xFF;
        assert!(restore(&platform, StoreConfig::default(), &sealed).is_err());
    }

    #[test]
    fn snapshot_bound_to_platform() {
        let platform_a = Platform::new(CostModel::no_sgx());
        let platform_b = Platform::new(CostModel::no_sgx());
        let store = populated_store(&platform_a);
        let sealed = snapshot(&platform_a, &store).unwrap();
        assert!(restore(&platform_b, StoreConfig::default(), &sealed).is_err());
    }

    #[test]
    fn empty_store_snapshots_fine() {
        let platform = Platform::new(CostModel::no_sgx());
        let store = ResultStore::new(&platform, StoreConfig::default()).unwrap();
        let sealed = snapshot(&platform, &store).unwrap();
        let restored = restore(&platform, StoreConfig::default(), &sealed).unwrap();
        assert_eq!(restored.stats().entries, 0);
    }

    #[test]
    fn results_recoverable_after_restore() {
        // Full-stack check: an RCE-protected record still decrypts after a
        // seal/restore cycle (the record bytes must be bit-identical).
        let platform = Platform::new(CostModel::no_sgx());
        let store = populated_store(&platform);
        let original =
            match store.handle(Message::GetRequest { app: AppId(1), tag: tag(2) }) {
                Message::GetResponse(body) => body.record.unwrap(),
                other => panic!("unexpected {other:?}"),
            };
        let sealed = snapshot(&platform, &store).unwrap();
        let restored = restore(&platform, StoreConfig::default(), &sealed).unwrap();
        let recovered =
            match restored.handle(Message::GetRequest { app: AppId(9), tag: tag(2) }) {
                Message::GetResponse(body) => body.record.unwrap(),
                other => panic!("unexpected {other:?}"),
            };
        assert_eq!(original, recovered);
    }

    #[test]
    fn torn_snapshot_never_loads_at_any_truncation_point() {
        // Simulates a crash mid-write: every strict prefix of a valid
        // snapshot must fail to restore — never panic, never import a
        // partial store.
        let platform = Platform::new(CostModel::no_sgx());
        let store = populated_store(&platform);
        let full = snapshot(&platform, &store).unwrap();
        drop(store);
        // Cover the header, the sealed-container boundary, and a spread of
        // interior points.
        let mut cuts: Vec<usize> = (0..16.min(full.len())).collect();
        cuts.extend((16..full.len()).step_by(37));
        for cut in cuts {
            assert!(
                restore(&platform, StoreConfig::default(), &full[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly loaded"
            );
        }
    }

    /// A [`Vfs`] that records the order of durability-relevant operations.
    #[derive(Debug, Default)]
    struct RecordingVfs {
        ops: std::sync::Mutex<Vec<String>>,
    }

    impl RecordingVfs {
        fn log(&self, op: String) {
            self.ops.lock().unwrap().push(op);
        }
    }

    impl Vfs for RecordingVfs {
        fn read(&self, path: &std::path::Path) -> std::io::Result<Vec<u8>> {
            std::fs::read(path)
        }
        fn write(&self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
            self.log(format!("write {}", path.display()));
            std::fs::write(path, bytes)
        }
        fn append(&self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
            crate::vfs::StdVfs.append(path, bytes)
        }
        fn truncate(&self, path: &std::path::Path, len: u64) -> std::io::Result<()> {
            crate::vfs::StdVfs.truncate(path, len)
        }
        fn fsync(&self, path: &std::path::Path) -> std::io::Result<()> {
            self.log(format!("fsync {}", path.display()));
            crate::vfs::StdVfs.fsync(path)
        }
        fn fsync_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
            self.log(format!("fsync_dir {}", dir.display()));
            crate::vfs::StdVfs.fsync_dir(dir)
        }
        fn rename(
            &self,
            from: &std::path::Path,
            to: &std::path::Path,
        ) -> std::io::Result<()> {
            self.log(format!("rename {}", to.display()));
            std::fs::rename(from, to)
        }
        fn remove_file(&self, path: &std::path::Path) -> std::io::Result<()> {
            std::fs::remove_file(path)
        }
        fn create_dir_all(&self, dir: &std::path::Path) -> std::io::Result<()> {
            std::fs::create_dir_all(dir)
        }
        fn list_dir(
            &self,
            dir: &std::path::Path,
        ) -> std::io::Result<Vec<std::path::PathBuf>> {
            crate::vfs::StdVfs.list_dir(dir)
        }
        fn file_len(&self, path: &std::path::Path) -> std::io::Result<u64> {
            crate::vfs::StdVfs.file_len(path)
        }
        fn exists(&self, path: &std::path::Path) -> bool {
            path.exists()
        }
    }

    #[test]
    fn snapshot_write_fsyncs_file_then_rename_then_directory() {
        // The `LogBackend` checkpoint is what writes this sealed payload to
        // disk. Without the directory fsync a power cut after the
        // checkpoint returned can roll the rename back, losing a write the
        // caller was told succeeded (and the segments it let go).
        let platform = Platform::new(CostModel::no_sgx());
        let enclave = platform.create_enclave(b"dirsync").unwrap();
        let dir = std::env::temp_dir()
            .join(format!("speed-store-persist-dirsync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs = std::sync::Arc::new(RecordingVfs::default());
        let backend =
            crate::LogBackend::with_vfs(vfs.clone(), crate::LogConfig::new(&dir));
        backend.open(&platform, &enclave).unwrap();
        let store = populated_store(&platform);
        vfs.ops.lock().unwrap().clear();
        backend.checkpoint(&|| store.export_shards()).unwrap();
        let ops = vfs.ops.lock().unwrap().clone();
        let checkpoint = dir.join(crate::segment::CHECKPOINT_FILE);
        let tmp = crate::segment::tmp_sibling(&checkpoint);
        assert_eq!(
            ops[..4],
            [
                format!("write {}", tmp.display()),
                format!("fsync {}", tmp.display()),
                format!("rename {}", checkpoint.display()),
                format!("fsync_dir {}", dir.display()),
            ],
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
