//! The store image a [`crate::LogBackend`] checkpoint seals.
//!
//! A checkpoint holds the dictionary *and* the referenced ciphertexts, one
//! section per store shard, each listed least recently used first. The
//! backend seals it under the store enclave's identity
//! ([`SealPolicy::MrEnclave`]): only a store enclave running the identical
//! code on the same platform can load it. Records inside are themselves
//! RCE-protected, so sealing adds rollback/integrity protection for the
//! image as a whole rather than confidentiality of individual results.
//!
//! The payload opens with a `u32::MAX` sentinel and a version byte (2).
//! The headerless version 1 predates checkpoints and is no longer read.
//!
//! [`SealPolicy::MrEnclave`]: speed_enclave::sealing::SealPolicy::MrEnclave

use speed_wire::{Reader, SyncEntry, WireDecode, WireEncode, WireError, Writer};

use crate::StoreError;

/// Leading `u32` of every payload, ahead of the version byte.
const VERSIONED_SENTINEL: u32 = u32::MAX;

/// Current payload version: per-shard sections.
const SNAPSHOT_VERSION: u8 = 2;

fn encode_count(len: usize, writer: &mut Writer) -> Result<(), StoreError> {
    let count = u32::try_from(len).map_err(|_| {
        StoreError::Protocol(format!(
            "checkpoint too large: {len} entries exceed the u32 wire limit"
        ))
    })?;
    count.encode(writer);
    Ok(())
}

/// Encodes the payload: sentinel, version byte, then one section per store
/// shard.
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

/// Decodes a payload into a flat entry list. Entries route to shards by
/// tag on import, so a checkpoint written with one shard count loads
/// correctly into a store with any other.
pub(crate) fn decode_payload(bytes: &[u8]) -> Result<Vec<SyncEntry>, WireError> {
    let mut reader = Reader::new(bytes);
    let sentinel = u32::decode(&mut reader)?;
    let version = u8::decode(&mut reader)?;
    if sentinel != VERSIONED_SENTINEL || version != SNAPSHOT_VERSION {
        // Headerless or unknown version: refuse rather than misparse.
        return Err(WireError::InvalidTag(version));
    }
    let sections = u32::decode(&mut reader)?;
    let mut entries = Vec::new();
    for _ in 0..sections {
        let count = u32::decode(&mut reader)? as usize;
        entries.reserve(count.min(4096));
        for _ in 0..count {
            entries.push(SyncEntry::decode(&mut reader)?);
        }
    }
    reader.finish()?;
    Ok(entries)
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
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    use super::*;
    use crate::backend::StoreBackend;
    use crate::segment::CHECKPOINT_FILE;
    use crate::vfs::TestVfs;
    use crate::{LogBackend, LogConfig, RecoveryReport, ResultStore, StoreConfig};
    use speed_enclave::{CostModel, Platform};
    use speed_wire::{AppId, CompTag, Message, Record};

    fn tag(n: u8) -> CompTag {
        CompTag::from_bytes([n; 32])
    }

    fn put(store: &ResultStore, n: u8) {
        let record = Record {
            challenge: vec![n; 32],
            wrapped_key: [n; 16],
            nonce: [n; 12],
            boxed_result: vec![n; 40],
        };
        let response =
            store.handle(Message::PutRequest { app: AppId(1), tag: tag(n), record });
        assert!(matches!(response, Message::PutResponse(body) if body.accepted));
    }

    /// Puts entries 1..=5.
    fn populate(store: &ResultStore) {
        for n in 1..=5u8 {
            put(store, n);
        }
    }

    /// Every entry of `store`, sorted by tag.
    fn entries(store: &ResultStore) -> Vec<SyncEntry> {
        let mut entries = store.export_shards().concat();
        entries.sort_by_key(|entry| entry.tag);
        entries
    }

    /// A platform with a fixed fuse secret: a reopen models a restart of
    /// the same machine, and a different `seed` another machine.
    fn platform(seed: u64) -> Arc<Platform> {
        Platform::with_seed(CostModel::no_sgx(), Some(seed))
    }

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("speed-store-persist-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(
        platform: &Arc<Platform>,
        dir: &Path,
        config: StoreConfig,
    ) -> (ResultStore, RecoveryReport) {
        let backend = Arc::new(LogBackend::new(LogConfig::new(dir)));
        ResultStore::open(platform, config, backend).unwrap()
    }

    /// A store directory on `platform` holding entry 1 in its checkpoint
    /// and entry 2 only in the WAL after it.
    fn checkpoint_then_put(platform: &Arc<Platform>, label: &str) -> PathBuf {
        let dir = scratch(label);
        let (store, _) = open(platform, &dir, StoreConfig::default());
        put(&store, 1);
        store.checkpoint().unwrap();
        put(&store, 2);
        dir
    }

    /// Reopens `dir` and asserts its checkpoint was quarantined while the
    /// WAL still replayed entry 2. Returns why the checkpoint was refused.
    fn reopen_quarantined(platform: &Arc<Platform>, dir: &Path) -> String {
        let (store, report) = open(platform, dir, StoreConfig::default());
        assert!(report.quarantined_checkpoint, "{report:?}");
        let tags: Vec<CompTag> = entries(&store).iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![tag(2)], "only the WAL's entry survives");
        match report.checkpoint {
            SnapshotLoad::FreshUnreadable(reason) => reason,
            other => panic!("checkpoint loaded as {other:?}"),
        }
    }

    #[test]
    fn v2_snapshot_restores_across_shard_counts() {
        // A checkpointed store reopens under another shard count with every
        // entry and its record bytes: entries re-route by tag.
        let platform = platform(1);
        let dir = scratch("shards");
        let (store, _) = open(&platform, &dir, StoreConfig::default());
        populate(&store);
        store.checkpoint().unwrap();
        let exported = entries(&store);
        drop(store);

        let (reopened, report) =
            open(&platform, &dir, StoreConfig::default().with_shards(3));
        assert_eq!(report.checkpoint, SnapshotLoad::Restored);
        assert_eq!(report.checkpoint_entries, 5);
        assert_eq!(reopened.shard_count(), 3);
        assert_eq!(entries(&reopened), exported);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_snapshot_version_rejected() {
        let mut writer = Writer::new();
        VERSIONED_SENTINEL.encode(&mut writer);
        99u8.encode(&mut writer); // far-future version
        assert_eq!(decode_payload(&writer.into_bytes()), Err(WireError::InvalidTag(99)));
    }

    #[test]
    fn tampered_snapshot_rejected() {
        // A flipped byte under a recomputed checksum passes the torn-write
        // check (header: 8 magic, 8 sequence, 4 CRC bytes), so unsealing
        // must refuse it.
        let platform = platform(1);
        let dir = checkpoint_then_put(&platform, "tampered");
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = 20 + (bytes.len() - 20) / 2;
        bytes[mid] ^= 0xFF;
        let crc = crate::wal::crc32(&bytes[20..]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(reopen_quarantined(&platform, &dir).contains("unseal"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_bound_to_platform() {
        // A checkpoint sealed on another machine is quarantined, and the
        // WAL this machine wrote still replays.
        let here = platform(1);
        let dir = checkpoint_then_put(&here, "platform-here");
        let foreign = checkpoint_then_put(&platform(2), "platform-foreign");
        std::fs::copy(foreign.join(CHECKPOINT_FILE), dir.join(CHECKPOINT_FILE)).unwrap();
        assert!(reopen_quarantined(&here, &dir).contains("unseal"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&foreign);
    }

    #[test]
    fn empty_store_snapshots_fine() {
        let platform = platform(1);
        let dir = scratch("empty");
        let (store, _) = open(&platform, &dir, StoreConfig::default());
        store.checkpoint().unwrap();
        drop(store);
        let (reopened, report) = open(&platform, &dir, StoreConfig::default());
        assert_eq!(report.checkpoint, SnapshotLoad::Restored);
        assert_eq!(reopened.stats().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_snapshot_never_loads_at_any_truncation_point() {
        // A crash mid-write: every strict prefix of a checkpoint is
        // quarantined — never a panic, never a partial import.
        let platform = platform(1);
        let dir = checkpoint_then_put(&platform, "torn");
        let path = dir.join(CHECKPOINT_FILE);
        let full = std::fs::read(&path).unwrap();
        // Cover the header, the sealed-container boundary, and a spread of
        // interior points.
        let mut cuts: Vec<usize> = (0..24).collect();
        cuts.extend((24..full.len()).step_by(37));
        for cut in cuts {
            std::fs::write(&path, &full[..cut]).unwrap();
            reopen_quarantined(&platform, &dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_write_fsyncs_file_then_rename_then_directory() {
        // The `LogBackend` checkpoint is what writes this sealed payload to
        // disk. Without the directory fsync a power cut after the
        // checkpoint returned can roll the rename back, losing a write the
        // caller was told succeeded (and the segments it let go).
        let platform = platform(1);
        let enclave = platform.create_enclave(b"dirsync").unwrap();
        let dir = scratch("dirsync");
        let vfs = Arc::new(TestVfs::default());
        let backend = LogBackend::with_vfs(vfs.clone(), LogConfig::new(&dir));
        backend.open(&platform, &enclave).unwrap();
        let store = ResultStore::new(&platform, StoreConfig::default()).unwrap();
        populate(&store);
        vfs.ops.lock().unwrap().clear();
        backend.checkpoint(&|| store.export_shards()).unwrap();
        let ops = vfs.ops.lock().unwrap().clone();
        let checkpoint = dir.join(CHECKPOINT_FILE);
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
