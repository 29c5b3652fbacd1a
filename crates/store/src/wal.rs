//! Write-ahead-log record format for the log-structured store backend.
//!
//! Each durable mutation becomes one WAL record appended to the active
//! segment file. The on-disk frame is
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][sealed payload: len bytes]
//! ```
//!
//! where the payload is *sealed per record* under the store enclave's
//! identity ([`SealPolicy::MrEnclave`]) — the storage data path stays
//! protected without trusting the filesystem, and sealing one small record
//! at a time, with a [`Sealer`] whose key is derived once per backend
//! open, keeps the sealed path cheap enough for the hot write path.
//! The CRC covers the sealed bytes: recovery can cut a torn tail without
//! paying an unseal attempt per corrupt candidate record.
//!
//! Recovery scans a segment front to back and stops at the first record
//! that is short, fails its CRC, fails to unseal, or fails to decode — the
//! classic torn-tail rule. Everything before the stop point is trusted
//! (CRC + AEAD tag both passed); everything after is discarded.
//!
//! [`SealPolicy::MrEnclave`]: speed_enclave::sealing::SealPolicy::MrEnclave

use speed_enclave::sealing::{SealedData, Sealer};
use speed_wire::{CompTag, Reader, SyncEntry, WireDecode, WireEncode, Writer};

use crate::StoreError;

/// Sealing AAD for WAL records. Versioned independently of the checkpoint
/// AAD so a WAL record can never be replayed as a checkpoint or vice versa.
pub const WAL_AAD: &[u8] = b"speed-store-wal-v1";

/// Upper bound on one sealed record. A length prefix above this is treated
/// as corruption (torn tail), not an allocation request.
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// One logical mutation in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// A new entry became live.
    Put(SyncEntry),
    /// A duplicate PUT of an existing entry. Only earlier versions wrote
    /// it; it still decodes, and replays as a no-op.
    Ref(CompTag),
    /// A released reference. No version of the store ever wrote it
    /// outside tests; it still decodes, and replays as a no-op.
    Unref(CompTag),
    /// The entry was removed (eviction, dangling-blob cleanup).
    Delete(CompTag),
}

/// A sequenced WAL record. Sequence numbers are global and strictly
/// increasing, so replay can merge segment files into one mutation order,
/// including the several shard logs that earlier versions wrote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Global sequence number (1-based; 0 means "nothing logged yet").
    pub seq: u64,
    /// The mutation.
    pub op: WalOp,
}

const OP_PUT: u8 = 1;
const OP_REF: u8 = 2;
const OP_UNREF: u8 = 3;
const OP_DELETE: u8 = 4;

fn encode_plain(record: &WalRecord) -> Vec<u8> {
    let mut writer = Writer::new();
    record.seq.encode(&mut writer);
    match &record.op {
        WalOp::Put(entry) => {
            OP_PUT.encode(&mut writer);
            entry.encode(&mut writer);
        }
        WalOp::Ref(tag) => {
            OP_REF.encode(&mut writer);
            tag.encode(&mut writer);
        }
        WalOp::Unref(tag) => {
            OP_UNREF.encode(&mut writer);
            tag.encode(&mut writer);
        }
        WalOp::Delete(tag) => {
            OP_DELETE.encode(&mut writer);
            tag.encode(&mut writer);
        }
    }
    writer.into_bytes()
}

fn decode_plain(bytes: &[u8]) -> Option<WalRecord> {
    let mut reader = Reader::new(bytes);
    let seq = u64::decode(&mut reader).ok()?;
    let kind = u8::decode(&mut reader).ok()?;
    let op = match kind {
        OP_PUT => WalOp::Put(SyncEntry::decode(&mut reader).ok()?),
        OP_REF | OP_UNREF | OP_DELETE => {
            let tag = CompTag::decode(&mut reader).ok()?;
            match kind {
                OP_REF => WalOp::Ref(tag),
                OP_UNREF => WalOp::Unref(tag),
                _ => WalOp::Delete(tag),
            }
        }
        _ => return None,
    };
    reader.finish().ok()?;
    Some(WalRecord { seq, op })
}

/// Seals and frames one record for appending to a segment file. `sealer`
/// holds the store enclave's [`SealPolicy::MrEnclave`] key.
///
/// [`SealPolicy::MrEnclave`]: speed_enclave::sealing::SealPolicy::MrEnclave
pub fn encode_record(
    sealer: &mut Sealer,
    record: &WalRecord,
) -> Result<Vec<u8>, StoreError> {
    let plain = encode_plain(record);
    let sealed = sealer.seal(WAL_AAD, &plain).to_bytes();
    let len = u32::try_from(sealed.len()).map_err(|_| {
        StoreError::Protocol("WAL record exceeds the u32 frame limit".into())
    })?;
    if len > MAX_RECORD_LEN {
        return Err(StoreError::Protocol(format!(
            "WAL record of {len} bytes exceeds the {MAX_RECORD_LEN}-byte limit"
        )));
    }
    let mut framed = Vec::with_capacity(8 + sealed.len());
    framed.extend_from_slice(&len.to_le_bytes());
    framed.extend_from_slice(&crc32(&sealed).to_le_bytes());
    framed.extend_from_slice(&sealed);
    Ok(framed)
}

/// The outcome of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Records recovered, in file order (their `seq`s are increasing
    /// within one file, except for records that an earlier version's
    /// compaction re-appended).
    pub records: Vec<WalRecord>,
    /// Byte offsets at which each recovered record's frame starts, plus a
    /// final entry equal to `valid_len` — i.e. the record boundaries.
    pub offsets: Vec<u64>,
    /// Length of the valid prefix; bytes past this are a torn tail.
    pub valid_len: u64,
    /// Whether a torn/corrupt tail was cut.
    pub torn: bool,
}

/// Scans a segment's bytes, stopping at the first short, corrupt,
/// unsealable, or undecodable record (the torn-tail rule). `sealer` holds
/// the key the records were sealed under.
pub fn scan_segment(sealer: &Sealer, bytes: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    let mut offsets = vec![0u64];
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len as u32 > MAX_RECORD_LEN || rest.len() < 8 + len {
            break;
        }
        let sealed_bytes = &rest[8..8 + len];
        if crc32(sealed_bytes) != crc {
            break;
        }
        let Ok(sealed) = SealedData::from_bytes(sealed_bytes) else { break };
        let Ok(plain) = sealer.unseal(WAL_AAD, &sealed) else { break };
        let Some(record) = decode_plain(&plain) else { break };
        records.push(record);
        pos += 8 + len;
        offsets.push(pos as u64);
    }
    let torn = pos < bytes.len();
    SegmentScan { records, offsets, valid_len: pos as u64, torn }
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-8: eight table
/// lookups fold eight input bytes per step, and the bytes after the last
/// full step go one at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let low = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let high = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(low & 0xFF) as usize]
            ^ TABLES[6][((low >> 8) & 0xFF) as usize]
            ^ TABLES[5][((low >> 16) & 0xFF) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][(high & 0xFF) as usize]
            ^ TABLES[2][((high >> 8) & 0xFF) as usize]
            ^ TABLES[1][((high >> 16) & 0xFF) as usize]
            ^ TABLES[0][(high >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `tables[0]` is the bytewise table; `tables[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes, which lets one step fold eight bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use speed_enclave::sealing::SealPolicy;
    use speed_enclave::{CostModel, Platform};
    use speed_wire::{CompTag, Record};

    /// A sealer for a test store enclave on a fresh platform.
    fn sealer() -> Sealer {
        let platform = Platform::new(CostModel::no_sgx());
        let enclave = platform.create_enclave(b"wal-test-enclave").unwrap();
        Sealer::new(&platform, &enclave, &SealPolicy::MrEnclave)
    }

    fn put_record(seq: u64, fill: u8) -> WalRecord {
        WalRecord {
            seq,
            op: WalOp::Put(SyncEntry {
                tag: CompTag::from_bytes([fill; 32]),
                record: Record {
                    challenge: vec![fill; 32],
                    wrapped_key: [fill; 16],
                    nonce: [fill; 12],
                    boxed_result: vec![fill; 20],
                },
            }),
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard zlib test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The plain byte-at-a-time table loop: the oracle for [`crc32`].
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = crc32_tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bytewise_oracle_at_every_length_and_offset() {
        let mut rng = speed_crypto::SystemRng::seeded(0xC3C3);
        let mut bytes = vec![0u8; 65_543 + 8];
        rng.fill(&mut bytes);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let lengths = (0..=1024).chain([25_000, 65_543]);
        for len in lengths {
            for offset in 0..=7 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "len {len} at {offset}");
            }
        }
    }

    #[test]
    fn records_roundtrip_through_a_segment() {
        let mut sealer = sealer();
        let mut segment = Vec::new();
        let originals = vec![
            put_record(1, 7),
            WalRecord { seq: 2, op: WalOp::Ref(CompTag::from_bytes([7; 32])) },
            WalRecord { seq: 3, op: WalOp::Unref(CompTag::from_bytes([7; 32])) },
            WalRecord { seq: 4, op: WalOp::Delete(CompTag::from_bytes([7; 32])) },
        ];
        for record in &originals {
            segment.extend(encode_record(&mut sealer, record).unwrap());
        }
        let scan = scan_segment(&sealer, &segment);
        assert_eq!(scan.records, originals);
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, segment.len() as u64);
        assert_eq!(scan.offsets.len(), originals.len() + 1);
    }

    #[test]
    fn torn_tail_truncates_at_every_offset() {
        let mut sealer = sealer();
        let mut segment = Vec::new();
        let mut boundaries = vec![0usize];
        for seq in 1..=3u64 {
            segment.extend(encode_record(&mut sealer, &put_record(seq, 9)).unwrap());
            boundaries.push(segment.len());
        }
        for cut in 0..segment.len() {
            let scan = scan_segment(&sealer, &segment[..cut]);
            // Recovered records = complete frames strictly below the cut.
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(scan.records.len(), complete, "cut={cut}");
            assert_eq!(scan.valid_len as usize, boundaries[complete], "cut={cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let mut sealer = sealer();
        let mut segment = Vec::new();
        for seq in 1..=3u64 {
            segment.extend(encode_record(&mut sealer, &put_record(seq, 3)).unwrap());
        }
        let record_len = segment.len() / 3;
        // Flip a byte in the second record's sealed payload.
        segment[record_len + 12] ^= 0xFF;
        let scan = scan_segment(&sealer, &segment);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn);
    }

    #[test]
    fn foreign_enclave_records_are_rejected() {
        let mut sealer = sealer();
        let other = self::sealer();
        let frame = encode_record(&mut sealer, &put_record(1, 1)).unwrap();
        let scan = scan_segment(&other, &frame);
        assert!(scan.records.is_empty());
        assert!(scan.torn);
    }

    #[test]
    fn hostile_length_prefix_is_corruption_not_allocation() {
        let sealer = sealer();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 100]);
        let scan = scan_segment(&sealer, &bytes);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
    }
}
