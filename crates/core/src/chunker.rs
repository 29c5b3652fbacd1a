//! Content-defined chunking for streaming deduplication.
//!
//! Whole-call dedup treats each input as atomic: two 10 MiB streams that
//! share 9 MiB score zero hits. The chunker splits a byte stream at
//! content-determined boundaries (a gear rolling hash, as in rdedup-style
//! CAS vaults), so identical *regions* of different streams produce
//! identical chunks — and therefore identical comp-tags — regardless of
//! where they sit in the stream. Partial overlap becomes partial hits.
//!
//! Properties the chunker guarantees (see `tests/chunker_props.rs`):
//!
//! - **Split invariance**: each fragment is scanned for the next cut and
//!   the hash state carries across fragments, so pushing a stream in any
//!   sequence of fragment sizes yields byte-identical chunks.
//! - **Bounds**: every chunk is at least `min` bytes (except a final
//!   short tail) and at most `max` bytes (a forced cut fires at `max`).
//! - **Edit locality**: the rolling hash is reset at each chunk start and
//!   a byte's influence expires after [`GEAR_WINDOW`] bytes, so a
//!   single-byte edit re-synchronizes chunk boundaries within a bounded
//!   number of chunks.

// hot-path: deny-clone

use std::fmt;

/// Bytes after which a byte stops influencing the gear hash: each update
/// shifts the accumulator left by one bit, so 64 updates flush it out.
pub const GEAR_WINDOW: usize = 64;

/// Boundary policy for the [`Chunker`].
///
/// `avg` must be a power of two; it sets the number of hash bits a
/// boundary must zero, so chunk lengths beyond `min` follow a geometric
/// distribution with mean `avg` (the expected chunk length is roughly
/// `min + avg`, clipped by `max`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkerConfig {
    /// Minimum chunk length in bytes; boundaries are not tested before it.
    pub min: usize,
    /// Target mean of the content-defined part of the chunk length.
    /// Must be a power of two.
    pub avg: usize,
    /// Hard upper bound; a cut is forced when a chunk reaches it.
    pub max: usize,
}

impl ChunkerConfig {
    /// The default streaming policy: 2 KiB / 8 KiB / 64 KiB.
    pub const DEFAULT: ChunkerConfig =
        ChunkerConfig { min: 2 * 1024, avg: 8 * 1024, max: 64 * 1024 };

    /// A small policy for tests and short streams: 64 B / 256 B / 1 KiB.
    pub const SMALL: ChunkerConfig = ChunkerConfig { min: 64, avg: 256, max: 1024 };

    /// Validates the bounds.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when `min` is zero, the bounds are
    /// not ordered `min ≤ avg ≤ max`, or `avg` is not a power of two.
    pub fn validate(&self) -> Result<(), String> {
        if self.min == 0 {
            return Err("chunker min bound must be positive".into());
        }
        if !(self.min <= self.avg && self.avg <= self.max) {
            return Err(format!(
                "chunker bounds must satisfy min <= avg <= max, got {}/{}/{}",
                self.min, self.avg, self.max
            ));
        }
        if !self.avg.is_power_of_two() {
            return Err(format!("chunker avg must be a power of two, got {}", self.avg));
        }
        Ok(())
    }

    /// The boundary mask: `avg = 2^k` selects the top `k` accumulator
    /// bits, which carry the longest byte history.
    fn mask(&self) -> u64 {
        let bits = self.avg.trailing_zeros();
        if bits == 0 {
            0
        } else {
            !0u64 << (64 - bits)
        }
    }
}

impl Default for ChunkerConfig {
    fn default() -> Self {
        ChunkerConfig::DEFAULT
    }
}

/// Deterministic per-byte gear constants (splitmix64 over the byte value),
/// computed at compile time so the table is identical in every build.
const GEAR: [u64; 256] = build_gear();

const fn build_gear() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

/// Counters describing a chunker's activity so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkerStats {
    /// Chunks emitted (including a final tail from [`Chunker::finish`]).
    pub chunks: u64,
    /// Cuts forced by the `max` bound rather than found by content.
    pub forced_cuts: u64,
    /// Input bytes consumed.
    pub bytes: u64,
}

/// An incremental content-defined chunker.
///
/// Feed bytes with [`push`](Chunker::push) in fragments of any size;
/// completed chunks are handed to the callback as owned buffers (each
/// chunk's bytes are written exactly once — no re-copy on emit). Call
/// [`finish`](Chunker::finish) to flush the final partial chunk.
pub struct Chunker {
    config: ChunkerConfig,
    mask: u64,
    hash: u64,
    buf: Vec<u8>,
    stats: ChunkerStats,
}

impl Chunker {
    /// Creates a chunker.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`ChunkerConfig::validate`].
    pub fn new(config: ChunkerConfig) -> Self {
        if let Err(reason) = config.validate() {
            panic!("invalid chunker config: {reason}");
        }
        Chunker {
            mask: config.mask(),
            config,
            hash: 0,
            buf: Vec::new(),
            stats: ChunkerStats::default(),
        }
    }

    /// The active boundary policy.
    pub fn config(&self) -> ChunkerConfig {
        self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> ChunkerStats {
        self.stats
    }

    /// Bytes buffered in the current incomplete chunk.
    pub fn pending_len(&self) -> usize {
        self.buf.len()
    }

    /// Consumes `bytes`, invoking `emit` once per completed chunk.
    ///
    /// Chunk boundaries depend only on the byte stream, never on how it
    /// is split across `push` calls.
    pub fn push(&mut self, mut bytes: &[u8], mut emit: impl FnMut(Vec<u8>)) {
        self.stats.bytes += bytes.len() as u64;
        while let Some((cut, forced)) = self.next_cut(bytes) {
            self.buf.extend_from_slice(&bytes[..cut]);
            bytes = &bytes[cut..];
            self.stats.forced_cuts += u64::from(forced);
            emit(self.take_chunk());
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Scans `bytes`, the continuation of the pending chunk, and returns
    /// the length of the prefix that completes it and whether `max` forced
    /// the cut; `None` when the chunk goes on past `bytes`.
    ///
    /// The hash is reset at each chunk start, first tested at length
    /// `min`, and a byte's influence expires after [`GEAR_WINDOW`]
    /// updates, so the bytes before `min - GEAR_WINDOW` are not hashed.
    fn next_cut(&mut self, bytes: &[u8]) -> Option<(usize, bool)> {
        let ChunkerConfig { min, max, .. } = self.config;
        let pending = self.buf.len();
        // The byte that reaches `max` forces the cut untested.
        let room = max - pending;
        let tested_end = bytes.len().min(room - 1);
        let first_tested = (min - 1).saturating_sub(pending).min(tested_end);
        let first_hashed =
            min.saturating_sub(GEAR_WINDOW).saturating_sub(pending).min(first_tested);
        for &byte in &bytes[first_hashed..first_tested] {
            self.hash = (self.hash << 1).wrapping_add(GEAR[byte as usize]);
        }
        for (i, &byte) in bytes[..tested_end].iter().enumerate().skip(first_tested) {
            self.hash = (self.hash << 1).wrapping_add(GEAR[byte as usize]);
            if self.hash & self.mask == 0 {
                return Some((i + 1, false));
            }
        }
        (bytes.len() >= room).then_some((room, true))
    }

    /// Flushes the final partial chunk, if any bytes are buffered. The
    /// tail may be shorter than `min` — it is the only chunk allowed to
    /// be.
    pub fn finish(&mut self) -> Option<Vec<u8>> {
        if self.buf.is_empty() {
            return None;
        }
        Some(self.take_chunk())
    }

    fn take_chunk(&mut self) -> Vec<u8> {
        self.stats.chunks += 1;
        self.hash = 0;
        std::mem::take(&mut self.buf)
    }
}

impl fmt::Debug for Chunker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chunker")
            .field("config", &self.config)
            .field("pending", &self.buf.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Chunks a whole in-memory buffer in one call.
pub fn chunk_all(config: ChunkerConfig, bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut chunker = Chunker::new(config);
    let mut chunks = Vec::new();
    chunker.push(bytes, |chunk| chunks.push(chunk));
    if let Some(tail) = chunker.finish() {
        chunks.push(tail);
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn chunks_reassemble_exactly() {
        let data = sample(40_000, 7);
        let chunks = chunk_all(ChunkerConfig::SMALL, &data);
        let rebuilt: Vec<u8> = chunks.concat();
        assert_eq!(rebuilt, data);
        assert!(chunks.len() > 10, "expected many chunks, got {}", chunks.len());
    }

    #[test]
    fn bounds_hold_except_tail() {
        let config = ChunkerConfig::SMALL;
        let data = sample(50_000, 9);
        let chunks = chunk_all(config, &data);
        for (i, chunk) in chunks.iter().enumerate() {
            assert!(chunk.len() <= config.max, "chunk {i} over max");
            if i + 1 < chunks.len() {
                assert!(chunk.len() >= config.min, "chunk {i} under min");
            }
        }
    }

    #[test]
    fn split_size_does_not_change_chunks() {
        let data = sample(30_000, 11);
        let whole = chunk_all(ChunkerConfig::SMALL, &data);
        for split in [1usize, 3, 7, 64, 1000, 29_999] {
            let mut chunker = Chunker::new(ChunkerConfig::SMALL);
            let mut chunks = Vec::new();
            for piece in data.chunks(split) {
                chunker.push(piece, |c| chunks.push(c));
            }
            if let Some(tail) = chunker.finish() {
                chunks.push(tail);
            }
            assert_eq!(chunks, whole, "split size {split} changed the chunks");
        }
    }

    /// The chunker as it was before it scanned fragments: every byte
    /// pushed, hashed and tested against both bounds.
    fn byte_at_a_time(config: ChunkerConfig, data: &[u8]) -> (Vec<Vec<u8>>, u64) {
        let (mut chunks, mut buf, mut hash, mut forced) =
            (Vec::new(), Vec::new(), 0u64, 0);
        for &byte in data {
            buf.push(byte);
            hash = (hash << 1).wrapping_add(GEAR[byte as usize]);
            let cut = if buf.len() >= config.max {
                forced += 1;
                true
            } else {
                buf.len() >= config.min && hash & config.mask() == 0
            };
            if cut {
                chunks.push(std::mem::take(&mut buf));
                hash = 0;
            }
        }
        if !buf.is_empty() {
            chunks.push(buf);
        }
        (chunks, forced)
    }

    #[test]
    fn cuts_match_the_byte_at_a_time_chunker() {
        let tight = ChunkerConfig { min: 16, avg: 32, max: 80 };
        let mut data = sample(300_000, 13);
        data.extend(std::iter::repeat_n(0u8, 70_000));
        for config in [ChunkerConfig::DEFAULT, ChunkerConfig::SMALL, tight] {
            let (expected, forced) = byte_at_a_time(config, &data);
            for split in [1usize, 63, 64, 65, 4096, data.len()] {
                let mut chunker = Chunker::new(config);
                let mut chunks = Vec::new();
                for piece in data.chunks(split) {
                    chunker.push(piece, |c| chunks.push(c));
                }
                chunks.extend(chunker.finish());
                assert!(chunks == expected, "{config:?} split {split}");
                assert_eq!(
                    chunker.stats().forced_cuts,
                    forced,
                    "{config:?} split {split}"
                );
            }
        }
    }

    #[test]
    fn empty_stream_yields_no_chunks() {
        let mut chunker = Chunker::new(ChunkerConfig::SMALL);
        chunker.push(&[], |_| panic!("no chunk expected"));
        assert!(chunker.finish().is_none());
        assert_eq!(chunker.stats(), ChunkerStats::default());
    }

    #[test]
    fn uniform_input_forces_max_cuts() {
        // A constant byte gives a constant (per-offset) hash pattern; if it
        // never matches the mask every cut is forced at max.
        let config = ChunkerConfig::SMALL;
        let data = vec![0u8; 10 * config.max];
        let chunks = chunk_all(config, &data);
        let stats_forced = chunks.iter().filter(|c| c.len() == config.max).count();
        assert!(stats_forced > 0 || chunks.iter().all(|c| c.len() <= config.max));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_avg_panics() {
        let _ = Chunker::new(ChunkerConfig { min: 16, avg: 100, max: 1000 });
    }

    #[test]
    #[should_panic(expected = "min <= avg <= max")]
    fn unordered_bounds_panic() {
        let _ = Chunker::new(ChunkerConfig { min: 512, avg: 256, max: 1024 });
    }
}
