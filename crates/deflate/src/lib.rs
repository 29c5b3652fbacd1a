//! A DEFLATE-style compressor/decompressor — the reproduction's stand-in
//! for `zlib`'s `deflate(·)` (use case 2 of the SPEED paper, §V-A).
//!
//! The pipeline mirrors RFC 1951 structurally: an LZ77 stage with hash-chain
//! match finding produces literal/match tokens, which are entropy-coded with
//! canonical Huffman codes (separate literal/length and distance alphabets,
//! length-limited to 15 bits, code tables carried in the block header). The
//! container format is this crate's own, so byte streams are not
//! interoperable with zlib — the *computational profile* (which is what the
//! deduplication experiments exercise) matches: input-linear compression at
//! about zlib's speed. On ~10 KB text chunks on a 2-vCPU Xeon VM,
//! `Level::Default` took 418–471 µs per chunk where the system's zlib
//! 1.2.13 at level 6 took 475–491 µs, at a compression ratio of 0.380
//! against zlib's 0.368 (EXPERIMENTS.md). A repeat costs one SHA-256 pass
//! over its input, over 10× cheaper per byte than the paper's, so Fig. 5b
//! reads a far larger dedup speedup than the paper's ~4×.
//!
//! # Example
//!
//! ```
//! use speed_deflate::{compress, decompress, Level};
//!
//! let data = b"hello hello hello hello hello ".repeat(40);
//! let packed = compress(&data, Level::Default);
//! assert!(packed.len() < data.len());
//! assert_eq!(decompress(&packed).unwrap(), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitio;
mod error;
mod huffman;
mod lz77;

/// Minimal deterministic RNG (SplitMix64) for tests: this crate has no
/// dependencies, and the tier-1 build must resolve offline.
#[cfg(test)]
pub(crate) mod testrand {
    use crate::lz77::MAX_DISTANCE;

    pub struct TestRng(u64);

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng(seed)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub fn below(&mut self, bound: usize) -> usize {
            (self.next_u64() % bound as u64) as usize
        }

        pub fn fill(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }

        pub fn bytes(&mut self, max_len: usize) -> Vec<u8> {
            let mut v = vec![0u8; self.below(max_len + 1)];
            self.fill(&mut v);
            v
        }

        /// `len` bytes of word-salad text: repetitive like prose.
        pub fn text(&mut self, len: usize) -> Vec<u8> {
            const WORDS: [&str; 16] = [
                "the", "enclave", "stores", "a", "sealed", "result", "of", "each",
                "call", "and", "dedup", "finds", "it", "again", "when", "inputs",
            ];
            let mut out = Vec::with_capacity(len + 16);
            while out.len() < len {
                out.extend_from_slice(WORDS[self.below(WORDS.len())].as_bytes());
                out.push(if self.below(12) == 0 { b'.' } else { b' ' });
            }
            out.truncate(len);
            out
        }

        /// `len` bytes drawn uniformly from the first `letters` of `a..`.
        pub fn letters(&mut self, letters: usize, len: usize) -> Vec<u8> {
            (0..len).map(|_| b'a' + self.below(letters) as u8).collect()
        }
    }

    pub const LEVELS: [crate::Level; 3] =
        [crate::Level::Fast, crate::Level::Default, crate::Level::Best];

    /// The inputs `compress` is checked on against the reference
    /// tokenizer, and whose compressed bytes are pinned.
    pub fn differential_corpus() -> Vec<Vec<u8>> {
        let mut rng = TestRng::new(0x5EED_DEF1);
        let mut corpus = Vec::new();
        for len in [2048, 4113, 10_000, 16_384, 32_773, 65_536] {
            corpus.push(rng.text(len));
        }
        for max_len in [64, 4096, 20_000] {
            corpus.push(rng.bytes(max_len));
        }
        for letters in [2, 4, 16] {
            corpus.push(rng.letters(letters, 12_000));
        }
        corpus.push(vec![b'z'; 20_000]);
        let mut runs = Vec::new();
        for (byte, len) in
            [(b'a', 300), (b'b', 1), (b'a', 5000), (0, 259), (b'a', 40_000)]
        {
            runs.extend(std::iter::repeat_n(byte, len));
        }
        corpus.push(runs);
        // A block repeated just inside the window, at its edge and past it.
        for gap in [MAX_DISTANCE - 1, MAX_DISTANCE, MAX_DISTANCE + 1] {
            let block = rng.text(300);
            let mut data = block.clone();
            let mut filler = vec![0u8; gap - block.len()];
            rng.fill(&mut filler);
            data.extend_from_slice(&filler);
            data.extend_from_slice(&block);
            data.extend_from_slice(&block);
            corpus.push(data);
        }
        // At the 'y' the recent copy matches 101 bytes, past Default's
        // good-enough 64. One byte on, that copy (100) still stops the
        // lookahead before the older, longer one (200) is reached.
        let mut block = vec![0u8; 200];
        rng.fill(&mut block);
        let mut lookahead = Vec::new();
        for piece in
            [&b"x"[..], &block, b"\n", b"y", &block[..100], &[!block[100]], b"y", &block]
        {
            lookahead.extend_from_slice(piece);
        }
        corpus.push(lookahead);
        let text = rng.text(MAX_DISTANCE + 1);
        let four = rng.letters(4, 300);
        for len in 0..=300 {
            corpus.push(text[..len].to_vec());
            corpus.push(four[..len].to_vec());
        }
        for len in [7, 8, 9, 257, 258, 259, 32_767, 32_768, 32_769] {
            corpus.push(text[..len].to_vec());
            corpus.push(vec![b'q'; len]);
        }
        corpus
    }
}

pub use error::DeflateError;
pub use lz77::Level;

use bitio::{BitReader, BitWriter};
use huffman::{CanonicalCode, Decoder};
use lz77::{tokenize, Token, MAX_DISTANCE, MAX_MATCH, MIN_MATCH};

const MAGIC: &[u8; 4] = b"SPDF";
/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Size of the literal/length alphabet: 256 literals + EOB + 29 length codes.
const LITLEN_SYMBOLS: usize = 286;
/// Size of the distance alphabet.
const DIST_SYMBOLS: usize = 30;

/// Base match lengths for length codes 257..=285 (RFC 1951 table).
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99,
    115, 131, 163, 195, 227, 258,
];
/// Extra bits for each length code.
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Base distances for distance codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025,
    1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits for each distance code.
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12,
    12, 13, 13,
];

/// Length code index (0..=28) per match length, zlib's `_length_code`
/// indexed by the length itself. Length 258 has its own code (28) with no
/// extra bits, so it overwrites code 27's last slot.
const LENGTH_CODE: [u8; MAX_MATCH + 1] = {
    let mut table = [0u8; MAX_MATCH + 1];
    let mut code = 0;
    while code < LENGTH_BASE.len() {
        let base = LENGTH_BASE[code] as usize;
        let mut len = base;
        while len < base + (1 << LENGTH_EXTRA[code]) && len <= MAX_MATCH {
            table[len] = code as u8;
            len += 1;
        }
        code += 1;
    }
    table
};

/// Distance code per distance, zlib's `_dist_code`: entry `d - 1` for
/// distances up to 256, and entry `256 + ((d - 1) >> 7)` beyond, where every
/// code spans whole 128-distance blocks.
const DIST_CODE: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut code = 0;
    while code < DIST_BASE.len() {
        let base = DIST_BASE[code] as usize;
        let mut dist = base;
        while dist < base + (1 << DIST_EXTRA[code]) {
            table[dist_code_index(dist)] = code as u8;
            dist += 1;
        }
        code += 1;
    }
    table
};

const fn dist_code_index(dist: usize) -> usize {
    if dist <= 256 {
        dist - 1
    } else {
        256 + ((dist - 1) >> 7)
    }
}

fn length_code(len: u16) -> (usize, u8, u16) {
    debug_assert!((MIN_MATCH as u16..=MAX_MATCH as u16).contains(&len));
    let code = usize::from(LENGTH_CODE[usize::from(len)]);
    (257 + code, LENGTH_EXTRA[code], len - LENGTH_BASE[code])
}

fn dist_code(dist: u16) -> (usize, u8, u16) {
    debug_assert!((1..=MAX_DISTANCE as u16).contains(&dist));
    let code = usize::from(DIST_CODE[dist_code_index(usize::from(dist))]);
    (code, DIST_EXTRA[code], dist - DIST_BASE[code])
}

/// Compresses `data` at the given effort level.
///
/// The output always carries a 9-byte header (magic, mode, original
/// length); incompressible data falls back to stored mode with ~1%
/// overhead.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    encode(data, &tokenize(data, level))
}

/// Entropy-codes `tokens`, the LZ77 parse of `data`, into the container.
fn encode(data: &[u8], tokens: &[Token]) -> Vec<u8> {
    // Token → symbol frequencies.
    let mut litlen_freq = [0u64; LITLEN_SYMBOLS];
    let mut dist_freq = [0u64; DIST_SYMBOLS];
    for token in tokens {
        match *token {
            Token::Literal(byte) => litlen_freq[byte as usize] += 1,
            Token::Match { len, dist } => {
                litlen_freq[length_code(len).0] += 1;
                dist_freq[dist_code(dist).0] += 1;
            }
        }
    }
    litlen_freq[EOB] += 1;

    let litlen_code = CanonicalCode::from_frequencies(&litlen_freq, 15);
    let dist_code_table = CanonicalCode::from_frequencies(&dist_freq, 15);

    let mut writer = BitWriter::new();
    // Header: code lengths as nibble pairs (fits because max length 15).
    write_lengths(&mut writer, litlen_code.lengths());
    write_lengths(&mut writer, dist_code_table.lengths());

    for token in tokens {
        match *token {
            Token::Literal(byte) => litlen_code.write(&mut writer, byte as usize),
            Token::Match { len, dist } => {
                let (lcode, lextra, lbits) = length_code(len);
                litlen_code.write(&mut writer, lcode);
                writer.write_bits(u32::from(lbits), lextra);
                let (dcode, dextra, dbits) = dist_code(dist);
                dist_code_table.write(&mut writer, dcode);
                writer.write_bits(u32::from(dbits), dextra);
            }
        }
    }
    litlen_code.write(&mut writer, EOB);
    let packed = writer.into_bytes();

    let mut out = Vec::with_capacity(packed.len() + 16);
    out.extend_from_slice(MAGIC);
    let use_stored = packed.len() >= data.len();
    out.push(u8::from(use_stored));
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    if use_stored {
        out.extend_from_slice(data);
    } else {
        out.extend_from_slice(&packed);
    }
    out
}

fn write_lengths(writer: &mut BitWriter, lengths: &[u8]) {
    for &len in lengths {
        writer.write_bits(u32::from(len), 4);
    }
}

fn read_lengths(
    reader: &mut BitReader<'_>,
    count: usize,
) -> Result<Vec<u8>, DeflateError> {
    (0..count)
        .map(|_| reader.read_bits(4).map(|b| b as u8))
        .collect::<Result<Vec<u8>, _>>()
}

/// Decompresses data produced by [`compress`].
///
/// # Errors
///
/// Returns [`DeflateError`] on malformed or truncated input, including
/// hostile streams (bad magic, invalid codes, out-of-range distances).
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DeflateError> {
    if data.len() < 9 {
        return Err(DeflateError::Truncated);
    }
    if &data[..4] != MAGIC {
        return Err(DeflateError::BadMagic);
    }
    let stored = match data[4] {
        0 => false,
        1 => true,
        other => return Err(DeflateError::Corrupt(format!("bad mode byte {other}"))),
    };
    let original_len = u32::from_le_bytes(data[5..9].try_into().expect("sized")) as usize;
    let payload = &data[9..];

    if stored {
        if payload.len() != original_len {
            return Err(DeflateError::Corrupt(format!(
                "stored block length {} != declared {original_len}",
                payload.len()
            )));
        }
        return Ok(payload.to_vec());
    }

    let mut reader = BitReader::new(payload);
    let litlen_lengths = read_lengths(&mut reader, LITLEN_SYMBOLS)?;
    let dist_lengths = read_lengths(&mut reader, DIST_SYMBOLS)?;
    let litlen_decoder = Decoder::from_lengths(&litlen_lengths)?;
    let dist_decoder = Decoder::from_lengths(&dist_lengths)?;

    let mut out: Vec<u8> = Vec::with_capacity(original_len.min(1 << 24));
    loop {
        let symbol = litlen_decoder.read(&mut reader)?;
        match symbol {
            0..=255 => out.push(symbol as u8),
            256 => break,
            257..=285 => {
                let idx = symbol - 257;
                let extra = reader.read_bits(LENGTH_EXTRA[idx])?;
                let len = usize::from(LENGTH_BASE[idx]) + extra as usize;
                let dsym = dist_decoder.read(&mut reader)?;
                if dsym >= DIST_SYMBOLS {
                    return Err(DeflateError::Corrupt(format!(
                        "distance symbol {dsym} out of range"
                    )));
                }
                let dextra = reader.read_bits(DIST_EXTRA[dsym])?;
                let dist = usize::from(DIST_BASE[dsym]) + dextra as usize;
                if dist > out.len() {
                    return Err(DeflateError::Corrupt(format!(
                        "distance {dist} exceeds output length {}",
                        out.len()
                    )));
                }
                if out.len() + len > original_len {
                    return Err(DeflateError::Corrupt(
                        "output exceeds declared length".into(),
                    ));
                }
                let start = out.len() - dist;
                // Byte-by-byte copy: overlapping matches are legal LZ77.
                for i in 0..len {
                    let byte = out[start + i];
                    out.push(byte);
                }
            }
            other => {
                return Err(DeflateError::Corrupt(format!(
                    "literal/length symbol {other} out of range"
                )))
            }
        }
        if out.len() > original_len {
            return Err(DeflateError::Corrupt("output exceeds declared length".into()));
        }
    }
    if out.len() != original_len {
        return Err(DeflateError::Corrupt(format!(
            "output length {} != declared {original_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// The compression ratio `compressed/original` (1.0 means no gain).
pub fn ratio(original: &[u8], compressed: &[u8]) -> f64 {
    if original.is_empty() {
        return 1.0;
    }
    compressed.len() as f64 / original.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrand::{differential_corpus, TestRng, LEVELS};

    #[test]
    fn empty_roundtrip() {
        let packed = compress(b"", Level::Default);
        assert_eq!(decompress(&packed).unwrap(), b"");
    }

    #[test]
    fn single_byte_roundtrip() {
        let packed = compress(b"x", Level::Default);
        assert_eq!(decompress(&packed).unwrap(), b"x");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = b"abcabcabcabcabcabcabcabcabcabcabcabc".repeat(100);
        let packed = compress(&data, Level::Default);
        assert!(packed.len() < data.len() / 5, "{} vs {}", packed.len(), data.len());
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn text_like_data_roundtrip() {
        let data =
            "the quick brown fox jumps over the lazy dog. ".repeat(50).into_bytes();
        for level in LEVELS {
            let packed = compress(&data, level);
            assert_eq!(decompress(&packed).unwrap(), data, "level {level:?}");
            assert!(packed.len() < data.len());
        }
    }

    #[test]
    fn random_data_falls_back_to_stored() {
        let mut rng = TestRng::new(1);
        let mut data = vec![0u8; 10_000];
        rng.fill(&mut data);
        let packed = compress(&data, Level::Default);
        // Stored mode: 9 bytes of header overhead only.
        assert_eq!(packed.len(), data.len() + 9);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn long_match_and_far_distance() {
        // A long run (match length 258 path) followed by a far repeat.
        let mut data = vec![b'a'; 1000];
        data.extend_from_slice(&vec![b'b'; 20_000]);
        data.extend_from_slice(&vec![b'a'; 1000]);
        let packed = compress(&data, Level::Best);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn deterministic_output() {
        let data = b"determinism matters for dedup tags".repeat(20);
        assert_eq!(compress(&data, Level::Default), compress(&data, Level::Default));
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            decompress(b"NOPE\x00\x00\x00\x00\x00"),
            Err(DeflateError::BadMagic)
        ));
    }

    #[test]
    fn truncated_rejected() {
        let packed = compress(b"hello world hello world", Level::Default);
        for cut in 0..packed.len().min(9) {
            assert!(decompress(&packed[..cut]).is_err());
        }
    }

    #[test]
    fn corrupted_stream_never_panics() {
        let data = b"some reasonably compressible data data data".repeat(10);
        let packed = compress(&data, Level::Default);
        for i in 9..packed.len() {
            let mut corrupted = packed.clone();
            corrupted[i] ^= 0xFF;
            // Any outcome but a panic is acceptable; often an error.
            let _ = decompress(&corrupted);
        }
    }

    #[test]
    fn output_matches_the_reference_tokenizer() {
        for (i, data) in differential_corpus().iter().enumerate() {
            for level in LEVELS {
                let reference = lz77::reference::tokenize(data, level);
                let context = format!("input {i} ({} bytes) at {level:?}", data.len());
                assert!(tokenize(data, level) == reference, "tokens differ: {context}");
                let packed = compress(data, level);
                assert!(packed == encode(data, &reference), "bytes differ: {context}");
                assert_eq!(decompress(&packed).unwrap(), *data, "{context}");
            }
        }
    }

    /// FNV-1a 64 over every compressed corpus input at every level, each
    /// preceded by its length. The value was computed with the encoder and
    /// tokenizer this crate had before the match search was rewritten, so
    /// it fails on any change to a compressed byte.
    #[test]
    fn compressed_bytes_are_pinned() {
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for data in differential_corpus() {
            for level in LEVELS {
                let packed = compress(&data, level);
                for &byte in (packed.len() as u64).to_le_bytes().iter().chain(&packed) {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
                }
            }
        }
        assert_eq!(digest, PINNED_DIGEST, "got {digest:#018x}");
    }

    const PINNED_DIGEST: u64 = 0xD330_AA70_45D6_0DAC;

    #[test]
    fn length_code_table_is_consistent() {
        for len in MIN_MATCH as u16..=MAX_MATCH as u16 {
            let (code, extra, bits) = length_code(len);
            assert!((257..=285).contains(&code), "len {len}");
            let idx = code - 257;
            assert_eq!(idx, LENGTH_BASE.partition_point(|&b| b <= len) - 1, "len {len}");
            assert_eq!(LENGTH_BASE[idx] + bits, len);
            assert!(bits < (1 << extra) || extra == 0 && bits == 0);
        }
    }

    #[test]
    fn dist_code_table_is_consistent() {
        for dist in 1..=MAX_DISTANCE as u16 {
            let (code, extra, bits) = dist_code(dist);
            assert_eq!(
                code,
                DIST_BASE.partition_point(|&b| b <= dist) - 1,
                "dist {dist}"
            );
            assert_eq!(DIST_BASE[code] + bits, dist);
            assert!(bits < (1 << extra) || extra == 0 && bits == 0);
        }
    }

    #[test]
    fn prop_roundtrip_arbitrary() {
        let mut rng = TestRng::new(0xDEF1A7E);
        for _ in 0..64 {
            let data = rng.bytes(2048);
            let packed = compress(&data, Level::Default);
            assert_eq!(decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn prop_roundtrip_repetitive() {
        let mut rng = TestRng::new(0xDEF1A7F);
        for _ in 0..16 {
            let len = rng.below(5000);
            let alphabet = b"abcd";
            let data: Vec<u8> =
                (0..len).map(|_| alphabet[rng.below(alphabet.len())]).collect();
            for level in LEVELS {
                let packed = compress(&data, level);
                assert_eq!(decompress(&packed).unwrap(), data);
            }
        }
    }

    #[test]
    fn prop_hostile_input_never_panics() {
        let mut rng = TestRng::new(0xBAD);
        for _ in 0..256 {
            let _ = decompress(&rng.bytes(512));
        }
    }
}
