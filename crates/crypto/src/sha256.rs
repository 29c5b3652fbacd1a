//! FIPS 180-4 SHA-256 with an incremental (init/update/finalize) API.

// hot-path: deny-clone

use std::fmt;

/// Length in bytes of a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// SHA-256 block size in bytes.
pub(crate) const BLOCK_LEN: usize = 64;

/// FIPS 180-4 round constants.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// A SHA-256 digest value.
///
/// Wraps the 32 output bytes; formats as lowercase hex.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest([u8; DIGEST_LEN]);

impl Digest {
    /// Wraps raw digest bytes.
    pub fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }

    /// Returns the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Consumes the digest and returns the raw bytes.
    pub fn into_bytes(self) -> [u8; DIGEST_LEN] {
        self.0
    }

    /// Returns the lowercase hex encoding of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Truncates the digest to its first 16 bytes, e.g. for use as a
    /// key-wrapping pad in the RCE construction.
    pub fn truncate16(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out.copy_from_slice(&self.0[..16]);
        out
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// An incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use speed_crypto::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"ab");
/// hasher.update(b"c");
/// assert_eq!(hasher.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
    compressor: Compressor,
}

impl Sha256 {
    /// Creates a fresh hasher on the fastest compression function this CPU
    /// runs.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
            compressor: Compressor::detect(),
        }
    }

    /// One-shot convenience: hash `data` in a single call.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes several byte strings with unambiguous (length-prefixed)
    /// concatenation.
    ///
    /// Used for the paper's multi-input hashes `H(func, m)` and
    /// `H(func, m, r)`; the length framing prevents ambiguity between e.g.
    /// `("ab", "c")` and `("a", "bc")`.
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.update(&(part.len() as u64).to_be_bytes());
            h.update(part);
        }
        h.finalize()
    }

    /// Absorbs more input.
    ///
    /// Full 64-byte blocks are compressed directly from `data`, as one run
    /// per call — the hot bulk-hash loop never stages input bytes through
    /// the internal buffer, which only holds the sub-block head/tail of a
    /// misaligned stream.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take]
                .copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == BLOCK_LEN {
                self.compress_buffer();
            }
        }
        let (blocks, tail) = data.as_chunks::<BLOCK_LEN>();
        if !blocks.is_empty() {
            self.compressor.compress_blocks(&mut self.state, blocks);
        }
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffer_len = tail.len();
        }
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian message length.
        self.update_padding_byte();
        while self.buffer_len != 56 {
            self.update_zero_byte();
        }
        let len_bytes = bit_len.to_be_bytes();
        self.buffer[56..64].copy_from_slice(&len_bytes);
        self.compress_buffer();

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn update_padding_byte(&mut self) {
        self.buffer[self.buffer_len] = 0x80;
        self.buffer_len += 1;
        if self.buffer_len == BLOCK_LEN {
            self.compress_buffer();
        }
    }

    fn update_zero_byte(&mut self) {
        self.buffer[self.buffer_len] = 0;
        self.buffer_len += 1;
        if self.buffer_len == BLOCK_LEN {
            self.compress_buffer();
        }
    }

    /// Compresses the full internal buffer and empties it.
    fn compress_buffer(&mut self) {
        self.compressor
            .compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
        self.buffer_len = 0;
    }
}

/// The compression function a hasher runs, chosen by CPU detection when it
/// is created. Every variant produces the same state for every input.
#[derive(Clone, Copy, Debug)]
enum Compressor {
    /// The portable code below: the only path on CPUs without SHA-NI, and
    /// the reference the differential tests compare against.
    Soft,
    /// The SHA-NI code in [`crate::sha256_ni`].
    #[cfg(target_arch = "x86_64")]
    Ni(crate::sha256_ni::ShaNi),
}

impl Compressor {
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::sha256_ni::ShaNi::detect() {
            return Compressor::Ni(ni);
        }
        Compressor::Soft
    }

    /// Compresses `blocks`, in order, into `state`.
    fn compress_blocks(self, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        match self {
            Compressor::Soft => blocks.iter().for_each(|block| compress(state, block)),
            #[cfg(target_arch = "x86_64")]
            Compressor::Ni(ni) => ni.compress_blocks(state, blocks),
        }
    }
}

/// One FIPS 180-4 compression round over a single 64-byte block.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 =
            w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 =
            h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

#[cfg(test)]
impl Sha256 {
    /// One fresh hasher per compression function this CPU runs, the
    /// portable one first.
    pub(crate) fn backends() -> Vec<Sha256> {
        let soft = Sha256 { compressor: Compressor::Soft, ..Sha256::new() };
        let mut backends = vec![soft];
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::sha256_ni::ShaNi::detect() {
            backends.push(Sha256 { compressor: Compressor::Ni(ni), ..Sha256::new() });
        }
        backends
    }

    /// Whether this hasher runs a hardware compression function.
    pub(crate) fn is_hardware(&self) -> bool {
        !matches!(self.compressor, Compressor::Soft)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks a FIPS 180-4 vector on every backend.
    fn assert_digest(data: &[u8], expected: &str) {
        for mut hasher in Sha256::backends() {
            let hardware = hasher.is_hardware();
            hasher.update(data);
            assert_eq!(hasher.finalize().to_hex(), expected, "hardware: {hardware}");
        }
    }

    #[test]
    fn fips_empty_string() {
        assert_digest(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_abc() {
        assert_digest(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_two_block_message() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        assert_digest(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_oneshot_for_all_split_points() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let reference = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split at {split}");
        }
    }

    #[test]
    fn digest_parts_is_unambiguous() {
        let a = Sha256::digest_parts(&[b"ab", b"c"]);
        let b = Sha256::digest_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
        let c = Sha256::digest_parts(&[b"abc"]);
        assert_ne!(a, c);
    }

    #[test]
    fn digest_display_and_debug() {
        let d = Sha256::digest(b"abc");
        assert_eq!(format!("{d}"), d.to_hex());
        assert!(format!("{d:?}").starts_with("Digest("));
    }

    #[test]
    fn truncate16_is_prefix() {
        let d = Sha256::digest(b"xyz");
        assert_eq!(&d.truncate16()[..], &d.as_bytes()[..16]);
    }

    mod proptests {
        use super::*;
        use crate::rng::SystemRng;

        fn arb_bytes(rng: &mut SystemRng, lo: usize, hi: usize) -> Vec<u8> {
            let mut v = vec![0u8; rng.range_usize(lo, hi)];
            rng.fill(&mut v);
            v
        }

        #[test]
        fn prop_incremental_equals_oneshot() {
            let mut rng = SystemRng::seeded(0x5A2561);
            for _ in 0..64 {
                let data = arb_bytes(&mut rng, 0, 1024);
                let at = rng.range_usize_inclusive(0, data.len());
                let mut h = Sha256::new();
                h.update(&data[..at]);
                h.update(&data[at..]);
                assert_eq!(h.finalize(), Sha256::digest(&data));
            }
        }

        #[test]
        fn prop_parts_differ_from_concat() {
            let mut rng = SystemRng::seeded(0x5A2562);
            for _ in 0..64 {
                let a = arb_bytes(&mut rng, 1, 64);
                let b = arb_bytes(&mut rng, 1, 64);
                // Length framing: parts hashing is not plain concatenation.
                let concat = [a.clone(), b.clone()].concat();
                assert_ne!(Sha256::digest_parts(&[&a, &b]), Sha256::digest(&concat));
            }
        }
    }
}
