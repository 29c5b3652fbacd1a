//! Randomness sources for keys, nonces, and the RCE challenge message.
//!
//! Implemented from scratch on a ChaCha20 keystream (RFC 8439 block
//! function) so the crate — and the whole workspace — builds with no
//! external dependencies. [`SystemRng::new`] seeds from OS entropy
//! (`/dev/urandom`, with a time/address fallback); [`SystemRng::seeded`]
//! expands a 64-bit seed into a ChaCha key via SplitMix64 for reproducible
//! tests, benchmarks, and the resilience layer's deterministic jitter.

use crate::types::{Key128, Nonce, KEY_LEN, NONCE_LEN};

/// Number of 32-bit words in a ChaCha state / output block.
const BLOCK_WORDS: usize = 16;
const BLOCK_BYTES: usize = BLOCK_WORDS * 4;

#[inline]
fn quarter_round(state: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The ChaCha20 block function: 10 double rounds over the input state.
fn chacha20_block(input: &[u32; BLOCK_WORDS], out: &mut [u8; BLOCK_BYTES]) {
    let mut state = *input;
    for _ in 0..10 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for i in 0..BLOCK_WORDS {
        let mixed = state[i].wrapping_add(input[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&mixed.to_le_bytes());
    }
}

/// SplitMix64: expands a 64-bit seed into a stream of well-mixed words,
/// used only for key expansion of [`SystemRng::seeded`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Gathers 32 bytes of OS entropy, falling back to clock/address mixing on
/// platforms without `/dev/urandom`.
fn os_entropy() -> [u8; 32] {
    use std::io::Read;
    let mut key = [0u8; 32];
    if let Ok(mut file) = std::fs::File::open("/dev/urandom") {
        if file.read_exact(&mut key).is_ok() {
            return key;
        }
    }
    // Fallback: mix non-deterministic process state through SplitMix64.
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let stack_probe = 0u8;
    let mut state = now
        ^ (std::process::id() as u64).rotate_left(32)
        ^ (&stack_probe as *const u8 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ std::time::Instant::now().elapsed().subsec_nanos() as u64;
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    key
}

/// A cryptographically seeded PRNG handle.
///
/// [`SystemRng::new`] seeds from OS entropy; [`SystemRng::seeded`] creates a
/// deterministic instance for reproducible tests and benchmarks. `Debug`
/// prints no state: the ChaCha20 key and the buffered keystream predict
/// every later key, nonce and challenge.
///
/// # Example
///
/// ```
/// use speed_crypto::SystemRng;
///
/// let mut rng = SystemRng::seeded(42);
/// let key = rng.gen_key();
/// let nonce = rng.gen_nonce();
/// assert_ne!(key.as_bytes(), &[0u8; 16]);
/// let _ = nonce;
/// ```
#[derive(Clone)]
pub struct SystemRng {
    /// ChaCha20 input state: constants, key, 64-bit counter, 64-bit nonce.
    state: [u32; BLOCK_WORDS],
    /// Buffered keystream block.
    block: [u8; BLOCK_BYTES],
    /// Next unread byte in `block` (`BLOCK_BYTES` = exhausted).
    cursor: usize,
}

impl std::fmt::Debug for SystemRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SystemRng(<state redacted>)")
    }
}

impl SystemRng {
    fn from_key(key: [u8; 32]) -> Self {
        let mut state = [0u32; BLOCK_WORDS];
        // "expand 32-byte k" constants from RFC 8439.
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646E;
        state[2] = 0x7962_2D32;
        state[3] = 0x6B20_6574;
        for i in 0..8 {
            state[4 + i] =
                u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        // words 12..16: block counter + nonce, all zero at start.
        SystemRng { state, block: [0u8; BLOCK_BYTES], cursor: BLOCK_BYTES }
    }

    /// Creates a generator seeded from operating-system entropy.
    pub fn new() -> Self {
        SystemRng::from_key(os_entropy())
    }

    /// Creates a deterministic generator from an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut mix = seed;
        let mut key = [0u8; 32];
        for chunk in key.chunks_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut mix).to_le_bytes());
        }
        SystemRng::from_key(key)
    }

    fn refill(&mut self) {
        chacha20_block(&self.state, &mut self.block);
        // 64-bit counter in words 12..14.
        let counter = u64::from(self.state[12]) | (u64::from(self.state[13]) << 32);
        let next = counter.wrapping_add(1);
        self.state[12] = next as u32;
        self.state[13] = (next >> 32) as u32;
        self.cursor = 0;
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut written = 0;
        while written < buf.len() {
            if self.cursor == BLOCK_BYTES {
                self.refill();
            }
            let take = (buf.len() - written).min(BLOCK_BYTES - self.cursor);
            buf[written..written + take]
                .copy_from_slice(&self.block[self.cursor..self.cursor + take]);
            self.cursor += take;
            written += take;
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        self.fill(&mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Returns the next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let mut bytes = [0u8; 4];
        self.fill(&mut bytes);
        u32::from_le_bytes(bytes)
    }

    /// Generates a random AES-128 key (`AES.KeyGen(1^λ)` in Algorithm 1).
    pub fn gen_key(&mut self) -> Key128 {
        let mut bytes = [0u8; KEY_LEN];
        self.fill(&mut bytes);
        Key128::from_bytes(bytes)
    }

    /// Generates a random GCM nonce.
    pub fn gen_nonce(&mut self) -> Nonce {
        let mut bytes = [0u8; NONCE_LEN];
        self.fill(&mut bytes);
        Nonce::from_bytes(bytes)
    }

    /// Generates the RCE challenge message `r ←$ {0,1}*` (Algorithm 1,
    /// line 5) as `len` random bytes.
    pub fn gen_challenge(&mut self, len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        self.fill(&mut bytes);
        bytes
    }

    /// Samples a uniform value in `[0, bound)` via rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be nonzero");
        // Reject the partial final cycle so every residue is equally likely.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            if x >= threshold {
                return x % bound;
            }
        }
    }

    /// Samples a uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range_usize needs lo < hi");
        lo + self.gen_range((hi - lo) as u64) as usize
    }

    /// Samples a uniform `usize` in `[lo, hi]`.
    pub fn range_usize_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "range_usize_inclusive needs lo <= hi");
        lo + self.gen_range((hi - lo) as u64 + 1) as usize
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f32` in `[0, 1)` with 24 bits of precision.
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.gen_f64() * (hi - lo)
    }

    /// A uniform `f32` in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.gen_f32() * (hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

impl Default for SystemRng {
    fn default() -> Self {
        SystemRng::new()
    }
}

/// Fills `buf` from a fresh OS-seeded generator.
pub fn fill_random(buf: &mut [u8]) {
    SystemRng::new().fill(buf);
}

/// Generates one random key from OS entropy.
pub fn random_key() -> Key128 {
    SystemRng::new().gen_key()
}

/// Generates one random nonce from OS entropy.
pub fn random_nonce() -> Nonce {
    SystemRng::new().gen_nonce()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chacha20_block_matches_rfc8439_vector() {
        // RFC 8439 §2.3.2 test vector: key 00..1f, counter 1,
        // nonce 000000090000004a00000000.
        let mut key = [0u8; 32];
        for (i, byte) in key.iter_mut().enumerate() {
            *byte = i as u8;
        }
        let mut rng = SystemRng::from_key(key);
        rng.state[12] = 1;
        rng.state[13] = 0x0900_0000;
        rng.state[14] = 0x4a00_0000;
        rng.state[15] = 0;
        let mut out = [0u8; BLOCK_BYTES];
        chacha20_block(&rng.state, &mut out);
        assert_eq!(
            &out[..16],
            &[
                0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f,
                0xa3, 0x20, 0x71, 0xc4,
            ]
        );
        assert_eq!(out[63], 0x4e);
    }

    #[test]
    fn seeded_is_deterministic() {
        let mut a = SystemRng::seeded(7);
        let mut b = SystemRng::seeded(7);
        assert_eq!(a.gen_key(), b.gen_key());
        assert_eq!(a.gen_challenge(33), b.gen_challenge(33));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SystemRng::seeded(1);
        let mut b = SystemRng::seeded(2);
        assert_ne!(a.gen_key(), b.gen_key());
    }

    #[test]
    fn consecutive_keys_differ() {
        let mut rng = SystemRng::seeded(3);
        assert_ne!(rng.gen_key(), rng.gen_key());
    }

    #[test]
    fn challenge_has_requested_length() {
        let mut rng = SystemRng::seeded(4);
        assert_eq!(rng.gen_challenge(0).len(), 0);
        assert_eq!(rng.gen_challenge(32).len(), 32);
        assert_eq!(rng.gen_challenge(1000).len(), 1000);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = SystemRng::seeded(5);
        for _ in 0..100 {
            assert!(rng.gen_range(10) < 10);
        }
        assert_eq!(rng.gen_range(1), 0);
    }

    #[test]
    fn unaligned_fills_match_streamed_fill() {
        // Byte stream must be identical regardless of read chunking.
        let mut a = SystemRng::seeded(9);
        let mut b = SystemRng::seeded(9);
        let mut whole = [0u8; 200];
        a.fill(&mut whole);
        let mut pieces = Vec::new();
        for len in [1usize, 7, 64, 65, 63] {
            let mut buf = vec![0u8; len];
            b.fill(&mut buf);
            pieces.extend_from_slice(&buf);
        }
        assert_eq!(&whole[..pieces.len()], &pieces[..]);
    }

    #[test]
    fn float_ranges_are_in_bounds() {
        let mut rng = SystemRng::seeded(6);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
            let g = rng.range_f32(2.0, 3.0);
            assert!((2.0..3.0).contains(&g));
            let u = rng.range_usize_inclusive(4, 6);
            assert!((4..=6).contains(&u));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SystemRng::seeded(8);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2500..3500).contains(&heads), "{heads}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn os_seeded_instances_differ() {
        let mut a = SystemRng::new();
        let mut b = SystemRng::new();
        assert_ne!(a.gen_challenge(32), b.gen_challenge(32));
    }
}
