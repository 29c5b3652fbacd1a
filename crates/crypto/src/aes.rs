//! FIPS 197 AES-128 block cipher.
//!
//! The S-box is derived at first use from its algebraic definition
//! (multiplicative inverse in GF(2⁸) followed by the affine transform)
//! rather than transcribed as a literal table, and is then verified by the
//! FIPS 197 known-answer tests.

// hot-path: deny-clone

use std::sync::OnceLock;

use crate::types::Key128;

/// AES block size in bytes.
pub(crate) const BLOCK_LEN: usize = 16;

const ROUNDS: usize = 10;

struct Tables {
    sbox: [u8; 256],
}

/// Multiplication in GF(2⁸) with the AES reduction polynomial
/// x⁸ + x⁴ + x³ + x + 1 (0x11b).
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // Multiplicative inverses by exhaustive search (init-time only).
        let mut inv = [0u8; 256];
        for a in 1..=255u8 {
            for b in 1..=255u8 {
                if gf_mul(a, b) == 1 {
                    inv[a as usize] = b;
                    break;
                }
            }
        }
        let mut sbox = [0u8; 256];
        for x in 0..=255u8 {
            let i = inv[x as usize];
            // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
            let s = i
                ^ i.rotate_left(1)
                ^ i.rotate_left(2)
                ^ i.rotate_left(3)
                ^ i.rotate_left(4)
                ^ 0x63;
            sbox[x as usize] = s;
        }
        Tables { sbox }
    })
}

/// An expanded AES-128 key for the forward cipher (GCM never decrypts a
/// block).
#[derive(Clone)]
pub(crate) struct Aes128 {
    round_keys: [[u8; BLOCK_LEN]; ROUNDS + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Aes128(<key schedule redacted>)")
    }
}

impl Aes128 {
    /// Expands `key` into the full round-key schedule.
    pub(crate) fn new(key: &Key128) -> Self {
        let t = tables();
        let mut words = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, w) in words.iter_mut().take(4).enumerate() {
            w.copy_from_slice(&key.as_bytes()[i * 4..i * 4 + 4]);
        }
        let mut rcon = 1u8;
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = words[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = t.sbox[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            }
            for j in 0..4 {
                words[i][j] = words[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; BLOCK_LEN]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&words[r * 4 + c]);
            }
        }
        Aes128 { round_keys }
    }

    /// Encrypts one 16-byte block in place.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let t = tables();
        add_round_key(block, &self.round_keys[0]);
        for round in 1..ROUNDS {
            sub_bytes(block, &t.sbox);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block, &t.sbox);
        shift_rows(block);
        add_round_key(block, &self.round_keys[ROUNDS]);
    }
}

fn add_round_key(state: &mut [u8; BLOCK_LEN], rk: &[u8; BLOCK_LEN]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; BLOCK_LEN], sbox: &[u8; 256]) {
    for b in state.iter_mut() {
        *b = sbox[*b as usize];
    }
}

// State is column-major: state[c*4 + r] is row r, column c.
fn shift_rows(state: &mut [u8; BLOCK_LEN]) {
    for r in 1..4 {
        let row = [state[r], state[4 + r], state[8 + r], state[12 + r]];
        for c in 0..4 {
            state[c * 4 + r] = row[(c + r) % 4];
        }
    }
}

fn mix_columns(state: &mut [u8; BLOCK_LEN]) {
    for c in 0..4 {
        let col = [state[c * 4], state[c * 4 + 1], state[c * 4 + 2], state[c * 4 + 3]];
        state[c * 4] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
        state[c * 4 + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
        state[c * 4 + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
        state[c * 4 + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
    }
}

/// Encrypts `data` in place with AES-128 in counter mode, starting from the
/// 16-byte counter block `counter0` and incrementing its last 32 bits
/// big-endian per block (GCM's `inc32`).
pub(crate) fn ctr_xor(cipher: &Aes128, counter0: &[u8; BLOCK_LEN], data: &mut [u8]) {
    // Keystream blocks are generated in batches and applied with word-wide
    // XORs; the counter sequence and per-block keystream are bit-identical to
    // the one-block-at-a-time definition (pinned by the NIST GCM vectors).
    const BATCH_BLOCKS: usize = 8;
    const BATCH_LEN: usize = BLOCK_LEN * BATCH_BLOCKS;
    let mut counter = *counter0;
    let mut keystream = [0u8; BATCH_LEN];
    for batch in data.chunks_mut(BATCH_LEN) {
        let blocks = batch.len().div_ceil(BLOCK_LEN);
        for lane in keystream.chunks_exact_mut(BLOCK_LEN).take(blocks) {
            inc32(&mut counter);
            lane.copy_from_slice(&counter);
            let lane: &mut [u8; BLOCK_LEN] = lane.try_into().expect("lane is one block");
            cipher.encrypt_block(lane);
        }
        let used = batch.len();
        xor_in_place(batch, &keystream[..used]);
    }
}

/// XORs `key` into `data` (`data.len() == key.len()`), eight bytes per
/// operation with a byte-wise tail.
fn xor_in_place(data: &mut [u8], key: &[u8]) {
    debug_assert_eq!(data.len(), key.len());
    let mut words = data.chunks_exact_mut(8);
    let mut key_words = key.chunks_exact(8);
    for (d, k) in (&mut words).zip(&mut key_words) {
        let x = u64::from_ne_bytes((&*d).try_into().expect("word chunk"))
            ^ u64::from_ne_bytes(k.try_into().expect("word chunk"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, k) in words.into_remainder().iter_mut().zip(key_words.remainder()) {
        *d ^= k;
    }
}

/// Increments the last 32 bits of a counter block, big-endian, wrapping.
pub(crate) fn inc32(counter: &mut [u8; BLOCK_LEN]) {
    let mut v = u32::from_be_bytes([counter[12], counter[13], counter[14], counter[15]]);
    v = v.wrapping_add(1);
    counter[12..16].copy_from_slice(&v.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AesGcm128;

    /// Checks a FIPS 197 vector on every GCM backend's block cipher (the
    /// portable backend is this module's `Aes128`).
    fn assert_encrypts(key: [u8; 16], plaintext: [u8; 16], expected: [u8; 16]) {
        for cipher in AesGcm128::backends(&Key128::from_bytes(key)) {
            let mut block = plaintext;
            cipher.encrypt_block(&mut block);
            assert_eq!(block, expected, "{cipher:?}");
        }
    }

    #[test]
    fn sbox_known_entries() {
        let t = tables();
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.sbox[0xff], 0x16);
        let mut seen = [false; 256];
        for s in t.sbox {
            assert!(!seen[s as usize], "S-box is not a permutation");
            seen[s as usize] = true;
        }
    }

    #[test]
    fn fips197_appendix_c_vector() {
        assert_encrypts(
            [
                0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
                0x0c, 0x0d, 0x0e, 0x0f,
            ],
            [
                0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                0xcc, 0xdd, 0xee, 0xff,
            ],
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                0x70, 0xb4, 0xc5, 0x5a,
            ],
        );
    }

    #[test]
    fn fips197_appendix_b_vector() {
        assert_encrypts(
            [
                0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                0x09, 0xcf, 0x4f, 0x3c,
            ],
            [
                0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                0xe0, 0x37, 0x07, 0x34,
            ],
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                0x19, 0x6a, 0x0b, 0x32,
            ],
        );
    }

    #[test]
    fn inc32_wraps() {
        let mut ctr = [0xffu8; 16];
        inc32(&mut ctr);
        assert_eq!(&ctr[12..16], &[0, 0, 0, 0]);
        assert_eq!(&ctr[..12], &[0xff; 12]);
    }

    #[test]
    fn gf_mul_matches_known_products() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xab), 0);
    }
}
