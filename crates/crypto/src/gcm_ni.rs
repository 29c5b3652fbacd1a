//! AES-128-GCM with the x86 AES-NI and PCLMULQDQ instructions, and a wider
//! GHASH on CPUs that also have AVX-512 and VPCLMULQDQ.
//!
//! [`GcmNi`] keeps its expanded key and GHASH keys private, and its only
//! constructor, [`GcmNi::new`], first checks with `is_x86_feature_detected!`
//! that the CPU has every feature the code below is compiled for: AES,
//! PCLMULQDQ, SSE2, SSSE3 and SSE4.1. Holding one is what makes the calls
//! into the `#[target_feature]` code sound. [`crate::AesGcm128`] asks for
//! one when it is created and otherwise keeps the portable cipher, which
//! produces the same bytes for every input.
//!
//! The key schedule uses AESKEYGENASSIST, and the CTR keystream is
//! encrypted eight blocks at a time so that the AESENC latencies overlap.
//! GHASH takes whole blocks four at a time: it multiplies them by H⁴, H³,
//! H² and H, XORs the four unreduced products and reduces the sum once, so
//! the four multiplies are independent and one reduction serves four
//! blocks. Leftover blocks, a partial last block and the length block take
//! one multiply and reduction each (Gueron and Kounavis, "Intel Carry-Less
//! Multiplication Instruction and its Usage for Computing the GCM Mode":
//! algorithms 1 and 5, and the aggregated reduction method).
//!
//! On CPUs with AVX-512F, AVX-512BW and VPCLMULQDQ, GHASH first takes whole
//! 512-byte groups of 32 blocks, four blocks per 512-bit register. Block
//! `j` of a group is multiplied by `H^(32 − j)`, the running value folded
//! into block 0, so that one group computes
//! `(Y ⊕ X₀)·H³² ⊕ X₁·H³¹ ⊕ … ⊕ X₃₁·H`. Each VPCLMULQDQ forms one partial
//! product for four blocks; the products of all 32 blocks are XORed
//! unreduced, their four lanes XORed together, and the sum reduced once
//! with the same [`reduce`] as the four-block code. The loop is bound by
//! the latency of that chain through `Y`, which 32 blocks per reduction
//! amortise. What is left of the AAD and of the ciphertext after their
//! whole groups, with the running `Y`, goes through the four-block and
//! single-block code above, so both widths produce the same bytes.
//!
//! The wide code needs `H¹…H³²`, which [`GcmNi::new`] computes only after
//! `is_x86_feature_detected!` passed for AVX-512F, AVX-512BW and
//! VPCLMULQDQ as well, the three features the wide `#[target_feature]`
//! list adds. The table is private and set nowhere else, so a `GcmNi` that
//! holds one is the proof that calls into the wide code are sound; without
//! it, GHASH runs the four-block code.

#![allow(unsafe_code)]

// hot-path: deny-clone

use std::arch::x86_64::{
    __m128i, __m512i, _mm512_broadcast_i32x4, _mm512_bslli_epi128, _mm512_bsrli_epi128,
    _mm512_castsi512_si128, _mm512_clmulepi64_epi128, _mm512_extracti32x4_epi32,
    _mm512_loadu_si512, _mm512_setzero_si512, _mm512_shuffle_epi8, _mm512_xor_si512,
    _mm512_zextsi128_si512, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aeskeygenassist_si128, _mm_clmulepi64_si128, _mm_insert_epi32, _mm_loadu_si128,
    _mm_or_si128, _mm_prefetch, _mm_set_epi64x, _mm_setzero_si128, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_slli_epi32, _mm_slli_si128, _mm_srli_epi32, _mm_srli_si128,
    _mm_storeu_si128, _mm_xor_si128, _MM_HINT_T0,
};
use std::fmt;

use crate::aes::BLOCK_LEN;
use crate::types::Key128;

const ROUNDS: usize = 10;
/// Counter blocks encrypted together: enough independent AESENC chains to
/// hide the instruction's latency.
const BATCH_BLOCKS: usize = 8;
const BATCH_LEN: usize = BATCH_BLOCKS * BLOCK_LEN;
/// GHASH blocks folded per reduction: one per power of H kept.
const GHASH_GROUP: usize = 4;
/// GHASH blocks in one 512-bit register.
const LANES: usize = 4;
const LANES_LEN: usize = LANES * BLOCK_LEN;
/// GHASH blocks folded per reduction on the wide path, and the registers
/// that hold them and their powers of H.
const WIDE_GROUP: usize = 32;
const WIDE_REGISTERS: usize = WIDE_GROUP / LANES;
const WIDE_GROUP_LEN: usize = WIDE_GROUP * BLOCK_LEN;
/// How many groups ahead of the one it folds the wide loop prefetches:
/// 4 KiB, far enough to cover a load's latency from memory, and across the
/// page boundaries where the hardware prefetchers stop.
const PREFETCH_GROUPS: usize = 8;
/// Bytes per cache line, the unit of a prefetch.
const LINE_LEN: usize = 64;
/// The byte order `byte_reverse` produces, as a PSHUFB control.
const BYTE_REVERSE: [u8; BLOCK_LEN] =
    [15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0];

/// `H³²…H¹`, byte-reversed like `GcmNi::h`, as the wide loop loads them:
/// lane `l` of register `r` holds `H^(32 − 4r − l)`, the power that block
/// `4r + l` of a group is multiplied by. Plain bytes, so building the table
/// takes no 512-bit instruction: a cold AVX-512 unit made each `new` about
/// 2 µs slower when it did.
type WidePowers = [[u8; LANES_LEN]; WIDE_REGISTERS];

/// An AES-128-GCM key on AES-NI: exists only after detection passed.
#[derive(Clone)]
pub(crate) struct GcmNi {
    round_keys: [__m128i; ROUNDS + 1],
    /// `H = E(K, 0¹²⁸)` and its powers: `h[i]` is `Hⁱ⁺¹`, byte-reversed
    /// (the register's little-endian value is the block read big-endian,
    /// the bit order GHASH multiplies in).
    h: [__m128i; GHASH_GROUP],
    /// Set only by `expand`, and only when `new` detected every feature
    /// `ghash_wide` enables: `Some` is what makes calls into the wide code
    /// sound. Boxed, so a cipher without it stays small.
    wide: Option<Box<WidePowers>>,
}

impl fmt::Debug for GcmNi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GcmNi(<key schedule redacted>)")
    }
}

impl GcmNi {
    /// Expands `key`, or `None` when the CPU lacks one of the features.
    pub(crate) fn new(key: &Key128) -> Option<Self> {
        let present = is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        if !present {
            return None;
        }
        let wide = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("vpclmulqdq");
        // SAFETY: every feature `expand` enables was just detected, and
        // `wide` is true only if every feature `ghash_wide` enables was
        // detected too.
        Some(unsafe { expand(key, wide) })
    }

    /// Whether GHASH runs the 32-block VPCLMULQDQ code.
    pub(crate) fn has_wide_ghash(&self) -> bool {
        self.wide.is_some()
    }

    /// Encrypts one block in place.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        // SAFETY: a `GcmNi` exists only if `new` detected every feature
        // `encrypt` enables.
        *block = store(unsafe { self.encrypt(load(block)) });
    }

    /// XORs `data` with the CTR keystream that starts after `counter0`,
    /// incrementing its last 32 bits big-endian, wrapping (GCM's `inc32`).
    pub(crate) fn ctr_xor(&self, counter0: &[u8; BLOCK_LEN], data: &mut [u8]) {
        // SAFETY: as in `encrypt_block`, for `ctr_xor_ni`.
        unsafe { self.ctr_xor_ni(counter0, data) }
    }

    /// GHASH over `aad`, `ciphertext` and their bit lengths, as the
    /// big-endian value of the result block.
    pub(crate) fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> u128 {
        let y = match &self.wide {
            // SAFETY: `wide` is set only when `new` detected every feature
            // `ghash_wide` enables. Its loads, and the addresses it
            // prefetches, all lie inside `aad` and `ciphertext`.
            Some(powers) => unsafe { self.ghash_wide(powers, aad, ciphertext) },
            // SAFETY: as in `encrypt_block`, for `ghash_ni`.
            None => unsafe { self.ghash_ni(aad, ciphertext) },
        };
        u128::from_le_bytes(store(y))
    }

    /// # Safety
    ///
    /// The CPU must support every feature the function enables.
    #[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
    fn encrypt(&self, block: __m128i) -> __m128i {
        let mut x = _mm_xor_si128(block, self.round_keys[0]);
        for key in &self.round_keys[1..ROUNDS] {
            x = _mm_aesenc_si128(x, *key);
        }
        _mm_aesenclast_si128(x, self.round_keys[ROUNDS])
    }

    /// Encrypts eight blocks round by round, interleaved.
    ///
    /// # Safety
    ///
    /// The CPU must support every feature the function enables.
    #[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
    fn encrypt8(&self, mut blocks: [__m128i; BATCH_BLOCKS]) -> [__m128i; BATCH_BLOCKS] {
        for x in &mut blocks {
            *x = _mm_xor_si128(*x, self.round_keys[0]);
        }
        for key in &self.round_keys[1..ROUNDS] {
            for x in &mut blocks {
                *x = _mm_aesenc_si128(*x, *key);
            }
        }
        for x in &mut blocks {
            *x = _mm_aesenclast_si128(*x, self.round_keys[ROUNDS]);
        }
        blocks
    }

    /// # Safety
    ///
    /// The CPU must support every feature the function enables.
    #[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
    fn ctr_xor_ni(&self, counter0: &[u8; BLOCK_LEN], data: &mut [u8]) {
        let base = load(counter0);
        let mut counter =
            u32::from_be_bytes([counter0[12], counter0[13], counter0[14], counter0[15]]);
        let mut next_counters = || {
            [(); BATCH_BLOCKS].map(|()| {
                counter = counter.wrapping_add(1);
                // Lane 3 holds bytes 12..16, read little-endian.
                _mm_insert_epi32::<3>(base, counter.swap_bytes() as i32)
            })
        };
        let (batches, tail) = data.as_chunks_mut::<BATCH_LEN>();
        for batch in batches {
            let keystream = self.encrypt8(next_counters());
            for (block, key) in
                batch.as_chunks_mut::<BLOCK_LEN>().0.iter_mut().zip(keystream)
            {
                *block = store(_mm_xor_si128(load(block), key));
            }
        }
        if !tail.is_empty() {
            let mut keystream = [0u8; BATCH_LEN];
            let blocks = keystream.as_chunks_mut::<BLOCK_LEN>().0;
            for (block, key) in blocks.iter_mut().zip(self.encrypt8(next_counters())) {
                *block = store(key);
            }
            for (byte, key) in tail.iter_mut().zip(keystream) {
                *byte ^= key;
            }
        }
    }

    /// GHASH with four blocks per reduction.
    ///
    /// # Safety
    ///
    /// The CPU must support every feature the function enables.
    #[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
    fn ghash_ni(&self, aad: &[u8], ciphertext: &[u8]) -> __m128i {
        let y = self.absorb(_mm_setzero_si128(), aad);
        let y = self.absorb(y, ciphertext);
        self.absorb_lengths(y, aad.len(), ciphertext.len())
    }

    /// GHASH with 32 blocks per reduction over each input's whole 512-byte
    /// groups, prefetching the group eight ahead, and four or one over the
    /// rest.
    ///
    /// # Safety
    ///
    /// The CPU must support every feature the function enables.
    #[target_feature(
        enable = "aes,pclmulqdq,sse2,ssse3,sse4.1,avx512f,avx512bw,vpclmulqdq"
    )]
    fn ghash_wide(&self, powers: &WidePowers, aad: &[u8], ciphertext: &[u8]) -> __m128i {
        let reverse = _mm512_broadcast_i32x4(load(&BYTE_REVERSE));
        let mut y = _mm_setzero_si128();
        for data in [aad, ciphertext] {
            let (groups, rest) = data.as_chunks::<WIDE_GROUP_LEN>();
            for (g, group) in groups.iter().enumerate() {
                // Each address is a line of `ahead`, a whole group inside
                // `data`: the last eight groups prefetch nothing, so no
                // address past the end of the slice is ever hinted.
                if let Some(ahead) = groups.get(g + PREFETCH_GROUPS) {
                    for line in ahead.as_chunks::<LINE_LEN>().0 {
                        _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast());
                    }
                }
                // Sums of the low, middle and high partial products of
                // (Y ⊕ X₀)·H³² ⊕ X₁·H³¹ ⊕ … ⊕ X₃₁·H, four blocks per lane.
                // Register 0, the one that waits for Y, goes last, so that
                // only one XOR follows its multiplies.
                let (mut lo, mut mid, mut hi) = (
                    _mm512_setzero_si512(),
                    _mm512_setzero_si512(),
                    _mm512_setzero_si512(),
                );
                let registers = group.as_chunks::<LANES_LEN>().0.iter().zip(powers);
                for (r, (blocks, power)) in registers.enumerate().rev() {
                    let power = load_lanes(power);
                    let mut x = _mm512_shuffle_epi8(load_lanes(blocks), reverse);
                    if r == 0 {
                        x = _mm512_xor_si512(x, _mm512_zextsi128_si512(y));
                    }
                    lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128::<0x00>(x, power));
                    hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128::<0x11>(x, power));
                    mid = _mm512_xor_si512(
                        mid,
                        _mm512_xor_si512(
                            _mm512_clmulepi64_epi128::<0x10>(x, power),
                            _mm512_clmulepi64_epi128::<0x01>(x, power),
                        ),
                    );
                }
                let lo = _mm512_xor_si512(lo, _mm512_bslli_epi128::<8>(mid));
                let hi = _mm512_xor_si512(hi, _mm512_bsrli_epi128::<8>(mid));
                // The reduction is linear, so reducing the sum is exact.
                y = reduce(xor_lanes(hi), xor_lanes(lo));
            }
            y = self.absorb(y, rest);
        }
        self.absorb_lengths(y, aad.len(), ciphertext.len())
    }

    /// Folds `data` into the running GHASH value `y`, four whole blocks per
    /// reduction, then one per leftover block and one for a zero-padded
    /// partial last block.
    ///
    /// # Safety
    ///
    /// The CPU must support every feature the function enables.
    #[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
    fn absorb(&self, mut y: __m128i, data: &[u8]) -> __m128i {
        let [h, h2, h3, h4] = self.h;
        let (blocks, tail) = data.as_chunks::<BLOCK_LEN>();
        let (groups, rest) = blocks.as_chunks::<GHASH_GROUP>();
        for [x1, x2, x3, x4] in groups {
            // (Y ⊕ X₁)·H⁴ ⊕ X₂·H³ ⊕ X₃·H² ⊕ X₄·H, reduced once: the
            // reduction is linear, so reducing the sum is exact.
            let products = [
                clmul(_mm_xor_si128(y, byte_reverse(load(x1))), h4),
                clmul(byte_reverse(load(x2)), h3),
                clmul(byte_reverse(load(x3)), h2),
                clmul(byte_reverse(load(x4)), h),
            ];
            let (mut hi, mut lo) = products[0];
            for (product_hi, product_lo) in &products[1..] {
                hi = _mm_xor_si128(hi, *product_hi);
                lo = _mm_xor_si128(lo, *product_lo);
            }
            y = reduce(hi, lo);
        }
        for block in rest {
            y = gf_mul(_mm_xor_si128(y, byte_reverse(load(block))), h);
        }
        if !tail.is_empty() {
            let mut last = [0u8; BLOCK_LEN];
            last[..tail.len()].copy_from_slice(tail);
            y = gf_mul(_mm_xor_si128(y, byte_reverse(load(&last))), h);
        }
        y
    }

    /// The last GHASH step: the block of the two inputs' bit lengths.
    ///
    /// # Safety
    ///
    /// The CPU must support every feature the function enables.
    #[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
    fn absorb_lengths(
        &self,
        y: __m128i,
        aad_len: usize,
        ciphertext_len: usize,
    ) -> __m128i {
        let bits = |len: usize| (len as u64).wrapping_mul(8) as i64;
        let lengths = _mm_set_epi64x(bits(aad_len), bits(ciphertext_len));
        gf_mul(_mm_xor_si128(y, lengths), self.h[0])
    }
}

/// Expands the key schedule and derives the GHASH key and its powers, up
/// to `H³²` if `wide`.
///
/// # Safety
///
/// The CPU must support every feature the function enables, and if `wide`
/// is true, every feature `GcmNi::ghash_wide` enables: the cipher returned
/// then holds the power table, which is what lets `GcmNi::ghash` call it.
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
fn expand(key: &Key128, wide: bool) -> GcmNi {
    let k0 = load(key.as_bytes());
    let k1 = next_round_key::<0x01>(k0);
    let k2 = next_round_key::<0x02>(k1);
    let k3 = next_round_key::<0x04>(k2);
    let k4 = next_round_key::<0x08>(k3);
    let k5 = next_round_key::<0x10>(k4);
    let k6 = next_round_key::<0x20>(k5);
    let k7 = next_round_key::<0x40>(k6);
    let k8 = next_round_key::<0x80>(k7);
    let k9 = next_round_key::<0x1b>(k8);
    let k10 = next_round_key::<0x36>(k9);
    let round_keys = [k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10];
    let cipher = GcmNi { round_keys, h: [_mm_setzero_si128(); GHASH_GROUP], wide: None };
    let h = byte_reverse(cipher.encrypt(_mm_setzero_si128()));
    let h2 = gf_mul(h, h);
    let h3 = gf_mul(h2, h);
    let h4 = gf_mul(h3, h);
    let h = [h, h2, h3, h4];
    let wide = if wide { Some(wide_powers(h)) } else { None };
    GcmNi { h, wide, ..cipher }
}

/// `H¹…H³²` from `H¹…H⁴`, in the lane order `GcmNi::ghash_wide` reads.
///
/// # Safety
///
/// The CPU must support every feature the function enables.
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
fn wide_powers(h: [__m128i; GHASH_GROUP]) -> Box<WidePowers> {
    // The last register holds H⁴, H³, H², H¹, and each register before it
    // is the next one times H⁴: four independent multiplies per register.
    let [h1, h2, h3, h4] = h;
    let mut lanes = [h4, h3, h2, h1];
    let mut powers = [[0u8; LANES_LEN]; WIDE_REGISTERS];
    for (r, register) in powers.iter_mut().enumerate().rev() {
        if r + 1 < WIDE_REGISTERS {
            lanes = lanes.map(|x| gf_mul(x, h4));
        }
        for (bytes, lane) in register.as_chunks_mut::<BLOCK_LEN>().0.iter_mut().zip(lanes)
        {
            *bytes = store(lane);
        }
    }
    Box::new(powers)
}

/// One step of the FIPS 197 key expansion, with round constant `RCON`.
///
/// # Safety
///
/// The CPU must support every feature the function enables.
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
fn next_round_key<const RCON: i32>(previous: __m128i) -> __m128i {
    // Lane 3 of the assist is SubWord(RotWord(w3)) ^ RCON.
    let assist = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(previous));
    // Prefix XOR of the four words: w0, w0^w1, w0^w1^w2, w0^w1^w2^w3.
    let key = _mm_xor_si128(previous, _mm_slli_si128::<4>(previous));
    let key = _mm_xor_si128(key, _mm_slli_si128::<8>(key));
    _mm_xor_si128(key, assist)
}

/// Multiplication in GF(2¹²⁸) of two byte-reversed GHASH blocks.
///
/// # Safety
///
/// The CPU must support every feature the function enables.
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
fn gf_mul(a: __m128i, b: __m128i) -> __m128i {
    let (hi, lo) = clmul(a, b);
    reduce(hi, lo)
}

/// The 256-bit carry-less product of two byte-reversed GHASH blocks, as
/// `(hi, lo)`, not yet reduced.
///
/// # Safety
///
/// The CPU must support every feature the function enables.
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
fn clmul(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(a, b),
        _mm_clmulepi64_si128::<0x01>(a, b),
    );
    let lo = _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(a, b), _mm_slli_si128::<8>(mid));
    let hi = _mm_xor_si128(_mm_clmulepi64_si128::<0x11>(a, b), _mm_srli_si128::<8>(mid));
    (hi, lo)
}

/// Reduces a 256-bit carry-less product `(hi, lo)` to a byte-reversed
/// GHASH block. Both steps are linear, so the sum of several products
/// reduces to the sum of their reductions.
///
/// # Safety
///
/// The CPU must support every feature the function enables.
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
fn reduce(hi: __m128i, lo: __m128i) -> __m128i {
    // GHASH bits are reflected, so the product comes out one bit short:
    // shift the 256-bit value left by one.
    let lo_carry = _mm_srli_epi32::<31>(lo);
    let hi_carry = _mm_srli_epi32::<31>(hi);
    let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(lo_carry));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(hi_carry)),
        _mm_srli_si128::<12>(lo_carry),
    );

    // Reduce modulo x¹²⁸ + x⁷ + x² + x + 1 in two phases.
    let t = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(t));
    let u = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), _mm_srli_si128::<4>(t)),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, u))
}

/// Reverses the 16 bytes of a register.
///
/// # Safety
///
/// The CPU must support every feature the function enables.
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1")]
fn byte_reverse(x: __m128i) -> __m128i {
    _mm_shuffle_epi8(x, load(&BYTE_REVERSE))
}

/// The XOR of the four 128-bit lanes of a register.
///
/// # Safety
///
/// The CPU must support every feature the function enables.
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1,avx512f,avx512bw,vpclmulqdq")]
fn xor_lanes(x: __m512i) -> __m128i {
    let low = _mm_xor_si128(_mm512_castsi512_si128(x), _mm512_extracti32x4_epi32::<1>(x));
    let high = _mm_xor_si128(
        _mm512_extracti32x4_epi32::<2>(x),
        _mm512_extracti32x4_epi32::<3>(x),
    );
    _mm_xor_si128(low, high)
}

/// Loads 16 bytes into a register, lane 0 from the lowest address.
#[inline(always)]
fn load(bytes: &[u8; BLOCK_LEN]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes, and `loadu` has no alignment
    // requirement; SSE2 is part of the x86_64 baseline.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Loads 64 bytes into a register, lane 0 from the lowest address.
///
/// # Safety
///
/// The CPU must support every feature the function enables.
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sse4.1,avx512f,avx512bw,vpclmulqdq")]
fn load_lanes(bytes: &[u8; LANES_LEN]) -> __m512i {
    // SAFETY: `bytes` is 64 readable bytes, `loadu` has no alignment
    // requirement, and the function enables AVX-512F.
    unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
}

/// Stores a register as 16 bytes, lane 0 at the lowest address.
#[inline(always)]
fn store(x: __m128i) -> [u8; BLOCK_LEN] {
    let mut out = [0u8; BLOCK_LEN];
    // SAFETY: `out` is 16 writable bytes, and `storeu` has no alignment
    // requirement; SSE2 is part of the x86_64 baseline.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), x) };
    out
}

#[cfg(test)]
impl GcmNi {
    /// `key` once per GHASH width this CPU runs: four-block, then 32-block
    /// if detected. Dropping the power table is always sound.
    pub(crate) fn ghash_widths(key: &Key128) -> Vec<GcmNi> {
        let Some(ni) = GcmNi::new(key) else { return Vec::new() };
        let four_block = GcmNi { wide: None, ..ni.clone() };
        if ni.has_wide_ghash() {
            vec![four_block, ni]
        } else {
            vec![four_block]
        }
    }
}
