//! SHA-256 block compression with the x86 SHA extensions (SHA-NI).
//!
//! [`ShaNi`] is a zero-sized proof that the running CPU has every feature
//! the compression code is compiled for: its field is private and its only
//! constructor, [`ShaNi::detect`], checks them with
//! `is_x86_feature_detected!`. Holding one is what makes the call into the
//! `#[target_feature]` code sound. [`crate::Sha256`] asks for one when a
//! hasher is created and otherwise keeps the portable compression function,
//! which produces the same state for every input.

#![allow(unsafe_code)]

// hot-path: deny-clone

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_sha256msg1_epu32,
    _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
};

use crate::sha256::{BLOCK_LEN, K};

/// Proof that the CPU runs SHA-NI code: exists only after detection passed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// `Some` when the CPU has SHA, SSE2, SSSE3 and SSE4.1.
    pub(crate) fn detect() -> Option<Self> {
        let present = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        present.then_some(ShaNi(()))
    }

    /// Compresses `blocks`, in order, into `state`.
    pub(crate) fn compress_blocks(
        self,
        state: &mut [u32; 8],
        blocks: &[[u8; BLOCK_LEN]],
    ) {
        // SAFETY: a `ShaNi` exists only if `detect` found every feature
        // `compress_blocks_ni` enables.
        unsafe { compress_blocks_ni(state, blocks) }
    }
}

/// Loads 16 bytes into a register, lane 0 from the lowest address.
#[inline(always)]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes, and `loadu` has no alignment
    // requirement; SSE2 is part of the x86_64 baseline.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// FIPS 180-4 compression of each block in turn, four rounds per pair of
/// `sha256rnds2` instructions and four schedule words per
/// `sha256msg1`/`sha256msg2` pair.
///
/// # Safety
///
/// Callers outside code compiled with these features must ensure the CPU
/// supports SHA, SSE2, SSSE3 and SSE4.1.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_ni(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let word = |i: usize| state[i] as i32;

    // The rounds instruction keeps the state as (A, B, E, F) and (C, D, G, H).
    let dcba = _mm_set_epi32(word(3), word(2), word(1), word(0));
    let hgfe = _mm_set_epi32(word(7), word(6), word(5), word(4));
    let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let (quarters, _) = block.as_chunks::<16>();
        // (w0, w1, w2, w3) hold message words 4i..4i + 16 while rounds
        // 4i..4i + 4 run. The last four iterations schedule words nobody
        // reads; computing them keeps the loop free of branches.
        let [mut w0, mut w1, mut w2, mut w3] =
            [0, 1, 2, 3].map(|j| _mm_shuffle_epi8(load(&quarters[j]), byte_swap));
        for i in 0..16 {
            let k = |j: usize| K[4 * i + j] as i32;
            let wk = _mm_add_epi32(w0, _mm_set_epi32(k(3), k(2), k(1), k(0)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            let next =
                _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
            (w0, w1, w2, w3) = (w1, w2, w3, _mm_sha256msg2_epu32(next, w3));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    *state = [
        _mm_extract_epi32::<0>(dcba),
        _mm_extract_epi32::<1>(dcba),
        _mm_extract_epi32::<2>(dcba),
        _mm_extract_epi32::<3>(dcba),
        _mm_extract_epi32::<0>(hgfe),
        _mm_extract_epi32::<1>(hgfe),
        _mm_extract_epi32::<2>(hgfe),
        _mm_extract_epi32::<3>(hgfe),
    ]
    .map(|lane| lane as u32);
}
