//! Cheap prefilter tags — the first rung of the tiered tag pipeline.
//!
//! The full comp-tag `t ← Hash(func, m)` is a SHA-256 over the entire input,
//! which is exactly the right collision resistance for *correctness* but far
//! more work than a *negative* answer needs. A [`prefilter_tag`] is a 64-bit
//! fingerprint over the function identity, the input length, and a sparse
//! sample of the input bytes: first and last 64 bytes plus a handful of
//! strided probes through the middle. Deriving it reads at most ~200 bytes
//! regardless of input size.
//!
//! Properties that make it usable as a filter key:
//!
//! - **Deterministic**: the same `(func, input)` always yields the same
//!   prefilter tag, so equal computations always collide (no false
//!   negatives at this tier — the tiering stays conservative).
//! - **Cheap**: O(1) bytes touched; no block cipher, no compression
//!   function — an FNV-1a accumulation finished with a splitmix64 mix.
//! - **Approximate**: *different* inputs may collide (same length, same
//!   sampled bytes). A collision only costs a wasted fall-through to the
//!   next tier: the hot cache's fingerprint probe, or the full comp-tag
//!   and a GET. The full comp-tag remains the sole correctness authority.
//!
//! The prefilter tag is consulted against the in-enclave hot cache and the
//! store's negative filters ([`speed_wire::NegativeFilter`]) before the
//! hot-cache fingerprint (one GHASH pass over the input), any SHA-256 or a
//! store round-trip is spent. A hot-cache skip saves only the fingerprint,
//! and only for a `lookup` probe that then misses: a call that resolves
//! computes the fingerprint anyway, to cache its result.

// hot-path: deny-clone

use crate::func::FuncIdentity;

/// Bytes sampled verbatim from each end of the input.
const EDGE_SAMPLE: usize = 64;

/// Number of strided single-byte probes through the middle of the input.
const MID_PROBES: usize = 16;

/// Inputs no longer than this are hashed in full (cheaper than sampling).
const FULL_HASH_LEN: usize = 2 * EDGE_SAMPLE;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Derives the 64-bit prefilter tag for `(func, input)`.
///
/// See the module docs for the contract: deterministic, O(1) bytes
/// touched, collisions allowed (they only cost a fall-through to the next
/// tier).
pub fn prefilter_tag(func: &FuncIdentity, input: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &byte in func.as_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    // The input length participates directly: most non-duplicate pairs
    // already differ here, before any byte is sampled.
    for byte in (input.len() as u64).to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    if input.len() <= FULL_HASH_LEN {
        for &byte in input {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    } else {
        for &byte in &input[..EDGE_SAMPLE] {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        for &byte in &input[input.len() - EDGE_SAMPLE..] {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        // Strided probes through the middle, spread across the unsampled
        // region so localized edits still perturb the tag with good odds.
        let middle = &input[EDGE_SAMPLE..input.len() - EDGE_SAMPLE];
        let stride = (middle.len() / MID_PROBES).max(1);
        for probe in middle.iter().step_by(stride).take(MID_PROBES) {
            h = (h ^ u64::from(*probe)).wrapping_mul(FNV_PRIME);
        }
    }
    splitmix64(h)
}

/// SplitMix64 finalizer: spreads the FNV accumulator's entropy across all
/// 64 bits so the Bloom filter's derived probe positions are well mixed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FuncDesc, LibraryRegistry, TrustedLibrary};

    fn identity(code: &[u8]) -> FuncIdentity {
        let mut library = TrustedLibrary::new("lib", "1");
        library.register("f()", code);
        let mut registry = LibraryRegistry::new();
        registry.add(library);
        registry.resolve(&FuncDesc::new("lib", "1", "f()")).unwrap()
    }

    #[test]
    fn deterministic_for_equal_inputs() {
        let f = identity(b"code");
        let input = vec![7u8; 4096];
        assert_eq!(prefilter_tag(&f, &input), prefilter_tag(&f, &input));
    }

    #[test]
    fn distinguishes_function_identity() {
        let input = vec![7u8; 256];
        assert_ne!(
            prefilter_tag(&identity(b"code v1"), &input),
            prefilter_tag(&identity(b"code v2"), &input)
        );
    }

    #[test]
    fn distinguishes_length() {
        let f = identity(b"code");
        assert_ne!(
            prefilter_tag(&f, &vec![0u8; 1000]),
            prefilter_tag(&f, &vec![0u8; 1001])
        );
    }

    #[test]
    fn distinguishes_edits_at_the_edges() {
        let f = identity(b"code");
        let base = vec![1u8; 8192];
        let mut head = base.as_slice().to_vec(); // allow-clone: test fixture
        head[0] = 2;
        let mut tail = base.as_slice().to_vec(); // allow-clone: test fixture
        *tail.last_mut().unwrap() = 2;
        assert_ne!(prefilter_tag(&f, &base), prefilter_tag(&f, &head));
        assert_ne!(prefilter_tag(&f, &base), prefilter_tag(&f, &tail));
    }

    #[test]
    fn short_inputs_hash_every_byte() {
        let f = identity(b"code");
        for flip in 0..FULL_HASH_LEN {
            let mut input = vec![0u8; FULL_HASH_LEN];
            input[flip] = 1;
            assert_ne!(
                prefilter_tag(&f, &input),
                prefilter_tag(&f, &[0u8; FULL_HASH_LEN]),
                "flip at {flip} must perturb the tag"
            );
        }
    }

    #[test]
    fn collisions_are_rare_for_random_inputs() {
        let f = identity(b"code");
        let mut seen = std::collections::HashSet::new();
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..10_000 {
            // Cheap xorshift-derived inputs of varying length.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 32 + (x % 512) as usize;
            let input: Vec<u8> =
                (0..len).map(|i| (x.rotate_left(i as u32 % 64) & 0xFF) as u8).collect();
            seen.insert(prefilter_tag(&f, &input));
        }
        // With 10k random inputs in a 64-bit space, collisions should be
        // essentially absent; tolerate a handful.
        assert!(seen.len() > 9_990, "too many collisions: {}", 10_000 - seen.len());
    }
}
