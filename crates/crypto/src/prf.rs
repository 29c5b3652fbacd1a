//! A secret keyed PRF over GHASH: `F(a, m) = E_K(GHASH_H(a, m))`.
//!
//! GHASH with a secret `H` is an almost-XOR-universal hash, and encrypting
//! its output under an independent AES key `K` turns it into a PRF
//! (Wegman–Carter hash-then-encrypt, as in GMAC but with a fixed block in
//! place of a per-message nonce). Both stages are the GCM code in
//! [`crate::gcm`], so the construction runs on whichever AES-GCM backend
//! CPU detection picked, and adds no code of its own over the input bytes.
//! GCM's length block encodes `(len(a), len(m))`, so `(a, m)` is read
//! unambiguously without a length prefix.
//!
//! Both keys are drawn from a [`SystemRng`] and never leave the value: no
//! method returns `K`, `K_h` or `H`, and `Debug` is redacted.

// hot-path: deny-clone

use std::fmt;

use crate::gcm::AesGcm128;
use crate::rng::SystemRng;

/// Length in bytes of a [`GhashPrf`] output.
pub const PRF_LEN: usize = 16;

/// The keyed PRF `F(a, m) = E_K(GHASH_H(a, m))`, with `H = E_{K_h}(0¹²⁸)`
/// and `K`, `K_h` independent random keys.
///
/// One GHASH pass over `m` and one AES block. Over 64 KiB in cache, on a
/// 2-vCPU Xeon VM (best of 30 batches), that takes 2.8–3.1 µs with the
/// 32-block AVX-512/VPCLMULQDQ GHASH, 13–14 µs with the four-block
/// PCLMULQDQ one and about 1,700 µs on the portable code, against
/// 46–52 µs for a SHA-NI SHA-256 and about 460 µs for the portable one
/// (DESIGN.md, platform trade-off). In a workload the input must first be
/// read in: over 40,000 Zipf(0.9) picks among 512 random 64 KiB inputs,
/// one thread on the same host, the wide pass's median took 3.4–4.1 µs,
/// against 2.9–3.8 µs for a plain XOR read of the same inputs, so it runs
/// at about the speed of memory; its 4 KiB-ahead prefetch moved that
/// median within the probe's noise. The output is a secret fingerprint,
/// never a public tag: whoever learns `H` can build GHASH collisions, and
/// the AES layer is what keeps `H` out of reach of anyone who sees
/// outputs.
///
/// # Example
///
/// ```
/// use speed_crypto::{GhashPrf, SystemRng};
///
/// let prf = GhashPrf::new(&mut SystemRng::new());
/// assert_eq!(prf.eval(b"func", b"input"), prf.eval(b"func", b"input"));
/// assert_ne!(prf.eval(b"func", b"input"), prf.eval(b"func", b"other"));
/// assert_eq!(format!("{prf:?}"), "GhashPrf(<keys redacted>)");
/// ```
pub struct GhashPrf {
    /// Keyed by `K_h`: supplies GHASH under `H = E_{K_h}(0¹²⁸)`.
    hash: AesGcm128,
    /// Keyed by `K`: supplies the single AES block over the GHASH value.
    outer: AesGcm128,
}

impl fmt::Debug for GhashPrf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GhashPrf(<keys redacted>)")
    }
}

impl GhashPrf {
    /// Draws `K_h` and then `K` from `rng`.
    pub fn new(rng: &mut SystemRng) -> Self {
        let hash = AesGcm128::new(&rng.gen_key());
        let outer = AesGcm128::new(&rng.gen_key());
        GhashPrf { hash, outer }
    }

    /// `F(a, m)`: GHASH over `a`, `m` and their bit lengths, then one AES
    /// block.
    pub fn eval(&self, a: &[u8], m: &[u8]) -> [u8; PRF_LEN] {
        let mut block = self.hash.ghash(a, m).to_be_bytes();
        self.outer.encrypt_block(&mut block);
        block
    }
}

#[cfg(test)]
impl GhashPrf {
    /// The PRF under explicit keys, once per AES-GCM backend this CPU runs,
    /// the portable one first.
    pub(crate) fn backends(k_h: &crate::Key128, k: &crate::Key128) -> Vec<GhashPrf> {
        AesGcm128::backends(k_h)
            .into_iter()
            .zip(AesGcm128::backends(k))
            .map(|(hash, outer)| GhashPrf { hash, outer })
            .collect()
    }

    /// The AES-GCM backend this PRF runs, as [`AesGcm128::backend_name`].
    pub(crate) fn backend_name(&self) -> &'static str {
        self.hash.backend_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key128;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn key_from_hex(s: &str) -> Key128 {
        Key128::from_slice(&from_hex(s)).unwrap()
    }

    /// The hash key, AAD and ciphertext of NIST GCM test case 4, whose
    /// GHASH(H, A, C) the GCM specification lists, and the FIPS 197
    /// appendix C.1 key for the AES layer. The expected output was computed
    /// apart from this crate: `openssl enc -aes-128-ecb -nopad` and Python's
    /// `cryptography` agree on it.
    #[test]
    fn known_answer_over_nist_gcm_test_case_4() {
        let k_h = key_from_hex("feffe9928665731c6d6a8f9467308308");
        let k = key_from_hex("000102030405060708090a0b0c0d0e0f");
        let aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let ciphertext = from_hex(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        );
        let expected_ghash = from_hex("698e57f70e6ecc7fd9463b7260a9ae5f");
        let expected = from_hex("80a48893b8190b01f78495436a6f2e32");
        for prf in &GhashPrf::backends(&k_h, &k) {
            let backend = prf.backend_name();
            let ghash = prf.hash.ghash(&aad, &ciphertext).to_be_bytes();
            assert_eq!(&ghash[..], &expected_ghash[..], "{backend}");
            assert_eq!(&prf.eval(&aad, &ciphertext)[..], &expected[..], "{backend}");
        }
    }

    /// A 517-byte `a` and a 1,125-byte `m`: a 32-block group and a partial
    /// block of `a`, two groups, a four-block group, a single block and a
    /// partial block of `m`. The expected values were computed apart from
    /// this crate with Python's `cryptography`, GHASH as the tag XOR
    /// `E(K_h, J0)` of the AES-GCM encryption whose ciphertext is `m` and
    /// `F` as AES-ECB under `K`, and the GHASH with a pure-Python one too.
    #[test]
    fn known_answer_over_a_long_input() {
        let k_h = key_from_hex("feffe9928665731c6d6a8f9467308308");
        let k = key_from_hex("000102030405060708090a0b0c0d0e0f");
        let a: Vec<u8> = (0..517u32).map(|i| (i * 7 + 3) as u8).collect();
        let m: Vec<u8> = (0..1125u32).map(|i| (i * 13 + 1) as u8).collect();
        let expected_ghash = from_hex("fa6a6faed116af929b73f0a2aaf8f394");
        let expected = from_hex("017a49a1cb7155587d540d1ce4a9937c");
        for prf in &GhashPrf::backends(&k_h, &k) {
            let backend = prf.backend_name();
            let ghash = prf.hash.ghash(&a, &m).to_be_bytes();
            assert_eq!(&ghash[..], &expected_ghash[..], "{backend}");
            assert_eq!(&prf.eval(&a, &m)[..], &expected[..], "{backend}");
        }
    }

    #[test]
    fn split_between_a_and_m_matters() {
        // The length block tells (a, m) apart from any other split of the
        // same bytes.
        let prf = GhashPrf::new(&mut SystemRng::seeded(0xF1));
        let bytes = [7u8; 48];
        let outputs: Vec<[u8; PRF_LEN]> =
            (0..=48).map(|at| prf.eval(&bytes[..at], &bytes[at..])).collect();
        for (i, a) in outputs.iter().enumerate() {
            for b in &outputs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
