//! NIST SP 800-38D AES-GCM-128 authenticated encryption with associated data.

use crate::aes::{ctr_xor, Aes128, BLOCK_LEN};
use crate::ct::ct_eq;
use crate::error::CryptoError;
use crate::types::{AuthTag, Key128, Nonce, TAG_LEN};

/// AES-GCM-128 AEAD cipher, the scheme the paper uses for result
/// encryption (`AES.Enc` / `AES.Dec` in Algorithms 1 and 2).
///
/// Ciphertexts produced by [`seal`](AesGcm128::seal) carry the 16-byte
/// authentication tag appended to the encrypted payload, matching the
/// paper's `[res]` notation which "covers its authentication code and
/// initialization vector" (§III-B) — the IV travels separately as a
/// [`Nonce`].
///
/// # Example
///
/// ```
/// use speed_crypto::{AesGcm128, Key128, Nonce};
///
/// let cipher = AesGcm128::new(&Key128::from_bytes([7u8; 16]));
/// let nonce = Nonce::from_bytes([0u8; 12]);
/// let boxed = cipher.seal(&nonce, b"header", b"secret");
/// assert_eq!(cipher.open(&nonce, b"header", &boxed).unwrap(), b"secret");
/// assert!(cipher.open(&nonce, b"tampered", &boxed).is_err());
/// ```
#[derive(Clone)]
pub struct AesGcm128 {
    backend: Backend,
}

/// The AES and GHASH implementation a cipher runs, chosen by CPU detection
/// when it is created. Every variant produces the same bytes for every
/// input.
#[derive(Clone)]
enum Backend {
    /// The portable byte-wise AES and bit-serial GHASH: the only path on
    /// CPUs without AES-NI, and the reference the differential tests
    /// compare against. `h` is the GHASH subkey `H = E(K, 0¹²⁸)`.
    Soft { cipher: Aes128, h: u128 },
    /// The AES-NI code in [`crate::gcm_ni`], with the four-block
    /// PCLMULQDQ GHASH or, on CPUs with AVX-512 and VPCLMULQDQ, the
    /// 32-block one.
    #[cfg(target_arch = "x86_64")]
    Ni(crate::gcm_ni::GcmNi),
}

impl Backend {
    fn soft(key: &Key128) -> Self {
        let cipher = Aes128::new(key);
        let mut h_block = [0u8; BLOCK_LEN];
        cipher.encrypt_block(&mut h_block);
        Backend::Soft { cipher, h: u128::from_be_bytes(h_block) }
    }
}

impl std::fmt::Debug for AesGcm128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AesGcm128({}, <key redacted>)", self.backend_name())
    }
}

impl AesGcm128 {
    /// Initialises the cipher and its GHASH subkey `H = E(K, 0¹²⁸)` on the
    /// fastest implementation this CPU runs.
    pub fn new(key: &Key128) -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::gcm_ni::GcmNi::new(key) {
            return AesGcm128 { backend: Backend::Ni(ni) };
        }
        AesGcm128 { backend: Backend::soft(key) }
    }

    /// Encrypts `plaintext`, authenticating it together with `aad`.
    ///
    /// Returns `ciphertext || tag` (the tag is the final [`TAG_LEN`] bytes).
    pub fn seal(&self, nonce: &Nonce, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let j0 = self.j0(nonce);
        let mut out = plaintext.to_vec();
        self.ctr_xor(&j0, &mut out);
        let tag = self.compute_tag(&j0, aad, &out);
        out.extend_from_slice(tag.as_bytes());
        out
    }

    /// Decrypts `boxed` (`ciphertext || tag`) and verifies the tag over the
    /// ciphertext and `aad`.
    ///
    /// # Errors
    ///
    /// - [`CryptoError::CiphertextTooShort`] if `boxed` is shorter than the tag.
    /// - [`CryptoError::AuthenticationFailed`] if the tag does not verify
    ///   (the `⊥` outcome of the paper's verification protocol).
    pub fn open(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        boxed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if boxed.len() < TAG_LEN {
            return Err(CryptoError::CiphertextTooShort);
        }
        let (ciphertext, tag_bytes) = boxed.split_at(boxed.len() - TAG_LEN);
        let j0 = self.j0(nonce);
        let expected = self.compute_tag(&j0, aad, ciphertext);
        if !ct_eq(expected.as_bytes(), tag_bytes) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let mut out = ciphertext.to_vec();
        self.ctr_xor(&j0, &mut out);
        Ok(out)
    }

    /// Verifies the tag of `boxed` over `aad` without decrypting.
    ///
    /// # Errors
    ///
    /// Same as [`open`](AesGcm128::open).
    pub fn verify(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        boxed: &[u8],
    ) -> Result<(), CryptoError> {
        if boxed.len() < TAG_LEN {
            return Err(CryptoError::CiphertextTooShort);
        }
        let (ciphertext, tag_bytes) = boxed.split_at(boxed.len() - TAG_LEN);
        let j0 = self.j0(nonce);
        let expected = self.compute_tag(&j0, aad, ciphertext);
        if !ct_eq(expected.as_bytes(), tag_bytes) {
            return Err(CryptoError::AuthenticationFailed);
        }
        Ok(())
    }

    /// The implementation this cipher runs: `soft`, `aes-ni` (four-block
    /// GHASH) or `aes-ni+vpclmulqdq` (32-block GHASH).
    pub(crate) fn backend_name(&self) -> &'static str {
        match &self.backend {
            Backend::Soft { .. } => "soft",
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) if ni.has_wide_ghash() => "aes-ni+vpclmulqdq",
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(_) => "aes-ni",
        }
    }

    fn j0(&self, nonce: &Nonce) -> [u8; BLOCK_LEN] {
        // 96-bit IV fast path: J0 = IV || 0^31 || 1.
        let mut j0 = [0u8; BLOCK_LEN];
        j0[..12].copy_from_slice(nonce.as_bytes());
        j0[15] = 1;
        j0
    }

    /// Encrypts one block in place with the raw AES-128 cipher.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        match &self.backend {
            Backend::Soft { cipher, .. } => cipher.encrypt_block(block),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) => ni.encrypt_block(block),
        }
    }

    /// XORs `data` with the CTR keystream that starts after `counter0`
    /// (GCM's `inc32` before every block).
    pub(crate) fn ctr_xor(&self, counter0: &[u8; BLOCK_LEN], data: &mut [u8]) {
        match &self.backend {
            Backend::Soft { cipher, .. } => ctr_xor(cipher, counter0, data),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) => ni.ctr_xor(counter0, data),
        }
    }

    fn compute_tag(
        &self,
        j0: &[u8; BLOCK_LEN],
        aad: &[u8],
        ciphertext: &[u8],
    ) -> AuthTag {
        let s = self.ghash(aad, ciphertext);
        let mut tag_block = *j0;
        self.encrypt_block(&mut tag_block);
        let mut tag = [0u8; TAG_LEN];
        let s_bytes = s.to_be_bytes();
        for i in 0..TAG_LEN {
            tag[i] = tag_block[i] ^ s_bytes[i];
        }
        AuthTag::from_bytes(tag)
    }

    /// GHASH under `H = E(K, 0¹²⁸)` over `aad`, `ciphertext` and their bit
    /// lengths, as the big-endian value of the result block.
    pub(crate) fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> u128 {
        match &self.backend {
            Backend::Soft { h, .. } => ghash(*h, aad, ciphertext),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) => ni.ghash(aad, ciphertext),
        }
    }
}

#[cfg(test)]
impl AesGcm128 {
    /// One cipher for `key` per implementation this CPU runs, the portable
    /// one first, then AES-NI with each GHASH width it runs.
    pub(crate) fn backends(key: &Key128) -> Vec<AesGcm128> {
        let mut backends = vec![AesGcm128 { backend: Backend::soft(key) }];
        #[cfg(target_arch = "x86_64")]
        backends.extend(
            crate::gcm_ni::GcmNi::ghash_widths(key)
                .into_iter()
                .map(|ni| AesGcm128 { backend: Backend::Ni(ni) }),
        );
        backends
    }
}

/// The portable GHASH over `aad`, `ciphertext` and their bit lengths.
fn ghash(h: u128, aad: &[u8], ciphertext: &[u8]) -> u128 {
    let mut y = 0u128;
    for chunk in aad.chunks(BLOCK_LEN) {
        y = gf128_mul(y ^ block_to_u128(chunk), h);
    }
    for chunk in ciphertext.chunks(BLOCK_LEN) {
        y = gf128_mul(y ^ block_to_u128(chunk), h);
    }
    let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
    gf128_mul(y ^ lengths, h)
}

fn block_to_u128(chunk: &[u8]) -> u128 {
    let mut block = [0u8; BLOCK_LEN];
    block[..chunk.len()].copy_from_slice(chunk);
    u128::from_be_bytes(block)
}

/// Multiplication in GF(2¹²⁸) with the GCM polynomial, MSB-first bit order.
fn gf128_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn key_from_hex(s: &str) -> Key128 {
        Key128::from_slice(&from_hex(s)).unwrap()
    }

    fn nonce_from_hex(s: &str) -> Nonce {
        Nonce::from_slice(&from_hex(s)).unwrap()
    }

    // NIST GCM spec, test case 1: all-zero key and IV, empty everything.
    #[test]
    fn nist_test_case_1() {
        let key = key_from_hex("00000000000000000000000000000000");
        for cipher in AesGcm128::backends(&key) {
            let nonce = nonce_from_hex("000000000000000000000000");
            let boxed = cipher.seal(&nonce, b"", b"");
            assert_eq!(boxed, from_hex("58e2fccefa7e3061367f1d57a4e7455a"), "{cipher:?}");
        }
    }

    // NIST GCM spec, test case 2: one zero plaintext block.
    #[test]
    fn nist_test_case_2() {
        let key = key_from_hex("00000000000000000000000000000000");
        for cipher in AesGcm128::backends(&key) {
            let nonce = nonce_from_hex("000000000000000000000000");
            let boxed = cipher.seal(&nonce, b"", &[0u8; 16]);
            assert_eq!(
                boxed,
                from_hex(
                    "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
                ),
                "{cipher:?}"
            );
            assert_eq!(cipher.open(&nonce, b"", &boxed).unwrap(), vec![0u8; 16]);
        }
    }

    // NIST GCM spec, test case 3: four plaintext blocks.
    #[test]
    fn nist_test_case_3() {
        let key = key_from_hex("feffe9928665731c6d6a8f9467308308");
        for cipher in AesGcm128::backends(&key) {
            let nonce = nonce_from_hex("cafebabefacedbaddecaf888");
            let plaintext = from_hex(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            );
            let boxed = cipher.seal(&nonce, b"", &plaintext);
            let expected_ct = from_hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            );
            assert_eq!(&boxed[..plaintext.len()], &expected_ct[..], "{cipher:?}");
            assert_eq!(
                &boxed[plaintext.len()..],
                &from_hex("4d5c2af327cd64a62cf35abd2ba6fab4")[..],
                "{cipher:?}"
            );
        }
    }

    // NIST GCM spec, test case 4: with associated data and a partial block.
    #[test]
    fn nist_test_case_4() {
        let key = key_from_hex("feffe9928665731c6d6a8f9467308308");
        for cipher in AesGcm128::backends(&key) {
            let nonce = nonce_from_hex("cafebabefacedbaddecaf888");
            let plaintext = from_hex(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            );
            let aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
            let boxed = cipher.seal(&nonce, &aad, &plaintext);
            let expected_ct = from_hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            );
            assert_eq!(&boxed[..plaintext.len()], &expected_ct[..], "{cipher:?}");
            assert_eq!(
                &boxed[plaintext.len()..],
                &from_hex("5bc94fbc3221a5db94fae95ae7121a47")[..],
                "{cipher:?}"
            );
            assert_eq!(cipher.open(&nonce, &aad, &boxed).unwrap(), plaintext);
        }
    }

    /// The key and nonce of NIST case 3/4 with a 517-byte AAD and a
    /// 1,125-byte plaintext, so GHASH crosses a 32-block group and a
    /// partial block of AAD, then two groups, a four-block group, a single
    /// block and a partial block of ciphertext. The expected values were
    /// computed apart from this crate with Python's `cryptography` (AESGCM,
    /// and GHASH as the tag XOR `E(K, J0)`) and checked against a
    /// pure-Python GHASH.
    #[test]
    fn known_answer_over_a_long_input() {
        let key = key_from_hex("feffe9928665731c6d6a8f9467308308");
        let nonce = nonce_from_hex("cafebabefacedbaddecaf888");
        let aad: Vec<u8> = (0..517u32).map(|i| (i * 7 + 3) as u8).collect();
        let plaintext: Vec<u8> = (0..1125u32).map(|i| (i * 13 + 1) as u8).collect();
        for cipher in AesGcm128::backends(&key) {
            let boxed = cipher.seal(&nonce, &aad, &plaintext);
            let (ciphertext, tag) = boxed.split_at(plaintext.len());
            assert_eq!(tag, from_hex("a582f331fca8d5db75831a35beeb4210"), "{cipher:?}");
            assert_eq!(
                crate::Sha256::digest(ciphertext).to_hex(),
                "f529d57d69922f848649c248cf00a891152ab47a3d02b4409355da7df8b322de",
                "{cipher:?}"
            );
            assert_eq!(
                cipher.ghash(&aad, ciphertext),
                0x97c5eb7ac0e7bc7f383fc81d3950f608,
                "{cipher:?}"
            );
            assert_eq!(
                cipher.open(&nonce, &aad, &boxed).unwrap(),
                plaintext,
                "{cipher:?}"
            );
        }
    }

    #[test]
    fn tampered_ciphertext_is_rejected() {
        let cipher = AesGcm128::new(&Key128::from_bytes([9u8; 16]));
        let nonce = Nonce::from_bytes([1u8; 12]);
        let boxed = cipher.seal(&nonce, b"aad", b"hello world");
        for i in 0..boxed.len() {
            let mut corrupted = boxed.clone();
            corrupted[i] ^= 0x01;
            assert_eq!(
                cipher.open(&nonce, b"aad", &corrupted),
                Err(CryptoError::AuthenticationFailed),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn wrong_key_is_rejected() {
        let alice = AesGcm128::new(&Key128::from_bytes([1u8; 16]));
        let mallory = AesGcm128::new(&Key128::from_bytes([2u8; 16]));
        let nonce = Nonce::from_bytes([0u8; 12]);
        let boxed = alice.seal(&nonce, b"", b"secret");
        assert_eq!(
            mallory.open(&nonce, b"", &boxed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn wrong_nonce_is_rejected() {
        let cipher = AesGcm128::new(&Key128::from_bytes([1u8; 16]));
        let boxed = cipher.seal(&Nonce::from_bytes([0u8; 12]), b"", b"secret");
        assert_eq!(
            cipher.open(&Nonce::from_bytes([1u8; 12]), b"", &boxed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn short_ciphertext_is_rejected() {
        let cipher = AesGcm128::new(&Key128::from_bytes([1u8; 16]));
        let nonce = Nonce::from_bytes([0u8; 12]);
        assert_eq!(
            cipher.open(&nonce, b"", &[0u8; 15]),
            Err(CryptoError::CiphertextTooShort)
        );
    }

    #[test]
    fn verify_without_decrypt() {
        let cipher = AesGcm128::new(&Key128::from_bytes([5u8; 16]));
        let nonce = Nonce::from_bytes([5u8; 12]);
        let boxed = cipher.seal(&nonce, b"meta", b"payload");
        assert!(cipher.verify(&nonce, b"meta", &boxed).is_ok());
        assert!(cipher.verify(&nonce, b"other", &boxed).is_err());
    }

    #[test]
    fn empty_plaintext_roundtrip_with_aad() {
        let cipher = AesGcm128::new(&Key128::from_bytes([3u8; 16]));
        let nonce = Nonce::from_bytes([3u8; 12]);
        let boxed = cipher.seal(&nonce, b"only-aad", b"");
        assert_eq!(boxed.len(), TAG_LEN);
        assert_eq!(cipher.open(&nonce, b"only-aad", &boxed).unwrap(), b"");
    }

    #[test]
    fn large_odd_length_roundtrip() {
        let cipher = AesGcm128::new(&Key128::from_bytes([8u8; 16]));
        let nonce = Nonce::from_bytes([8u8; 12]);
        let plaintext: Vec<u8> = (0..100_003u32).map(|i| (i % 251) as u8).collect();
        let boxed = cipher.seal(&nonce, b"", &plaintext);
        assert_eq!(cipher.open(&nonce, b"", &boxed).unwrap(), plaintext);
    }

    mod proptests {
        use super::*;
        use crate::rng::SystemRng;

        fn arb_bytes(rng: &mut SystemRng, lo: usize, hi: usize) -> Vec<u8> {
            let mut v = vec![0u8; rng.range_usize(lo, hi)];
            rng.fill(&mut v);
            v
        }

        fn arb_key(rng: &mut SystemRng) -> Key128 {
            let mut key = [0u8; 16];
            rng.fill(&mut key);
            Key128::from_bytes(key)
        }

        #[test]
        fn prop_seal_open_roundtrip() {
            let mut rng = SystemRng::seeded(0x6C41);
            for _ in 0..64 {
                let cipher = AesGcm128::new(&arb_key(&mut rng));
                let mut nonce_bytes = [0u8; 12];
                rng.fill(&mut nonce_bytes);
                let nonce = Nonce::from_bytes(nonce_bytes);
                let aad = arb_bytes(&mut rng, 0, 64);
                let plaintext = arb_bytes(&mut rng, 0, 512);
                let boxed = cipher.seal(&nonce, &aad, &plaintext);
                assert_eq!(boxed.len(), plaintext.len() + TAG_LEN);
                assert_eq!(cipher.open(&nonce, &aad, &boxed).unwrap(), plaintext);
            }
        }

        #[test]
        fn prop_different_aad_rejected() {
            let mut rng = SystemRng::seeded(0x6C42);
            for _ in 0..64 {
                let cipher = AesGcm128::new(&arb_key(&mut rng));
                let aad_a = arb_bytes(&mut rng, 0, 32);
                let mut aad_b = arb_bytes(&mut rng, 0, 32);
                if aad_a == aad_b {
                    aad_b.push(0xAA);
                }
                let plaintext = arb_bytes(&mut rng, 0, 128);
                let nonce = Nonce::from_bytes([0u8; 12]);
                let boxed = cipher.seal(&nonce, &aad_a, &plaintext);
                assert!(cipher.open(&nonce, &aad_b, &boxed).is_err());
            }
        }

        #[test]
        fn prop_hostile_boxed_never_panics() {
            let mut rng = SystemRng::seeded(0x6C43);
            for _ in 0..64 {
                let cipher = AesGcm128::new(&arb_key(&mut rng));
                let boxed = arb_bytes(&mut rng, 0, 256);
                let nonce = Nonce::from_bytes([1u8; 12]);
                let _ = cipher.open(&nonce, b"aad", &boxed);
            }
        }

        #[test]
        fn prop_ciphertext_differs_from_plaintext() {
            let mut rng = SystemRng::seeded(0x6C44);
            for _ in 0..64 {
                let plaintext = arb_bytes(&mut rng, 16, 256);
                let cipher = AesGcm128::new(&Key128::from_bytes([5u8; 16]));
                let nonce = Nonce::from_bytes([5u8; 12]);
                let boxed = cipher.seal(&nonce, b"", &plaintext);
                assert_ne!(&boxed[..plaintext.len()], &plaintext[..]);
            }
        }
    }
}
