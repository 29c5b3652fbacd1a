//! Result protection: the randomized-convergent-encryption construction of
//! §III-C, plus the basic single-key scheme of §III-B.
//!
//! Every function here takes the computation's [`CompDigest`]
//! `d = Hash("comp", func, m)`, never the input itself: the runtime hashes
//! the input once per call, and the keys below are hashes of `d`.
//!
//! Encryption (Algorithm 1, lines 5–9):
//!
//! ```text
//! r  ←$ {0,1}*                      // challenge message
//! h  ← Hash("secondary-key", d, r)  // secondary key
//! k  ← AES.KeyGen(1^λ)              // fresh random result key
//! [res] ← AES.Enc(k, res)           // AES-GCM: confidentiality + integrity
//! [k]   ← k ⊕ h                     // one-time-pad wrap
//! ```
//!
//! Recovery (Algorithm 2, lines 4–6, and the Fig. 3 verification protocol):
//! an application derives `d'` from its *own* code and input and recomputes
//! `h' ← Hash("secondary-key", d', r)`; if it does not perform the identical
//! computation, `k' = [k] ⊕ h'` is wrong and AES-GCM decryption returns `⊥`.

// hot-path: deny-clone

use speed_crypto::{AesGcm128, Key128, Nonce, SystemRng};
use speed_wire::Record;

use crate::error::CoreError;
use crate::tag::CompDigest;

/// Length in bytes of the challenge message `r`.
pub const CHALLENGE_LEN: usize = 32;

/// Associated data bound into every result ciphertext: the version of the
/// record scheme. Version 2 derives the keys from the computation digest,
/// so a version-1 record never verifies under a version-2 key.
const RESULT_AAD: &[u8] = b"speed-result-v2";

/// Encrypts a freshly computed result for publication (initial computation,
/// Algorithm 1).
///
/// Returns the [`Record`] to send in the `PUT_REQUEST`.
pub fn encrypt_result(digest: &CompDigest, result: &[u8], rng: &mut SystemRng) -> Record {
    let challenge = rng.gen_challenge(CHALLENGE_LEN);
    let h = digest.secondary_key(&challenge);
    let k = rng.gen_key();
    let nonce = rng.gen_nonce();
    let cipher = AesGcm128::new(&k);
    let boxed_result = cipher.seal(&nonce, RESULT_AAD, result);
    let wrapped_key = *k.xor_pad(&h).as_bytes();
    Record { challenge, wrapped_key, nonce: *nonce.as_bytes(), boxed_result }
}

/// Recovers a stored result (subsequent computation, Algorithm 2).
///
/// # Errors
///
/// Returns [`CoreError::VerificationFailed`] if this application does not
/// own the identical `(func, m)` — i.e. the recovered key fails to
/// authenticate the ciphertext — or if the record was tampered with outside
/// the enclave.
pub fn recover_result(
    digest: &CompDigest,
    record: &Record,
) -> Result<Vec<u8>, CoreError> {
    let h = digest.secondary_key(&record.challenge);
    let k = Key128::from_bytes(record.wrapped_key).xor_pad(&h);
    let cipher = AesGcm128::new(&k);
    let nonce = Nonce::from_bytes(record.nonce);
    cipher
        .open(&nonce, RESULT_AAD, &record.boxed_result)
        .map_err(|_| CoreError::VerificationFailed)
}

/// Encrypts a result under classic *convergent encryption* (the original
/// deterministic MLE of Douceur et al., which RCE improves upon): the key
/// is derived directly from the computation, `k = H("convergent-key", d)`,
/// with no challenge message and no wrapped key.
///
/// Compared to the paper's RCE construction this saves one hash and the
/// key-wrap XOR, but the key is *deterministic*: anyone who can enumerate
/// candidate `(func, m)` pairs can confirm guesses offline once they hold
/// the ciphertext — exactly the predictable-message weakness §III-D's
/// brute-force discussion warns about. Provided for the scheme ablation.
pub fn encrypt_result_convergent(
    digest: &CompDigest,
    result: &[u8],
    rng: &mut SystemRng,
) -> Record {
    let key = digest.convergent_key();
    let nonce = rng.gen_nonce();
    let cipher = AesGcm128::new(&key);
    let boxed_result = cipher.seal(&nonce, RESULT_AAD, result);
    Record {
        challenge: Vec::new(),
        wrapped_key: [0u8; 16],
        nonce: *nonce.as_bytes(),
        boxed_result,
    }
}

/// Recovers a result encrypted with [`encrypt_result_convergent`].
///
/// # Errors
///
/// Returns [`CoreError::VerificationFailed`] if the caller does not own
/// the identical `(func, m)` or the ciphertext was tampered with.
pub fn recover_result_convergent(
    digest: &CompDigest,
    record: &Record,
) -> Result<Vec<u8>, CoreError> {
    let key = digest.convergent_key();
    let cipher = AesGcm128::new(&key);
    let nonce = Nonce::from_bytes(record.nonce);
    cipher
        .open(&nonce, RESULT_AAD, &record.boxed_result)
        .map_err(|_| CoreError::VerificationFailed)
}

/// Encrypts a result under a fixed system-wide key (the basic design of
/// §III-B). The challenge field is unused (empty) in this mode.
pub fn encrypt_result_single_key(
    key: &Key128,
    result: &[u8],
    rng: &mut SystemRng,
) -> Record {
    let nonce = rng.gen_nonce();
    let cipher = AesGcm128::new(key);
    let boxed_result = cipher.seal(&nonce, RESULT_AAD, result);
    Record {
        challenge: Vec::new(),
        wrapped_key: [0u8; 16],
        nonce: *nonce.as_bytes(),
        boxed_result,
    }
}

/// Recovers a result encrypted under the system-wide key.
///
/// # Errors
///
/// Returns [`CoreError::VerificationFailed`] if the key is wrong or the
/// ciphertext was tampered with.
pub fn recover_result_single_key(
    key: &Key128,
    record: &Record,
) -> Result<Vec<u8>, CoreError> {
    let cipher = AesGcm128::new(key);
    let nonce = Nonce::from_bytes(record.nonce);
    cipher
        .open(&nonce, RESULT_AAD, &record.boxed_result)
        .map_err(|_| CoreError::VerificationFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FuncDesc, FuncIdentity, LibraryRegistry, TrustedLibrary};
    use crate::tag::comp_digest;

    /// Random byte string of length `0..=max`, for the seeded property
    /// loops below (deterministic replacements for proptest generators).
    fn arb_bytes(rng: &mut SystemRng, max: usize) -> Vec<u8> {
        let mut v = vec![0u8; rng.range_usize_inclusive(0, max)];
        rng.fill(&mut v);
        v
    }

    fn identity(code: &[u8]) -> FuncIdentity {
        let mut library = TrustedLibrary::new("lib", "1");
        library.register("f()", code);
        let mut registry = LibraryRegistry::new();
        registry.add(library);
        registry.resolve(&FuncDesc::new("lib", "1", "f()")).unwrap()
    }

    #[test]
    fn same_computation_recovers_result() {
        let d = comp_digest(&identity(b"code"), b"input");
        let mut rng = SystemRng::seeded(1);
        let record = encrypt_result(&d, b"the result", &mut rng);
        assert_eq!(recover_result(&d, &record).unwrap(), b"the result");
    }

    #[test]
    fn wrong_input_fails_verification() {
        let func = identity(b"code");
        let mut rng = SystemRng::seeded(1);
        let record =
            encrypt_result(&comp_digest(&func, b"input"), b"the result", &mut rng);
        assert!(matches!(
            recover_result(&comp_digest(&func, b"other input"), &record),
            Err(CoreError::VerificationFailed)
        ));
    }

    #[test]
    fn wrong_code_fails_verification() {
        let alice = comp_digest(&identity(b"real code"), b"input");
        let mallory = comp_digest(&identity(b"fake code"), b"input");
        let mut rng = SystemRng::seeded(1);
        let record = encrypt_result(&alice, b"secret result", &mut rng);
        assert!(matches!(
            recover_result(&mallory, &record),
            Err(CoreError::VerificationFailed)
        ));
    }

    #[test]
    fn tampered_record_fields_fail() {
        let d = comp_digest(&identity(b"code"), b"m");
        let mut rng = SystemRng::seeded(2);
        let record = encrypt_result(&d, b"res", &mut rng);

        let mut tampered = record.clone();
        tampered.boxed_result[0] ^= 1;
        assert!(recover_result(&d, &tampered).is_err());

        let mut tampered = record.clone();
        tampered.wrapped_key[0] ^= 1;
        assert!(recover_result(&d, &tampered).is_err());

        let mut tampered = record.clone();
        tampered.challenge[0] ^= 1;
        assert!(recover_result(&d, &tampered).is_err());

        let mut tampered = record;
        tampered.nonce[0] ^= 1;
        assert!(recover_result(&d, &tampered).is_err());
    }

    #[test]
    fn encryptions_are_randomized() {
        // RCE is a *randomized* MLE: same computation, different ciphertexts.
        let d = comp_digest(&identity(b"code"), b"m");
        let mut rng = SystemRng::seeded(3);
        let r1 = encrypt_result(&d, b"res", &mut rng);
        let r2 = encrypt_result(&d, b"res", &mut rng);
        assert_ne!(r1.boxed_result, r2.boxed_result);
        assert_ne!(r1.challenge, r2.challenge);
        // Both decrypt to the same result for eligible applications.
        assert_eq!(recover_result(&d, &r1).unwrap(), b"res");
        assert_eq!(recover_result(&d, &r2).unwrap(), b"res");
    }

    #[test]
    fn empty_result_roundtrips() {
        let d = comp_digest(&identity(b"code"), b"m");
        let mut rng = SystemRng::seeded(4);
        let record = encrypt_result(&d, b"", &mut rng);
        assert_eq!(recover_result(&d, &record).unwrap(), b"");
    }

    #[test]
    fn convergent_mode_roundtrips() {
        let func = identity(b"code");
        let d = comp_digest(&func, b"m");
        let mut rng = SystemRng::seeded(11);
        let record = encrypt_result_convergent(&d, b"res", &mut rng);
        assert_eq!(recover_result_convergent(&d, &record).unwrap(), b"res");
        let other = comp_digest(&func, b"other");
        assert!(recover_result_convergent(&other, &record).is_err());
        let bad = comp_digest(&identity(b"bad"), b"m");
        assert!(recover_result_convergent(&bad, &record).is_err());
    }

    #[test]
    fn convergent_key_is_deterministic_rce_key_is_not() {
        // The security-relevant distinction: CE keys repeat across
        // encryptions of the same computation; RCE keys are fresh.
        let func = identity(b"code");
        let d = comp_digest(&func, b"m");
        let mut rng = SystemRng::seeded(12);
        let ce1 = encrypt_result_convergent(&d, b"res", &mut rng);
        let ce2 = encrypt_result_convergent(&d, b"res", &mut rng);
        // Same key, different nonce ⇒ ciphertexts differ but an attacker
        // testing a guessed (func, m) derives the SAME key both times.
        assert_eq!(
            comp_digest(&func, b"m").convergent_key(),
            comp_digest(&func, b"m").convergent_key()
        );
        assert_ne!(ce1.boxed_result, ce2.boxed_result); // nonce still random

        let rce1 = encrypt_result(&d, b"res", &mut rng);
        let rce2 = encrypt_result(&d, b"res", &mut rng);
        assert_ne!(rce1.challenge, rce2.challenge);
        assert_ne!(rce1.wrapped_key, rce2.wrapped_key);
    }

    #[test]
    fn single_key_mode_roundtrips() {
        let key = Key128::from_bytes([7u8; 16]);
        let mut rng = SystemRng::seeded(5);
        let record = encrypt_result_single_key(&key, b"res", &mut rng);
        assert_eq!(recover_result_single_key(&key, &record).unwrap(), b"res");
    }

    #[test]
    fn single_key_mode_is_brittle_across_keys() {
        // The §III-B discussion: one compromised/changed key breaks all
        // sharing — demonstrated by failure under a different key.
        let mut rng = SystemRng::seeded(6);
        let record =
            encrypt_result_single_key(&Key128::from_bytes([1u8; 16]), b"res", &mut rng);
        assert!(
            recover_result_single_key(&Key128::from_bytes([2u8; 16]), &record).is_err()
        );
    }

    #[test]
    fn prop_roundtrip_arbitrary_results() {
        let func = identity(b"code");
        let mut rng = SystemRng::seeded(0x9CE1);
        for _ in 0..64 {
            let input = arb_bytes(&mut rng, 256);
            let result = arb_bytes(&mut rng, 256);
            let d = comp_digest(&func, &input);
            let record = encrypt_result(&d, &result, &mut rng);
            assert_eq!(recover_result(&d, &record).unwrap(), result);
        }
    }

    #[test]
    fn prop_wrong_input_never_decrypts() {
        let func = identity(b"code");
        let mut rng = SystemRng::seeded(0x9CE2);
        for _ in 0..64 {
            let input = arb_bytes(&mut rng, 128);
            let mut other = arb_bytes(&mut rng, 128);
            if other == input {
                other.push(0xFF);
            }
            let result = arb_bytes(&mut rng, 128);
            let record = encrypt_result(&comp_digest(&func, &input), &result, &mut rng);
            assert!(recover_result(&comp_digest(&func, &other), &record).is_err());
        }
    }

    #[test]
    fn prop_ciphertext_leaks_only_length() {
        let d = comp_digest(&identity(b"code"), b"m");
        let mut rng = SystemRng::seeded(0x9CE3);
        for _ in 0..64 {
            let result = arb_bytes(&mut rng, 512);
            let record = encrypt_result(&d, &result, &mut rng);
            // GCM ciphertext length = plaintext length + 16-byte tag.
            assert_eq!(record.boxed_result.len(), result.len() + 16);
        }
    }
}
