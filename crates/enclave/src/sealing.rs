//! Enclave data sealing.
//!
//! SGX enclaves persist secrets outside the enclave by *sealing* them:
//! encrypting with a key derived inside the CPU from the platform fuse
//! secret and the enclave's identity. Two policies exist; the simulator
//! implements both:
//!
//! - [`SealPolicy::MrEnclave`] — only the *exact same code* on the same
//!   platform can unseal.
//! - [`SealPolicy::MrSigner`] — any enclave from the same "signer" can
//!   unseal (modelled with an explicit signer label).
//!
//! [`seal`] and [`unseal`] derive the key for every blob. A [`Sealer`]
//! derives it once, for a caller that seals many blobs under one identity.

use speed_crypto::{hkdf, AesGcm128, Key128, Nonce, SystemRng};

use crate::enclave::Enclave;
use crate::error::EnclaveError;
use crate::platform::Platform;

/// Key-derivation policy for sealing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SealPolicy {
    /// Bind to the exact enclave measurement.
    MrEnclave,
    /// Bind to a signer identity shared by a family of enclaves.
    MrSigner(String),
}

/// A sealed blob: nonce plus AES-GCM ciphertext (tag appended).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedData {
    nonce: [u8; 12],
    boxed: Vec<u8>,
}

impl SealedData {
    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.nonce.len() + self.boxed.len()
    }

    /// Whether the sealed payload is empty (tag-only).
    pub fn is_empty(&self) -> bool {
        self.boxed.len() <= speed_crypto::TAG_LEN
    }

    /// Flattens to bytes (`nonce || ciphertext || tag`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.boxed);
        out
    }

    /// Parses from bytes produced by [`to_bytes`](SealedData::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::UnsealFailed`] if `bytes` is too short.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EnclaveError> {
        if bytes.len() < 12 + speed_crypto::TAG_LEN {
            return Err(EnclaveError::UnsealFailed);
        }
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&bytes[..12]);
        Ok(SealedData { nonce, boxed: bytes[12..].to_vec() })
    }
}

fn seal_key(platform: &Platform, enclave: &Enclave, policy: &SealPolicy) -> Key128 {
    let identity: Vec<u8> = match policy {
        SealPolicy::MrEnclave => enclave.measurement().as_bytes().to_vec(),
        SealPolicy::MrSigner(signer) => {
            let mut v = b"signer:".to_vec();
            v.extend_from_slice(signer.as_bytes());
            v
        }
    };
    let okm = hkdf::derive(b"sgx-seal-key", platform.fuse_secret(), &identity, 16);
    Key128::from_slice(&okm).expect("hkdf produced 16 bytes")
}

fn open(
    cipher: &AesGcm128,
    aad: &[u8],
    sealed: &SealedData,
) -> Result<Vec<u8>, EnclaveError> {
    let nonce = Nonce::from_bytes(sealed.nonce);
    cipher.open(&nonce, aad, &sealed.boxed).map_err(|_| EnclaveError::UnsealFailed)
}

/// A sealing key derived once for one enclave and policy, with its own
/// nonce generator: it seals and unseals exactly as [`seal`] and [`unseal`]
/// do, without the key derivation, the cipher setup and the read of OS
/// entropy that each of their calls makes. Nonces stay random 96-bit
/// values, from a ChaCha20 generator seeded once from OS entropy. `Debug`
/// prints neither the key nor the generator's state.
pub struct Sealer {
    cipher: AesGcm128,
    nonces: SystemRng,
}

impl std::fmt::Debug for Sealer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sealer(<key redacted>)")
    }
}

impl Sealer {
    /// Derives the sealing key of `enclave` on `platform` under `policy`.
    pub fn new(platform: &Platform, enclave: &Enclave, policy: &SealPolicy) -> Self {
        Sealer {
            cipher: AesGcm128::new(&seal_key(platform, enclave, policy)),
            nonces: SystemRng::new(),
        }
    }

    /// Seals `plaintext` under a fresh random nonce.
    pub fn seal(&mut self, aad: &[u8], plaintext: &[u8]) -> SealedData {
        let nonce = self.nonces.gen_nonce();
        let boxed = self.cipher.seal(&nonce, aad, plaintext);
        SealedData { nonce: *nonce.as_bytes(), boxed }
    }

    /// Unseals data sealed under this key, by a `Sealer` or by [`seal`].
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::UnsealFailed`] if the data was sealed under
    /// another key or AAD, or was tampered with.
    pub fn unseal(
        &self,
        aad: &[u8],
        sealed: &SealedData,
    ) -> Result<Vec<u8>, EnclaveError> {
        open(&self.cipher, aad, sealed)
    }
}

/// Seals `plaintext` for later recovery under `policy`.
pub fn seal(
    platform: &Platform,
    enclave: &Enclave,
    policy: &SealPolicy,
    aad: &[u8],
    plaintext: &[u8],
) -> SealedData {
    Sealer::new(platform, enclave, policy).seal(aad, plaintext)
}

/// Unseals data previously produced by [`seal`].
///
/// # Errors
///
/// Returns [`EnclaveError::UnsealFailed`] if the calling enclave's identity
/// does not satisfy the policy the data was sealed under, or the blob was
/// tampered with.
pub fn unseal(
    platform: &Platform,
    enclave: &Enclave,
    policy: &SealPolicy,
    aad: &[u8],
    sealed: &SealedData,
) -> Result<Vec<u8>, EnclaveError> {
    open(&AesGcm128::new(&seal_key(platform, enclave, policy)), aad, sealed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    #[test]
    fn seal_unseal_roundtrip_mrenclave() {
        let platform = Platform::new(CostModel::no_sgx());
        let enclave = platform.create_enclave(b"app").unwrap();
        let sealed = seal(&platform, &enclave, &SealPolicy::MrEnclave, b"v1", b"secret");
        let opened =
            unseal(&platform, &enclave, &SealPolicy::MrEnclave, b"v1", &sealed).unwrap();
        assert_eq!(opened, b"secret");
    }

    #[test]
    fn different_code_cannot_unseal_mrenclave() {
        let platform = Platform::new(CostModel::no_sgx());
        let a = platform.create_enclave(b"app-a").unwrap();
        let b = platform.create_enclave(b"app-b").unwrap();
        let sealed = seal(&platform, &a, &SealPolicy::MrEnclave, b"", b"secret");
        assert_eq!(
            unseal(&platform, &b, &SealPolicy::MrEnclave, b"", &sealed),
            Err(EnclaveError::UnsealFailed)
        );
    }

    #[test]
    fn same_signer_can_unseal_mrsigner() {
        let platform = Platform::new(CostModel::no_sgx());
        let a = platform.create_enclave(b"app-a").unwrap();
        let b = platform.create_enclave(b"app-b").unwrap();
        let policy = SealPolicy::MrSigner("vendor".into());
        let sealed = seal(&platform, &a, &policy, b"", b"shared secret");
        assert_eq!(
            unseal(&platform, &b, &policy, b"", &sealed).unwrap(),
            b"shared secret"
        );
    }

    #[test]
    fn different_signer_cannot_unseal() {
        let platform = Platform::new(CostModel::no_sgx());
        let a = platform.create_enclave(b"app").unwrap();
        let sealed = seal(&platform, &a, &SealPolicy::MrSigner("v1".into()), b"", b"s");
        assert!(unseal(&platform, &a, &SealPolicy::MrSigner("v2".into()), b"", &sealed)
            .is_err());
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let p1 = Platform::with_seed(CostModel::no_sgx(), Some(1));
        let p2 = Platform::with_seed(CostModel::no_sgx(), Some(2));
        let e1 = p1.create_enclave(b"app").unwrap();
        let e2 = p2.create_enclave(b"app").unwrap();
        let sealed = seal(&p1, &e1, &SealPolicy::MrEnclave, b"", b"s");
        assert!(unseal(&p2, &e2, &SealPolicy::MrEnclave, b"", &sealed).is_err());
    }

    #[test]
    fn tampered_sealed_blob_is_rejected() {
        let platform = Platform::new(CostModel::no_sgx());
        let enclave = platform.create_enclave(b"app").unwrap();
        let sealed = seal(&platform, &enclave, &SealPolicy::MrEnclave, b"", b"secret");
        let mut bytes = sealed.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let reparsed = SealedData::from_bytes(&bytes).unwrap();
        assert!(
            unseal(&platform, &enclave, &SealPolicy::MrEnclave, b"", &reparsed).is_err()
        );
    }

    #[test]
    fn serialization_roundtrip() {
        let platform = Platform::new(CostModel::no_sgx());
        let enclave = platform.create_enclave(b"app").unwrap();
        let sealed = seal(&platform, &enclave, &SealPolicy::MrEnclave, b"aad", b"data");
        let parsed = SealedData::from_bytes(&sealed.to_bytes()).unwrap();
        assert_eq!(parsed, sealed);
        assert!(SealedData::from_bytes(&[0u8; 5]).is_err());
    }

    #[test]
    fn sealer_output_matches_seal_and_unseal() {
        let platform = Platform::new(CostModel::no_sgx());
        let enclave = platform.create_enclave(b"app").unwrap();
        let policy = SealPolicy::MrEnclave;
        let mut sealer = Sealer::new(&platform, &enclave, &policy);
        let sealed = sealer.seal(b"aad", b"from the sealer");
        assert_eq!(
            unseal(&platform, &enclave, &policy, b"aad", &sealed).unwrap(),
            b"from the sealer"
        );
        let sealed = seal(&platform, &enclave, &policy, b"aad", b"from seal");
        assert_eq!(sealer.unseal(b"aad", &sealed).unwrap(), b"from seal");
        assert!(sealer.unseal(b"other aad", &sealed).is_err());
        let other = platform.create_enclave(b"other app").unwrap();
        let foreign = Sealer::new(&platform, &other, &policy).seal(b"aad", b"x");
        assert_eq!(sealer.unseal(b"aad", &foreign), Err(EnclaveError::UnsealFailed));
    }

    #[test]
    fn sealer_never_repeats_a_nonce() {
        let platform = Platform::new(CostModel::no_sgx());
        let enclave = platform.create_enclave(b"app").unwrap();
        let mut sealer = Sealer::new(&platform, &enclave, &SealPolicy::MrEnclave);
        let nonces: std::collections::HashSet<[u8; 12]> =
            (0..10_000).map(|_| sealer.seal(b"", b"same plaintext").nonce).collect();
        assert_eq!(nonces.len(), 10_000);
    }

    #[test]
    fn sealer_debug_is_redacted() {
        let platform = Platform::new(CostModel::no_sgx());
        let a = Sealer::new(
            &platform,
            &platform.create_enclave(b"a").unwrap(),
            &SealPolicy::MrEnclave,
        );
        let b = Sealer::new(
            &platform,
            &platform.create_enclave(b"b").unwrap(),
            &SealPolicy::MrEnclave,
        );
        assert_eq!(format!("{a:?}"), "Sealer(<key redacted>)");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn wrong_aad_is_rejected() {
        let platform = Platform::new(CostModel::no_sgx());
        let enclave = platform.create_enclave(b"app").unwrap();
        let sealed = seal(&platform, &enclave, &SealPolicy::MrEnclave, b"v1", b"data");
        assert!(
            unseal(&platform, &enclave, &SealPolicy::MrEnclave, b"v2", &sealed).is_err()
        );
    }
}
