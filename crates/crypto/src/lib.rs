//! From-scratch cryptographic primitives for the SPEED reproduction.
//!
//! The SPEED paper uses the crypto library shipped with the Intel SGX SDK:
//! SHA-256 as the collision-resistant hash and AES-GCM-128 as the
//! authenticated encryption scheme (§II-D, §V-A), which run on the AES-NI
//! and SHA instructions of the CPU. This crate reimplements the same
//! algorithms with no dependencies so the whole system is self-contained:
//!
//! - [`Sha256`] — FIPS 180-4 SHA-256 with an incremental API.
//! - [`AesGcm128`] — NIST SP 800-38D AES-GCM-128 AEAD over the FIPS 197
//!   AES-128 block cipher.
//! - [`hmac::HmacSha256`] — RFC 2104 HMAC over SHA-256.
//! - [`hkdf`] — RFC 5869 HKDF for session-key derivation in the secure
//!   channel.
//! - [`GhashPrf`] — a secret keyed PRF, `E_K(GHASH_H(a, m))`, built from
//!   the AES-GCM code: one GHASH pass over its input.
//! - [`ct_eq`] — constant-time comparison for tags and MACs.
//! - [`SystemRng`] — CSPRNG handle used for keys, nonces, and the RCE
//!   challenge message `r`.
//!
//! SHA-256 and AES-GCM each have two implementations, chosen by CPU
//! detection when a hasher or cipher is created, with no option to pick
//! one: portable Rust, and on x86_64 CPUs with the instructions, SHA-NI
//! block compression and AES-NI/PCLMULQDQ AES-GCM. The hardware AES-GCM
//! has two GHASH widths, in the same private module and picked the same
//! way: four blocks per reduction with PCLMULQDQ, and 32 blocks per
//! reduction, four per instruction, on CPUs that also have AVX-512F,
//! AVX-512BW and VPCLMULQDQ. Every caller above (tags, RCE, the hot-cache
//! fingerprint, the secure channel, sealing, the WAL) gets the same bytes
//! from each. The hardware code is the only `unsafe` code in the crate;
//! it lives in two private modules whose types can only be created after
//! detection succeeded. The portable code is the only path on other CPUs
//! and the reference the differential tests compare the hardware code
//! against.
//!
//! All primitives are validated against published test vectors (FIPS 180-4,
//! FIPS 197, NIST GCM, RFC 4231, RFC 5869) in the unit tests, on every
//! implementation the CPU runs. AES-GCM and [`GhashPrf`] are also checked
//! on an input long enough to cross the 32-block GHASH groups, against
//! values computed with an implementation outside this crate.
//!
//! # Example
//!
//! ```
//! use speed_crypto::{AesGcm128, Key128, Nonce, Sha256};
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(digest.as_bytes().len(), 32);
//!
//! let key = Key128::from_bytes([0u8; 16]);
//! let cipher = AesGcm128::new(&key);
//! let nonce = Nonce::from_bytes([1u8; 12]);
//! let sealed = cipher.seal(&nonce, b"associated", b"plaintext");
//! let opened = cipher.open(&nonce, b"associated", &sealed).unwrap();
//! assert_eq!(opened, b"plaintext");
//! ```

// `deny`, not `forbid`: the two hardware modules opt back in with an inner
// allow attribute, which `forbid` would reject.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aes;
mod ct;
#[cfg(test)]
mod differential;
mod error;
mod gcm;
#[cfg(target_arch = "x86_64")]
mod gcm_ni;
pub mod hkdf;
pub mod hmac;
mod prf;
mod rng;
mod sha256;
#[cfg(target_arch = "x86_64")]
mod sha256_ni;
mod types;

pub use ct::ct_eq;
pub use error::CryptoError;
pub use gcm::AesGcm128;
pub use prf::{GhashPrf, PRF_LEN};
pub use rng::{fill_random, random_key, random_nonce, SystemRng};
pub use sha256::{Digest, Sha256, DIGEST_LEN};
pub use types::{AuthTag, Key128, Nonce, KEY_LEN, NONCE_LEN, TAG_LEN};
