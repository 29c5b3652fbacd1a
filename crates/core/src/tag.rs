//! The computation digest and everything derived from it (Algorithm 1
//! lines 1 and 6, Algorithm 2 line 4).
//!
//! Algorithms 1 and 2 hash the input twice: `t ← Hash(func, m)` for the
//! duplicate check, then `h ← Hash(func, m, r)` for the key wrap. Here the
//! enclave reads the input once, into a secret digest
//!
//! ```text
//! d ← Hash("comp", func, m)            // never leaves the enclave
//! t ← Hash("comp-tag", d)              // public duplicate-checking tag
//! h ← Hash("secondary-key", d, r)      // RCE secondary key
//! k ← Hash("convergent-key", d)        // convergent-encryption key
//! ```
//!
//! and every later value is a domain-separated hash of `d`. Computing `d`
//! requires `(func, m)`, and `d` has no wire encoding and no printable
//! form, so `t` and `r` together still reveal nothing of `h` (DESIGN.md,
//! "Security properties carried over").
//!
//! Only the store needs `t`. The in-enclave hot cache is keyed by a
//! fingerprint under a secret PRF that each runtime draws in its enclave,
//!
//! ```text
//! fp ← E_K(GHASH_H(func, m))           // never leaves the enclave
//! ```
//!
//! one GHASH pass over the input and one AES block. A hot-cache hit
//! computes `fp` and no SHA-256; `d` is derived only for calls that reach
//! the store, and the hot cache remembers it for recent computations, so a
//! repeat whose result was not cached reuses it instead of hashing again.
//! Like `d`, `fp` has no wire encoding and no printable form.

// hot-path: deny-clone

use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use speed_crypto::{GhashPrf, Key128, Sha256, DIGEST_LEN, PRF_LEN};
use speed_wire::CompTag;

use crate::func::FuncIdentity;

/// The secret digest `d = Hash("comp", func, m)` of one computation: the
/// only value derived from the input itself.
///
/// It has no wire encoding and its `Debug` output is redacted; the tag,
/// the secondary key and the convergent key are derived from it.
#[derive(Clone)]
pub struct CompDigest([u8; DIGEST_LEN]);

impl fmt::Debug for CompDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CompDigest(<redacted>)")
    }
}

/// Derives the computation digest `d ← Hash("comp", func, m)`: the one
/// pass over the input a call makes.
///
/// The digest binds both the verified function identity and the serialized
/// input (each length-prefixed to rule out concatenation ambiguity).
pub fn comp_digest(func: &FuncIdentity, input: &[u8]) -> CompDigest {
    CompDigest(Sha256::digest_parts(&[b"comp", func.as_bytes(), input]).into_bytes())
}

impl CompDigest {
    /// The duplicate-checking tag `t ← Hash("comp-tag", d)`. Two
    /// computations are considered duplicates iff their tags are equal.
    pub fn tag(&self) -> CompTag {
        CompTag::from_bytes(Sha256::digest_parts(&[b"comp-tag", &self.0]).into_bytes())
    }

    /// The secondary key `h ← Hash("secondary-key", d, r)` that wraps the
    /// random result-encryption key, truncated to 16 bytes to match the
    /// AES-128 key it pads.
    pub fn secondary_key(&self, challenge: &[u8]) -> [u8; 16] {
        Sha256::digest_parts(&[b"secondary-key", &self.0, challenge]).truncate16()
    }

    /// The deterministic key `Hash("convergent-key", d)` of classic
    /// convergent encryption, truncated to an AES-128 key.
    pub fn convergent_key(&self) -> Key128 {
        Key128::from_bytes(
            Sha256::digest_parts(&[b"convergent-key", &self.0]).truncate16(),
        )
    }
}

/// Derives the duplicate-checking tag `t` of `(func, m)`: the tag a
/// runtime sends for this computation.
pub fn tag_for(func: &FuncIdentity, input: &[u8]) -> CompTag {
    comp_digest(func, input).tag()
}

/// The secret fingerprint `fp = E_K(GHASH_H(func, m))` of one computation
/// under a runtime's [`GhashPrf`]: the key of its in-enclave hot cache.
///
/// It has no wire encoding and its `Debug` output is redacted. It is no
/// duplicate check between runtimes: each runtime draws its own keys, and
/// the comp-tag stays the store's only correctness authority.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint([u8; PRF_LEN]);

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Fingerprint(<redacted>)")
    }
}

/// Computes the fingerprint `fp ← F(func, m)` under `prf`: one GHASH pass
/// over the input and one AES block, with no SHA-256.
pub fn fingerprint(prf: &GhashPrf, func: &FuncIdentity, input: &[u8]) -> Fingerprint {
    Fingerprint(prf.eval(func.as_bytes(), input))
}

impl Hash for Fingerprint {
    /// Feeds the hasher one `u64`, the fingerprint's first eight bytes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = self.0;
        state.write_u64(u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]));
    }
}

/// Hashes a [`Fingerprint`] to its own first eight bytes, as they are.
/// `fp` is an AES output under the runtime's secret key, so those bits are
/// uniform and no input can aim two fingerprints at one bucket: a table
/// keyed by fingerprints needs no keyed SipHash.
pub(crate) type FingerprintHash = BuildHasherDefault<FingerprintHasher>;

/// The [`Hasher`] of [`FingerprintHash`].
#[derive(Default)]
pub(crate) struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Only other keys write bytes; they are folded in, eight bits apart.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

#[cfg(test)]
impl Fingerprint {
    /// A fingerprint with the given bytes, for cache tests.
    pub(crate) fn from_bytes(bytes: [u8; PRF_LEN]) -> Self {
        Fingerprint(bytes)
    }
}

#[cfg(test)]
impl CompDigest {
    /// A digest with the given bytes, for cache tests.
    pub(crate) fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        CompDigest(bytes)
    }

    /// The digest's bytes, for cache tests.
    pub(crate) fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn same_func_same_input_same_tag() {
        let f = identity(b"code");
        assert_eq!(tag_for(&f, b"input"), tag_for(&f, b"input"));
        assert_eq!(tag_for(&f, b"input"), comp_digest(&f, b"input").tag());
    }

    #[test]
    fn different_input_different_tag() {
        let f = identity(b"code");
        assert_ne!(tag_for(&f, b"input-a"), tag_for(&f, b"input-b"));
    }

    #[test]
    fn different_code_different_tag() {
        assert_ne!(
            tag_for(&identity(b"code v1"), b"input"),
            tag_for(&identity(b"code v2"), b"input")
        );
    }

    #[test]
    fn secondary_key_depends_on_challenge() {
        let d = comp_digest(&identity(b"code"), b"input");
        assert_ne!(d.secondary_key(b"challenge-1"), d.secondary_key(b"challenge-2"));
    }

    #[test]
    fn secondary_key_depends_on_func_and_input() {
        let f = identity(b"code");
        let g = identity(b"other");
        let r = b"challenge";
        assert_ne!(
            comp_digest(&f, b"input").secondary_key(r),
            comp_digest(&g, b"input").secondary_key(r)
        );
        assert_ne!(
            comp_digest(&f, b"a").secondary_key(r),
            comp_digest(&f, b"b").secondary_key(r)
        );
    }

    #[test]
    fn tag_and_secondary_key_are_domain_separated() {
        // Even with identical material, the digest, the tag, h and the
        // convergent key must all differ.
        let d = comp_digest(&identity(b"code"), b"m");
        let tag = d.tag();
        let h = d.secondary_key(b"");
        let convergent = *d.convergent_key().as_bytes();
        let prefixes = [&tag.as_bytes()[..16], &h, &convergent, &d.0[..16]];
        for (i, a) in prefixes.iter().enumerate() {
            for b in &prefixes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(tag.as_bytes(), &d.0);
    }

    #[test]
    fn digest_debug_shows_no_byte_of_d() {
        let d = comp_digest(&identity(b"code"), b"secret input");
        let shown = format!("{d:?}");
        assert!(shown.contains("redacted"), "{shown}");
        // The output is independent of the digest, so it carries no byte.
        assert_eq!(shown, format!("{:?}", comp_digest(&identity(b"code"), b"other")));
        for window in d.0.windows(3) {
            assert!(!shown.contains(&hex(window)), "{shown}");
        }
        assert!(!shown.contains(&format!("{}, {}", d.0[0], d.0[1])), "{shown}");
    }

    #[test]
    fn fingerprint_binds_func_and_input_under_its_keys() {
        let prf = GhashPrf::new(&mut speed_crypto::SystemRng::seeded(5));
        let (f, g) = (identity(b"code"), identity(b"other"));
        assert_eq!(fingerprint(&prf, &f, b"m"), fingerprint(&prf, &f, b"m"));
        assert_ne!(fingerprint(&prf, &f, b"m"), fingerprint(&prf, &f, b"n"));
        assert_ne!(fingerprint(&prf, &f, b"m"), fingerprint(&prf, &g, b"m"));
        let other = GhashPrf::new(&mut speed_crypto::SystemRng::seeded(6));
        assert_ne!(fingerprint(&prf, &f, b"m"), fingerprint(&other, &f, b"m"));
    }

    /// Pins the derivation: a change to a domain label, the field order or
    /// the hash changes these bytes, and with them every stored tag. The
    /// values were computed apart from this crate, with Python's `hashlib`
    /// over the same length-prefixed parts (`Sha256::digest_parts`).
    #[test]
    fn derivation_known_answer() {
        let d = comp_digest(&identity(b"code"), b"known input");
        assert_eq!(
            hex(d.tag().as_bytes()),
            "5451fa396c472c88335db65743d7b9be31430d10deb7494a1901b7326696b06b"
        );
        assert_eq!(
            hex(&d.secondary_key(b"known challenge")),
            "23c5e79da9e06e841c7433cafd9781e9"
        );
    }
}
