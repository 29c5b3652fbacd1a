//! Negative-lookup filters for the tiered tag pipeline.
//!
//! A [`NegativeFilter`] is a classic Bloom filter over comp-tags, the key a
//! GET carries (`t = Hash(d)`, Algorithm 1), maintained per shard by the
//! `ResultStore` and shipped to clients in a [`FilterBody`]. A client
//! consults it once it holds `t`: when the filter proves `t` absent, the
//! input definitely has no stored result, so the client skips the store
//! round trip. A membership test needs `t`, and `t` needs the whole input,
//! so the bits tell a client nothing a GET would not. This module is the
//! one place that knows how a tag becomes a key: its first 8 bytes.
//!
//! The only invariant that matters for correctness is **conservatism**: a
//! filter may claim "maybe present" for an absent key (false positive — the
//! client just falls through to the GET), but it must never claim "absent"
//! for a present key (false negative — that would silently disable
//! deduplication). The store inserts the tag of every entry it takes, from
//! a PUT, an import or recovery, so a filter is complete by construction;
//! bits are only ever set, never cleared, so evicted or removed entries
//! leave stale bits behind, which can only cause false positives.

// hot-path: deny-clone

use crate::codec::{Reader, WireDecode, WireEncode, WireError, Writer};
use crate::messages::CompTag;

/// Smallest permitted filter size in bytes (512 bits).
pub const MIN_FILTER_BYTES: usize = 64;

/// Largest permitted filter size in bytes (1 MiB = 2^23 bits), bounding both
/// the store's resident cost per shard and the wire payload per refresh.
pub const MAX_FILTER_BYTES: usize = 1 << 20;

/// Largest permitted number of hash probes per key.
pub const MAX_FILTER_HASHES: u8 = 16;

/// Default number of hash probes per key (~0.6% false positives at 16 bits
/// per entry).
pub const DEFAULT_FILTER_HASHES: u8 = 4;

const TARGET_BITS_PER_ENTRY: u64 = 10;

/// A conservative Bloom filter over comp-tags.
///
/// See the [module docs](self) for the no-false-negative contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NegativeFilter {
    /// Bit array; length in bytes is always a power of two within
    /// [`MIN_FILTER_BYTES`]..=[`MAX_FILTER_BYTES`].
    bits: Vec<u8>,
    /// Number of hash probes per key.
    hashes: u8,
    /// Number of keys inserted since the filter was created.
    entries: u64,
}

impl NegativeFilter {
    /// Creates an empty filter with at least `bit_count` bits (rounded up
    /// to a power-of-two byte length and clamped to the permitted size
    /// range) and `hashes` probes per key (clamped to
    /// `1..=`[`MAX_FILTER_HASHES`]).
    pub fn new(bit_count: usize, hashes: u8) -> Self {
        let bytes = bit_count
            .div_ceil(8)
            .next_power_of_two()
            .clamp(MIN_FILTER_BYTES, MAX_FILTER_BYTES);
        NegativeFilter {
            bits: vec![0u8; bytes],
            hashes: hashes.clamp(1, MAX_FILTER_HASHES),
            entries: 0,
        }
    }

    /// Creates a filter sized for roughly `expected_entries` keys at ~10 bits
    /// per entry, with the default probe count.
    pub fn with_capacity(expected_entries: u64) -> Self {
        let bits = expected_entries
            .saturating_mul(TARGET_BITS_PER_ENTRY)
            .min((MAX_FILTER_BYTES as u64) * 8) as usize;
        NegativeFilter::new(bits, DEFAULT_FILTER_HASHES)
    }

    /// Inserts a comp-tag.
    pub fn insert(&mut self, tag: &CompTag) {
        let mask = self.bits.len() * 8 - 1;
        let (h1, h2) = probe_pair(tag);
        for i in 0..self.hashes as u64 {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2)) as usize) & mask;
            self.bits[bit / 8] |= 1 << (bit % 8);
        }
        self.entries = self.entries.saturating_add(1);
    }

    /// Answers whether `tag` may be present: `false` means *definitely
    /// absent*, `true` means "maybe".
    pub fn may_contain(&self, tag: &CompTag) -> bool {
        let mask = self.bits.len() * 8 - 1;
        let (h1, h2) = probe_pair(tag);
        (0..self.hashes as u64).all(|i| {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2)) as usize) & mask;
            self.bits[bit / 8] & (1 << (bit % 8)) != 0
        })
    }

    /// Number of keys inserted since creation.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Size of the bit array in bits.
    pub fn bit_len(&self) -> usize {
        self.bits.len() * 8
    }

    /// ORs `other` into `self`, producing a filter that answers "maybe" for
    /// any key either side might contain.
    ///
    /// Returns `false`, leaving `self` unchanged, if the two filters have
    /// different shapes and cannot be merged bit-wise. The caller must then
    /// drop the merge: neither filter proves anything about the other's
    /// keys.
    pub fn merge_from(&mut self, other: &NegativeFilter) -> bool {
        if self.bits.len() != other.bits.len() || self.hashes != other.hashes {
            return false;
        }
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= b;
        }
        self.entries = self.entries.saturating_add(other.entries);
        true
    }
}

/// Derives the two independent hash values used for double hashing from
/// the tag's first 8 bytes.
///
/// `h2` is forced odd so that for the power-of-two bit count the probe
/// sequence `h1 + i*h2` walks distinct positions.
fn probe_pair(tag: &CompTag) -> (u64, u64) {
    let key = u64::from_le_bytes(tag.as_bytes()[..8].try_into().expect("8 bytes"));
    let h1 = splitmix64(key);
    let h2 = splitmix64(key ^ 0x9E37_79B9_7F4A_7C15) | 1;
    (h1, h2)
}

/// SplitMix64 finalizer: a cheap, well-distributed 64→64-bit mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl WireEncode for NegativeFilter {
    fn encode(&self, writer: &mut Writer) {
        self.bits.encode(writer);
        self.hashes.encode(writer);
        self.entries.encode(writer);
    }
}

impl WireDecode for NegativeFilter {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let bits = Vec::<u8>::decode(reader)?;
        if bits.len() < MIN_FILTER_BYTES
            || bits.len() > MAX_FILTER_BYTES
            || !bits.len().is_power_of_two()
        {
            return Err(WireError::LengthOverflow(bits.len() as u64));
        }
        let hashes = u8::decode(reader)?;
        if hashes == 0 || hashes > MAX_FILTER_HASHES {
            return Err(WireError::InvalidTag(hashes));
        }
        let entries = u64::decode(reader)?;
        Ok(NegativeFilter { bits, hashes, entries })
    }
}

/// Payload of `FILTER_RESPONSE`: one negative filter per store shard plus the
/// store's filter epoch (bumped on every insertion) so clients can tell how
/// stale their copy is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterBody {
    /// Monotonic insertion epoch at snapshot time.
    pub epoch: u64,
    /// Per-shard filters, indexed like the store's shards.
    pub shards: Vec<NegativeFilter>,
}

impl WireEncode for FilterBody {
    fn encode(&self, writer: &mut Writer) {
        self.epoch.encode(writer);
        let len = u32::try_from(self.shards.len()).expect("shard count exceeds u32");
        len.encode(writer);
        for shard in &self.shards {
            shard.encode(writer);
        }
    }
}

impl WireDecode for FilterBody {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let epoch = u64::decode(reader)?;
        let len = u32::decode(reader)? as usize;
        // Defensive preallocation bound for hostile lengths.
        let mut shards = Vec::with_capacity(len.min(256));
        for _ in 0..len {
            shards.push(NegativeFilter::decode(reader)?);
        }
        Ok(FilterBody { epoch, shards })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::COMP_TAG_LEN;
    use crate::{from_bytes, to_bytes};

    /// A tag whose first 8 bytes are `n`'s SplitMix64 mix.
    fn key(n: u64) -> CompTag {
        let mut bytes = [0u8; COMP_TAG_LEN];
        bytes[..8].copy_from_slice(&splitmix64(n).to_le_bytes());
        CompTag::from_bytes(bytes)
    }

    #[test]
    fn inserted_keys_are_always_maybe_present() {
        let mut f = NegativeFilter::new(1 << 12, 4);
        for n in 0..10_000u64 {
            f.insert(&key(n));
        }
        for n in 0..10_000u64 {
            assert!(f.may_contain(&key(n)));
        }
    }

    #[test]
    fn empty_complete_filter_proves_absence() {
        let f = NegativeFilter::new(1 << 12, 4);
        assert!(!f.may_contain(&key(42)));
    }

    #[test]
    fn false_positive_rate_is_bounded_at_design_load() {
        let mut f = NegativeFilter::with_capacity(10_000);
        for n in 0..10_000u64 {
            f.insert(&key(n));
        }
        let fp = (0..100_000u64).filter(|n| f.may_contain(&key(n + 1_000_000))).count();
        // ~10 bits/entry, k=4 gives ~1.2% theoretical; allow generous slack.
        assert!(fp < 5_000, "false positive rate too high: {fp}/100000");
    }

    #[test]
    fn the_key_is_the_tags_first_eight_bytes() {
        let mut f = NegativeFilter::new(1 << 12, 4);
        f.insert(&CompTag::from_bytes([1; COMP_TAG_LEN]));
        let mut tail = [1; COMP_TAG_LEN];
        tail[8..].fill(2);
        assert!(f.may_contain(&CompTag::from_bytes(tail)));
        let mut head = [1; COMP_TAG_LEN];
        head[7] = 2;
        assert!(!f.may_contain(&CompTag::from_bytes(head)));
    }

    #[test]
    fn merge_unions_the_bits() {
        let mut a = NegativeFilter::new(1 << 12, 4);
        let mut b = NegativeFilter::new(1 << 12, 4);
        a.insert(&key(1));
        b.insert(&key(2));
        assert!(a.merge_from(&b));
        assert!(a.may_contain(&key(1)));
        assert!(a.may_contain(&key(2)));
        assert!(!a.may_contain(&key(3)));
        assert_eq!(a.entries(), 2);
    }

    #[test]
    fn merge_of_mismatched_shapes_is_refused() {
        let mut a = NegativeFilter::new(1 << 12, 4);
        let mut b = NegativeFilter::new(1 << 14, 4);
        b.insert(&key(7));
        let before = a.clone();
        assert!(!a.merge_from(&b));
        assert_eq!(a, before, "a refused merge leaves the filter as it was");
        assert!(!a.merge_from(&NegativeFilter::new(1 << 12, 5)));
    }

    #[test]
    fn wire_roundtrip() {
        let mut f = NegativeFilter::new(1 << 12, 4);
        f.insert(&key(0xDEAD_BEEF));
        let body =
            FilterBody { epoch: 7, shards: vec![f.clone(), NegativeFilter::new(64, 1)] };
        let bytes = to_bytes(&body);
        let back: FilterBody = from_bytes(&bytes).unwrap();
        assert_eq!(back, body);
    }

    #[test]
    fn decode_rejects_bad_shapes() {
        let mut f = NegativeFilter::new(1 << 12, 4);
        f.insert(&key(1));
        let good = to_bytes(&f);
        // Truncations error rather than panic.
        for cut in 0..good.len() {
            assert!(from_bytes::<NegativeFilter>(&good[..cut]).is_err());
        }
        // A non-power-of-two bit vector is rejected.
        let mut w = Writer::new();
        vec![0u8; 65].encode(&mut w);
        4u8.encode(&mut w);
        0u64.encode(&mut w);
        assert!(from_bytes::<NegativeFilter>(&w.into_bytes()).is_err());
        // Zero hash probes are rejected.
        let mut w = Writer::new();
        vec![0u8; 64].encode(&mut w);
        0u8.encode(&mut w);
        0u64.encode(&mut w);
        assert!(from_bytes::<NegativeFilter>(&w.into_bytes()).is_err());
    }

    #[test]
    fn sizing_clamps_to_permitted_range() {
        assert_eq!(NegativeFilter::new(1, 4).bit_len(), MIN_FILTER_BYTES * 8);
        assert_eq!(
            NegativeFilter::with_capacity(u64::MAX).bit_len(),
            MAX_FILTER_BYTES * 8
        );
        assert_eq!(NegativeFilter::new(0, 0).hashes, 1);
        assert_eq!(NegativeFilter::new(0, 200).hashes, MAX_FILTER_HASHES);
    }
}
