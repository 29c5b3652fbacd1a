//! The in-enclave metadata dictionary.
//!
//! "The main data structure used here is an enclave-protected dictionary
//! storing previous computation results keyed by the tag t. To maximize the
//! utility of limited enclave memory, the dictionary entry is designed to be
//! small: it maintains some metadata (e.g. challenge message r and
//! authentication MAC), and a pointer to the real result ciphertexts that
//! are kept outside the enclave." (§IV-B)
//!
//! Lookups take `&self`: recency is an interior-mutability atomic so a
//! shard can serve concurrent readers under a read lock. The LRU index is
//! only rewritten on the (exclusive) write path; reads stamp a per-entry
//! recency sequence that [`MetadataDict::evict_lru`] reconciles lazily
//! before evicting.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use speed_enclave::BlobId;
use speed_wire::{AppId, CompTag};

/// One dictionary entry: small metadata plus the pointer to the
/// outside-enclave ciphertext.
#[derive(Debug)]
pub struct DictEntry {
    /// The RCE challenge message `r`.
    pub challenge: Vec<u8>,
    /// The wrapped result key `[k] = k ⊕ h`.
    pub wrapped_key: [u8; 16],
    /// GCM nonce of the result ciphertext.
    pub nonce: [u8; 12],
    /// Pointer to the ciphertext blob in untrusted memory.
    pub blob: BlobId,
    /// Length of the ciphertext blob in bytes.
    pub boxed_len: u32,
    /// Application whose quota the entry is charged to (for reclamation);
    /// `None` for an imported entry, which charges no quota.
    pub owner: Option<AppId>,
    /// Recency sequence of the most recent touch (read-path stamp; atomic
    /// so the read path never needs an exclusive borrow).
    last_touch: AtomicU64,
    /// The key this entry currently occupies in the LRU index. Only the
    /// write path moves entries in the index, so this may lag
    /// `last_touch`; eviction reconciles the two.
    lru_seq: u64,
}

impl Clone for DictEntry {
    fn clone(&self) -> Self {
        DictEntry {
            challenge: self.challenge.clone(),
            wrapped_key: self.wrapped_key,
            nonce: self.nonce,
            blob: self.blob,
            boxed_len: self.boxed_len,
            owner: self.owner,
            last_touch: AtomicU64::new(self.last_touch.load(Ordering::Relaxed)),
            lru_seq: self.lru_seq,
        }
    }
}

impl PartialEq for DictEntry {
    fn eq(&self, other: &Self) -> bool {
        self.challenge == other.challenge
            && self.wrapped_key == other.wrapped_key
            && self.nonce == other.nonce
            && self.blob == other.blob
            && self.boxed_len == other.boxed_len
            && self.owner == other.owner
    }
}

impl Eq for DictEntry {}

impl DictEntry {
    /// The EPC bytes an entry whose challenge is `challenge_len` bytes long
    /// is charged: reserved before it is inserted, released when it leaves.
    ///
    /// 32 B of tag key, the challenge, and a fixed 120 B for the other
    /// fields and the map and LRU-index overhead. The fixed part is held at
    /// 120 B, 8 B above what those fields now take, so that a store commits
    /// the same EPC pages for the same entries as it always has.
    pub fn enclave_footprint(challenge_len: usize) -> usize {
        32 + challenge_len + 120
    }
}

/// An LRU-evicting dictionary keyed by computation tag.
///
/// Lives logically inside one shard of the store's enclave; all mutating
/// access happens under an `ECALL` in [`crate::ResultStore`].
#[derive(Debug, Default)]
pub struct MetadataDict {
    entries: HashMap<CompTag, DictEntry>,
    lru: BTreeMap<u64, CompTag>,
    next_seq: AtomicU64,
    stored_bytes: u64,
}

impl MetadataDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        MetadataDict::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total ciphertext bytes referenced by entries.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Looks up `tag`, bumping its recency on success.
    ///
    /// Takes `&self`: the bump goes to a per-entry atomic, so concurrent
    /// readers holding a shard's read lock never serialize on the lookup
    /// path. The LRU index catches up on the next eviction.
    pub fn get(&self, tag: &CompTag) -> Option<&DictEntry> {
        let entry = self.entries.get(tag)?;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        entry.last_touch.fetch_max(seq, Ordering::Relaxed);
        Some(entry)
    }

    /// Looks up `tag` without touching its recency.
    pub fn peek(&self, tag: &CompTag) -> Option<&DictEntry> {
        self.entries.get(tag)
    }

    /// Inserts an entry. Returns the previous entry's blob pointer if the
    /// tag was already present (the caller frees the orphaned blob) —
    /// duplicate tags can race between applications; only one ciphertext
    /// version is kept (the first one wins, matching the paper's remark
    /// that "only one version of result ciphertext needs to be stored").
    #[allow(clippy::too_many_arguments)] // one parameter per DictEntry field
    pub fn insert(
        &mut self,
        tag: CompTag,
        challenge: Vec<u8>,
        wrapped_key: [u8; 16],
        nonce: [u8; 12],
        blob: BlobId,
        boxed_len: u32,
        owner: Option<AppId>,
    ) -> Option<BlobId> {
        if self.entries.contains_key(&tag) {
            // First writer wins; reject the new blob.
            return Some(blob);
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.lru.insert(seq, tag);
        self.stored_bytes += u64::from(boxed_len);
        self.entries.insert(
            tag,
            DictEntry {
                challenge,
                wrapped_key,
                nonce,
                blob,
                boxed_len,
                owner,
                last_touch: AtomicU64::new(seq),
                lru_seq: seq,
            },
        );
        None
    }

    /// Removes `tag`, returning its entry.
    pub fn remove(&mut self, tag: &CompTag) -> Option<DictEntry> {
        let entry = self.entries.remove(tag)?;
        self.lru.remove(&entry.lru_seq);
        self.stored_bytes -= u64::from(entry.boxed_len);
        Some(entry)
    }

    /// Evicts the least-recently-used entry, returning it with its tag.
    ///
    /// The LRU index can lag behind read-path touches; entries that were
    /// read since their last index position are re-filed at their current
    /// recency instead of evicted.
    pub fn evict_lru(&mut self) -> Option<(CompTag, DictEntry)> {
        loop {
            let (&seq, &tag) = self.lru.iter().next()?;
            self.lru.remove(&seq);
            // Index and entries drifted (cannot happen through the public
            // API): drop the stale index slot and keep going.
            let Some(entry) = self.entries.get_mut(&tag) else { continue };
            let touched = entry.last_touch.load(Ordering::Relaxed);
            if touched > seq {
                // Read since last filed: re-file at its current recency.
                // `touched` is unique (a fetch_add ticket) so it cannot
                // collide with another live index key.
                entry.lru_seq = touched;
                self.lru.insert(touched, tag);
                continue;
            }
            let Some(entry) = self.entries.remove(&tag) else { continue };
            self.stored_bytes -= u64::from(entry.boxed_len);
            return Some((tag, entry));
        }
    }

    /// Copies of every entry, least recently used first: the order in
    /// which [`evict_lru`](Self::evict_lru) would drain them. Re-inserting
    /// them in this order rebuilds the same eviction order.
    ///
    /// Sorts by each copy's stamp, which concurrent readers cannot move
    /// mid-sort as they can the live entries'.
    pub fn by_recency(&self) -> Vec<(CompTag, DictEntry)> {
        let mut entries: Vec<(CompTag, DictEntry)> =
            self.entries.iter().map(|(tag, entry)| (*tag, entry.clone())).collect();
        entries
            .sort_unstable_by_key(|(_, entry)| entry.last_touch.load(Ordering::Relaxed));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(n: u8) -> CompTag {
        CompTag::from_bytes([n; 32])
    }

    fn insert_basic(dict: &mut MetadataDict, n: u8, len: u32) -> Option<BlobId> {
        dict.insert(
            tag(n),
            vec![n; 32],
            [n; 16],
            [n; 12],
            BlobId::from_raw(u64::from(n)),
            len,
            Some(AppId(1)),
        )
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut dict = MetadataDict::new();
        assert!(insert_basic(&mut dict, 1, 100).is_none());
        let entry = dict.get(&tag(1)).unwrap();
        assert_eq!(entry.challenge, vec![1; 32]);
        assert_eq!(dict.len(), 1);
        assert_eq!(dict.stored_bytes(), 100);
    }

    #[test]
    fn get_missing_returns_none() {
        let dict = MetadataDict::new();
        assert!(dict.get(&tag(9)).is_none());
    }

    #[test]
    fn get_needs_no_exclusive_borrow() {
        // A shared reference must be enough to look up and stamp recency,
        // so shard readers can share a read lock.
        let mut dict = MetadataDict::new();
        insert_basic(&mut dict, 1, 10);
        let shared: &MetadataDict = &dict;
        let first = shared.get(&tag(1)).unwrap();
        let second = shared.get(&tag(1)).unwrap();
        assert_eq!(first.blob, second.blob);
    }

    #[test]
    fn duplicate_insert_first_writer_wins() {
        let mut dict = MetadataDict::new();
        assert!(insert_basic(&mut dict, 1, 10).is_none());
        let rejected = dict.insert(
            tag(1),
            vec![2; 32],
            [2; 16],
            [2; 12],
            BlobId::from_raw(99),
            20,
            Some(AppId(2)),
        );
        assert_eq!(rejected, Some(BlobId::from_raw(99)));
        assert_eq!(dict.peek(&tag(1)).unwrap().challenge, vec![1; 32]);
        assert_eq!(dict.stored_bytes(), 10);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut dict = MetadataDict::new();
        for n in 1..=3 {
            insert_basic(&mut dict, n, 10);
        }
        // Touch 1 so 2 becomes the LRU.
        dict.get(&tag(1));
        let (evicted_tag, _) = dict.evict_lru().unwrap();
        assert_eq!(evicted_tag, tag(2));
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn evict_on_empty_is_none() {
        let mut dict = MetadataDict::new();
        assert!(dict.evict_lru().is_none());
    }

    #[test]
    fn remove_updates_bytes() {
        let mut dict = MetadataDict::new();
        insert_basic(&mut dict, 1, 64);
        insert_basic(&mut dict, 2, 36);
        assert_eq!(dict.stored_bytes(), 100);
        let entry = dict.remove(&tag(1)).unwrap();
        assert_eq!(entry.boxed_len, 64);
        assert_eq!(dict.stored_bytes(), 36);
        assert!(dict.remove(&tag(1)).is_none());
    }

    #[test]
    fn remove_after_touch_keeps_index_consistent() {
        // A read moves an entry's recency stamp without moving its index
        // slot; remove must still clear the (stale) slot so eviction never
        // sees a dangling tag.
        let mut dict = MetadataDict::new();
        insert_basic(&mut dict, 1, 10);
        insert_basic(&mut dict, 2, 10);
        dict.get(&tag(1));
        assert!(dict.remove(&tag(1)).is_some());
        let (evicted, _) = dict.evict_lru().unwrap();
        assert_eq!(evicted, tag(2));
        assert!(dict.evict_lru().is_none());
    }

    #[test]
    fn by_recency_lists_the_eviction_order() {
        let mut dict = MetadataDict::new();
        for n in 1..=5 {
            insert_basic(&mut dict, n, 1);
        }
        for _ in 0..3 {
            dict.get(&tag(1));
        }
        dict.peek(&tag(2)); // a peek must not move entry 2 to the back
        dict.get(&tag(3));
        let listed: Vec<CompTag> =
            dict.by_recency().into_iter().map(|(t, _)| t).collect();
        assert_eq!(listed, vec![tag(2), tag(4), tag(5), tag(1), tag(3)]);
        let drained: Vec<CompTag> =
            std::iter::from_fn(|| dict.evict_lru().map(|(t, _)| t)).collect();
        assert_eq!(listed, drained);
    }

    #[test]
    fn eviction_order_is_full_lru() {
        let mut dict = MetadataDict::new();
        for n in 1..=5 {
            insert_basic(&mut dict, n, 1);
        }
        dict.get(&tag(1));
        dict.get(&tag(3));
        let order: Vec<CompTag> =
            std::iter::from_fn(|| dict.evict_lru().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![tag(2), tag(4), tag(5), tag(1), tag(3)]);
    }

    #[test]
    fn repeated_touches_survive_eviction_pressure() {
        // An entry read many times must outlive entries never read, no
        // matter how stale the LRU index got in between.
        let mut dict = MetadataDict::new();
        for n in 1..=4 {
            insert_basic(&mut dict, n, 1);
        }
        for _ in 0..10 {
            dict.get(&tag(1));
        }
        for _ in 0..3 {
            dict.evict_lru().unwrap();
        }
        assert!(dict.peek(&tag(1)).is_some());
        assert_eq!(dict.len(), 1);
    }

    #[test]
    fn footprint_is_small() {
        let mut dict = MetadataDict::new();
        insert_basic(&mut dict, 1, 1_000_000);
        // A 1 MB result only costs ~200 bytes of enclave memory: 184 B for
        // its 32-byte challenge, the charge every entry has always paid.
        let challenge_len = dict.peek(&tag(1)).unwrap().challenge.len();
        assert_eq!(DictEntry::enclave_footprint(challenge_len), 184);
        assert!(DictEntry::enclave_footprint(challenge_len) < 256);
    }
}
