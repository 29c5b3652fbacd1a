//! Bounded in-enclave hot-tag cache.
//!
//! A marked computation that was recently resolved — from the store or by
//! local execution — can be answered again without any enclave transition
//! or network round-trip at all: the plaintext result never leaves the
//! application enclave, so caching it inside is safe. The cache is
//! strictly bounded (entries and bytes) because it competes with the
//! application for scarce EPC; its pages are charged against the enclave's
//! memory budget the same way the store's metadata heap is.
//!
//! Entries are keyed by the computation's secret [`Fingerprint`]
//! `fp = E_K(GHASH_H(func, m))` under the runtime's own keys, not by the
//! SHA-256 comp-tag: a hit makes one GHASH pass over its input and runs
//! no SHA-256 (see [`crate::tag`]). The cache never decides what the store
//! returns; a wrong hit needs an fp collision (DESIGN.md, "Security
//! properties carried over").
//!
//! Entries hold their result behind a shared [`Arc`] buffer: a hit hands
//! back another reference to the same allocation instead of copying the
//! bytes, which makes the hit path O(1) regardless of result size.
//!
//! The cache also keeps a count-multiset of its entries' 64-bit prefilter
//! tags ([`crate::prefilter::prefilter_tag`]). [`HotTagCache::may_contain`]
//! answers "could this prefilter tag be cached?" without computing the
//! fingerprint — the first rung of the tiered tag pipeline. The answer is
//! conservative: entries cached without a known prefilter tag are tracked
//! in a separate counter that forces `may_contain` to `true`.

// hot-path: deny-clone

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use speed_enclave::Enclave;

use crate::tag::Fingerprint;

/// Size limits for the in-enclave hot-tag cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotCacheConfig {
    /// Maximum cached results.
    pub max_entries: usize,
    /// Maximum total plaintext result bytes held by the cache.
    pub max_bytes: usize,
}

impl Default for HotCacheConfig {
    fn default() -> Self {
        // Small by default: EPC is ~92 MiB usable on v1 hardware and the
        // application's own working set comes first.
        HotCacheConfig { max_entries: 1024, max_bytes: 4 * 1024 * 1024 }
    }
}

/// Fixed bookkeeping overhead charged per entry on top of the result bytes
/// (key, LRU index node, map slots).
const ENTRY_OVERHEAD: usize = 32 + 64;

struct CacheEntry {
    result: Arc<Vec<u8>>,
    prefilter: Option<u64>,
    lru_seq: u64,
}

/// The cache proper. Callers hold it behind a `Mutex`; all methods take
/// `&mut self`. `Debug` shows the occupancy and the bounds, never a key or
/// a cached result.
pub(crate) struct HotTagCache {
    config: HotCacheConfig,
    entries: HashMap<Fingerprint, CacheEntry>,
    lru: BTreeMap<u64, Fingerprint>,
    seq: u64,
    bytes: usize,
    /// EPC bytes currently committed for the cache (page granularity).
    committed: usize,
    /// Count-multiset of live entries' prefilter tags; counts decrement on
    /// eviction so `may_contain` tracks exactly the live population.
    prefilters: HashMap<u64, u32>,
    /// Live entries cached without a known prefilter tag. While non-zero,
    /// `may_contain` conservatively answers `true` for every key.
    unknown_prefilters: u32,
}

impl fmt::Debug for HotTagCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HotTagCache")
            .field("entries", &self.entries.len())
            .field("bytes", &self.bytes)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl HotTagCache {
    pub(crate) fn new(config: HotCacheConfig) -> Self {
        HotTagCache {
            config,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            seq: 0,
            bytes: 0,
            committed: 0,
            prefilters: HashMap::new(),
            unknown_prefilters: 0,
        }
    }

    /// Looks up `fp`, bumping its recency. Returns a shared reference to
    /// the cached buffer — no bytes are copied on a hit.
    pub(crate) fn get(&mut self, fp: &Fingerprint) -> Option<Arc<Vec<u8>>> {
        let seq = self.seq;
        self.seq += 1;
        let entry = self.entries.get_mut(fp)?;
        self.lru.remove(&entry.lru_seq);
        entry.lru_seq = seq;
        self.lru.insert(seq, *fp);
        Some(Arc::clone(&entry.result)) // allow-clone: Arc refcount bump, not a byte copy
    }

    /// Whether an entry with this prefilter tag *may* be cached: `false`
    /// proves no cached entry can match, so the caller can skip computing
    /// the fingerprint for the cache probe. Conservative — entries with
    /// unknown prefilter tags force `true`.
    pub(crate) fn may_contain(&self, prefilter: u64) -> bool {
        self.unknown_prefilters > 0 || self.prefilters.contains_key(&prefilter)
    }

    /// Caches `result` under `fp`, evicting LRU entries as needed to stay
    /// within the configured bounds, and charging the enclave's memory
    /// budget for the pages the cache occupies. The buffer is shared, not
    /// copied; `prefilter` feeds the negative-lookup multiset (pass `None`
    /// when unknown — the cache stays correct, just less skippable).
    ///
    /// Results larger than the whole cache, and results that cannot be
    /// charged to the enclave (EPC exhausted), are silently not cached —
    /// the cache is an accelerator, never a correctness dependency.
    pub(crate) fn insert(
        &mut self,
        enclave: &Enclave,
        fp: Fingerprint,
        result: &Arc<Vec<u8>>,
        prefilter: Option<u64>,
    ) {
        let footprint = result.len() + ENTRY_OVERHEAD;
        if footprint > self.config.max_bytes || self.config.max_entries == 0 {
            return;
        }
        if self.entries.contains_key(&fp) {
            // Already cached (the result of a computation is immutable);
            // just bump.
            let _ = self.get(&fp);
            return;
        }
        while self.entries.len() >= self.config.max_entries
            || self.bytes + footprint > self.config.max_bytes
        {
            if !self.evict_lru(enclave) {
                return;
            }
        }
        while self.reserve(enclave, footprint).is_err() {
            // EPC exhausted: shed cache weight rather than failing the call;
            // an empty cache that still cannot reserve gives up silently.
            if !self.evict_lru(enclave) {
                return;
            }
        }
        match prefilter {
            Some(key) => *self.prefilters.entry(key).or_insert(0) += 1,
            None => self.unknown_prefilters += 1,
        }
        let seq = self.seq;
        self.seq += 1;
        self.bytes += footprint;
        self.entries.insert(
            fp,
            CacheEntry {
                result: Arc::clone(result), // allow-clone: Arc refcount bump, not a byte copy
                prefilter,
                lru_seq: seq,
            },
        );
        self.lru.insert(seq, fp);
    }

    /// Number of cached results.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Accounted in-enclave bytes (results plus per-entry overhead).
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    fn evict_lru(&mut self, enclave: &Enclave) -> bool {
        let Some((&seq, &fp)) = self.lru.iter().next() else {
            return false;
        };
        self.lru.remove(&seq);
        if let Some(entry) = self.entries.remove(&fp) {
            match entry.prefilter {
                Some(key) => {
                    if let Some(count) = self.prefilters.get_mut(&key) {
                        *count -= 1;
                        if *count == 0 {
                            self.prefilters.remove(&key);
                        }
                    }
                }
                None => {
                    self.unknown_prefilters = self.unknown_prefilters.saturating_sub(1)
                }
            }
            self.release(enclave, entry.result.len() + ENTRY_OVERHEAD);
        }
        true
    }

    /// Page-pooled commit: only crossing a page boundary touches the
    /// enclave memory budget.
    fn reserve(
        &mut self,
        enclave: &Enclave,
        bytes: usize,
    ) -> Result<(), speed_enclave::EnclaveError> {
        let new_bytes = self.bytes + bytes;
        let needed =
            new_bytes.div_ceil(speed_enclave::PAGE_SIZE) * speed_enclave::PAGE_SIZE;
        if needed > self.committed {
            enclave.commit_memory(needed - self.committed)?;
            self.committed = needed;
        }
        Ok(())
    }

    fn release(&mut self, enclave: &Enclave, bytes: usize) {
        self.bytes = self.bytes.saturating_sub(bytes);
        let needed =
            self.bytes.div_ceil(speed_enclave::PAGE_SIZE) * speed_enclave::PAGE_SIZE;
        if needed < self.committed {
            let _ = enclave.release_memory(self.committed - needed);
            self.committed = needed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speed_enclave::{CostModel, Platform};

    fn fp(n: u8) -> Fingerprint {
        Fingerprint::from_bytes([n; 16])
    }

    fn enclave() -> std::sync::Arc<Enclave> {
        Platform::new(CostModel::no_sgx()).create_enclave(b"cache-test").unwrap()
    }

    fn shared(bytes: &[u8]) -> Arc<Vec<u8>> {
        Arc::new(bytes.to_vec())
    }

    #[test]
    fn get_miss_then_insert_then_hit() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(HotCacheConfig::default());
        assert_eq!(cache.get(&fp(1)), None);
        cache.insert(&enclave, fp(1), &shared(b"result"), None);
        assert_eq!(
            cache.get(&fp(1)).as_deref().map(Vec::as_slice),
            Some(b"result".as_slice())
        );
    }

    #[test]
    fn hit_shares_the_buffer_instead_of_copying() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(HotCacheConfig::default());
        let buffer = shared(&[7u8; 4096]);
        cache.insert(&enclave, fp(1), &buffer, Some(42));
        let first = cache.get(&fp(1)).unwrap();
        let second = cache.get(&fp(1)).unwrap();
        assert_eq!(first.as_ptr(), buffer.as_ptr(), "hit must alias the insert buffer");
        assert_eq!(second.as_ptr(), buffer.as_ptr());
    }

    #[test]
    fn prefilter_multiset_tracks_live_entries() {
        let enclave = enclave();
        let mut cache =
            HotTagCache::new(HotCacheConfig { max_entries: 2, max_bytes: 1 << 20 });
        assert!(!cache.may_contain(10));
        cache.insert(&enclave, fp(1), &shared(b"a"), Some(10));
        cache.insert(&enclave, fp(2), &shared(b"b"), Some(20));
        assert!(cache.may_contain(10));
        assert!(cache.may_contain(20));
        assert!(!cache.may_contain(30));
        // Evicting fp(1) (LRU) removes its prefilter from the multiset.
        cache.insert(&enclave, fp(3), &shared(b"c"), Some(30));
        assert!(!cache.may_contain(10));
        assert!(cache.may_contain(30));
    }

    #[test]
    fn unknown_prefilter_forces_conservative_answers() {
        let enclave = enclave();
        let mut cache =
            HotTagCache::new(HotCacheConfig { max_entries: 2, max_bytes: 1 << 20 });
        cache.insert(&enclave, fp(1), &shared(b"a"), None);
        assert!(cache.may_contain(999), "unknown prefilter must answer maybe");
        // Evict the unknown-prefilter entry; exact answers resume.
        cache.insert(&enclave, fp(2), &shared(b"b"), Some(5));
        cache.insert(&enclave, fp(3), &shared(b"c"), Some(6));
        assert!(!cache.may_contain(999));
        assert!(cache.may_contain(5));
    }

    #[test]
    fn entry_bound_evicts_lru() {
        let enclave = enclave();
        let mut cache =
            HotTagCache::new(HotCacheConfig { max_entries: 2, max_bytes: 1 << 20 });
        cache.insert(&enclave, fp(1), &shared(b"a"), None);
        cache.insert(&enclave, fp(2), &shared(b"b"), None);
        // Touch 1 so 2 becomes LRU.
        cache.get(&fp(1));
        cache.insert(&enclave, fp(3), &shared(b"c"), None);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&fp(1)).is_some());
        assert!(cache.get(&fp(2)).is_none());
        assert!(cache.get(&fp(3)).is_some());
    }

    #[test]
    fn byte_bound_evicts_until_fit() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(HotCacheConfig {
            max_entries: 100,
            max_bytes: 3 * (100 + ENTRY_OVERHEAD),
        });
        for n in 1..=3u8 {
            cache.insert(&enclave, fp(n), &shared(&[n; 100]), None);
        }
        assert_eq!(cache.len(), 3);
        cache.insert(&enclave, fp(4), &shared(&[4u8; 100]), None);
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&fp(1)).is_none(), "oldest entry evicted");
    }

    #[test]
    fn oversized_result_is_not_cached() {
        let enclave = enclave();
        let mut cache =
            HotTagCache::new(HotCacheConfig { max_entries: 8, max_bytes: 64 });
        cache.insert(&enclave, fp(1), &shared(&[0u8; 1024]), Some(1));
        assert_eq!(cache.len(), 0);
        assert!(!cache.may_contain(1), "uncached entry must not poison the multiset");
    }

    #[test]
    fn duplicate_insert_keeps_single_entry() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(HotCacheConfig::default());
        cache.insert(&enclave, fp(1), &shared(b"r"), Some(4));
        cache.insert(&enclave, fp(1), &shared(b"r"), Some(4));
        assert_eq!(cache.len(), 1);
        // Evicting the single entry clears the multiset exactly once.
        assert!(cache.may_contain(4));
    }

    #[test]
    fn memory_is_charged_and_released() {
        let enclave = enclave();
        let before = enclave.committed_bytes();
        let mut cache =
            HotTagCache::new(HotCacheConfig { max_entries: 4, max_bytes: 1 << 20 });
        for n in 1..=4u8 {
            cache.insert(&enclave, fp(n), &shared(&vec![n; 8 * 1024]), None);
        }
        assert!(enclave.committed_bytes() > before);
        // Evict everything by inserting over the entry bound.
        for n in 5..=8u8 {
            cache.insert(&enclave, fp(n), &shared(&[n]), None);
        }
        assert!(enclave.committed_bytes() < before + 64 * 1024);
    }

    /// Differential property: the cache behaves exactly like a reference
    /// model — a map plus a precise LRU list — for any stream of gets and
    /// inserts, never exceeds its configured bounds, and its prefilter
    /// multiset answers `may_contain` exactly for the live population.
    #[test]
    fn cache_matches_lru_model_under_random_ops() {
        use std::collections::BTreeMap;
        const CONFIG: HotCacheConfig = HotCacheConfig { max_entries: 3, max_bytes: 512 };

        speed_testkit::check(
            "cache_matches_lru_model_under_random_ops",
            0x5EED_3001,
            |rng| {
                let len = rng.range_usize(0, 50);
                (0..len)
                    .map(|_| (rng.chance(0.5), rng.byte() % 8, rng.byte()))
                    .collect::<Vec<(bool, u8, u8)>>()
            },
            |ops: &Vec<(bool, u8, u8)>| {
                let enclave = enclave();
                let mut cache = HotTagCache::new(CONFIG);
                let mut model: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
                let mut lru: Vec<u8> = Vec::new(); // front = least recent
                let model_bytes = |m: &BTreeMap<u8, Vec<u8>>| -> usize {
                    m.values().map(|v| v.len() + ENTRY_OVERHEAD).sum()
                };
                for (index, &(is_get, tag_seed, len)) in ops.iter().enumerate() {
                    if is_get {
                        let got = cache.get(&fp(tag_seed));
                        let expected = model.get(&tag_seed);
                        assert_eq!(
                            got.as_deref(),
                            expected,
                            "op {index}: GET divergence"
                        );
                        if expected.is_some() {
                            lru.retain(|t| *t != tag_seed);
                            lru.push(tag_seed);
                        }
                    } else {
                        // The result is a function of the key, as in the
                        // runtime (a computation's result is immutable).
                        let result = vec![tag_seed; usize::from(len % 100)];
                        // Prefilter tags are a function of the input too.
                        let prefilter = u64::from(tag_seed) * 1000;
                        cache.insert(
                            &enclave,
                            fp(tag_seed),
                            &Arc::new(result.clone()),
                            Some(prefilter),
                        );
                        let footprint = result.len() + ENTRY_OVERHEAD;
                        if footprint > CONFIG.max_bytes {
                            // Too big to ever cache: no model change.
                        } else if model.contains_key(&tag_seed) {
                            // Duplicate insert just bumps recency.
                            lru.retain(|t| *t != tag_seed);
                            lru.push(tag_seed);
                        } else {
                            while model.len() >= CONFIG.max_entries
                                || model_bytes(&model) + footprint > CONFIG.max_bytes
                            {
                                let victim = lru.remove(0);
                                model.remove(&victim);
                            }
                            model.insert(tag_seed, result);
                            lru.push(tag_seed);
                        }
                    }
                    assert_eq!(cache.len(), model.len(), "op {index}: entry count");
                    assert_eq!(
                        cache.bytes(),
                        model_bytes(&model),
                        "op {index}: accounted bytes"
                    );
                    assert!(cache.len() <= CONFIG.max_entries, "op {index}: bound");
                    assert!(cache.bytes() <= CONFIG.max_bytes, "op {index}: bytes");
                    // The prefilter multiset answers exactly for the model's
                    // live population (every insert supplied a prefilter).
                    for seed in 0..8u8 {
                        assert_eq!(
                            cache.may_contain(u64::from(seed) * 1000),
                            model.contains_key(&seed),
                            "op {index}: may_contain divergence for seed {seed}"
                        );
                    }
                }
            },
        );
    }
}
