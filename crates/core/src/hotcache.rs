//! Bounded in-enclave hot cache of recently seen computations.
//!
//! A marked computation that was recently resolved — from the store or by
//! local execution — is remembered inside the application enclave, keyed
//! by its secret [`Fingerprint`] `fp = E_K(GHASH_H(func, m))` under the
//! runtime's own keys. Every remembered computation keeps its secret
//! digest `d`, its comp-tag and a small hit count; only some also keep
//! their plaintext result, and some keep the RCE record their last
//! verified store hit returned. A probe ([`Probe`]) answers with the
//! result, a hot hit with no enclave transition, no store round trip and
//! no SHA-256; with the digest and tag, and the kept record if there is
//! one, so the call runs no SHA-256 pass over its input (see
//! [`crate::tag`]); or with nothing.
//!
//! Neither the digest nor a result ever leaves the enclave, and the cache
//! never decides what the store returns: a wrong hit or a wrong digest
//! needs an fp collision between two remembered computations (DESIGN.md,
//! "Security properties carried over"). A kept record is the store's own
//! AES-GCM ciphertext; the caller verifies it under `d` on every use, as
//! it verifies a store hit.
//!
//! Results are admitted by frequency, as in TinyLFU (Einziger, Friedman and
//! Manes, ACM TOS 2017), with exact hit counts that age. The result bytes
//! and 160 B per entry are bounded and charged to EPC; kept records live
//! in untrusted memory under a budget of their own. DESIGN.md (*Hot-tag
//! cache*) spells out the policy, which the tests hold to a model.
//!
//! The entries live in one slab, found through a table hashed on each
//! fingerprint's own bytes (see its `Hash`). Three lists run through the
//! slab by index, least recent first: the entries with a result, the
//! digest-only ones, and those keeping a record. A hit touches its table
//! slot, its entry and its list neighbours, allocates nothing, and shares
//! the entry's [`Arc`] buffer instead of copying the bytes.

// hot-path: deny-clone

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use speed_enclave::{Enclave, EnclaveError, PAGE_SIZE};
use speed_wire::{CompTag, Record};

use crate::tag::{CompDigest, Fingerprint, FingerprintHash};

/// Size limits for the in-enclave hot cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotCacheConfig {
    /// Maximum remembered computations, with or without a cached result.
    pub max_entries: usize,
    /// Maximum accounted in-enclave bytes: cached result bytes plus a fixed
    /// charge of 160 B per remembered computation (its key, digest, tag,
    /// list links and table slots). Kept RCE records, outside the enclave,
    /// have a budget of 16 × this.
    pub max_bytes: usize,
}

impl Default for HotCacheConfig {
    fn default() -> Self {
        // Small by default: EPC is ~92 MiB usable on v1 hardware and the
        // application's own working set comes first.
        HotCacheConfig { max_entries: 1024, max_bytes: 4 * 1024 * 1024 }
    }
}

/// Fixed bookkeeping charged per remembered computation on top of its
/// result bytes: its slab entry (key, digest, tag, links) and table slots.
pub(crate) const ENTRY_OVERHEAD: usize = 32 + 64 + 64;

/// Kept records may hold `RECORD_BUDGET_FACTOR × max_bytes` wire bytes of
/// untrusted memory.
const RECORD_BUDGET_FACTOR: usize = 16;

/// Largest hit count: TinyLFU's 4-bit counters. A small ceiling bounds how
/// long a formerly popular result outlives its popularity.
const MAX_COUNT: u8 = 15;

/// Every `AGING_FACTOR × max_entries` probes, every count halves.
const AGING_FACTOR: usize = 10;

/// A list's own end, which is no entry.
const NIL: usize = usize::MAX;

/// The tier lists `tiers[DIGESTS]` and `tiers[RESULTS]`, by whether an
/// entry holds a result, run through its links `TIER`; `records` through
/// its links `KEPT`.
const DIGESTS: usize = 0;
const RESULTS: usize = 1;
const TIER: usize = 0;
const KEPT: usize = 1;

/// What a probe of the hot cache found.
pub(crate) enum Probe {
    /// The cached result, as another reference to the shared buffer.
    Result(Arc<Vec<u8>>),
    /// A remembered computation without a cached result: its secret digest
    /// and comp-tag, so the call needs no SHA-256 pass over its input, and
    /// the RCE record of its last verified store hit if the cache kept it.
    Digest(CompDigest, CompTag, Option<Arc<Record>>),
    /// Nothing is remembered under this fingerprint.
    Miss,
}

/// A node's neighbours in one list, as slab indices.
#[derive(Clone, Copy)]
struct Links {
    prev: usize,
    next: usize,
}

struct Entry {
    fp: Fingerprint,
    digest: CompDigest,
    tag: CompTag,
    /// Probes that found this entry (its first sighting counts as one),
    /// halved every aging window.
    count: u8,
    /// When the entry last became the most recent of its tier list: the
    /// order of `records`, which holds only some entries.
    seq: u64,
    result: Option<Arc<Vec<u8>>>,
    /// The RCE record of the last verified store hit, in untrusted memory.
    record: Option<Arc<Record>>,
    links: [Links; 2],
}

/// A circular list through the slab's `link` links, least recent first,
/// whose own node is `NIL`: `ends.next` is its first entry and
/// `ends.prev` its last, `NIL` when it is empty.
struct List {
    ends: Links,
    len: usize,
    link: usize,
}

impl List {
    const fn new(link: usize) -> Self {
        List { ends: Links { prev: NIL, next: NIL }, len: 0, link }
    }

    fn node<'a>(&'a mut self, slab: &'a mut [Entry], at: usize) -> &'a mut Links {
        match at {
            NIL => &mut self.ends,
            at => &mut slab[at].links[self.link],
        }
    }

    fn unlink(&mut self, slab: &mut [Entry], at: usize) {
        let Links { prev, next } = slab[at].links[self.link];
        self.node(slab, prev).next = next;
        self.node(slab, next).prev = prev;
        self.len -= 1;
    }

    /// Links `at` in just before `next`, or last when `next` is `NIL`.
    fn link_before(&mut self, slab: &mut [Entry], at: usize, next: usize) {
        let prev = self.node(slab, next).prev;
        slab[at].links[self.link] = Links { prev, next };
        self.node(slab, prev).next = at;
        self.node(slab, next).prev = at;
        self.len += 1;
    }
}

/// The cache proper. Callers hold it behind a `Mutex`; all methods take
/// `&mut self`. `Debug` shows the occupancy and the bounds, never a key, a
/// digest, a cached result or a kept record.
pub(crate) struct HotTagCache {
    config: HotCacheConfig,
    /// Entries the table may hold: `max_entries`, fewer when their charge
    /// would exceed half of `max_bytes`.
    slots: usize,
    /// Result bytes the cache may hold: what a full table leaves of
    /// `max_bytes`.
    result_budget: usize,
    slab: Vec<Entry>,
    /// Slab indices no entry holds.
    free: Vec<usize>,
    /// Slab indices by fingerprint.
    index: HashMap<Fingerprint, usize, FingerprintHash>,
    tiers: [List; 2],
    records: List,
    /// Wire bytes the kept records may hold: `16 × max_bytes`.
    record_budget: usize,
    /// Wire bytes of the kept records.
    record_bytes: usize,
    seq: u64,
    /// Probes since the counts last halved.
    probes: usize,
    result_bytes: usize,
    /// EPC bytes currently committed for the cache (page granularity).
    committed: usize,
}

impl fmt::Debug for HotTagCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HotTagCache")
            .field("entries", &self.len())
            .field("results", &self.tiers[RESULTS].len)
            .field("bytes", &self.bytes())
            .field("records", &self.records.len)
            .field("record_bytes", &self.record_bytes)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl HotTagCache {
    pub(crate) fn new(config: HotCacheConfig) -> Self {
        let slots = config.max_entries.min(config.max_bytes / (2 * ENTRY_OVERHEAD));
        HotTagCache {
            config,
            slots,
            result_budget: config.max_bytes - slots * ENTRY_OVERHEAD,
            slab: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            tiers: [List::new(TIER), List::new(TIER)],
            records: List::new(KEPT),
            record_budget: config.max_bytes.saturating_mul(RECORD_BUDGET_FACTOR),
            record_bytes: 0,
            seq: 0,
            probes: 0,
            result_bytes: 0,
            committed: 0,
        }
    }

    /// Probes for `fp`, counting the probe toward the aging window. A found
    /// entry's count rises and it becomes the most recent of its lists. A
    /// cached result or a kept record is returned as a shared reference —
    /// no bytes are copied.
    pub(crate) fn get(&mut self, fp: &Fingerprint) -> Probe {
        self.probes += 1;
        if self.probes >= AGING_FACTOR * self.config.max_entries {
            self.probes = 0;
            for entry in &mut self.slab {
                entry.count /= 2;
            }
        }
        let Some(&at) = self.index.get(fp) else { return Probe::Miss };
        self.tiers[self.tier(at)].unlink(&mut self.slab, at);
        self.relink(at);
        let entry = &mut self.slab[at];
        entry.count = (entry.count + 1).min(MAX_COUNT);
        match &entry.result {
            Some(result) => Probe::Result(Arc::clone(result)), // allow-clone: Arc refcount bump, not a byte copy
            None => {
                let digest = entry.digest.clone(); // allow-clone: 32 bytes that spare a SHA-256 pass
                let record = entry.record.as_ref().map(Arc::clone); // allow-clone: Arc refcount bump, not a byte copy
                Probe::Digest(digest, entry.tag, record)
            }
        }
    }

    /// Remembers the computation `fp`, whose digest and tag the caller
    /// derived from `(func, m)` itself, and offers its resolved `result`.
    /// Returns whether the result is now cached; when it is not, the entry
    /// still supplies the digest to the next probe. A `record` — the one a
    /// verified store hit returned — replaces the record the entry kept;
    /// `None` leaves it as it is. Pages the enclave cannot commit leave the
    /// entry or the result out: the cache is never a correctness dependency.
    pub(crate) fn insert(
        &mut self,
        enclave: &Enclave,
        fp: Fingerprint,
        derived: &(CompDigest, CompTag),
        result: &Arc<Vec<u8>>,
        record: Option<Arc<Record>>,
    ) -> bool {
        let found = self.index.get(&fp).copied();
        let Some(at) = found.or_else(|| self.add_entry(enclave, fp, derived)) else {
            return false;
        };
        let cached = self.admit(enclave, at, result);
        if let Some(record) = record {
            self.keep_record(at, record);
        }
        cached
    }

    /// Drops the record the entry `fp` keeps, if it is still `record`: the
    /// caller found that it fails verification.
    pub(crate) fn forget_record(&mut self, fp: &Fingerprint, record: &Arc<Record>) {
        let Some(&at) = self.index.get(fp) else { return };
        if self.slab[at].record.as_ref().is_some_and(|held| Arc::ptr_eq(held, record)) {
            self.drop_record(at);
        }
    }

    /// Number of remembered computations, with or without a result.
    pub(crate) fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Accounted in-enclave bytes: result bytes plus the per-entry charge.
    /// Kept records are outside the enclave and not counted.
    pub(crate) fn bytes(&self) -> usize {
        self.len() * ENTRY_OVERHEAD + self.result_bytes
    }

    /// Kept records and their wire bytes, in untrusted memory.
    pub(crate) fn record_usage(&self) -> (usize, usize) {
        (self.records.len, self.record_bytes)
    }

    /// The tier list that holds the entry `at`.
    fn tier(&self, at: usize) -> usize {
        usize::from(self.slab[at].result.is_some())
    }

    /// Makes the entry `at`, in no tier list, the most recent of its tier
    /// list, and of `records` if it keeps a record.
    fn relink(&mut self, at: usize) {
        self.seq += 1;
        self.slab[at].seq = self.seq;
        self.tiers[self.tier(at)].link_before(&mut self.slab, at, NIL);
        if self.slab[at].record.is_some() {
            self.records.unlink(&mut self.slab, at);
            self.records.link_before(&mut self.slab, at, NIL);
        }
    }

    /// Adds a digest-only entry for `fp` and returns its slab index.
    fn add_entry(
        &mut self,
        enclave: &Enclave,
        fp: Fingerprint,
        (digest, tag): &(CompDigest, CompTag),
    ) -> Option<usize> {
        if self.len() >= self.slots {
            // A digest-only entry holds nothing costly; a result goes only
            // if its count is strictly lower than a first sighting's 1.
            let victim =
                match (self.tiers[DIGESTS].ends.next, self.tiers[RESULTS].ends.next) {
                    (NIL, NIL) => return None,
                    (NIL, oldest) if self.slab[oldest].count > 0 => return None,
                    (NIL, oldest) | (oldest, _) => oldest,
                };
            self.remove(enclave, victim);
        }
        self.charge(enclave, self.bytes() + ENTRY_OVERHEAD).ok()?;
        let entry = Entry {
            fp,
            digest: digest.clone(), // allow-clone: the entry's own 32-byte digest copy
            tag: *tag,
            count: 1,
            seq: 0,
            result: None,
            record: None,
            links: [Links { prev: NIL, next: NIL }; 2],
        };
        let at = self.free.pop().unwrap_or(self.slab.len());
        match self.slab.get_mut(at) {
            Some(slot) => *slot = entry,
            None => self.slab.push(entry),
        }
        self.index.insert(fp, at);
        self.relink(at);
        Some(at)
    }

    /// The admission test for the result of the remembered entry `at`.
    fn admit(&mut self, enclave: &Enclave, at: usize, result: &Arc<Vec<u8>>) -> bool {
        let entry = &self.slab[at];
        if entry.result.is_some() {
            // Already cached: the result of a computation is immutable.
            return true;
        }
        let (count, len) = (entry.count, result.len());
        if len > self.result_budget {
            return false;
        }
        // The least-recent results that would make room, each of which
        // must have a strictly lower count.
        let free = self.result_budget - self.result_bytes;
        let (mut freed, mut displaced) = (0, 0);
        let mut victim = self.tiers[RESULTS].ends.next;
        while free + freed < len && victim != NIL {
            let entry = &self.slab[victim];
            if entry.count >= count {
                return false;
            }
            freed += entry.result.as_ref().map_or(0, |r| r.len());
            displaced += 1;
            victim = entry.links[TIER].next;
        }
        if free + freed < len || self.charge(enclave, self.bytes() - freed + len).is_err()
        {
            return false;
        }
        // Displaced results keep their entries, as the most recent
        // digest-only ones.
        for _ in 0..displaced {
            let victim = self.tiers[RESULTS].ends.next;
            self.tiers[RESULTS].unlink(&mut self.slab, victim);
            self.result_bytes -= self.slab[victim].result.take().map_or(0, |r| r.len());
            self.relink(victim);
        }
        self.tiers[DIGESTS].unlink(&mut self.slab, at);
        self.slab[at].result = Some(Arc::clone(result)); // allow-clone: Arc refcount bump, not a byte copy
        self.result_bytes += len;
        self.relink(at);
        true
    }

    /// Keeps `record` with the remembered entry `at` in place of the one it
    /// held, dropping the least-recent kept records until the budget has
    /// room. A record larger than the whole budget is not kept.
    fn keep_record(&mut self, at: usize, record: Arc<Record>) {
        self.drop_record(at);
        let size = record.wire_size();
        if size > self.record_budget {
            return;
        }
        while self.record_bytes + size > self.record_budget && self.records.len > 0 {
            self.drop_record(self.records.ends.next);
        }
        // `records` follows the entries' recency, and this entry need not
        // be the most recent one: it goes before every later kept record.
        let (seq, mut next, mut prev) = (self.slab[at].seq, NIL, self.records.ends.prev);
        while prev != NIL && self.slab[prev].seq > seq {
            (next, prev) = (prev, self.slab[prev].links[KEPT].prev);
        }
        self.records.link_before(&mut self.slab, at, next);
        self.record_bytes += size;
        self.slab[at].record = Some(record);
    }

    fn drop_record(&mut self, at: usize) {
        if let Some(record) = self.slab[at].record.take() {
            self.records.unlink(&mut self.slab, at);
            self.record_bytes -= record.wire_size();
        }
    }

    fn remove(&mut self, enclave: &Enclave, at: usize) {
        self.drop_record(at);
        self.tiers[self.tier(at)].unlink(&mut self.slab, at);
        self.result_bytes -= self.slab[at].result.take().map_or(0, |r| r.len());
        self.index.remove(&self.slab[at].fp);
        self.free.push(at);
        let _ = self.charge(enclave, self.bytes());
    }

    /// Commits or releases pages so the cache's EPC charge covers exactly
    /// `bytes`: only crossing a page boundary touches the enclave's memory
    /// budget. Committing more can fail; the charge is then unchanged.
    fn charge(&mut self, enclave: &Enclave, bytes: usize) -> Result<(), EnclaveError> {
        let needed = bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if needed > self.committed {
            enclave.commit_memory(needed - self.committed)?;
        } else if needed < self.committed {
            let _ = enclave.release_memory(self.committed - needed);
        }
        self.committed = needed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speed_enclave::{CostModel, Platform};
    use std::collections::BTreeMap;

    impl HotTagCache {
        /// The record the entry `fp` keeps, for tests that tamper with it.
        pub(crate) fn kept_record_mut(
            &mut self,
            fp: &Fingerprint,
        ) -> Option<&mut Arc<Record>> {
            let at = *self.index.get(fp)?;
            self.slab[at].record.as_mut()
        }
    }

    fn fp(n: u8) -> Fingerprint {
        Fingerprint::from_bytes([n; 16])
    }

    fn digest(n: u8) -> CompDigest {
        CompDigest::from_bytes([n; 32])
    }

    fn tag(n: u8) -> CompTag {
        CompTag::from_bytes([n; 32])
    }

    fn enclave() -> Arc<Enclave> {
        Platform::new(CostModel::no_sgx()).create_enclave(b"cache-test").unwrap()
    }

    fn shared(bytes: &[u8]) -> Arc<Vec<u8>> {
        Arc::new(bytes.to_vec())
    }

    /// A record for computation `n` whose ciphertext is `len` bytes: its
    /// wire size is `len + RECORD_FIXED`.
    fn record(n: u8, len: usize) -> Arc<Record> {
        Arc::new(Record {
            challenge: Vec::new(),
            wrapped_key: [n; 16],
            nonce: [n; 12],
            boxed_result: vec![n; len],
        })
    }

    /// Wire bytes of a record with an empty challenge and no ciphertext.
    const RECORD_FIXED: usize = 4 + 16 + 12 + 4;

    /// Remembers computation `n`, with the digest and tag made from `n`.
    fn remember(
        cache: &mut HotTagCache,
        enclave: &Enclave,
        n: u8,
        result: &Arc<Vec<u8>>,
    ) -> bool {
        cache.insert(enclave, fp(n), &(digest(n), tag(n)), result, None)
    }

    /// Remembers computation `n` after a store hit that returned a record
    /// with `len` bytes of ciphertext.
    fn remember_hit(
        cache: &mut HotTagCache,
        enclave: &Enclave,
        n: u8,
        result: &Arc<Vec<u8>>,
        len: usize,
    ) -> bool {
        let derived = (digest(n), tag(n));
        cache.insert(enclave, fp(n), &derived, result, Some(record(n, len)))
    }

    /// What a probe answered, in a comparable form.
    #[derive(Debug, PartialEq, Eq)]
    enum Answer {
        Result(Vec<u8>),
        Digest(u8),
        /// A digest with its kept record, by ciphertext length.
        Record(u8, usize),
        Miss,
    }

    fn probe(cache: &mut HotTagCache, n: u8) -> Answer {
        match cache.get(&fp(n)) {
            Probe::Result(result) => Answer::Result(result.to_vec()),
            Probe::Digest(d, t, kept) => {
                let id = d.as_bytes()[0];
                assert_eq!(d.as_bytes(), &[id; 32], "a digest comes back whole");
                assert_eq!(t, tag(id), "the digest and its tag stay paired");
                match kept {
                    Some(kept) => {
                        assert_eq!(kept.nonce, [id; 12], "a record stays with its entry");
                        Answer::Record(id, kept.boxed_result.len())
                    }
                    None => Answer::Digest(id),
                }
            }
            Probe::Miss => Answer::Miss,
        }
    }

    /// The runtime's pattern: a probe, and on anything but a cached result
    /// the resolved result is remembered. Returns whether it was a hit.
    fn access(
        cache: &mut HotTagCache,
        enclave: &Enclave,
        n: u8,
        result: &Arc<Vec<u8>>,
    ) -> bool {
        match probe(cache, n) {
            Answer::Result(_) => true,
            _ => {
                remember(cache, enclave, n, result);
                false
            }
        }
    }

    /// Room for 8 entries and exactly four 400-byte results.
    const FOUR_RESULTS: HotCacheConfig =
        HotCacheConfig { max_entries: 8, max_bytes: 8 * ENTRY_OVERHEAD + 4 * 400 };

    #[test]
    fn get_miss_then_insert_then_hit() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(HotCacheConfig::default());
        assert_eq!(probe(&mut cache, 1), Answer::Miss);
        assert!(remember(&mut cache, &enclave, 1, &shared(b"result")));
        assert_eq!(probe(&mut cache, 1), Answer::Result(b"result".to_vec()));
    }

    #[test]
    fn hit_shares_the_buffer_instead_of_copying() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(HotCacheConfig::default());
        let buffer = shared(&[7u8; 4096]);
        remember(&mut cache, &enclave, 1, &buffer);
        for _ in 0..2 {
            let Probe::Result(hit) = cache.get(&fp(1)) else { panic!("not cached") };
            assert_eq!(hit.as_ptr(), buffer.as_ptr(), "hit must alias the insert buffer");
        }
    }

    #[test]
    fn entry_bound_evicts_lru() {
        let enclave = enclave();
        // Three entries; room for one 400-byte result.
        let mut cache = HotTagCache::new(HotCacheConfig {
            max_entries: 3,
            max_bytes: 6 * ENTRY_OVERHEAD,
        });
        let result = shared(&[0; 400]);
        assert!(remember(&mut cache, &enclave, 1, &result));
        assert!(!remember(&mut cache, &enclave, 2, &result));
        assert!(!remember(&mut cache, &enclave, 3, &result));
        // Touch 2 so 3 becomes the least-recent digest-only entry.
        assert_eq!(probe(&mut cache, 2), Answer::Digest(2));
        remember(&mut cache, &enclave, 4, &result);
        assert_eq!(cache.len(), 3);
        assert_eq!(probe(&mut cache, 3), Answer::Miss);
        assert_eq!(probe(&mut cache, 2), Answer::Digest(2));
        assert_eq!(probe(&mut cache, 4), Answer::Digest(4));
        // The least-recent entry overall held a result, which a first
        // sighting does not displace.
        assert_eq!(probe(&mut cache, 1), Answer::Result(vec![0; 400]));

        // A table of results: a newcomer displaces the least-recent result
        // only once its count has aged to 0.
        let mut cache =
            HotTagCache::new(HotCacheConfig { max_entries: 2, max_bytes: 1 << 20 });
        remember(&mut cache, &enclave, 1, &shared(b"a"));
        remember(&mut cache, &enclave, 2, &shared(b"b"));
        assert!(!remember(&mut cache, &enclave, 3, &shared(b"c")));
        assert_eq!((cache.len(), probe(&mut cache, 3)), (2, Answer::Miss));
        for _ in 0..AGING_FACTOR * 2 {
            cache.get(&fp(9));
        }
        assert!(remember(&mut cache, &enclave, 3, &shared(b"c")));
        assert_eq!(probe(&mut cache, 1), Answer::Miss);
        assert_eq!(probe(&mut cache, 2), Answer::Result(b"b".to_vec()));
        assert_eq!(probe(&mut cache, 3), Answer::Result(b"c".to_vec()));
    }

    #[test]
    fn byte_bound_evicts_until_fit() {
        let enclave = enclave();
        // Room for 8 entries and three 1000-byte results.
        let config =
            HotCacheConfig { max_entries: 8, max_bytes: 8 * ENTRY_OVERHEAD + 3000 };
        let mut cache = HotTagCache::new(config);
        for n in 1..=3u8 {
            assert!(remember(&mut cache, &enclave, n, &shared(&[n; 1000])));
        }
        // A first sighting does not displace a result of equal count.
        let big = shared(&[9; 2000]);
        assert!(!remember(&mut cache, &enclave, 9, &big));
        assert_eq!(cache.bytes(), 4 * ENTRY_OVERHEAD + 3000);
        // Seen twice more, it displaces the two least-recent results.
        assert_eq!(probe(&mut cache, 9), Answer::Digest(9));
        assert_eq!(probe(&mut cache, 9), Answer::Digest(9));
        assert!(remember(&mut cache, &enclave, 9, &big));
        assert_eq!(probe(&mut cache, 1), Answer::Digest(1), "oldest result evicted");
        assert_eq!(probe(&mut cache, 2), Answer::Digest(2));
        assert_eq!(probe(&mut cache, 3), Answer::Result(vec![3; 1000]));
        assert_eq!(cache.bytes(), 4 * ENTRY_OVERHEAD + 3000);
        assert!(cache.bytes() <= config.max_bytes);
    }

    #[test]
    fn oversized_result_is_not_cached() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(HotCacheConfig {
            max_entries: 8,
            max_bytes: 16 * ENTRY_OVERHEAD,
        });
        assert!(!remember(&mut cache, &enclave, 1, &shared(&[0u8; 4096])));
        // It still leaves its digest entry.
        assert_eq!((cache.len(), cache.bytes()), (1, ENTRY_OVERHEAD));
        assert_eq!(probe(&mut cache, 1), Answer::Digest(1));
    }

    #[test]
    fn duplicate_insert_keeps_single_entry() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(HotCacheConfig::default());
        remember(&mut cache, &enclave, 1, &shared(b"r"));
        assert!(remember(&mut cache, &enclave, 1, &shared(b"r")));
        assert_eq!((cache.len(), cache.bytes()), (1, ENTRY_OVERHEAD + 1));
    }

    #[test]
    fn memory_is_charged_and_released() {
        let enclave = enclave();
        let before = enclave.committed_bytes();
        let mut cache =
            HotTagCache::new(HotCacheConfig { max_entries: 4, max_bytes: 1 << 20 });
        for n in 1..=4u8 {
            remember(&mut cache, &enclave, n, &shared(&vec![n; 8 * 1024]));
        }
        assert!(enclave.committed_bytes() >= before + 32 * 1024);
        // Age every count to 0, then displace all four by the entry bound.
        for _ in 0..2 * AGING_FACTOR * 4 {
            cache.get(&fp(99));
        }
        for n in 5..=8u8 {
            assert!(remember(&mut cache, &enclave, n, &shared(&[n])));
        }
        assert_eq!(cache.bytes(), 4 * (ENTRY_OVERHEAD + 1));
        assert_eq!(enclave.committed_bytes(), before + PAGE_SIZE as u64);
    }

    #[test]
    fn evicting_a_result_keeps_its_digest() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(FOUR_RESULTS);
        let result = shared(&[5; 400]);
        for n in 1..=4u8 {
            assert!(remember(&mut cache, &enclave, n, &result));
        }
        assert_eq!(probe(&mut cache, 9), Answer::Miss);
        assert!(!remember(&mut cache, &enclave, 9, &result));
        assert_eq!(probe(&mut cache, 9), Answer::Digest(9));
        assert!(remember(&mut cache, &enclave, 9, &result));
        assert_eq!(probe(&mut cache, 1), Answer::Digest(1));
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn debug_shows_counts_and_no_digest_byte() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(HotCacheConfig::default());
        let secret = CompDigest::from_bytes([0xD7; 32]);
        cache.insert(
            &enclave,
            fp(0xD7),
            &(secret, CompTag::from_bytes([0xD7; 32])),
            &shared(&[0xD7; 8]),
            Some(record(0xD7, 8)),
        );
        let shown = format!("{cache:?}");
        assert!(shown.contains("entries: 1") && shown.contains("results: 1"), "{shown}");
        assert!(shown.contains("records: 1"), "{shown}");
        for needle in ["d7", "D7", "215"] {
            assert!(!shown.contains(needle), "{needle} in {shown}");
        }
    }

    #[test]
    fn a_burst_of_one_time_inputs_leaves_warm_results_resident() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(FOUR_RESULTS);
        let result = shared(&[1; 400]);
        // The warm set fills the byte budget, each result hit once: count 2.
        for n in 0..4u8 {
            assert!(remember(&mut cache, &enclave, n, &result));
            assert_eq!(probe(&mut cache, n), Answer::Result(vec![1; 400]));
        }
        for n in 100..100 + FOUR_RESULTS.max_entries as u8 {
            assert!(!access(&mut cache, &enclave, n, &result));
            assert_eq!(
                probe(&mut cache, n),
                Answer::Digest(n),
                "remembered by its digest"
            );
            assert!(cache.len() <= FOUR_RESULTS.max_entries);
            assert!(cache.bytes() <= FOUR_RESULTS.max_bytes);
        }
        for n in 0..4u8 {
            assert_eq!(probe(&mut cache, n), Answer::Result(vec![1; 400]), "warm {n}");
        }
    }

    #[test]
    fn a_shifted_popular_set_is_resident_within_two_aging_windows() {
        let enclave = enclave();
        let mut cache = HotTagCache::new(FOUR_RESULTS);
        let window = AGING_FACTOR * FOUR_RESULTS.max_entries;
        let result = shared(&[2; 400]);
        // Set A (0..4) is hot long enough to reach the count ceiling; the
        // shift comes just before an aging boundary, the slowest case.
        for i in 0..3 * window - 8 {
            access(&mut cache, &enclave, (i % 4) as u8, &result);
        }
        // Set B (10..14): one pass leaves its results out.
        for n in 10..14u8 {
            assert!(!access(&mut cache, &enclave, n, &result));
        }
        assert_eq!(probe(&mut cache, 0), Answer::Result(vec![2; 400]));
        for i in 0..2 * window - 5 {
            access(&mut cache, &enclave, 10 + (i % 4) as u8, &result);
        }
        for n in 10..14u8 {
            assert_eq!(probe(&mut cache, n), Answer::Result(vec![2; 400]), "new {n}");
        }
    }

    /// A seeded Zipf(0.9) stream over 512 inputs with ~22.6 KB results —
    /// the shape of speedbench's `reuse_64k` — at the default bounds.
    #[test]
    fn zipf_stream_hit_ratio_is_at_least_three_quarters() {
        const KEYS: usize = 512;
        const PROBES: usize = 50_000;
        let key = |k: usize| {
            let mut bytes = [0u8; 16];
            bytes[..2].copy_from_slice(&(k as u16).to_le_bytes());
            Fingerprint::from_bytes(bytes)
        };
        let weights: Vec<f64> = (1..=KEYS).map(|k| (k as f64).powf(-0.9)).collect();
        let total: f64 = weights.iter().sum();
        let cdf: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let results: Vec<Arc<Vec<u8>>> =
            (0..KEYS).map(|k| Arc::new(vec![0; 22_000 + k * 7919 % 1200])).collect();
        let enclave = enclave();
        let mut cache = HotTagCache::new(HotCacheConfig::default());
        let mut rng = speed_testkit::TestRng::new(0x5EED_3002);
        let mut hits = 0;
        for _ in 0..PROBES {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let k = cdf.partition_point(|&c| c < u).min(KEYS - 1);
            match cache.get(&key(k)) {
                Probe::Result(_) => hits += 1,
                _ => {
                    let n = k as u8;
                    let derived = (digest(n), tag(n));
                    cache.insert(&enclave, key(k), &derived, &results[k], None);
                }
            }
        }
        let ratio = hits as f64 / PROBES as f64;
        assert!(ratio >= 0.75, "hit ratio {ratio:.4}");
    }

    #[test]
    fn a_kept_record_comes_back_with_its_digest_until_its_entry_goes() {
        let enclave = enclave();
        // Two entries and 320 bytes of results: a 1000-byte result is never
        // cached, and records may hold 16 × 640 bytes.
        let config = HotCacheConfig { max_entries: 2, max_bytes: 4 * ENTRY_OVERHEAD };
        let mut cache = HotTagCache::new(config);
        let result = shared(&[1; 1000]);
        assert!(!remember_hit(&mut cache, &enclave, 1, &result, 1000));
        assert_eq!(probe(&mut cache, 1), Answer::Record(1, 1000));
        assert_eq!(cache.record_usage(), (1, 1000 + RECORD_FIXED));
        assert_eq!(cache.bytes(), ENTRY_OVERHEAD, "a kept record is not charged to EPC");
        // An insert without a record keeps it; a store hit's record replaces it.
        remember(&mut cache, &enclave, 1, &result);
        assert_eq!(probe(&mut cache, 1), Answer::Record(1, 1000));
        remember_hit(&mut cache, &enclave, 1, &result, 900);
        assert_eq!(probe(&mut cache, 1), Answer::Record(1, 900));
        assert_eq!(cache.record_usage(), (1, 900 + RECORD_FIXED));
        // `forget_record` drops the record it is handed, not an equal one.
        let Probe::Digest(_, _, Some(kept)) = cache.get(&fp(1)) else {
            panic!("the record is kept")
        };
        cache.forget_record(&fp(1), &record(1, 900));
        assert_eq!(cache.record_usage().0, 1, "an equal record is another record");
        cache.forget_record(&fp(1), &kept);
        assert_eq!(probe(&mut cache, 1), Answer::Digest(1));
        assert_eq!(cache.record_usage(), (0, 0));
        // Recycling an entry frees its record.
        remember_hit(&mut cache, &enclave, 1, &result, 1000);
        remember_hit(&mut cache, &enclave, 2, &result, 1000);
        assert_eq!(cache.record_usage().0, 2);
        remember(&mut cache, &enclave, 3, &result);
        assert_eq!(probe(&mut cache, 1), Answer::Miss, "the least-recent entry went");
        assert_eq!(cache.record_usage(), (1, 1000 + RECORD_FIXED));
    }

    #[test]
    fn the_record_budget_drops_the_least_recent_records_first() {
        let enclave = enclave();
        // Eight entries, 1280 bytes of results, and 16 × 2560 bytes of
        // records: four of `len` fill the budget exactly.
        let config = HotCacheConfig { max_entries: 8, max_bytes: 16 * ENTRY_OVERHEAD };
        let budget = RECORD_BUDGET_FACTOR * config.max_bytes;
        let len = budget / 4 - RECORD_FIXED;
        let result = shared(&[0; 4096]);
        let mut cache = HotTagCache::new(config);
        for n in 1..=4u8 {
            remember_hit(&mut cache, &enclave, n, &result, len);
        }
        assert_eq!(cache.record_usage(), (4, budget));
        // A probe makes 1 the most recent, so a fifth record drops 2's.
        assert_eq!(probe(&mut cache, 1), Answer::Record(1, len));
        remember_hit(&mut cache, &enclave, 5, &result, len);
        assert_eq!(probe(&mut cache, 2), Answer::Digest(2));
        for n in [1, 3, 4, 5] {
            assert_eq!(probe(&mut cache, n), Answer::Record(n, len));
        }
        assert_eq!(cache.record_usage(), (4, budget));
        // A record larger than the whole budget is not kept and drops none.
        remember_hit(&mut cache, &enclave, 6, &result, budget);
        assert_eq!(probe(&mut cache, 6), Answer::Digest(6));
        assert_eq!(cache.record_usage(), (4, budget));
        // A record twice the size drops the two least recent, 1 and 3.
        remember_hit(&mut cache, &enclave, 7, &result, 2 * len + RECORD_FIXED);
        assert_eq!(probe(&mut cache, 1), Answer::Digest(1));
        assert_eq!(probe(&mut cache, 3), Answer::Digest(3));
        assert_eq!(probe(&mut cache, 4), Answer::Record(4, len));
        assert_eq!(probe(&mut cache, 7), Answer::Record(7, 2 * len + RECORD_FIXED));
        assert_eq!(cache.record_usage(), (3, budget));
        assert_eq!(cache.bytes(), 7 * ENTRY_OVERHEAD, "records never touch EPC");
    }

    /// The reference model: a map with counts, two recency lists (least
    /// recent first), one recency list over all entries that orders the
    /// kept records, and the admission and record rules, written as plainly
    /// as possible.
    struct Model {
        slots: usize,
        result_budget: usize,
        record_budget: usize,
        window: usize,
        probes: usize,
        /// key → (count, cached result)
        entries: BTreeMap<u8, (u8, Option<Vec<u8>>)>,
        results: Vec<u8>,
        digests: Vec<u8>,
        /// Every entry, least recent first.
        recency: Vec<u8>,
        /// key → ciphertext length of the record it keeps
        kept: BTreeMap<u8, usize>,
    }

    impl Model {
        fn new(config: HotCacheConfig) -> Self {
            let slots = config.max_entries.min(config.max_bytes / (2 * ENTRY_OVERHEAD));
            Model {
                slots,
                result_budget: config.max_bytes - slots * ENTRY_OVERHEAD,
                record_budget: 16 * config.max_bytes,
                window: 10 * config.max_entries,
                probes: 0,
                entries: BTreeMap::new(),
                results: Vec::new(),
                digests: Vec::new(),
                recency: Vec::new(),
                kept: BTreeMap::new(),
            }
        }

        fn result_bytes(&self) -> usize {
            self.entries.values().filter_map(|(_, r)| r.as_ref()).map(Vec::len).sum()
        }

        fn bytes(&self) -> usize {
            self.entries.len() * ENTRY_OVERHEAD + self.result_bytes()
        }

        fn record_bytes(&self) -> usize {
            self.kept.values().map(|len| len + RECORD_FIXED).sum()
        }

        fn count(&self, key: u8) -> u8 {
            self.entries[&key].0
        }

        /// Makes `key` the most recent entry, and the most recent of
        /// `results` or `digests` by whether it has a result.
        fn bump(&mut self, key: u8) {
            for list in [&mut self.results, &mut self.digests, &mut self.recency] {
                list.retain(|k| *k != key);
            }
            match self.entries[&key].1 {
                Some(_) => self.results.push(key),
                None => self.digests.push(key),
            }
            self.recency.push(key);
        }

        fn get(&mut self, key: u8) -> Answer {
            self.probes += 1;
            if self.probes == self.window {
                self.probes = 0;
                for (count, _) in self.entries.values_mut() {
                    *count /= 2;
                }
            }
            let Some((count, result)) = self.entries.get_mut(&key) else {
                return Answer::Miss;
            };
            *count = (*count + 1).min(15);
            let answer = match (result, self.kept.get(&key)) {
                (Some(result), _) => Answer::Result(result.clone()),
                (None, Some(&len)) => Answer::Record(key, len),
                (None, None) => Answer::Digest(key),
            };
            self.bump(key);
            answer
        }

        fn insert(&mut self, key: u8, result: Vec<u8>, record: Option<usize>) -> bool {
            if !self.entries.contains_key(&key) {
                if self.entries.len() >= self.slots {
                    let victim = if let Some(&victim) = self.digests.first() {
                        victim
                    } else if self.results.first().is_some_and(|&v| self.count(v) == 0) {
                        self.results[0]
                    } else {
                        return false;
                    };
                    self.entries.remove(&victim);
                    self.kept.remove(&victim);
                    for list in [&mut self.results, &mut self.digests, &mut self.recency]
                    {
                        list.retain(|k| *k != victim);
                    }
                }
                self.entries.insert(key, (1, None));
                self.bump(key);
            }
            let cached = self.admit(key, result);
            if let Some(len) = record {
                self.keep(key, len);
            }
            cached
        }

        fn admit(&mut self, key: u8, result: Vec<u8>) -> bool {
            let (count, cached) = &self.entries[&key];
            if cached.is_some() {
                return true;
            }
            let count = *count;
            let mut victims = 0;
            let mut after = self.result_bytes();
            while after + result.len() > self.result_budget {
                let Some(&victim) = self.results.get(victims) else { return false };
                if self.count(victim) >= count {
                    return false;
                }
                after -= self.entries[&victim].1.as_ref().unwrap().len();
                victims += 1;
            }
            for victim in self.results.drain(..victims).collect::<Vec<_>>() {
                self.entries.get_mut(&victim).unwrap().1 = None;
                self.bump(victim);
            }
            self.entries.get_mut(&key).unwrap().1 = Some(result);
            self.bump(key);
            true
        }

        fn keep(&mut self, key: u8, len: usize) {
            self.kept.remove(&key);
            if len + RECORD_FIXED > self.record_budget {
                return;
            }
            while self.record_bytes() + len + RECORD_FIXED > self.record_budget {
                let victim =
                    *self.recency.iter().find(|k| self.kept.contains_key(k)).unwrap();
                self.kept.remove(&victim);
            }
            self.kept.insert(key, len);
        }
    }

    /// Differential property: the cache behaves exactly like the reference
    /// model for any stream of probes and inserts, with and without a
    /// store hit's record — the same result, record, digest or miss, the
    /// same admission answer, entry count, accounted bytes and kept record
    /// bytes — and never exceeds its configured bounds.
    #[test]
    fn cache_matches_reference_model_under_random_ops() {
        // Four entries and 640 bytes of results among eight keys, with
        // results up to 510 bytes: both bounds bind, and long streams age.
        // Records of up to 25,500 bytes meet a 20,480-byte budget.
        const CONFIG: HotCacheConfig = HotCacheConfig { max_entries: 4, max_bytes: 1280 };

        speed_testkit::check(
            "cache_matches_reference_model_under_random_ops",
            0x5EED_3001,
            |rng| {
                let len = rng.range_usize(0, 200);
                (0..len)
                    .map(|_| {
                        (rng.chance(0.5), rng.byte() % 8, rng.byte(), rng.chance(0.5))
                    })
                    .collect::<Vec<(bool, u8, u8, bool)>>()
            },
            |ops: &Vec<(bool, u8, u8, bool)>| {
                let enclave = enclave();
                let mut cache = HotTagCache::new(CONFIG);
                let mut model = Model::new(CONFIG);
                for (index, &(is_get, key, len, hit)) in ops.iter().enumerate() {
                    if is_get {
                        let got = probe(&mut cache, key);
                        assert_eq!(got, model.get(key), "op {index}: probe divergence");
                    } else {
                        // Sizes vary per insert so the byte bounds see many;
                        // both keep the first result they admit.
                        let result = vec![key; 2 * usize::from(len)];
                        let record_len = hit.then_some(100 * usize::from(len));
                        let kept = cache.insert(
                            &enclave,
                            fp(key),
                            &(digest(key), tag(key)),
                            &Arc::new(result.clone()),
                            record_len.map(|record_len| record(key, record_len)),
                        );
                        assert_eq!(
                            kept,
                            model.insert(key, result, record_len),
                            "op {index}: admission"
                        );
                    }
                    assert_eq!(
                        cache.len(),
                        model.entries.len(),
                        "op {index}: entry count"
                    );
                    assert_eq!(
                        cache.bytes(),
                        model.bytes(),
                        "op {index}: accounted bytes"
                    );
                    assert_eq!(
                        cache.record_usage(),
                        (model.kept.len(), model.record_bytes()),
                        "op {index}: kept records"
                    );
                    assert!(cache.len() <= CONFIG.max_entries, "op {index}: entry bound");
                    assert!(cache.bytes() <= CONFIG.max_bytes, "op {index}: byte bound");
                    assert!(
                        cache.record_usage().1 <= 16 * CONFIG.max_bytes,
                        "op {index}: record budget"
                    );
                }
            },
        );
    }
}
