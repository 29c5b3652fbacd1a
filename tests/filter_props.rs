//! Property suite for the negative-lookup filters of the filter tier.
//!
//! The load-bearing contract is conservatism: a filter may say "maybe" for
//! an absent key (false positive — a wasted GET), but must NEVER say
//! "definitely absent" for a present one (false negative — a wasted
//! recompute and a duplicate PUT, because the runtime skips the store round
//! trip on that answer). The filters are keyed by the comp-tag, and a store
//! inserts the tag of every entry it takes, so these properties drive
//! random tag sets, eviction pressure, shard merging, and crash reloads at
//! the filter, and assert the no-false-negative side holds unconditionally
//! while the false-positive side stays within its design budget. Failures
//! shrink and print a `SPEED_TESTKIT_SEED=…` reproducer (see
//! docs/TESTING.md).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use speed_core::{
    tag_for, DedupOutcome, DedupRuntime, FuncDesc, FuncIdentity, PrefilterConfig,
    TrustedLibrary,
};
use speed_enclave::{CostModel, Platform};
use speed_store::{LogBackend, LogConfig, ResultStore, StoreConfig};
use speed_testkit::{check, wiregen, TestRng};
use speed_wire::{
    AppId, CompTag, Message, NegativeFilter, Record, SessionAuthority, COMP_TAG_LEN,
};

/// A fresh scratch directory for one durable store.
fn scratch_dir(label: &str) -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "speed-filter-props-{label}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds function identities for each code blob via a throwaway runtime
/// (the only public path from code bytes to a `FuncIdentity`).
fn identities(codes: &[Vec<u8>]) -> Vec<FuncIdentity> {
    let platform = Platform::new(CostModel::no_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::new());
    let mut library = TrustedLibrary::new("lib", "1");
    for (index, code) in codes.iter().enumerate() {
        library.register(format!("f{index}()"), code);
    }
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"filter-props")
        .in_process_store(store, authority)
        .trusted_library(library)
        .build()
        .unwrap();
    (0..codes.len())
        .map(|index| {
            rt.resolve(&FuncDesc::new("lib", "1", format!("f{index}()"))).unwrap()
        })
        .collect()
}

/// A tag that repeats `key`'s bytes.
fn tag_from(key: u64) -> CompTag {
    let mut bytes = [0u8; COMP_TAG_LEN];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&key.to_le_bytes());
    }
    CompTag::from_bytes(bytes)
}

fn tag_of(seed: u8) -> CompTag {
    CompTag::from_bytes([seed; COMP_TAG_LEN])
}

fn record_of(seed: u8, len: usize) -> Record {
    Record {
        challenge: vec![seed; 32],
        wrapped_key: [seed; 16],
        nonce: [seed; 12],
        boxed_result: vec![seed; len],
    }
}

/// Merges a store's per-shard filters into the single client-side view the
/// runtime consults (OR of bits).
fn merged_filter(store: &ResultStore) -> NegativeFilter {
    let mut shards = store.filter_snapshot().shards.into_iter();
    let mut merged = shards.next().expect("a store has shards");
    for shard in shards {
        assert!(merged.merge_from(&shard), "a store's shards share one shape");
    }
    merged
}

/// No false negatives, ever: whatever the filter geometry and whatever the
/// key set, every inserted key answers "maybe".
#[test]
fn inserted_keys_are_never_denied() {
    check(
        "inserted_keys_are_never_denied",
        0x5EED_6001,
        |rng| {
            let bits = rng.range_usize(1, 4096);
            let hashes = rng.byte();
            let keys: Vec<u64> =
                (0..rng.range_usize(0, 600)).map(|_| rng.next_u64()).collect();
            (bits, hashes, keys)
        },
        |case: &(usize, u8, Vec<u64>)| {
            let (bits, hashes, keys) = case;
            let mut filter = NegativeFilter::new(*bits, *hashes);
            for &key in keys {
                filter.insert(&tag_from(key));
            }
            for &key in keys {
                let tag = tag_from(key);
                assert!(
                    filter.may_contain(&tag),
                    "filter denied inserted tag {tag:?} (bits={bits}, hashes={hashes})"
                );
            }
        },
    );
}

/// The same holds for real comp-tags: tags produced by [`tag_for`] over
/// adversarially similar (func, input) pairs are never denied once
/// inserted.
#[test]
fn comp_tags_are_never_denied() {
    check(
        "comp_tags_are_never_denied",
        0x5EED_6002,
        |rng| {
            let base_len = rng.range_usize(0, 2048);
            let base = rng.bytes(base_len);
            let cases: Vec<(Vec<u8>, Vec<u8>)> = (0..rng.range_usize(1, 12))
                .map(|_| {
                    let func_len = rng.range_usize(1, 24);
                    let func = rng.bytes(func_len);
                    let mut input = base.clone();
                    // Perturb one byte so inputs cluster around `base` —
                    // the regime where a buggy filter would bit-alias.
                    if !input.is_empty() {
                        let at = rng.range_usize(0, input.len() - 1);
                        input[at] = input[at].wrapping_add(rng.byte());
                    }
                    (func, input)
                })
                .collect();
            cases
        },
        |cases: &Vec<(Vec<u8>, Vec<u8>)>| {
            let funcs = identities(
                &cases.iter().map(|(func, _)| func.clone()).collect::<Vec<_>>(),
            );
            let mut filter = NegativeFilter::with_capacity(cases.len() as u64);
            let tags: Vec<CompTag> = cases
                .iter()
                .zip(&funcs)
                .map(|((_, input), func)| tag_for(func, input))
                .collect();
            for tag in &tags {
                filter.insert(tag);
            }
            for tag in &tags {
                assert!(filter.may_contain(tag), "comp-tag {tag:?} denied");
            }
        },
    );
}

/// The false-positive side stays within the design budget: at the sized
/// load (`with_capacity`, ~10 bits/entry, k=4 gives a theoretical ~1.2%
/// rate), fresh keys are denied at least 95% of the time.
#[test]
fn false_positive_rate_stays_bounded() {
    let mut rng = TestRng::new(0x5EED_6003);
    for &n in &[64u64, 512, 4096] {
        let mut filter = NegativeFilter::with_capacity(n);
        let mut inserted = std::collections::HashSet::new();
        while inserted.len() < n as usize {
            let tag = wiregen::comp_tag(&mut rng);
            filter.insert(&tag);
            inserted.insert(tag);
        }
        let probes = 10_000;
        let mut false_positives = 0u32;
        for _ in 0..probes {
            let tag = wiregen::comp_tag(&mut rng);
            if inserted.contains(&tag) {
                continue; // astronomically unlikely; keep the count honest
            }
            if filter.may_contain(&tag) {
                false_positives += 1;
            }
        }
        let rate = f64::from(false_positives) / f64::from(probes);
        assert!(
            rate < 0.05,
            "FP rate {rate:.4} at n={n} exceeds the 5% budget \
             (sized at ~10 bits/entry, k=4 → ~1.2% theoretical)"
        );
    }
}

/// Filter/index agreement under eviction pressure: drive a tiny store with
/// PUTs until entries churn out, and the merged filter must still answer
/// "maybe" for every tag ever inserted (eviction removes entries but never
/// clears bits).
#[test]
fn eviction_never_creates_false_negatives() {
    check(
        "eviction_never_creates_false_negatives",
        0x5EED_6004,
        |rng| {
            (0..rng.range_usize(1, 60))
                .map(|_| (rng.byte(), rng.range_usize(1, 120)))
                .collect::<Vec<(u8, usize)>>()
        },
        |puts: &Vec<(u8, usize)>| {
            let platform = Platform::new(CostModel::no_sgx());
            let store = ResultStore::new(
                &platform,
                StoreConfig::with_capacity(4, 400).with_shards(4),
            )
            .expect("store");
            let app = AppId(7);
            let mut inserted = Vec::new();
            for &(seed, len) in puts {
                store.handle(Message::PutRequest {
                    app,
                    tag: tag_of(seed),
                    record: record_of(seed, len),
                });
                inserted.push(tag_of(seed));
                let merged = merged_filter(&store);
                for tag in &inserted {
                    assert!(
                        merged.may_contain(tag),
                        "merged filter denies {tag:?} after eviction churn"
                    );
                }
            }
        },
    );
}

/// Crash-reload completeness: a store recovered from checkpoint + WAL
/// inserts every recovered entry's tag as it imports it, so its filters
/// answer "maybe" for every recovered tag and still prove absences.
#[test]
fn reload_rebuilds_filters_conservatively() {
    check(
        "reload_rebuilds_filters_conservatively",
        0x5EED_6005,
        |rng| {
            (0..rng.range_usize(1, 12))
                .map(|_| (rng.byte(), rng.range_usize(1, 64)))
                .collect::<Vec<(u8, usize)>>()
        },
        |puts: &Vec<(u8, usize)>| {
            let platform = Platform::with_seed(CostModel::no_sgx(), Some(0xF1_73D));
            let dir = scratch_dir("reload");
            let open = || {
                let backend = Arc::new(LogBackend::new(LogConfig::new(&dir)));
                ResultStore::open(&platform, StoreConfig::default(), backend)
                    .expect("open")
                    .0
            };
            let store = open();
            let app = AppId(7);
            for &(seed, len) in puts {
                store.handle(Message::PutRequest {
                    app,
                    tag: tag_of(seed),
                    record: record_of(seed, len),
                });
            }
            drop(store);

            let restored = open();
            let merged = merged_filter(&restored);
            assert_eq!(
                merged.entries(),
                restored.stats().entries,
                "one insert per entry"
            );
            for &(seed, _) in puts {
                assert!(
                    merged.may_contain(&tag_of(seed)),
                    "recovered entry's tag denied after reload"
                );
            }
            // Complete: a tag the store never held is still proven absent.
            let unseen = CompTag::from_bytes(std::array::from_fn(|i| i as u8));
            assert!(!merged.may_contain(&unseen), "the reopened filter proves nothing");
            drop(restored);
            let _ = std::fs::remove_dir_all(&dir);
        },
    );
}

/// End to end: a runtime with the filter tier, against a durable store that
/// reopened holding entries, gets `MissFiltered` for an input the store
/// does not hold — no GET — and `Hit` for one it holds.
#[test]
fn a_reopened_store_still_proves_absence() {
    let platform = Platform::with_seed(CostModel::no_sgx(), Some(0xF1_73E));
    let authority = Arc::new(SessionAuthority::new());
    let dir = scratch_dir("runtime");
    let open = || {
        let backend = Arc::new(LogBackend::new(LogConfig::new(&dir)));
        Arc::new(ResultStore::open(&platform, StoreConfig::default(), backend).unwrap().0)
    };
    let runtime = |store: &Arc<ResultStore>, app: &[u8]| {
        let mut library = TrustedLibrary::new("lib", "1");
        library.register("f()", b"copy");
        let rt = DedupRuntime::builder(Arc::clone(&platform), app)
            .in_process_store(Arc::clone(store), Arc::clone(&authority))
            .trusted_library(library)
            .prefilter(PrefilterConfig::default())
            .build()
            .unwrap();
        let identity = rt.resolve(&FuncDesc::new("lib", "1", "f()")).unwrap();
        (rt, identity)
    };
    let copy = |input: &[u8]| input.to_vec();

    let store = open();
    let (rt, identity) = runtime(&store, b"before-restart");
    for n in 0..20u8 {
        let (_, outcome) = rt.execute_raw(&identity, &[n; 64], copy).unwrap();
        assert_eq!(outcome, DedupOutcome::MissFiltered, "input {n} on a fresh store");
    }
    drop((rt, store));

    let store = open();
    assert_eq!(store.stats().entries, 20);
    let (rt, identity) = runtime(&store, b"after-restart");
    let (_, outcome) = rt.execute_raw(&identity, &[200; 64], copy).unwrap();
    assert_eq!(outcome, DedupOutcome::MissFiltered, "an unseen input after the reopen");
    assert_eq!(store.stats().gets, 0, "a filter-proven miss makes no GET");
    let (result, outcome) =
        rt.execute_raw(&identity, &[3; 64], |_| panic!("the store holds it")).unwrap();
    assert_eq!((result.as_ref(), outcome), (&[3u8; 64][..], DedupOutcome::Hit));
    drop((rt, store));
    let _ = std::fs::remove_dir_all(&dir);
}
