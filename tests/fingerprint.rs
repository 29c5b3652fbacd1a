//! A hot-cache hit runs no SHA-256: the hot cache is keyed by the secret
//! fingerprint `fp = E_K(GHASH_H(func, m))`, and only a call that reaches
//! the store derives the digest and the comp-tag — unless the hot cache
//! remembers the computation without its result, and hands over the digest
//! with the record of its last store hit, which the call opens without a
//! store GET. A `lookup` that the negative filter proves absent runs one
//! fingerprint for its hot-cache probe and one SHA-256 for the comp-tag the
//! filter is keyed by, and no store GET.
//!
//! The binary holds a single test, so the global registry's tag histograms
//! and hot-cache counters move only with the calls it makes.

use std::sync::Arc;

use speed_core::{
    DedupOutcome, DedupRuntime, FuncDesc, HotCacheConfig, PrefilterConfig, TrustedLibrary,
};
use speed_enclave::{CostModel, Platform};
use speed_store::{ResultStore, StoreConfig};
use speed_telemetry::{names, MetricValue};
use speed_wire::SessionAuthority;

/// Observations of the histogram `name` so far, 0 before it is registered.
fn observations(name: &str) -> u64 {
    let snapshot = speed_telemetry::global().snapshot();
    snapshot.metrics.iter().find(|m| m.name == name).map_or(0, |m| match m.value {
        MetricValue::Histogram { count, .. } => count,
        ref other => panic!("{name} is not a histogram: {other:?}"),
    })
}

/// The counter `name` so far, 0 before it is registered.
fn counter(name: &str) -> u64 {
    speed_telemetry::global().snapshot().scalar_sum(name)
}

/// (SHA-256 tag derivations, fingerprints) recorded so far.
fn passes() -> (u64, u64) {
    (
        observations(names::TAG_DERIVE_DURATION_NS),
        observations(names::TAG_FINGERPRINT_DURATION_NS),
    )
}

fn library() -> TrustedLibrary {
    let mut library = TrustedLibrary::new("fplib", "1.0");
    library.register("bytes reverse(bytes)", b"reverse code");
    library
}

fn reverse(input: &[u8]) -> Vec<u8> {
    input.iter().rev().copied().collect()
}

fn not_computed(_: &[u8]) -> Vec<u8> {
    panic!("a reused result runs no compute")
}

#[test]
fn a_hot_cache_hit_derives_no_tag_and_one_fingerprint() {
    let platform = Platform::new(CostModel::no_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::new());
    let runtime = |app: &[u8], cache: HotCacheConfig| {
        DedupRuntime::builder(Arc::clone(&platform), app)
            .in_process_store(Arc::clone(&store), Arc::clone(&authority))
            .trusted_library(library())
            .hot_cache(cache)
            .build()
            .unwrap()
    };
    let desc = FuncDesc::new("fplib", "1.0", "bytes reverse(bytes)");
    let input: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 7 % 251) as u8).collect();

    // A miss derives the tag for its PUT and computes fp to cache its result.
    let warm = runtime(b"warm-app", HotCacheConfig::default());
    let identity = warm.resolve(&desc).unwrap();
    let before = passes();
    let (_, outcome) = warm.execute_raw(&identity, &input, reverse).unwrap();
    assert_eq!(outcome, DedupOutcome::Miss);
    assert_eq!(passes(), (before.0 + 1, before.1 + 1), "miss");

    let before = passes();
    let (result, outcome) = warm.execute_raw(&identity, &input, not_computed).unwrap();
    assert_eq!(outcome, DedupOutcome::HitLocalCache);
    assert_eq!(result, reverse(&input));
    assert_eq!(passes(), (before.0, before.1 + 1), "a hot-cache hit runs no SHA-256");

    // Another application's first call is a store hit: one tag for the GET
    // and the RCE recovery, and one fp for both its probe and its insert.
    let other = runtime(b"other-app", HotCacheConfig::default());
    let identity = other.resolve(&desc).unwrap();
    let before = passes();
    let (result, outcome) = other.execute_raw(&identity, &input, not_computed).unwrap();
    assert_eq!(outcome, DedupOutcome::Hit);
    assert_eq!(result, reverse(&input));
    assert_eq!(passes(), (before.0 + 1, before.1 + 1), "store hit");

    // A runtime whose byte budget is below the result size never caches
    // the result, but remembers the computation by its digest and keeps
    // the store hit's record outside the enclave: its repeat opens that
    // record under the digest, with no store GET, no SHA-256 pass and one
    // fp for the probe.
    let small = runtime(
        b"small-app",
        HotCacheConfig { max_bytes: 32 * 1024, ..HotCacheConfig::default() },
    );
    let identity = small.resolve(&desc).unwrap();
    let (before, refused) = (passes(), counter(names::HOTCACHE_ADMISSIONS_REFUSED_TOTAL));
    let (_, outcome) = small.execute_raw(&identity, &input, not_computed).unwrap();
    assert_eq!(outcome, DedupOutcome::Hit);
    assert_eq!(passes(), (before.0 + 1, before.1 + 1), "first store hit");
    assert_eq!(counter(names::HOTCACHE_ADMISSIONS_REFUSED_TOTAL), refused + 1);

    let (before, reuses, record_hits, gets) = (
        passes(),
        counter(names::HOTCACHE_DIGEST_REUSES_TOTAL),
        counter(names::HOTCACHE_RECORD_HITS_TOTAL),
        store.stats().gets,
    );
    let (result, outcome) = small.execute_raw(&identity, &input, not_computed).unwrap();
    assert_eq!(outcome, DedupOutcome::HitLocalCache);
    assert_eq!(result, reverse(&input));
    assert_eq!(store.stats().gets, gets, "a kept record needs no store GET");
    assert_eq!(passes(), (before.0, before.1 + 1), "a remembered digest runs no SHA-256");
    assert_eq!(counter(names::HOTCACHE_DIGEST_REUSES_TOTAL), reuses + 1);
    assert_eq!(counter(names::HOTCACHE_RECORD_HITS_TOTAL), record_hits + 1);

    // A lookup of an input the store's negative filter proves absent runs
    // one fingerprint, for its hot-cache probe, and one SHA-256, for the
    // comp-tag the filter is keyed by, and makes no store GET.
    let filtered_store =
        Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
    let filtered = DedupRuntime::builder(Arc::clone(&platform), b"filtered-app")
        .in_process_store(Arc::clone(&filtered_store), Arc::clone(&authority))
        .trusted_library(library())
        .hot_cache(HotCacheConfig::default())
        .prefilter(PrefilterConfig::default())
        .build()
        .unwrap();
    let identity = filtered.resolve(&desc).unwrap();
    let (_, outcome) = filtered.execute_raw(&identity, &input, reverse).unwrap();
    assert_eq!(outcome, DedupOutcome::MissFiltered);
    let unseen: Vec<u8> = input.iter().map(|b| b ^ 0x5A).collect();
    let (before, skips) = (passes(), counter(names::TAG_PREFILTER_STORE_SKIPS_TOTAL));
    assert!(filtered.lookup(&identity, &unseen).unwrap().is_none());
    assert_eq!(
        passes(),
        (before.0 + 1, before.1 + 1),
        "a filter-proven lookup runs one SHA-256 and one fp"
    );
    assert_eq!(counter(names::TAG_PREFILTER_STORE_SKIPS_TOTAL), skips + 1);
    assert_eq!(filtered_store.stats().gets, 0, "and makes no store GET");
}
