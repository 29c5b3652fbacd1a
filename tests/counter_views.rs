//! Equivalence guard for the stats views: every field of `RuntimeStats`,
//! `EnclaveStats`, `StatsBody`, `ServerStats` and `BackendStats` that counts
//! an event equals the process-wide registry series counting the same event.
//!
//! The binary holds a single test, so the global registry sees only the
//! instances it builds: one `ResultStore` on a `LogBackend`, one
//! `StoreServer`, and one runtime with the hot cache and the negative-filter
//! tier over TCP.

use std::sync::Arc;

use speed_core::{
    DedupOutcome, DedupRuntime, FuncDesc, HotCacheConfig, PrefilterConfig, TrustedLibrary,
};
use speed_enclave::{CostModel, EnclaveStats, Platform};
use speed_store::server::StoreServer;
use speed_store::{LogBackend, LogConfig, ResultStore, StoreBackend, StoreConfig};
use speed_telemetry::{names, MetricValue, TelemetrySnapshot};
use speed_testkit::TestRng;
use speed_wire::SessionAuthority;

/// One labelled series of a counter, 0 when absent.
fn labelled(snapshot: &TelemetrySnapshot, name: &str, label: (&str, &str)) -> u64 {
    snapshot
        .metrics
        .iter()
        .filter(|m| m.name == name)
        .filter(|m| m.labels.iter().any(|(k, v)| k == label.0 && v == label.1))
        .map(|m| match m.value {
            MetricValue::Counter(v) => v,
            ref other => panic!("{name} is not a counter: {other:?}"),
        })
        .sum()
}

#[test]
fn every_stats_view_field_equals_its_registry_series() {
    let dir =
        std::env::temp_dir().join(format!("speed-counter-views-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let platform = Platform::new(CostModel::default_sgx());
    let backend = Arc::new(LogBackend::new(LogConfig::new(&dir)));
    // Three entries per shard, so the workload below also evicts.
    let config = StoreConfig { max_entries: 24, ..StoreConfig::default() };
    let (store, _) =
        ResultStore::open(&platform, config, Arc::clone(&backend) as _).unwrap();
    let store = Arc::new(store);
    let authority = Arc::new(SessionAuthority::with_seed(11));
    let server = StoreServer::spawn(
        Arc::clone(&store),
        Arc::clone(&platform),
        Arc::clone(&authority),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut library = TrustedLibrary::new("viewlib", "1.0");
    library.register("bytes echo(bytes)", b"echo code");
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"counter-views-app")
        .tcp_store(server.addr(), Arc::clone(&authority))
        .trusted_library(library)
        .hot_cache(HotCacheConfig { max_entries: 4, ..HotCacheConfig::default() })
        .prefilter(PrefilterConfig { refresh_ops: 8 })
        .build()
        .unwrap();
    let desc = FuncDesc::new("viewlib", "1.0", "bytes echo(bytes)");

    let mut rng = TestRng::new(0x5eed_c0de);
    for _ in 0..400 {
        let input = rng.range_u64(0, 48).to_le_bytes();
        let (result, outcome) = rt.execute(&desc, &input, |i| i.to_vec()).unwrap();
        assert_eq!(&result[..], &input[..], "{outcome:?}");
    }
    let (_, outcome) = rt.execute(&desc, b"fresh", |i| i.to_vec()).unwrap();
    assert_eq!(outcome, DedupOutcome::MissFiltered);

    store.sync_telemetry();
    let snapshot = speed_telemetry::global().snapshot();
    let series = |name: &str| snapshot.scalar_sum(name);

    let runtime = rt.stats();
    for (what, count) in [
        ("calls", runtime.calls),
        ("hits", runtime.hits),
        ("misses", runtime.misses),
        ("cache hits", runtime.cache_hits),
        ("filter-proven misses", runtime.filtered_misses),
    ] {
        assert!(count > 0, "the workload must produce {what}");
    }
    assert_eq!(runtime.calls, series(names::DEDUP_CALLS_TOTAL));
    assert_eq!(runtime.hits, series(names::DEDUP_HITS_TOTAL));
    assert_eq!(runtime.misses, series(names::DEDUP_MISSES_TOTAL));
    assert_eq!(runtime.verify_failures, series(names::DEDUP_VERIFY_FAILURES_TOTAL));
    assert_eq!(runtime.rejected_puts, series(names::DEDUP_REJECTED_PUTS_TOTAL));
    assert_eq!(runtime.reused_bytes, series(names::DEDUP_REUSED_BYTES_TOTAL));
    assert_eq!(runtime.degraded_calls, series(names::DEDUP_DEGRADED_CALLS_TOTAL));
    assert_eq!(runtime.cache_hits, series(names::DEDUP_CACHE_HITS_TOTAL));
    assert_eq!(runtime.cache_misses, series(names::DEDUP_CACHE_MISSES_TOTAL));
    assert_eq!(runtime.filtered_misses, series(names::DEDUP_FILTERED_MISSES_TOTAL));

    let (a, b) = (rt.enclave().stats(), store.enclave().stats());
    let enclaves = EnclaveStats {
        ecalls: a.ecalls + b.ecalls,
        ocalls: a.ocalls + b.ocalls,
        switchless_calls: a.switchless_calls + b.switchless_calls,
        boundary_bytes: a.boundary_bytes + b.boundary_bytes,
        charged_ns: a.charged_ns + b.charged_ns,
    };
    assert!(enclaves.ecalls > 0 && enclaves.ocalls > 0);
    let transitions = names::ENCLAVE_TRANSITIONS_TOTAL;
    assert_eq!(enclaves.ecalls, labelled(&snapshot, transitions, ("kind", "ecall")));
    assert_eq!(enclaves.ocalls, labelled(&snapshot, transitions, ("kind", "ocall")));
    assert_eq!(enclaves.transitions(), series(transitions));
    assert_eq!(enclaves.switchless_calls, series(names::ENCLAVE_SWITCHLESS_CALLS_TOTAL));
    assert_eq!(enclaves.boundary_bytes, series(names::ENCLAVE_BOUNDARY_BYTES_TOTAL));
    assert_eq!(enclaves.charged_ns, series(names::ENCLAVE_CHARGED_NS_TOTAL));

    let body = store.stats();
    assert!(body.gets > 0 && body.puts > 0);
    assert_eq!(body.gets, series(names::STORE_GETS_TOTAL));
    assert_eq!(body.hits, series(names::STORE_HITS_TOTAL));
    assert_eq!(body.puts, series(names::STORE_PUTS_TOTAL));
    assert_eq!(body.rejected_puts, series(names::STORE_REJECTED_PUTS_TOTAL));
    let per_shard = |field: fn(&speed_wire::ShardStatsBody) -> u64| {
        body.shards.iter().map(field).sum::<u64>()
    };
    assert!(per_shard(|s| s.evictions) > 0, "the workload must evict");
    assert_eq!(per_shard(|s| s.evictions), series(names::STORE_SHARD_EVICTIONS_TOTAL));
    assert_eq!(
        per_shard(|s| s.lock_contention),
        series(names::STORE_SHARD_LOCK_CONTENTION_TOTAL)
    );
    assert_eq!(per_shard(|s| s.busy_ns), series(names::STORE_SHARD_BUSY_NS_TOTAL));

    let served = server.stats();
    assert!(served.switchless_requests > 0);
    assert_eq!(served.accepted, series(names::SERVER_CONNECTIONS_ACCEPTED_TOTAL));
    assert_eq!(served.rejected, series(names::SERVER_CONNECTIONS_REJECTED_TOTAL));
    assert_eq!(served.protocol_errors, series(names::SERVER_PROTOCOL_ERRORS_TOTAL));
    assert_eq!(served.frame_timeouts, series(names::SERVER_FRAME_TIMEOUTS_TOTAL));
    assert_eq!(served.switchless_requests, series(names::SWITCHLESS_REQUESTS_TOTAL));
    assert_eq!(served.switchless_fallbacks, series(names::SWITCHLESS_FALLBACKS_TOTAL));

    let wal = backend.stats();
    assert!(wal.appended_records > 0);
    assert_eq!(wal.appended_records, series(names::STORE_WAL_APPENDS_TOTAL));
    assert_eq!(wal.appended_bytes, series(names::STORE_WAL_APPENDED_BYTES_TOTAL));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
