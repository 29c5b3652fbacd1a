//! Telemetry integration: the process-global registry observes a dedup
//! workload end to end, the snapshot is served over the wire protocol in
//! both exposition formats, and `docs/METRICS.md` documents every metric
//! name the code can emit.
//!
//! All tests in this binary share one process-global registry, so workload
//! assertions are written as monotonic deltas (`after >= before + n`)
//! rather than exact values.

use std::sync::Arc;

use speed_core::{DedupOutcome, DedupRuntime, FuncDesc, HotCacheConfig, TrustedLibrary};
use speed_enclave::{CostModel, Platform};
use speed_store::server::{StoreServer, TcpStoreClient};
use speed_store::{ResultStore, StoreConfig};
use speed_telemetry::{names, MetricValue, TelemetrySnapshot};
use speed_wire::{AppId, CompTag, Message, MetricsFormat, Record, SessionAuthority};

fn world() -> (Arc<Platform>, Arc<ResultStore>, Arc<SessionAuthority>) {
    let platform = Platform::new(CostModel::default_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::with_seed(7));
    (platform, store, authority)
}

fn library() -> TrustedLibrary {
    let mut lib = TrustedLibrary::new("telemetrylib", "1.0");
    lib.register("bytes echo(bytes)", b"echo code");
    lib
}

fn desc() -> FuncDesc {
    FuncDesc::new("telemetrylib", "1.0", "bytes echo(bytes)")
}

fn snapshot() -> TelemetrySnapshot {
    speed_telemetry::global().snapshot()
}

/// Sum of a counter/gauge across all label combinations, 0 when absent.
fn total(name: &str) -> u64 {
    snapshot().scalar_sum(name)
}

#[test]
fn dedup_hit_workload_moves_global_counters() {
    let (platform, store, authority) = world();
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"telemetry-app")
        .in_process_store(Arc::clone(&store), Arc::clone(&authority))
        .trusted_library(library())
        .build()
        .unwrap();

    let calls_before = total(names::DEDUP_CALLS_TOTAL);
    let hits_before = total(names::DEDUP_HITS_TOTAL);
    let misses_before = total(names::DEDUP_MISSES_TOTAL);
    let store_puts_before = total(names::STORE_PUTS_TOTAL);

    let (_, outcome) = rt.execute(&desc(), b"input-a", |i| i.to_vec()).unwrap();
    assert_eq!(outcome, DedupOutcome::Miss);
    for _ in 0..3 {
        let (_, outcome) =
            rt.execute(&desc(), b"input-a", |_| panic!("deduped")).unwrap();
        assert_eq!(outcome, DedupOutcome::Hit);
    }

    assert!(total(names::DEDUP_CALLS_TOTAL) >= calls_before + 4);
    assert!(total(names::DEDUP_HITS_TOTAL) >= hits_before + 3);
    assert!(total(names::DEDUP_MISSES_TOTAL) > misses_before);
    assert!(total(names::STORE_PUTS_TOTAL) > store_puts_before);
    // The span around each call observed at least the 4 calls above.
    let snap = snapshot();
    let call_hist = snap
        .metrics
        .iter()
        .find(|m| m.name == names::DEDUP_CALL_DURATION_NS)
        .expect("call-duration histogram registered");
    match &call_hist.value {
        speed_telemetry::MetricValue::Histogram { count, .. } => assert!(*count >= 4),
        other => panic!("expected histogram, got {other:?}"),
    }
}

#[test]
fn hot_cache_serves_count_and_skip_transitions() {
    let (platform, store, authority) = world();
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"telemetry-cache-app")
        .in_process_store(Arc::clone(&store), Arc::clone(&authority))
        .trusted_library(library())
        .hot_cache(HotCacheConfig::default())
        .build()
        .unwrap();

    let (_, outcome) = rt.execute(&desc(), b"warm-me", |i| i.to_vec()).unwrap();
    assert_eq!(outcome, DedupOutcome::Miss);

    let cache_hits_before = total(names::DEDUP_CACHE_HITS_TOTAL);
    let enclave_before = rt.enclave().stats();
    let store_gets_before = store.stats().gets;

    let (_, outcome) = rt.execute(&desc(), b"warm-me", |_| panic!("cached")).unwrap();
    assert_eq!(outcome, DedupOutcome::HitLocalCache);

    // The cached serve is visible in the global registry...
    assert!(total(names::DEDUP_CACHE_HITS_TOTAL) > cache_hits_before);
    // ...and cost zero OCALLs and zero store traffic: the per-enclave
    // counters (race-free, unlike the process-global ones) show only the
    // single dedup ECALL.
    let enclave_after = rt.enclave().stats();
    assert_eq!(enclave_after.ocalls, enclave_before.ocalls);
    assert_eq!(enclave_after.ecalls, enclave_before.ecalls + 1);
    assert_eq!(store.stats().gets, store_gets_before);
}

#[test]
fn metrics_request_roundtrips_in_both_formats() {
    let (platform, store, authority) = world();
    let server = StoreServer::spawn(
        Arc::clone(&store),
        Arc::clone(&platform),
        Arc::clone(&authority),
        "127.0.0.1:0",
    )
    .unwrap();
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"telemetry-tcp-app")
        .tcp_store(server.addr(), Arc::clone(&authority))
        .trusted_library(library())
        .build()
        .unwrap();
    let (_, first) = rt.execute(&desc(), b"wire-input", |i| i.to_vec()).unwrap();
    assert_eq!(first, DedupOutcome::Miss);
    let (_, second) = rt.execute(&desc(), b"wire-input", |_| panic!("hit")).unwrap();
    assert_eq!(second, DedupOutcome::Hit);

    let enclave = platform.create_enclave(b"metrics-scraper").unwrap();
    let mut client =
        TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority).unwrap();

    // Prometheus text: well-formed lines, required families present.
    let response = client
        .roundtrip(&Message::MetricsRequest { format: MetricsFormat::Prometheus })
        .unwrap();
    let text = match response {
        Message::MetricsResponse(text) => text,
        other => panic!("unexpected response {other:?}"),
    };
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "malformed comment line: {line}"
            );
            continue;
        }
        let (series, value) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("malformed line: {line}"));
        assert!(!series.is_empty());
        assert!(value.parse::<u64>().is_ok(), "non-numeric value in: {line}");
    }
    for family in [
        names::ENCLAVE_TRANSITIONS_TOTAL,
        names::DEDUP_HITS_TOTAL,
        names::DEDUP_MISSES_TOTAL,
        names::STORE_GETS_TOTAL,
        names::STORE_SHARD_ENTRIES,
        names::SERVER_CONNECTIONS_ACTIVE,
    ] {
        assert!(text.contains(&format!("# TYPE {family} ")), "missing {family}");
    }
    assert!(
        text.contains(&format!("{}{{kind=\"ecall\"}}", names::ENCLAVE_TRANSITIONS_TOTAL)),
        "transition counter must be labelled by kind"
    );
    assert!(text.contains("shard=\"0\""), "per-shard series must be labelled");
    assert!(text.contains("_bucket{le=\"+Inf\"}"), "at least one histogram rendered");

    // JSONL: one object per line, same families present.
    let response = client
        .roundtrip(&Message::MetricsRequest { format: MetricsFormat::Jsonl })
        .unwrap();
    let jsonl = match response {
        Message::MetricsResponse(text) => text,
        other => panic!("unexpected response {other:?}"),
    };
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"name\":"), "malformed jsonl line: {line}");
        assert!(line.ends_with('}'), "malformed jsonl line: {line}");
        assert!(line.contains("\"type\":"), "missing type in: {line}");
        assert!(line.contains("\"labels\":{"), "missing labels in: {line}");
    }
    assert!(jsonl.contains(&format!("\"name\":\"{}\"", names::DEDUP_HITS_TOTAL)));
    assert!(jsonl.contains(&format!("\"name\":\"{}\"", names::ENCLAVE_TRANSITIONS_TOTAL)));
    assert!(jsonl.contains("\"type\":\"histogram\""));
    assert!(jsonl.contains("\"buckets\":["));

    server.shutdown();
}

/// A second store in the process must not lower the counter series of the
/// first: a counter series sums every store's cell, and syncing a store
/// only sets gauges.
#[test]
fn a_second_store_never_lowers_shard_counters() {
    let platform = Platform::new(CostModel::default_sgx());
    let a = ResultStore::new(&platform, StoreConfig::with_capacity(2, u64::MAX)).unwrap();
    for n in 0..5u8 {
        let record = Record {
            challenge: vec![n; 32],
            wrapped_key: [n; 16],
            nonce: [n; 12],
            boxed_result: vec![n; 40],
        };
        a.handle(Message::PutRequest {
            app: AppId(1),
            tag: CompTag::from_bytes([n; 32]),
            record,
        });
    }
    assert_eq!(a.evictions(), 3);
    a.sync_telemetry();
    let b = ResultStore::new(&platform, StoreConfig::default()).unwrap();
    b.sync_telemetry();

    let shard_zero = snapshot()
        .metrics
        .into_iter()
        .find(|m| {
            m.name == names::STORE_SHARD_EVICTIONS_TOTAL
                && m.labels == [("shard".to_string(), "0".to_string())]
        })
        .map(|m| m.value);
    let Some(MetricValue::Counter(evictions)) = shard_zero else {
        panic!("shard 0 eviction counter missing: {shard_zero:?}");
    };
    assert!(evictions >= a.evictions(), "{evictions} < {}", a.evictions());
}

#[test]
fn metrics_docs_cover_every_name() {
    let docs =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/METRICS.md"))
            .expect("docs/METRICS.md exists");
    let missing: Vec<&str> = names::ALL
        .iter()
        .copied()
        .filter(|name| !docs.contains(&format!("`{name}`")))
        .collect();
    assert!(missing.is_empty(), "metric names missing from docs/METRICS.md: {missing:?}");
}
