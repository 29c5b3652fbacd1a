//! Concurrency stress tests for the sharded `ResultStore`.
//!
//! The dictionary is partitioned into lock shards routed by tag prefix;
//! these tests drive a mixed GET/PUT/batch workload from many threads and
//! check the invariants that sharding must not break: no entry is lost, the
//! byte accounting balances exactly, and eviction stays within each shard's
//! budget slice.

use std::sync::Arc;

use speed_enclave::{CostModel, Platform};
use speed_store::{QuotaPolicy, ResultStore, StoreConfig};
use speed_wire::{AppId, BatchItem, BatchStatus, CompTag, Message, Record};

fn tag(thread: u8, i: u16) -> CompTag {
    // Leading byte spreads tags across shards; the rest keeps tags unique
    // per (thread, i).
    let mut bytes = [0u8; 32];
    bytes[0] = (i % 251) as u8;
    bytes[1] = thread;
    bytes[2..4].copy_from_slice(&i.to_le_bytes());
    CompTag::from_bytes(bytes)
}

fn record(fill: u8, len: usize) -> Record {
    Record {
        challenge: vec![fill; 32],
        wrapped_key: [fill; 16],
        nonce: [fill; 12],
        boxed_result: vec![fill; len],
    }
}

const THREADS: u8 = 8;
const DIRECT_PUTS: u16 = 40;
const BATCHES: u16 = 10;
const BATCH_PUTS: u16 = 4;
const RECORD_LEN: usize = 64;

/// 8 threads hammer the store with direct PUTs, direct GETs, and mixed
/// batches. Every entry written must be retrievable afterwards and the
/// aggregate byte accounting must balance to the exact total.
#[test]
fn concurrent_mixed_workload_loses_nothing() {
    let platform = Platform::new(CostModel::default_sgx());
    let config =
        StoreConfig { quota: QuotaPolicy::unlimited(), ..StoreConfig::default() };
    let store = Arc::new(ResultStore::new(&platform, config).unwrap());
    assert!(store.shard_count() > 1, "stress test needs a sharded store");

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                let app = AppId(u64::from(thread));
                // Direct PUT + immediate GET-back.
                for i in 0..DIRECT_PUTS {
                    let t = tag(thread, i);
                    let put = store.handle(Message::PutRequest {
                        app,
                        tag: t,
                        record: record(thread, RECORD_LEN),
                    });
                    assert!(
                        matches!(put, Message::PutResponse(ref b) if b.accepted),
                        "thread {thread} put {i} rejected: {put:?}"
                    );
                    let get = store.handle(Message::GetRequest { app, tag: t });
                    assert!(
                        matches!(get, Message::GetResponse(ref b) if b.found),
                        "thread {thread} lost its own entry {i}"
                    );
                }
                // Batches mixing fresh PUTs with GETs of earlier entries.
                for batch in 0..BATCHES {
                    let mut items = Vec::new();
                    for p in 0..BATCH_PUTS {
                        let i = DIRECT_PUTS + batch * BATCH_PUTS + p;
                        items.push(BatchItem::Put {
                            tag: tag(thread, i),
                            record: record(thread, RECORD_LEN),
                        });
                    }
                    items.push(BatchItem::Get { tag: tag(thread, batch) });
                    let response = store.handle(Message::BatchRequest { app, items });
                    match response {
                        Message::BatchResponse(results) => {
                            for result in &results[..BATCH_PUTS as usize] {
                                assert_eq!(result.status, BatchStatus::Accepted);
                            }
                            assert_eq!(
                                results[BATCH_PUTS as usize].status,
                                BatchStatus::Found,
                                "thread {thread} batch {batch} lost an earlier entry"
                            );
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            });
        }
    });

    let per_thread = u64::from(DIRECT_PUTS) + u64::from(BATCHES * BATCH_PUTS);
    let expected_entries = u64::from(THREADS) * per_thread;
    let stats = store.stats();
    assert_eq!(stats.entries, expected_entries, "entries lost under concurrency");
    assert_eq!(
        stats.stored_bytes,
        expected_entries * RECORD_LEN as u64,
        "byte accounting drifted under concurrency"
    );
    // Per-shard counters must sum to the aggregate exactly.
    assert_eq!(stats.shards.iter().map(|s| s.entries).sum::<u64>(), stats.entries);
    assert_eq!(
        stats.shards.iter().map(|s| s.stored_bytes).sum::<u64>(),
        stats.stored_bytes
    );
    assert_eq!(stats.evictions, 0, "capacity was sized to avoid eviction");

    // Every single entry is still retrievable.
    for thread in 0..THREADS {
        let app = AppId(u64::from(thread));
        for i in 0..(DIRECT_PUTS + BATCHES * BATCH_PUTS) {
            let get = store.handle(Message::GetRequest { app, tag: tag(thread, i) });
            match get {
                Message::GetResponse(body) => {
                    let rec = body.record.unwrap_or_else(|| {
                        panic!("thread {thread} entry {i} missing after the storm")
                    });
                    assert_eq!(rec.boxed_result, vec![thread; RECORD_LEN]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}

/// Under concurrent overload, each shard evicts against its own slice of
/// the store budget — no shard exceeds its per-shard cap, and the whole
/// store converges to at most the configured maximum.
#[test]
fn eviction_budgets_hold_under_concurrent_pressure() {
    let platform = Platform::new(CostModel::default_sgx());
    let shards = 4usize;
    let max_entries = 32usize; // 8 per shard
    let config = StoreConfig {
        max_entries,
        max_stored_bytes: u64::MAX,
        quota: QuotaPolicy::unlimited(),
        access: speed_store::AccessControl::Open,
        shards,
    };
    let store = Arc::new(ResultStore::new(&platform, config).unwrap());
    let per_shard_budget = max_entries.div_ceil(shards) as u64;

    // 8 threads push 4x the total capacity.
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                let app = AppId(u64::from(thread));
                for i in 0..(max_entries as u16 / 2) {
                    store.handle(Message::PutRequest {
                        app,
                        tag: tag(thread, i),
                        record: record(thread, 16),
                    });
                }
            });
        }
    });

    let stats = store.stats();
    assert!(stats.evictions > 0, "overload must trigger eviction");
    assert!(
        stats.entries <= max_entries as u64,
        "store exceeded its entry budget: {}",
        stats.entries
    );
    for (index, shard) in stats.shards.iter().enumerate() {
        assert!(
            shard.entries <= per_shard_budget,
            "shard {index} exceeded its budget slice: {} > {per_shard_budget}",
            shard.entries
        );
    }
    // Quota accounting survived the eviction storm: evicted entries were
    // refunded, so every thread can still PUT.
    for thread in 0..THREADS {
        let response = store.handle(Message::PutRequest {
            app: AppId(u64::from(thread)),
            tag: tag(thread, 9999),
            record: record(thread, 16),
        });
        assert!(matches!(response, Message::PutResponse(ref b) if b.accepted));
    }
}
