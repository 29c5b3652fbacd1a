//! Durability cost and recovery — the log-structured store backend
//! (`repro persist`, `BENCH_persist.json`).
//!
//! Two questions, one phase each:
//!
//! 1. **Append throughput**: what does durability cost on the PUT path?
//!    The same PUT stream runs against the in-memory backend, the log
//!    backend with fsync off (group-commit bytes without the disk
//!    barrier), and the log backend with fsync on (the production
//!    configuration: WAL, then acknowledge).
//! 2. **Recovery time against WAL length**: replay cost grows with the
//!    WAL, and a checkpoint bounds it. Stores are reopened behind WALs of
//!    increasing length, then the longest one is checkpointed and reopened
//!    with nothing to replay.

use std::path::PathBuf;
use std::sync::Arc;

use speed_enclave::{CostModel, Platform};
use speed_store::{LogBackend, LogConfig, ResultStore, StoreConfig};
use speed_wire::{AppId, BatchItem, BatchStatus};

use crate::harness::measure;
use crate::report::{self, bench_record, bench_tag, list, num, obj, text};

const RECORD_LEN: usize = 256;

/// One shard, no quota, room for every entry.
fn store_config() -> StoreConfig {
    StoreConfig::with_capacity(1_000_000, u64::MAX)
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("speed-persist-bench-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn log_store(platform: &Arc<Platform>, config: LogConfig) -> ResultStore {
    let backend = Arc::new(LogBackend::new(config));
    ResultStore::open(platform, store_config(), backend).expect("open").0
}

/// Sends `puts` one-item PUT batches and checks each is accepted.
fn put_all(store: &ResultStore, puts: u64) {
    for i in 0..puts {
        let item = BatchItem::Put {
            tag: bench_tag(i),
            record: bench_record(RECORD_LEN, (i % 251) as u8),
        };
        let response = store.handle(report::one(AppId(1), item));
        assert_eq!(
            report::status(&response),
            Some(BatchStatus::Accepted),
            "PUT {i} rejected: {response:?}"
        );
    }
}

/// Times `puts` PUTs on `store` and renders the throughput point.
fn throughput(
    platform: &Platform,
    backend: &str,
    store: &ResultStore,
    puts: u64,
) -> String {
    let ((), timing) = measure(platform, || put_all(store, puts));
    let puts_per_sec = puts as f64 / timing.wall.as_secs_f64().max(1e-9);
    println!(
        "  {backend:<12} {puts:>7} puts  {:>10.1} ms  {puts_per_sec:>10.0} puts/s",
        timing.wall.as_secs_f64() * 1e3
    );
    let [wall, modeled] = report::timed_ms(timing);
    obj(&[
        ("backend", text(backend)),
        ("puts", puts.to_string()),
        wall,
        modeled,
        ("puts_per_sec", num(puts_per_sec.round())),
        ("payload_mb_per_sec", num(puts_per_sec * RECORD_LEN as f64 / 1e6)),
    ])
}

/// Builds a store with `puts` WAL records (checkpointed at the end if
/// `checkpoint`), drops it, reopens it, and renders the recovery pass.
fn recovery_point(platform: &Arc<Platform>, puts: u64, checkpoint: bool) -> String {
    let dir = scratch(&format!("rec-{puts}-{checkpoint}"));
    {
        let store = log_store(
            platform,
            LogConfig { checkpoint_every: 0, ..LogConfig::new(&dir) },
        );
        put_all(&store, puts);
        if checkpoint {
            store.checkpoint().expect("checkpoint");
        }
    }
    let ((store, recovery), timing) = measure(platform, || {
        let backend = Arc::new(LogBackend::new(LogConfig::new(&dir)));
        ResultStore::open(platform, store_config(), backend).expect("reopen")
    });
    let entries = store.stats().entries;
    assert_eq!(entries, puts, "recovery lost entries");
    if checkpoint {
        assert_eq!(
            recovery.wal_records_replayed, 0,
            "a checkpoint bounds replay to zero"
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "  recovery: {puts:>6} records{}  {:>9.2} ms  ({} replayed)",
        if checkpoint { " +ckpt" } else { "      " },
        recovery.duration_ns as f64 / 1e6,
        recovery.wal_records_replayed,
    );
    let [wall, modeled] = report::timed_ms(timing);
    obj(&[
        ("wal_records", puts.to_string()),
        ("checkpointed", checkpoint.to_string()),
        wall,
        modeled,
        ("recovery_ms", num(recovery.duration_ns as f64 / 1e6)),
        ("replayed_records", recovery.wal_records_replayed.to_string()),
        ("entries", entries.to_string()),
    ])
}

/// Runs the bench and writes `BENCH_persist.json`.
pub fn run(smoke: bool) {
    // A durable store reopens only under the same sealing identity.
    let platform = Platform::with_seed(CostModel::default_sgx(), Some(0xBE_7C4));
    let durable_puts: u64 = if smoke { 300 } else { 3_000 };
    let wal_lengths: &[u64] =
        if smoke { &[100, 200, 400] } else { &[500, 1_000, 2_000, 4_000] };
    println!(
        "persist bench: {durable_puts} PUTs of {RECORD_LEN} B{}",
        if smoke { " [smoke]" } else { "" }
    );

    let memory = ResultStore::new(&platform, store_config()).expect("store");
    let mut appends = vec![throughput(&platform, "memory", &memory, durable_puts)];
    for (backend, fsync) in [("log_nofsync", false), ("log_fsync", true)] {
        let dir = scratch(backend);
        let config = LogConfig { fsync, checkpoint_every: 0, ..LogConfig::new(&dir) };
        let store = log_store(&platform, config);
        appends.push(throughput(&platform, backend, &store, durable_puts));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut recovery: Vec<String> =
        wal_lengths.iter().map(|&n| recovery_point(&platform, n, false)).collect();
    let longest = wal_lengths[wal_lengths.len() - 1];
    recovery.push(recovery_point(&platform, longest, true));

    report::write(
        "persist",
        smoke,
        &[
            (
                "config",
                obj(&[
                    ("record_bytes", RECORD_LEN.to_string()),
                    ("durable_puts", durable_puts.to_string()),
                ]),
            ),
            ("append_throughput", list(appends)),
            ("recovery", list(recovery)),
        ],
    )
}
