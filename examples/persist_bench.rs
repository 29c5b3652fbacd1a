//! Benchmarks the crash-safe log-structured store backend and emits
//! `BENCH_persist.json`.
//!
//! Two questions, one phase each:
//!
//! 1. **Append throughput** — what does durability cost on the PUT path?
//!    The same PUT stream runs against the in-memory backend, the log
//!    backend with fsync disabled (group-commit bytes without the disk
//!    barrier), and the log backend with fsync on (the production
//!    configuration: WAL-then-ack).
//! 2. **Recovery time vs WAL length** — replay cost grows with the WAL,
//!    and a checkpoint bounds it. The bench reopens stores behind WALs of
//!    increasing length, then checkpoints the longest one and shows the
//!    reopen time collapsing.
//!
//! ```text
//! cargo run --release --example persist_bench            # full run
//! cargo run --release --example persist_bench -- --smoke # CI smoke run
//! ```

use std::sync::Arc;
use std::time::Instant;

use speed_enclave::{CostModel, Platform};
use speed_store::{LogBackend, LogConfig, QuotaPolicy, ResultStore, StoreConfig};
use speed_wire::{AppId, CompTag, Message, Record};

const RECORD_LEN: usize = 256;

fn tag(i: u64) -> CompTag {
    let mut bytes = [0u8; 32];
    bytes[0] = (i % 251) as u8; // spread across store shards
    bytes[1..9].copy_from_slice(&i.to_le_bytes());
    CompTag::from_bytes(bytes)
}

fn record(i: u64) -> Record {
    Record {
        challenge: vec![0u8; 32],
        wrapped_key: [0u8; 16],
        nonce: [0u8; 12],
        boxed_result: vec![(i % 251) as u8; RECORD_LEN],
    }
}

fn store_config() -> StoreConfig {
    let mut config = StoreConfig::with_capacity(1_000_000, u64::MAX);
    config.quota = QuotaPolicy::unlimited();
    config
}

fn scratch(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("speed-persist-bench-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Throughput {
    backend: &'static str,
    puts: u64,
    wall_ms: f64,
}

impl Throughput {
    fn puts_per_sec(&self) -> f64 {
        self.puts as f64 / (self.wall_ms / 1e3).max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\"backend\": \"{}\", \"puts\": {}, \"wall_ms\": {:.3}, ",
                "\"puts_per_sec\": {:.0}, \"payload_mb_per_sec\": {:.2}}}"
            ),
            self.backend,
            self.puts,
            self.wall_ms,
            self.puts_per_sec(),
            self.puts_per_sec() * RECORD_LEN as f64 / 1e6,
        )
    }
}

fn bench_puts(platform: &Arc<Platform>, store: &ResultStore, puts: u64) -> f64 {
    let start = Instant::now();
    for i in 0..puts {
        let response = store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(i),
            record: record(i),
        });
        assert!(
            matches!(&response, Message::PutResponse(b) if b.accepted),
            "PUT {i} rejected: {response:?}"
        );
    }
    let _ = platform; // platform kept alive for the store's lifetime
    start.elapsed().as_secs_f64() * 1e3
}

struct RecoveryPoint {
    wal_records: u64,
    checkpointed: bool,
    recovery_ms: f64,
    replayed: u64,
    entries: u64,
}

impl RecoveryPoint {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\"wal_records\": {}, \"checkpointed\": {}, ",
                "\"recovery_ms\": {:.3}, \"replayed_records\": {}, \"entries\": {}}}"
            ),
            self.wal_records,
            self.checkpointed,
            self.recovery_ms,
            self.replayed,
            self.entries,
        )
    }
}

/// Builds a store with `puts` WAL records (optionally checkpointing at the
/// end), drops it, reopens it, and reports the recovery pass.
fn recovery_point(
    platform: &Arc<Platform>,
    label: &str,
    puts: u64,
    checkpoint: bool,
) -> RecoveryPoint {
    let dir = scratch(label);
    {
        let backend = Arc::new(LogBackend::new(LogConfig {
            checkpoint_every: 0,
            ..LogConfig::new(&dir)
        }));
        let (store, _) =
            ResultStore::open(platform, store_config(), backend).expect("open");
        for i in 0..puts {
            store.handle(Message::PutRequest {
                app: AppId(1),
                tag: tag(i),
                record: record(i),
            });
        }
        if checkpoint {
            store.checkpoint().expect("checkpoint");
        }
    }
    let backend = Arc::new(LogBackend::new(LogConfig::new(&dir)));
    let (store, report) =
        ResultStore::open(platform, store_config(), backend).expect("reopen");
    let point = RecoveryPoint {
        wal_records: puts,
        checkpointed: checkpoint,
        recovery_ms: report.duration_ns as f64 / 1e6,
        replayed: report.wal_records_replayed,
        entries: store.stats().entries,
    };
    assert_eq!(point.entries, puts, "recovery lost entries");
    let _ = std::fs::remove_dir_all(&dir);
    point
}

fn main() -> std::io::Result<()> {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    // Durable recovery requires the same sealing identity across reopens.
    let platform = Platform::with_seed(CostModel::no_sgx(), Some(0xBE_7C4));

    let durable_puts: u64 = if smoke { 300 } else { 3_000 };
    let wal_lengths: &[u64] =
        if smoke { &[100, 200, 400] } else { &[500, 1_000, 2_000, 4_000] };

    println!(
        "persist bench: {durable_puts} PUTs of {RECORD_LEN} B{}",
        if smoke { " [smoke]" } else { "" }
    );

    // ---- Phase 1: append throughput ------------------------------------
    let mut throughputs = Vec::new();
    {
        let store = ResultStore::new(platform.as_ref(), store_config()).expect("store");
        let wall_ms = bench_puts(&platform, &store, durable_puts);
        throughputs.push(Throughput { backend: "memory", puts: durable_puts, wall_ms });
    }
    for (name, fsync) in [("log_nofsync", false), ("log_fsync", true)] {
        let dir = scratch(name);
        let backend = Arc::new(LogBackend::new(LogConfig {
            fsync,
            checkpoint_every: 0,
            ..LogConfig::new(&dir)
        }));
        let (store, _) =
            ResultStore::open(&platform, store_config(), backend).expect("open");
        let wall_ms = bench_puts(&platform, &store, durable_puts);
        throughputs.push(Throughput { backend: name, puts: durable_puts, wall_ms });
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    for t in &throughputs {
        println!(
            "  {:<12} {:>7} puts  {:>10.1} ms  {:>10.0} puts/s",
            t.backend,
            t.puts,
            t.wall_ms,
            t.puts_per_sec()
        );
    }

    // ---- Phase 2: recovery time vs WAL length --------------------------
    let mut recovery = Vec::new();
    for &n in wal_lengths {
        recovery.push(recovery_point(&platform, &format!("rec-{n}"), n, false));
    }
    // Checkpoint the longest WAL: replay collapses to zero records.
    let longest = *wal_lengths.last().expect("non-empty");
    recovery.push(recovery_point(&platform, "rec-ckpt", longest, true));
    for p in &recovery {
        println!(
            "  recovery: {:>6} records{}  {:>9.2} ms  ({} replayed)",
            p.wal_records,
            if p.checkpointed { " +ckpt" } else { "      " },
            p.recovery_ms,
            p.replayed,
        );
    }
    let bounded = recovery.last().expect("checkpoint point");
    assert_eq!(bounded.replayed, 0, "checkpoint must bound replay to zero");

    // ---- Emit ----------------------------------------------------------
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"persist\",\n",
            "  \"config\": {{\"record_len\": {}, \"durable_puts\": {}, \"smoke\": {}}},\n",
            "  \"append_throughput\": [\n{}\n  ],\n",
            "  \"recovery\": [\n{}\n  ]\n",
            "}}\n"
        ),
        RECORD_LEN,
        durable_puts,
        smoke,
        throughputs.iter().map(Throughput::to_json).collect::<Vec<_>>().join(",\n"),
        recovery.iter().map(RecoveryPoint::to_json).collect::<Vec<_>>().join(",\n"),
    );
    std::fs::write("BENCH_persist.json", &json)?;
    println!("wrote BENCH_persist.json");
    std::fs::write(
        "BENCH_persist.telemetry.jsonl",
        speed_telemetry::global().snapshot().render_jsonl(),
    )?;
    println!("wrote BENCH_persist.telemetry.jsonl");
    Ok(())
}
