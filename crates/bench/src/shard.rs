//! Shard scaling — the sharded result store against a single-lock layout
//! (`repro shard`, `BENCH_shard.json`).
//!
//! Client threads (1 → 8) drive a PUT phase then a GET phase directly
//! against a `ResultStore` built with 1 shard (the old global-lock layout)
//! and with the default shard count. Tags are uniform over the shard
//! space, so the sharded store spreads dictionary traffic across its
//! partitions.
//!
//! This repo simulates SGX (ECALL/OCALL costs accrue on a logical clock),
//! and hosts may have a single core, so raw wall-clock cannot show
//! lock-level parallelism. Instead each shard counts `busy_ns`, the real
//! nanoseconds its dictionary lock was held. The makespan for `T` client
//! threads is
//!
//! ```text
//! makespan = max(busiest_shard_busy_ns, total_busy_ns / T)
//! ```
//!
//! i.e. each shard is a serial server (its critical sections cannot
//! overlap) and `T` threads can at best divide the total critical-section
//! work. A 1-shard store serializes everything (`makespan = total`); an
//! N-shard store overlaps up to N ways. Each phase also records its wall
//! time and the platform clock's modeled time.

use speed_enclave::{CostModel, Platform};
use speed_store::{QuotaPolicy, ResultStore, StoreConfig, DEFAULT_SHARDS};
use speed_wire::{AppId, BatchItem, BatchStatus};

use crate::harness::{measure, Timing};
use crate::report::{self, bench_record, bench_tag, list, num, obj, text};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const RECORD_LEN: usize = 256;

/// One timed phase (every PUT, or every GET) of one run.
#[derive(Clone, Copy)]
struct Phase {
    ops: u64,
    timing: Timing,
    total_busy_ns: u64,
    max_shard_busy_ns: u64,
    makespan_ns: f64,
}

impl Phase {
    fn kops(&self) -> f64 {
        self.ops as f64 / (self.makespan_ns / 1e9) / 1e3
    }

    fn json(&self) -> String {
        let ms = |ns: f64| num(ns / 1e6);
        let [wall, modeled] = report::timed_ms(self.timing);
        obj(&[
            ("ops", self.ops.to_string()),
            wall,
            modeled,
            ("total_busy_ms", ms(self.total_busy_ns as f64)),
            ("max_shard_busy_ms", ms(self.max_shard_busy_ns as f64)),
            ("makespan_ms", ms(self.makespan_ns)),
            ("makespan_kops_per_sec", num(self.kops())),
        ])
    }
}

struct Run {
    shards: usize,
    threads: usize,
    put: Phase,
    get: Phase,
}

/// Per-shard busy counters at a point in time.
fn busy(store: &ResultStore) -> Vec<u64> {
    store.stats().shards.iter().map(|s| s.busy_ns).collect()
}

/// Runs `threads` callers, each sending `per_thread` one-item batches (a
/// PUT each if `put`, else a GET each) and checking every answer.
fn phase(
    platform: &Platform,
    store: &ResultStore,
    threads: usize,
    per_thread: usize,
    put: bool,
) -> Phase {
    let before = busy(store);
    let ((), timing) = measure(platform, || {
        std::thread::scope(|scope| {
            for thread in 0..threads {
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let tag = bench_tag((thread * per_thread + i) as u64);
                        let (item, want) = if put {
                            let record = bench_record(RECORD_LEN, thread as u8);
                            (BatchItem::Put { tag, record }, BatchStatus::Accepted)
                        } else {
                            (BatchItem::Get { tag }, BatchStatus::Found)
                        };
                        let response =
                            store.handle(report::one(AppId(thread as u64), item));
                        assert_eq!(report::status(&response), Some(want), "{response:?}");
                    }
                });
            }
        })
    });
    let deltas: Vec<u64> =
        busy(store).iter().zip(&before).map(|(a, b)| a.saturating_sub(*b)).collect();
    let total: u64 = deltas.iter().sum();
    let max_shard = deltas.iter().copied().max().unwrap_or(0);
    Phase {
        ops: (threads * per_thread) as u64,
        timing,
        total_busy_ns: total,
        max_shard_busy_ns: max_shard,
        makespan_ns: (total as f64 / threads as f64).max(max_shard as f64).max(1.0),
    }
}

fn run_once(shards: usize, threads: usize, ops: usize) -> Run {
    let platform = Platform::new(CostModel::default_sgx());
    let config =
        StoreConfig { quota: QuotaPolicy::unlimited(), ..StoreConfig::default() }
            .with_shards(shards);
    let store = ResultStore::new(&platform, config).expect("store fits");
    let per_thread = ops / threads;
    let put = phase(&platform, &store, threads, per_thread, true);
    let get = phase(&platform, &store, threads, per_thread, false);
    Run { shards: store.shard_count(), threads, put, get }
}

/// Runs a variant `reps` times and keeps each phase's best repetition (by
/// makespan), damping allocator and page-fault warm-up noise.
fn run_best(shards: usize, threads: usize, ops: usize, reps: usize) -> Run {
    let mut best = run_once(shards, threads, ops);
    for _ in 1..reps {
        let run = run_once(shards, threads, ops);
        if run.put.makespan_ns < best.put.makespan_ns {
            best.put = run.put;
        }
        if run.get.makespan_ns < best.get.makespan_ns {
            best.get = run.get;
        }
    }
    best
}

/// Runs the bench and writes `BENCH_shard.json`.
pub fn run(smoke: bool) {
    let ops = if smoke { 512 } else { 8192 };
    let reps = if smoke { 2 } else { 3 };
    println!(
        "shard bench: {ops} ops/phase, record {RECORD_LEN} B, \
         single-lock vs {DEFAULT_SHARDS} shards, best of {reps}{}",
        if smoke { " [smoke]" } else { "" },
    );

    // Touch both layouts once so no measured run pays the process's
    // first-allocation and page-fault costs.
    run_once(1, 1, ops.min(1024));
    run_once(DEFAULT_SHARDS, 1, ops.min(1024));

    let mut runs = Vec::new();
    for threads in THREAD_COUNTS {
        runs.push(run_best(1, threads, ops, reps));
        runs.push(run_best(DEFAULT_SHARDS, threads, ops, reps));
    }
    let variant = |run: &Run| if run.shards == 1 { "single_lock" } else { "sharded" };
    for run in &runs {
        println!(
            "  {:<11} shards={:<2} threads={:<2} put {:>8.1} kops (wall {:>8.3} ms)  \
             get {:>8.1} kops (wall {:>8.3} ms)",
            variant(run),
            run.shards,
            run.threads,
            run.put.kops(),
            run.put.timing.wall.as_secs_f64() * 1e3,
            run.get.kops(),
            run.get.timing.wall.as_secs_f64() * 1e3,
        );
    }

    // Sharded over single-lock throughput, PUT and GET, at `threads`.
    let factors = |threads: usize| {
        let find = |shards| {
            runs.iter().find(|r| r.shards == shards && r.threads == threads).expect("ran")
        };
        let (single, sharded) = (find(1), find(DEFAULT_SHARDS));
        (sharded.put.kops() / single.put.kops(), sharded.get.kops() / single.get.kops())
    };
    let max_threads = THREAD_COUNTS[THREAD_COUNTS.len() - 1];
    let (put_factor, get_factor) = factors(max_threads);
    let (put_1_ratio, get_1_ratio) = factors(1);
    println!(
        "  at {max_threads} threads: sharded/single PUT {put_factor:.2}x, GET {get_factor:.2}x"
    );
    println!(
        "  at 1 thread: sharded/single PUT {put_1_ratio:.2}x, GET {get_1_ratio:.2}x"
    );

    let runs_json = runs
        .iter()
        .map(|run| {
            obj(&[
                ("variant", text(variant(run))),
                ("shards", run.shards.to_string()),
                ("threads", run.threads.to_string()),
                ("put", run.put.json()),
                ("get", run.get.json()),
            ])
        })
        .collect();
    report::write(
        "shard",
        smoke,
        &[
            (
                "methodology",
                text(
                    "makespan = max(busiest shard's busy_ns, total busy_ns / threads); \
                     each phase the best of its repetitions by makespan",
                ),
            ),
            (
                "config",
                obj(&[
                    ("ops_per_phase", ops.to_string()),
                    ("record_bytes", RECORD_LEN.to_string()),
                    ("sharded_shards", DEFAULT_SHARDS.to_string()),
                    ("repetitions", reps.to_string()),
                ]),
            ),
            ("runs", list(runs_json)),
            (
                "headline",
                obj(&[
                    ("threads", max_threads.to_string()),
                    ("sharded_vs_single_put_factor", num(put_factor)),
                    ("sharded_vs_single_get_factor", num(get_factor)),
                    ("single_thread_put_ratio", num(put_1_ratio)),
                    ("single_thread_get_ratio", num(get_1_ratio)),
                ]),
            ),
        ],
    )
}
