//! Crash-recovery harness for the log-structured store backend.
//!
//! The durability contract under test, end to end:
//!
//! 1. **No acknowledged PUT is ever lost.** Once the store answered
//!    `accepted`, the record survives any crash — modeled here as killing
//!    the process at an arbitrary byte of WAL history (the truncation
//!    matrix) or as a filesystem operation failing mid-request (the
//!    fault-point matrix).
//! 2. **No phantom entries.** A PUT the store *rejected* (failed fsync,
//!    full disk) must never resurface after recovery, even though its
//!    bytes may have reached the file before the failure.
//! 3. **Read-only degradation.** When the disk stops accepting writes the
//!    store keeps serving GETs and refuses PUTs, instead of acknowledging
//!    writes it cannot make durable.
//!
//! The truncation matrix checks every recorded record boundary (±1 byte)
//! plus a stride of interior offsets by default; set
//! `SPEED_CRASH_EXHAUSTIVE=1` to check **every** byte offset of the WAL
//! (the CI crash-recovery job does, in release mode).

use std::collections::BTreeMap;
use std::sync::Arc;

use speed_enclave::{CostModel, Enclave, Platform};
use speed_store::vfs::{StdVfs, Vfs};
use speed_store::{
    LogBackend, LogConfig, QuotaPolicy, ResultStore, StoreBackend, StoreConfig,
};
use speed_testkit::fault::{FailMode, FaultOp, FaultVfs};
use speed_testkit::TestRng;
use speed_wire::{
    AppId, BatchItem, BatchStatus, CompTag, Message, Record, SyncEntry, COMP_TAG_LEN,
};

/// One platform seed for the whole harness: recovery must model a restart
/// of the *same machine*, and sealing keys derive from the platform fuse
/// secret.
const PLATFORM_SEED: u64 = 0xC8A5_11F5;

fn platform() -> Arc<Platform> {
    Platform::with_seed(CostModel::no_sgx(), Some(PLATFORM_SEED))
}

fn scratch(label: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("speed-crash-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tag_of(seed: u8) -> CompTag {
    CompTag::from_bytes([seed; COMP_TAG_LEN])
}

/// Record content deterministic in the tag, so any recovered copy of an
/// acknowledged PUT is byte-comparable.
fn record_of(seed: u8) -> Record {
    Record {
        challenge: vec![seed; 32],
        wrapped_key: [seed; 16],
        nonce: [seed; 12],
        boxed_result: vec![seed.wrapping_mul(31); 8 + usize::from(seed % 64)],
    }
}

/// Ample-capacity config: no eviction, so the only deletions are the ones
/// the harness performs itself.
fn roomy_config() -> StoreConfig {
    let mut config = StoreConfig::with_capacity(100_000, u64::MAX);
    config.quota = QuotaPolicy::unlimited();
    config
}

fn exhaustive() -> bool {
    std::env::var("SPEED_CRASH_EXHAUSTIVE").is_ok_and(|v| v == "1")
}

/// The test's base seed: the pinned default, or — when `SPEED_CRASH_SEED`
/// is set (CI's random smoke pass, hex with optional `0x`) — the default
/// XOR-folded with it, so each test still gets a distinct stream.
fn seed(default: u64) -> u64 {
    match std::env::var("SPEED_CRASH_SEED") {
        Ok(raw) => {
            let hex = raw.trim().trim_start_matches("0x");
            let base =
                u64::from_str_radix(hex, 16).expect("SPEED_CRASH_SEED is a hex u64");
            eprintln!(
                "crash harness seed override: SPEED_CRASH_SEED={raw} (base {default:#x})"
            );
            base ^ default
        }
        Err(_) => default,
    }
}

// ---------------------------------------------------------------------------
// Truncation matrix: kill the process at every byte of WAL history.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum WalOp {
    Put(u8),
    Delete(u8),
}

fn entry_of(seed: u8) -> SyncEntry {
    SyncEntry { tag: tag_of(seed), record: record_of(seed) }
}

/// Generates the seeded 200-op mutation sequence the acceptance criteria
/// name. Tags collide (pool of 24) so puts overwrite and deletes hit real
/// state.
fn gen_wal_ops(rng: &mut TestRng, count: usize) -> Vec<WalOp> {
    (0..count)
        .map(|_| {
            let tag = rng.byte() % 24;
            match rng.range_usize(0, 6) {
                0..=4 => WalOp::Put(tag),
                _ => WalOp::Delete(tag),
            }
        })
        .collect()
}

/// The live entries after each op, mirrored from the backend's replay rules.
#[derive(Clone, Default)]
struct WalModel {
    live: BTreeMap<[u8; COMP_TAG_LEN], SyncEntry>,
}

impl WalModel {
    fn apply(&mut self, op: WalOp) {
        match op {
            WalOp::Put(seed) => {
                let entry = entry_of(seed);
                self.live.insert(*entry.tag.as_bytes(), entry);
            }
            WalOp::Delete(seed) => {
                self.live.remove(tag_of(seed).as_bytes());
            }
        }
    }

    fn entries(&self) -> BTreeMap<[u8; COMP_TAG_LEN], SyncEntry> {
        self.live.clone()
    }
}

fn apply_to_backend(backend: &LogBackend, op: WalOp) {
    match op {
        WalOp::Put(seed) => backend.record_put(&entry_of(seed)).unwrap(),
        WalOp::Delete(seed) => backend.record_delete(&tag_of(seed)).unwrap(),
    }
}

fn single_log_config(dir: &std::path::Path) -> LogConfig {
    let mut config = LogConfig::new(dir);
    config.checkpoint_every = 0; // one WAL file: byte offsets map 1:1 to op history
    config
}

fn open_backend(
    dir: &std::path::Path,
    platform: &Arc<Platform>,
    enclave: &Arc<Enclave>,
) -> (LogBackend, Vec<SyncEntry>) {
    let backend = LogBackend::new(single_log_config(dir));
    let recovery = backend.open(platform, enclave).unwrap();
    (backend, recovery.entries)
}

/// The acceptance-criteria matrix: run a seeded 200-op sequence, then for
/// each truncation offset of the WAL file simulate a crash at that byte
/// and assert recovery lands exactly on the state after the last record
/// wholly below the cut — nothing acknowledged is lost, nothing torn is
/// half-applied.
#[test]
fn truncation_matrix_recovers_exact_acked_prefix() {
    let platform = platform();
    let enclave = platform.create_enclave(b"crash-matrix-enclave").unwrap();
    let dir = scratch("trunc-live");
    let (backend, initial) = open_backend(&dir, &platform, &enclave);
    assert!(initial.is_empty());

    let mut rng = TestRng::new(seed(0x200_0F5));
    let ops = gen_wal_ops(&mut rng, 200);
    let mut model = WalModel::default();
    // Boundary i = (durable WAL length, expected live state) after op i.
    let vfs = StdVfs;
    let wal_path = {
        // Ensure the file exists before measuring (first op creates it).
        apply_to_backend(&backend, ops[0]);
        backend.flush().unwrap();
        model.apply(ops[0]);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "log"))
            .collect();
        assert_eq!(files.len(), 1, "single-log config must produce one WAL file");
        files[0].clone()
    };
    let mut boundaries: Vec<(u64, BTreeMap<[u8; COMP_TAG_LEN], SyncEntry>)> =
        vec![(0, BTreeMap::new()), (vfs.file_len(&wal_path).unwrap(), model.entries())];
    for &op in &ops[1..] {
        apply_to_backend(&backend, op);
        backend.flush().unwrap();
        model.apply(op);
        boundaries.push((vfs.file_len(&wal_path).unwrap(), model.entries()));
    }
    let full = std::fs::read(&wal_path).unwrap();
    assert_eq!(full.len() as u64, boundaries.last().unwrap().0);
    drop(backend);

    // Offsets to test: every boundary, boundary±1, plus interior strides —
    // or every single byte under SPEED_CRASH_EXHAUSTIVE=1.
    let total = full.len();
    let mut cuts: Vec<usize> = if exhaustive() {
        (0..=total).collect()
    } else {
        let mut cuts: Vec<usize> = boundaries
            .iter()
            .flat_map(|(len, _)| {
                let len = *len as usize;
                [len.saturating_sub(1), len, (len + 1).min(total)]
            })
            .collect();
        cuts.extend((0..total).step_by(13));
        cuts
    };
    cuts.sort_unstable();
    cuts.dedup();

    let crash_dir = scratch("trunc-crash");
    std::fs::create_dir_all(&crash_dir).unwrap();
    let crash_wal = crash_dir.join(wal_path.file_name().unwrap());
    for cut in cuts {
        std::fs::write(&crash_wal, &full[..cut]).unwrap();
        let (_backend, recovered) = open_backend(&crash_dir, &platform, &enclave);
        let expected = &boundaries
            .iter()
            .rev()
            .find(|(len, _)| *len as usize <= cut)
            .expect("boundary 0 always matches")
            .1;
        let got: BTreeMap<[u8; COMP_TAG_LEN], SyncEntry> =
            recovered.into_iter().map(|e| (*e.tag.as_bytes(), e)).collect();
        assert_eq!(
            &got, expected,
            "crash at byte {cut}/{total}: recovered state diverges from the \
             last durable prefix"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

// ---------------------------------------------------------------------------
// Fault-point matrix: fail the n-th fsync, for every n, through the full
// store (WAL-then-ack plus read-only degradation).
// ---------------------------------------------------------------------------

/// The seeded PUT/GET sequence the fault-point matrix replays. Tags repeat
/// (pool of 20) so duplicate PUTs exercise the duplicate path too.
fn gen_store_ops(rng: &mut TestRng, count: usize) -> Vec<(bool, u8)> {
    (0..count).map(|_| (rng.chance(0.7), rng.byte() % 20)).collect()
}

/// Runs `ops` against a store on `vfs`, returning the set of tags whose
/// PUT was acknowledged. Panics if a GET diverges from the acked set's
/// first-writer-wins expectation while the store is healthy.
fn run_store_ops(
    platform: &Arc<Platform>,
    vfs: Arc<dyn Vfs>,
    dir: &std::path::Path,
    ops: &[(bool, u8)],
    checkpoint_every: u64,
) -> BTreeMap<[u8; COMP_TAG_LEN], Record> {
    let mut config = LogConfig::new(dir);
    config.checkpoint_every = checkpoint_every;
    let backend = Arc::new(LogBackend::with_vfs(vfs, config));
    let (store, _report) = ResultStore::open(platform, roomy_config(), backend).unwrap();
    let mut acked = BTreeMap::new();
    for &(is_put, seed) in ops {
        if is_put {
            let response = store.handle(Message::PutRequest {
                app: AppId(1),
                tag: tag_of(seed),
                record: record_of(seed),
            });
            match response {
                Message::PutResponse(body) if body.accepted => {
                    acked.insert(*tag_of(seed).as_bytes(), record_of(seed));
                }
                Message::PutResponse(_) => {} // rejected: must NOT survive
                other => panic!("unexpected PUT response {other:?}"),
            }
        } else {
            let response =
                store.handle(Message::GetRequest { app: AppId(1), tag: tag_of(seed) });
            match response {
                Message::GetResponse(body) => {
                    // A hit must always serve the acked content, even while
                    // the store is degraded read-only.
                    if let Some(record) = body.record {
                        assert_eq!(
                            Some(&record),
                            acked.get(tag_of(seed).as_bytes()),
                            "GET returned content that was never acknowledged"
                        );
                    }
                }
                other => panic!("unexpected GET response {other:?}"),
            }
        }
    }
    acked
}

/// Recovers the directory with a clean filesystem and returns the
/// recovered tag → record map.
fn recover_store(
    platform: &Arc<Platform>,
    dir: &std::path::Path,
) -> BTreeMap<[u8; COMP_TAG_LEN], Record> {
    let backend = Arc::new(LogBackend::new(LogConfig::new(dir)));
    let (store, _report) = ResultStore::open(platform, roomy_config(), backend).unwrap();
    let mut out = BTreeMap::new();
    for seed in 0..20u8 {
        if let Message::GetResponse(body) =
            store.handle(Message::GetRequest { app: AppId(1), tag: tag_of(seed) })
        {
            if let Some(record) = body.record {
                out.insert(*tag_of(seed).as_bytes(), record);
            }
        }
    }
    out
}

/// For every fsync index n: make the n-th and all later fsyncs fail, run
/// the seeded sequence, and assert the reopened store holds exactly the
/// acknowledged PUTs — none lost, none resurrected.
#[test]
fn fsync_fault_point_matrix_preserves_ack_contract() {
    let platform = platform();
    let mut rng = TestRng::new(seed(0xFA_517));
    let ops = gen_store_ops(&mut rng, 60);

    // Pass 1 (fault-free): count the fsyncs the sequence performs.
    let dir = scratch("fsync-count");
    let vfs = FaultVfs::new();
    run_store_ops(&platform, vfs.clone(), &dir, &ops, 0);
    let fsyncs = vfs.op_count(FaultOp::Fsync);
    assert!(fsyncs > 0, "sequence must fsync at least once");
    let _ = std::fs::remove_dir_all(&dir);

    let stride = if exhaustive() { 1 } else { 3 };
    for n in (0..fsyncs).step_by(stride) {
        let dir = scratch(&format!("fsync-{n}"));
        let vfs = FaultVfs::new();
        vfs.fail_nth(FaultOp::Fsync, n, FailMode::Sticky);
        let acked = run_store_ops(&platform, vfs.clone(), &dir, &ops, 0);
        let recovered = recover_store(&platform, &dir);
        assert_eq!(
            recovered, acked,
            "fsync fault at call {n}/{fsyncs}: recovered entries diverge from \
             the acknowledged set"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A duplicate PUT appends no WAL record, but its acknowledgement still
/// waits on its batch's group commit: the entry it names may be awaiting
/// that very fsync. When the flush fails, the duplicate is rejected and
/// counted along with the batch's new PUT, and only the entry acknowledged
/// before survives a restart.
#[test]
fn duplicate_put_appends_no_record_and_waits_on_its_batch_flush() {
    let platform = platform();
    let dir = scratch("dup-flush");
    let vfs = FaultVfs::new();
    let backend =
        Arc::new(LogBackend::with_vfs(vfs.clone() as Arc<dyn Vfs>, LogConfig::new(&dir)));
    let (store, _report) =
        ResultStore::open(&platform, roomy_config(), Arc::clone(&backend) as _).unwrap();
    let put = |seed: u8| BatchItem::Put { tag: tag_of(seed), record: record_of(seed) };
    let batch = |items: Vec<BatchItem>| match store
        .handle(Message::BatchRequest { app: AppId(1), items })
    {
        Message::BatchResponse(results) => results,
        other => panic!("unexpected batch response {other:?}"),
    };
    assert_eq!(batch(vec![put(7)])[0].status, BatchStatus::Accepted);

    // Alone, a duplicate appends nothing and needs no fsync.
    let (records, fsyncs) =
        (backend.stats().appended_records, vfs.op_count(FaultOp::Fsync));
    let results = batch(vec![put(7)]);
    assert_eq!(results[0].status, BatchStatus::Accepted);
    assert_eq!(backend.stats().appended_records, records, "a duplicate logs no record");
    assert_eq!(vfs.op_count(FaultOp::Fsync), fsyncs);

    // Beside a new PUT whose fsync fails, it is rejected with it.
    vfs.fail_nth(FaultOp::Fsync, 0, FailMode::Once);
    let results = batch(vec![put(8), put(7)]);
    assert_eq!(vfs.injected_failures(), 1, "the fault fired");
    for result in &results {
        assert_eq!(result.status, BatchStatus::Rejected, "{:?}", result.reason);
    }
    assert_eq!(store.stats().rejected_puts, 2);
    drop(store);
    drop(backend);
    let recovered = recover_store(&platform, &dir);
    assert_eq!(
        recovered.keys().copied().collect::<Vec<_>>(),
        vec![*tag_of(7).as_bytes()]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch whose later append fails (or whose new WAL file's directory
/// fsync fails) is rejected, and so must the records it already appended
/// be: after a restart the store holds exactly the acknowledged PUTs.
#[test]
fn rejected_batch_puts_never_resurface_after_an_append_fault() {
    let platform = platform();
    for (fault, n) in [(FaultOp::Append, 1), (FaultOp::FsyncDir, 0)] {
        let dir = scratch(&format!("batch-phantom-{fault:?}"));
        let vfs = FaultVfs::new();
        let backend = Arc::new(LogBackend::with_vfs(
            vfs.clone() as Arc<dyn Vfs>,
            LogConfig::new(&dir),
        ));
        let (store, _report) =
            ResultStore::open(&platform, roomy_config(), backend).unwrap();
        vfs.fail_nth(fault, n, FailMode::Once);
        let items = (1..=3u8)
            .map(|seed| BatchItem::Put { tag: tag_of(seed), record: record_of(seed) })
            .collect();
        let acked: BTreeMap<[u8; COMP_TAG_LEN], Record> =
            match store.handle(Message::BatchRequest { app: AppId(1), items }) {
                Message::BatchResponse(results) => (1..=3u8)
                    .zip(&results)
                    .filter(|(_, result)| result.status == BatchStatus::Accepted)
                    .map(|(seed, _)| (*tag_of(seed).as_bytes(), record_of(seed)))
                    .collect(),
                other => panic!("unexpected batch response {other:?}"),
            };
        assert_eq!(vfs.injected_failures(), 1, "{fault:?}: the fault fired");
        assert!(acked.len() < 3, "{fault:?}: the fault rejected nothing");
        drop(store);
        assert_eq!(
            recover_store(&platform, &dir),
            acked,
            "{fault:?}: recovered entries diverge from the acknowledged set"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A failed checkpoint (rename denied) must lose nothing: the WAL still
/// holds every acknowledged record and the store keeps serving.
#[test]
fn checkpoint_rename_fault_loses_nothing() {
    let platform = platform();
    let mut rng = TestRng::new(seed(0xC4E_C12));
    let ops = gen_store_ops(&mut rng, 40);
    let dir = scratch("ckpt-rename");
    let vfs = FaultVfs::new();
    vfs.fail_nth(FaultOp::Rename, 0, FailMode::Sticky);
    // checkpoint_every=8: several checkpoint attempts fire mid-sequence,
    // all failing at the rename step.
    let acked = run_store_ops(&platform, vfs.clone(), &dir, &ops, 8);
    assert!(acked.len() > 8, "enough PUTs to cross the checkpoint threshold");
    assert!(vfs.injected_failures() > 0, "a checkpoint rename must have fired");
    assert!(
        !dir.join("checkpoint.snap").exists(),
        "no checkpoint can appear when every rename fails"
    );
    let recovered = recover_store(&platform, &dir);
    assert_eq!(recovered, acked, "failed checkpoints must not lose WAL records");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery re-imports every acknowledged PUT, however many its app owns:
/// each entry passed its owner's quota at its first PUT, so the import
/// charges no quota (`roomy_config` alone would hide this).
#[test]
fn recovery_keeps_entries_past_one_apps_quota() {
    let platform = platform();
    let dir = scratch("quota");
    let mut config = roomy_config();
    config.quota.max_entries_per_app = 4;
    let open = || {
        let backend = Arc::new(LogBackend::new(LogConfig::new(&dir)));
        ResultStore::open(&platform, config.clone(), backend).unwrap().0
    };
    let store = open();
    for seed in 0..6u8 {
        let response = store.handle(Message::PutRequest {
            app: AppId(u64::from(seed % 2)),
            tag: tag_of(seed),
            record: record_of(seed),
        });
        assert!(matches!(response, Message::PutResponse(b) if b.accepted));
    }
    drop(store);
    assert_eq!(open().stats().entries, 6, "recovery dropped acknowledged PUTs");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// ENOSPC: disk-full degradation and recovery on a bigger disk.
// ---------------------------------------------------------------------------

#[test]
fn enospc_degrades_read_only_then_recovers_on_bigger_disk() {
    let platform = platform();
    let dir = scratch("enospc");
    let vfs = FaultVfs::new();
    vfs.set_disk_capacity(Some(2048));
    let backend =
        Arc::new(LogBackend::with_vfs(vfs.clone() as Arc<dyn Vfs>, LogConfig::new(&dir)));
    let (store, _report) =
        ResultStore::open(&platform, roomy_config(), Arc::clone(&backend) as _).unwrap();

    let mut acked: Vec<u8> = Vec::new();
    let mut first_reject = None;
    for seed in 0..40u8 {
        let response = store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag_of(seed),
            record: record_of(seed),
        });
        match response {
            Message::PutResponse(body) if body.accepted => acked.push(seed),
            Message::PutResponse(body) => {
                first_reject.get_or_insert((seed, body.reason));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let (rejected_seed, reason) = first_reject.expect("2 KiB disk must fill");
    assert!(!acked.is_empty(), "some PUTs must land before the disk fills");
    assert!(
        backend.read_only().is_some(),
        "disk-full must degrade the backend to read-only"
    );
    assert!(
        reason.is_some_and(|r| r.contains("read-only") || r.contains("fault")),
        "rejection reason should surface the degradation"
    );
    // GETs keep serving while degraded.
    let first = acked[0];
    match store.handle(Message::GetRequest { app: AppId(1), tag: tag_of(first) }) {
        Message::GetResponse(body) => {
            assert_eq!(body.record, Some(record_of(first)), "degraded GET must hit");
        }
        other => panic!("unexpected response {other:?}"),
    }
    drop(store);

    // Operator swaps in a bigger disk and restarts.
    vfs.set_disk_capacity(None);
    let backend =
        Arc::new(LogBackend::with_vfs(vfs.clone() as Arc<dyn Vfs>, LogConfig::new(&dir)));
    let (store, _report) =
        ResultStore::open(&platform, roomy_config(), Arc::clone(&backend) as _).unwrap();
    assert!(backend.read_only().is_none(), "restart clears degradation");
    for &seed in &acked {
        match store.handle(Message::GetRequest { app: AppId(1), tag: tag_of(seed) }) {
            Message::GetResponse(body) => {
                assert_eq!(body.record, Some(record_of(seed)), "acked PUT {seed} lost");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    match store.handle(Message::GetRequest { app: AppId(1), tag: tag_of(rejected_seed) })
    {
        Message::GetResponse(body) => {
            assert!(body.record.is_none(), "rejected PUT resurfaced as a phantom");
        }
        other => panic!("unexpected response {other:?}"),
    }
    // Writes flow again on the healthy disk.
    match store.handle(Message::PutRequest {
        app: AppId(1),
        tag: tag_of(200),
        record: record_of(200),
    }) {
        Message::PutResponse(body) => assert!(body.accepted, "{:?}", body.reason),
        other => panic!("unexpected response {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
