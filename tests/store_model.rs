//! Model-based differential testing of the sharded `ResultStore`.
//!
//! A flat `BTreeMap` plus an explicit LRU list is the *reference model*:
//! simple enough to be obviously correct. Random operation sequences —
//! single GET/PUT, batches, quota-limited PUTs, and reloads into a fresh
//! store in the middle of a sequence — run against both the real store and
//! the model, and every response and every counter must agree. A divergence
//! shrinks to a short op list and prints a `SPEED_TESTKIT_SEED=…`
//! reproducer (see docs/TESTING.md).

use std::collections::BTreeMap;

use speed_enclave::{CostModel, Platform};
use speed_store::{QuotaPolicy, ResultStore, StoreConfig};
use speed_testkit::{check, Shrink, TestRng};
use speed_wire::{
    AppId, BatchItem, BatchItemResult, CompTag, Message, NegativeFilter, Record,
    COMP_TAG_LEN,
};

/// Capacity used by the eviction-heavy differential config: small enough
/// that random sequences of a few dozen ops cross it repeatedly.
const MAX_ENTRIES: usize = 8;
const MAX_BYTES: u64 = 600;

/// Tags are drawn from this many distinct values so sequences collide.
const TAG_SPACE: u8 = 12;

#[derive(Clone, Debug, PartialEq)]
enum Op {
    Get {
        tag: u8,
    },
    Put {
        tag: u8,
        len: u8,
        fill: u8,
    },
    /// A PUT in the retired prefilter-carrying shape
    /// (`Message::PutPrefiltered`), which the store must serve exactly as
    /// `Put`.
    PutPre {
        tag: u8,
        len: u8,
        fill: u8,
    },
    Batch {
        items: Vec<Item>,
    },
    /// Fetches the filter snapshot and asserts the no-false-negative
    /// invariant against every live tag.
    FilterCheck,
    Reload,
}

#[derive(Clone, Debug, PartialEq)]
enum Item {
    Get { tag: u8 },
    Put { tag: u8, len: u8, fill: u8 },
}

/// The prefilter a `PutPre` op carries; the store ignores it.
const IGNORED_PREFILTER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Asserts the no-false-negative contract: the merged filter of `shards` (a
/// store's snapshot, or a cluster's fan-out) answers "maybe" for every live
/// tag. Every insert sets its tag's bits, imports and recovery included, so
/// the contract holds across reloads too.
fn check_filter(
    shards: Vec<NegativeFilter>,
    live: impl IntoIterator<Item = u8>,
    context: &str,
) {
    let mut shards = shards.into_iter();
    let Some(mut merged) = shards.next() else { return };
    for shard in shards {
        assert!(merged.merge_from(&shard), "{context}: shard shapes differ");
    }
    for tag in live {
        assert!(
            merged.may_contain(&tag_of(tag)),
            "{context}: filter denies live tag {tag} (false negative)"
        );
    }
}

impl Shrink for Item {
    fn shrink(&self) -> Vec<Self> {
        match *self {
            Item::Get { tag } => {
                tag.shrink().into_iter().map(|tag| Item::Get { tag }).collect()
            }
            Item::Put { tag, len, fill } => {
                let mut out = vec![Item::Get { tag }];
                out.extend(tag.shrink().into_iter().map(|tag| Item::Put {
                    tag,
                    len,
                    fill,
                }));
                out.extend(len.shrink().into_iter().map(|len| Item::Put {
                    tag,
                    len,
                    fill,
                }));
                out.extend(fill.shrink().into_iter().map(|fill| Item::Put {
                    tag,
                    len,
                    fill,
                }));
                out
            }
        }
    }
}

impl Shrink for Op {
    fn shrink(&self) -> Vec<Self> {
        match self {
            Op::Get { tag } => {
                tag.shrink().into_iter().map(|tag| Op::Get { tag }).collect()
            }
            Op::Put { tag, len, fill } => Item::Put { tag: *tag, len: *len, fill: *fill }
                .shrink()
                .into_iter()
                .map(item_to_op)
                .collect(),
            Op::PutPre { tag, len, fill } => {
                // A prefiltered PUT simplifies toward the plain PUT first.
                let mut out = vec![Op::Put { tag: *tag, len: *len, fill: *fill }];
                out.extend(
                    Item::Put { tag: *tag, len: *len, fill: *fill }
                        .shrink()
                        .into_iter()
                        .map(|item| match item {
                            Item::Get { tag } => Op::Get { tag },
                            Item::Put { tag, len, fill } => Op::PutPre { tag, len, fill },
                        }),
                );
                out
            }
            Op::Batch { items } => {
                // A batch simplifies toward its unbatched single ops, then
                // element-wise via the Vec shrinker.
                let mut out: Vec<Op> = items.iter().cloned().map(item_to_op).collect();
                out.extend(items.shrink().into_iter().map(|items| Op::Batch { items }));
                out
            }
            Op::FilterCheck | Op::Reload => Vec::new(),
        }
    }
}

fn item_to_op(item: Item) -> Op {
    match item {
        Item::Get { tag } => Op::Get { tag },
        Item::Put { tag, len, fill } => Op::Put { tag, len, fill },
    }
}

fn gen_item(rng: &mut TestRng) -> Item {
    let tag = rng.byte() % TAG_SPACE;
    if rng.chance(0.45) {
        Item::Get { tag }
    } else {
        Item::Put { tag, len: rng.byte(), fill: rng.byte() }
    }
}

fn gen_op(rng: &mut TestRng, with_reload: bool) -> Op {
    if with_reload && rng.chance(0.08) {
        return Op::Reload;
    }
    if rng.chance(0.08) {
        return Op::FilterCheck;
    }
    if rng.chance(0.2) {
        let count = rng.range_usize(0, 6);
        return Op::Batch { items: (0..count).map(|_| gen_item(rng)).collect() };
    }
    let op = item_to_op(gen_item(rng));
    // Half the single PUTs take the retired prefilter-carrying shape.
    match op {
        Op::Put { tag, len, fill } if rng.chance(0.5) => Op::PutPre { tag, len, fill },
        other => other,
    }
}

fn gen_ops(rng: &mut TestRng, max_len: usize, with_reload: bool) -> Vec<Op> {
    let len = rng.range_usize(0, max_len);
    (0..len).map(|_| gen_op(rng, with_reload)).collect()
}

fn tag_of(seed: u8) -> CompTag {
    CompTag::from_bytes([seed; COMP_TAG_LEN])
}

/// The record a `Put { tag, len, fill }` op writes. Deterministic in the op
/// so first-writer-wins is observable: a second PUT of the same tag with a
/// different `fill` must NOT change what GET returns.
fn record_of(tag: u8, len: u8, fill: u8) -> Record {
    Record {
        challenge: vec![fill; 32],
        wrapped_key: [fill; 16],
        nonce: [tag; 12],
        boxed_result: vec![fill; usize::from(len)],
    }
}

/// The reference model: a flat map plus a precise LRU list (front = least
/// recently used). The real store's lazy atomic-touch LRU is observably
/// equivalent to this.
#[derive(Default)]
struct Model {
    entries: BTreeMap<[u8; COMP_TAG_LEN], Record>,
    lru: Vec<[u8; COMP_TAG_LEN]>,
    evictions: u64,
}

impl Model {
    fn touch(&mut self, tag: [u8; COMP_TAG_LEN]) {
        self.lru.retain(|t| *t != tag);
        self.lru.push(tag);
    }

    fn get(&mut self, tag: u8) -> Option<Record> {
        let key = [tag; COMP_TAG_LEN];
        let record = self.entries.get(&key)?.clone();
        self.touch(key);
        Some(record)
    }

    /// Returns whether the PUT inserted a new entry (false = duplicate).
    fn put(&mut self, tag: u8, len: u8, fill: u8) -> bool {
        let key = [tag; COMP_TAG_LEN];
        if self.entries.contains_key(&key) {
            return false; // first writer wins; no recency bump
        }
        self.entries.insert(key, record_of(tag, len, fill));
        self.lru.push(key);
        true
    }

    fn stored_bytes(&self) -> u64 {
        self.entries.values().map(|r| r.boxed_result.len() as u64).sum()
    }

    /// The tags of the live entries.
    fn live(&self) -> Vec<u8> {
        self.entries.keys().map(|key| key[0]).collect()
    }

    fn enforce_capacity(&mut self) {
        while self.entries.len() > MAX_ENTRIES || self.stored_bytes() > MAX_BYTES {
            let victim = self.lru.remove(0);
            self.entries.remove(&victim);
            self.evictions += 1;
        }
    }

    /// Mirrors a reload: entries and their LRU order survive, and the new
    /// store's eviction counter starts at zero.
    fn reload(&mut self) {
        self.evictions = 0;
    }
}

fn check_counters(store: &ResultStore, model: &Model, context: &str) {
    let stats = store.stats();
    assert_eq!(stats.entries, model.entries.len() as u64, "{context}: entry count");
    assert_eq!(stats.stored_bytes, model.stored_bytes(), "{context}: stored bytes");
    assert_eq!(stats.evictions, model.evictions, "{context}: eviction count");
    assert!(stats.entries as usize <= MAX_ENTRIES, "{context}: entry budget");
    assert!(stats.stored_bytes <= MAX_BYTES, "{context}: byte budget");
}

/// Runs one op against both store and model, asserting the responses match.
/// Returns the possibly-replaced store (Reload swaps it).
fn apply_op(
    platform: &Platform,
    store: ResultStore,
    model: &mut Model,
    op: &Op,
    index: usize,
) -> ResultStore {
    let app = AppId(1);
    match op {
        Op::Get { tag } => {
            let response = store.handle(Message::GetRequest { app, tag: tag_of(*tag) });
            let expected = model.get(*tag);
            match response {
                Message::GetResponse(body) => {
                    assert_eq!(body.found, expected.is_some(), "op {index}: GET found");
                    assert_eq!(body.record, expected, "op {index}: GET record");
                }
                other => panic!("op {index}: unexpected GET response {other:?}"),
            }
        }
        Op::Put { tag, len, fill } => {
            let response = store.handle(Message::PutRequest {
                app,
                tag: tag_of(*tag),
                record: record_of(*tag, *len, *fill),
            });
            let inserted = model.put(*tag, *len, *fill);
            model.enforce_capacity();
            match response {
                Message::PutResponse(body) => {
                    assert!(body.accepted, "op {index}: PUT must be accepted");
                    if inserted {
                        assert_eq!(body.reason, None, "op {index}: fresh PUT reason");
                    } else {
                        assert!(
                            body.reason
                                .as_deref()
                                .is_some_and(|r| r.contains("duplicate")),
                            "op {index}: duplicate PUT reason, got {:?}",
                            body.reason
                        );
                    }
                }
                other => panic!("op {index}: unexpected PUT response {other:?}"),
            }
        }
        Op::PutPre { tag, len, fill } => {
            let response = store.handle(Message::PutPrefiltered {
                app,
                tag: tag_of(*tag),
                prefilter: IGNORED_PREFILTER,
                record: record_of(*tag, *len, *fill),
            });
            let inserted = model.put(*tag, *len, *fill);
            model.enforce_capacity();
            match response {
                Message::PutResponse(body) => {
                    assert!(body.accepted, "op {index}: PUT must be accepted");
                    if inserted {
                        assert_eq!(body.reason, None, "op {index}: fresh PUT reason");
                    } else {
                        assert!(
                            body.reason
                                .as_deref()
                                .is_some_and(|r| r.contains("duplicate")),
                            "op {index}: duplicate PUT reason, got {:?}",
                            body.reason
                        );
                    }
                }
                other => panic!("op {index}: unexpected PUT response {other:?}"),
            }
        }
        Op::FilterCheck => {
            check_filter(
                store.filter_snapshot().shards,
                model.live(),
                &format!("op {index}"),
            );
        }
        Op::Batch { items } => {
            let wire_items: Vec<BatchItem> = items
                .iter()
                .map(|item| match item {
                    Item::Get { tag } => BatchItem::Get { tag: tag_of(*tag) },
                    Item::Put { tag, len, fill } => BatchItem::Put {
                        tag: tag_of(*tag),
                        record: record_of(*tag, *len, *fill),
                    },
                })
                .collect();
            let response = store.handle(Message::BatchRequest { app, items: wire_items });
            // The model settles items in request order; capacity is enforced
            // once after the whole batch, exactly like the real store.
            let mut expected = Vec::with_capacity(items.len());
            let mut inserted_any = false;
            for item in items {
                match item {
                    Item::Get { tag } => {
                        expected.push(match model.get(*tag) {
                            Some(record) => BatchItemResult::found(record),
                            None => BatchItemResult::not_found(),
                        });
                    }
                    Item::Put { tag, len, fill } => {
                        if model.put(*tag, *len, *fill) {
                            inserted_any = true;
                            expected.push(BatchItemResult::accepted());
                        } else {
                            let mut dup = BatchItemResult::accepted();
                            dup.reason = Some("duplicate: existing entry kept".into());
                            expected.push(dup);
                        }
                    }
                }
            }
            if inserted_any {
                model.enforce_capacity();
            }
            match response {
                Message::BatchResponse(results) => {
                    assert_eq!(results, expected, "op {index}: batch results");
                }
                other => panic!("op {index}: unexpected batch response {other:?}"),
            }
        }
        Op::Reload => {
            // What a checkpoint moves, minus the sealing its tests cover.
            let entries = store.export_shards().into_iter().flatten().collect();
            drop(store);
            let restored = ResultStore::new(
                platform,
                StoreConfig::with_capacity(MAX_ENTRIES, MAX_BYTES),
            )
            .expect("fresh store");
            restored.import_entries(entries);
            model.reload();
            let context = format!("op {index} (reload)");
            check_counters(&restored, model, &context);
            check_filter(restored.filter_snapshot().shards, model.live(), &context);
            return restored;
        }
    }
    check_counters(&store, model, &format!("op {index}"));
    store
}

/// The main differential property: store == model for every response and
/// counter, across GET/PUT/batch and mid-sequence reloads, under
/// eviction pressure.
#[test]
fn store_matches_reference_model() {
    check(
        "store_matches_reference_model",
        0x5EED_0001,
        |rng| gen_ops(rng, 40, true),
        |ops: &Vec<Op>| {
            let platform = Platform::new(CostModel::no_sgx());
            let mut store = ResultStore::new(
                &platform,
                StoreConfig::with_capacity(MAX_ENTRIES, MAX_BYTES),
            )
            .expect("store");
            let mut model = Model::default();
            for (index, op) in ops.iter().enumerate() {
                store = apply_op(&platform, store, &mut model, op, index);
            }
        },
    );
}

/// Sharding must be invisible when nothing evicts: the same op sequence on
/// a 1-shard and an 8-shard store (both with ample capacity) produces
/// identical responses and aggregate counters.
#[test]
fn shard_count_is_transparent_without_eviction() {
    check(
        "shard_count_is_transparent_without_eviction",
        0x5EED_0002,
        |rng| gen_ops(rng, 30, false),
        |ops: &Vec<Op>| {
            let platform = Platform::new(CostModel::no_sgx());
            let roomy = |shards: usize| {
                StoreConfig::with_capacity(10_000, u64::MAX).with_shards(shards)
            };
            let single =
                ResultStore::new(&platform, roomy(1)).expect("single-shard store");
            let sharded = ResultStore::new(&platform, roomy(8)).expect("sharded store");
            let app = AppId(1);
            // Nothing evicts, so every tag ever PUT is live.
            let mut live = std::collections::BTreeSet::new();
            for (index, op) in ops.iter().enumerate() {
                if let Op::FilterCheck = op {
                    // Raw filter snapshots are NOT shard-transparent (shape
                    // and false-positive patterns differ by shard count);
                    // only the no-false-negative contract must hold on both.
                    for (store, shape) in [(&single, "single"), (&sharded, "sharded")] {
                        let context = format!("op {index} ({shape})");
                        check_filter(
                            store.filter_snapshot().shards,
                            live.clone(),
                            &context,
                        );
                    }
                    continue;
                }
                let message = |()| match op {
                    Op::Get { tag } => Message::GetRequest { app, tag: tag_of(*tag) },
                    Op::Put { tag, len, fill } => Message::PutRequest {
                        app,
                        tag: tag_of(*tag),
                        record: record_of(*tag, *len, *fill),
                    },
                    Op::PutPre { tag, len, fill } => Message::PutPrefiltered {
                        app,
                        tag: tag_of(*tag),
                        prefilter: IGNORED_PREFILTER,
                        record: record_of(*tag, *len, *fill),
                    },
                    Op::Batch { items } => Message::BatchRequest {
                        app,
                        items: items
                            .iter()
                            .map(|item| match item {
                                Item::Get { tag } => BatchItem::Get { tag: tag_of(*tag) },
                                Item::Put { tag, len, fill } => BatchItem::Put {
                                    tag: tag_of(*tag),
                                    record: record_of(*tag, *len, *fill),
                                },
                            })
                            .collect(),
                    },
                    Op::FilterCheck | Op::Reload => {
                        unreachable!("handled above / disabled for this property")
                    }
                };
                match op {
                    Op::Put { tag, .. } | Op::PutPre { tag, .. } => {
                        live.insert(*tag);
                    }
                    Op::Batch { items } => {
                        live.extend(items.iter().filter_map(|item| match item {
                            Item::Put { tag, .. } => Some(*tag),
                            Item::Get { .. } => None,
                        }))
                    }
                    _ => {}
                }
                let a = single.handle(message(()));
                let b = sharded.handle(message(()));
                assert_eq!(a, b, "op {index}: shard-count divergence");
            }
            let (a, b) = (single.stats(), sharded.stats());
            assert_eq!(a.entries, b.entries, "entry counts diverged");
            assert_eq!(a.stored_bytes, b.stored_bytes, "stored bytes diverged");
            assert_eq!(a.hits, b.hits, "hit counts diverged");
        },
    );
}

/// The durable backend must be observably identical to the in-memory
/// store, including across restarts: random GET/PUT/batch sequences run
/// against a log-backed store, and every `Reload` drops the store and
/// recovers it from the checkpoint + WAL on disk. Responses must keep
/// matching the flat-map model the whole way (first-writer-wins included),
/// with checkpoints firing mid-sequence to exercise replay bounding.
#[test]
fn durable_backend_matches_model_across_crash_reloads() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use speed_store::{LogBackend, LogConfig};

    static CASE: AtomicU64 = AtomicU64::new(0);

    check(
        "durable_backend_matches_model_across_crash_reloads",
        0x5EED_0004,
        |rng| gen_ops(rng, 25, true),
        |ops: &Vec<Op>| {
            // Same platform seed across reloads: recovery models a restart
            // of the same machine, and sealing keys derive from it.
            let platform = Platform::with_seed(CostModel::no_sgx(), Some(0xD0_5EED));
            let dir = std::env::temp_dir().join(format!(
                "speed-store-model-durable-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = || StoreConfig::with_capacity(10_000, u64::MAX);
            let mut log_config = LogConfig::new(&dir);
            log_config.checkpoint_every = 8; // checkpoints fire mid-sequence
            let open = || {
                let backend = Arc::new(LogBackend::new(log_config.clone()));
                ResultStore::open(&platform, config(), backend).expect("open").0
            };
            let mut store = open();
            // tag -> first-written record; no eviction, so entries only grow.
            let mut model: BTreeMap<u8, Record> = BTreeMap::new();
            let app = AppId(1);
            for (index, op) in ops.iter().enumerate() {
                match op {
                    Op::Get { tag } => {
                        let response =
                            store.handle(Message::GetRequest { app, tag: tag_of(*tag) });
                        match response {
                            Message::GetResponse(body) => assert_eq!(
                                body.record,
                                model.get(tag).cloned(),
                                "op {index}: GET diverged"
                            ),
                            other => panic!("op {index}: unexpected {other:?}"),
                        }
                    }
                    Op::Put { tag, len, fill } => {
                        let response = store.handle(Message::PutRequest {
                            app,
                            tag: tag_of(*tag),
                            record: record_of(*tag, *len, *fill),
                        });
                        match response {
                            Message::PutResponse(body) => {
                                assert!(body.accepted, "op {index}: {:?}", body.reason)
                            }
                            other => panic!("op {index}: unexpected {other:?}"),
                        }
                        model.entry(*tag).or_insert_with(|| record_of(*tag, *len, *fill));
                    }
                    Op::PutPre { tag, len, fill } => {
                        let response = store.handle(Message::PutPrefiltered {
                            app,
                            tag: tag_of(*tag),
                            prefilter: IGNORED_PREFILTER,
                            record: record_of(*tag, *len, *fill),
                        });
                        match response {
                            Message::PutResponse(body) => {
                                assert!(body.accepted, "op {index}: {:?}", body.reason)
                            }
                            other => panic!("op {index}: unexpected {other:?}"),
                        }
                        model.entry(*tag).or_insert_with(|| record_of(*tag, *len, *fill));
                    }
                    Op::FilterCheck => check_filter(
                        store.filter_snapshot().shards,
                        model.keys().copied(),
                        &format!("op {index}"),
                    ),
                    Op::Batch { items } => {
                        let wire_items: Vec<BatchItem> = items
                            .iter()
                            .map(|item| match item {
                                Item::Get { tag } => BatchItem::Get { tag: tag_of(*tag) },
                                Item::Put { tag, len, fill } => BatchItem::Put {
                                    tag: tag_of(*tag),
                                    record: record_of(*tag, *len, *fill),
                                },
                            })
                            .collect();
                        let response = store
                            .handle(Message::BatchRequest { app, items: wire_items });
                        let mut expected = Vec::with_capacity(items.len());
                        for item in items {
                            match item {
                                Item::Get { tag } => {
                                    expected.push(match model.get(tag) {
                                        Some(record) => {
                                            BatchItemResult::found(record.clone())
                                        }
                                        None => BatchItemResult::not_found(),
                                    });
                                }
                                Item::Put { tag, len, fill } => {
                                    if model.contains_key(tag) {
                                        let mut dup = BatchItemResult::accepted();
                                        dup.reason =
                                            Some("duplicate: existing entry kept".into());
                                        expected.push(dup);
                                    } else {
                                        model.insert(*tag, record_of(*tag, *len, *fill));
                                        expected.push(BatchItemResult::accepted());
                                    }
                                }
                            }
                        }
                        match response {
                            Message::BatchResponse(results) => assert_eq!(
                                results, expected,
                                "op {index}: batch diverged"
                            ),
                            other => panic!("op {index}: unexpected {other:?}"),
                        }
                    }
                    Op::Reload => {
                        // Crash-restart: everything not on disk is gone.
                        drop(store);
                        store = open();
                        assert_eq!(
                            store.stats().entries,
                            model.len() as u64,
                            "op {index}: reload lost or invented entries"
                        );
                        check_filter(
                            store.filter_snapshot().shards,
                            model.keys().copied(),
                            &format!("op {index} (reload)"),
                        );
                    }
                }
            }
            // Final restart: the complete model must survive.
            drop(store);
            let store = open();
            for (tag, record) in &model {
                let response =
                    store.handle(Message::GetRequest { app, tag: tag_of(*tag) });
                match response {
                    Message::GetResponse(body) => assert_eq!(
                        body.record.as_ref(),
                        Some(record),
                        "final reload: tag {tag} diverged"
                    ),
                    other => panic!("final reload: unexpected {other:?}"),
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        },
    );
}

/// An op stream for the multi-node arm: flat store ops interleaved with
/// node kills, rejoins and revivals. Execution semantics are defined for
/// *any* sequence (shrinking may drop a `Kill`, `Rejoin` or `Revive`):
/// `Kill` first heals the cluster (all up, hints drained) then downs one
/// node, `Rejoin` heals the cluster, so at most one node is ever down, and
/// `Revive` brings every node back up *without* draining the hints — the
/// window in which a revived replica still lacks the PUTs it missed.
#[derive(Clone, Debug, PartialEq)]
enum ClusterOp {
    Flat(Op),
    Kill { node: u8 },
    Rejoin,
    Revive,
}

impl Shrink for ClusterOp {
    fn shrink(&self) -> Vec<Self> {
        match self {
            ClusterOp::Flat(op) => op.shrink().into_iter().map(ClusterOp::Flat).collect(),
            ClusterOp::Kill { .. } | ClusterOp::Rejoin | ClusterOp::Revive => Vec::new(),
        }
    }
}

fn gen_cluster_ops(rng: &mut TestRng) -> Vec<ClusterOp> {
    let len = rng.range_usize(0, 40);
    let mut down = false;
    let mut ops = Vec::with_capacity(len + 1);
    for _ in 0..len {
        if !down && rng.chance(0.12) {
            ops.push(ClusterOp::Kill { node: rng.byte() % 3 });
            down = true;
        } else if down && rng.chance(0.3) {
            ops.push(if rng.chance(0.5) { ClusterOp::Rejoin } else { ClusterOp::Revive });
            down = false;
        } else {
            ops.push(ClusterOp::Flat(gen_op(rng, false)));
        }
    }
    // Converge at the end: the final state must match the flat model.
    ops.push(ClusterOp::Rejoin);
    ops
}

/// Multi-node arm of the differential tester: the same op sequence runs
/// against a 3-node `ClusterClient` (R = 2, in-process stores, roomy
/// capacity so eviction order cannot diverge across placements) and the
/// flat map model — with a node killed and rejoined mid-sequence. While a
/// node is down, write-quorum-1 PUTs and read-from-any GETs must keep
/// every response identical to the flat model's; each rejoin drains the
/// hinted PUTs, after which the killed node's replicas have converged.
/// After a revival the hints stay parked until a round trip sees the node
/// answer again, so single and batched GETs must still find every
/// acknowledged PUT on a sibling replica.
#[test]
fn cluster_matches_flat_model_across_node_kill_and_rejoin() {
    use speed_core::{
        BreakerConfig, ClusterClient, ClusterConfig, Connector, InProcessClient,
        OutageSwitch, ResilienceConfig, RetryPolicy, StoreClient, SwitchedClient,
    };
    use speed_wire::SessionAuthority;
    use std::sync::Arc;

    check(
        "cluster_matches_flat_model_across_node_kill_and_rejoin",
        0x5EED_0005,
        gen_cluster_ops,
        |ops: &Vec<ClusterOp>| {
            let platform = Platform::new(CostModel::no_sgx());
            let authority = Arc::new(SessionAuthority::with_seed(55));
            let enclave = platform.create_enclave(b"cluster-model").unwrap();
            let mut builder = ClusterClient::builder(ClusterConfig {
                node_resilience: ResilienceConfig {
                    retry: RetryPolicy::none(),
                    breaker: BreakerConfig {
                        // The property wants every failure visible as a
                        // clean failover, never a fast-fail window.
                        failure_threshold: 1_000_000,
                        cooldown: std::time::Duration::from_millis(1),
                    },
                    ..ResilienceConfig::default()
                },
                ..ClusterConfig::default()
            });
            let mut switches = Vec::new();
            for _ in 0..3u32 {
                let store = Arc::new(
                    ResultStore::new(
                        &platform,
                        StoreConfig::with_capacity(10_000, u64::MAX),
                    )
                    .unwrap(),
                );
                let switch = Arc::new(OutageSwitch::new());
                let connector: Connector = {
                    let switch = Arc::clone(&switch);
                    let authority = Arc::clone(&authority);
                    let platform = Arc::clone(&platform);
                    let enclave = Arc::clone(&enclave);
                    Box::new(move || {
                        if switch.is_down() {
                            return Err(speed_core::CoreError::StoreUnavailable(
                                "node is down".into(),
                            ));
                        }
                        let inner = InProcessClient::connect(
                            Arc::clone(&store),
                            &authority,
                            &platform,
                            &enclave,
                        )?;
                        Ok(Box::new(SwitchedClient::new(
                            Box::new(inner),
                            Arc::clone(&switch),
                        )) as Box<dyn StoreClient>)
                    })
                };
                builder = builder.node(switches.len() as u32, connector);
                switches.push(switch);
            }
            let mut client = builder.build().unwrap();

            let heal = |client: &ClusterClient, switches: &[Arc<OutageSwitch>]| {
                for switch in switches {
                    switch.set_down(false);
                }
                client.drain_hints();
                assert_eq!(client.hint_depth(), 0, "heal left hints parked");
            };

            let mut model: BTreeMap<u8, Record> = BTreeMap::new();
            let mut any_down = false;
            // Between a `Revive` and the next heal, a revived replica may
            // lack hinted PUTs. Its node-local duplicate verdicts can then
            // differ from the flat model's, and a re-PUT of a hinted tag
            // carries the model's record so the replicas cannot diverge.
            let mut revived = false;
            let app = AppId(1);
            for (index, op) in ops.iter().enumerate() {
                let flat_op = match op {
                    ClusterOp::Kill { node } => {
                        heal(&client, &switches);
                        switches[usize::from(node % 3)].set_down(true);
                        any_down = true;
                        revived = false;
                        continue;
                    }
                    ClusterOp::Rejoin => {
                        heal(&client, &switches);
                        any_down = false;
                        revived = false;
                        continue;
                    }
                    ClusterOp::Revive => {
                        for switch in &switches {
                            switch.set_down(false);
                        }
                        any_down = false;
                        revived = true;
                        continue;
                    }
                    ClusterOp::Flat(flat_op) => flat_op,
                };
                let put_record = |tag: u8, len: u8, fill: u8| match model.get(&tag) {
                    Some(record) if revived => record.clone(),
                    _ => record_of(tag, len, fill),
                };
                match flat_op {
                    Op::Get { tag } => {
                        let response = client
                            .roundtrip(&Message::GetRequest { app, tag: tag_of(*tag) })
                            .expect("one replica of every tag is reachable");
                        match response {
                            Message::GetResponse(body) => assert_eq!(
                                body.record,
                                model.get(tag).cloned(),
                                "op {index}: GET diverged"
                            ),
                            other => panic!("op {index}: unexpected {other:?}"),
                        }
                    }
                    Op::Put { tag, len, fill } | Op::PutPre { tag, len, fill } => {
                        let request = match flat_op {
                            Op::Put { .. } => Message::PutRequest {
                                app,
                                tag: tag_of(*tag),
                                record: put_record(*tag, *len, *fill),
                            },
                            _ => Message::PutPrefiltered {
                                app,
                                tag: tag_of(*tag),
                                prefilter: IGNORED_PREFILTER,
                                record: put_record(*tag, *len, *fill),
                            },
                        };
                        let response = client
                            .roundtrip(&request)
                            .expect("write quorum 1 is always reachable");
                        let inserted = !model.contains_key(tag);
                        model.entry(*tag).or_insert_with(|| record_of(*tag, *len, *fill));
                        match response {
                            Message::PutResponse(body) => {
                                assert!(body.accepted, "op {index}: {:?}", body.reason);
                                // Up replicas hold complete data for their
                                // tags (kills drain first), so even the
                                // node-local duplicate verdict agrees.
                                assert!(
                                    revived || body.reason.is_none() == inserted,
                                    "op {index}: duplicate verdict diverged ({:?})",
                                    body.reason
                                );
                            }
                            other => panic!("op {index}: unexpected {other:?}"),
                        }
                    }
                    Op::FilterCheck => {
                        // The filter fan-out fails closed while a member is
                        // down; the contract is only checkable when whole.
                        // Every acknowledged tag is on at least one replica,
                        // and so in the union.
                        match client.roundtrip(&Message::FilterRequest) {
                            Ok(Message::FilterResponse(body)) => check_filter(
                                body.shards,
                                model.keys().copied(),
                                &format!("op {index}: cluster filter union"),
                            ),
                            Ok(other) => panic!("op {index}: unexpected {other:?}"),
                            Err(_) => assert!(
                                any_down,
                                "op {index}: filter refresh failed with all nodes up"
                            ),
                        }
                    }
                    Op::Batch { items } => {
                        let wire_items: Vec<BatchItem> = items
                            .iter()
                            .map(|item| match item {
                                Item::Get { tag } => BatchItem::Get { tag: tag_of(*tag) },
                                Item::Put { tag, len, fill } => BatchItem::Put {
                                    tag: tag_of(*tag),
                                    record: put_record(*tag, *len, *fill),
                                },
                            })
                            .collect();
                        let response = client
                            .roundtrip(&Message::BatchRequest { app, items: wire_items })
                            .expect("every item has a reachable replica");
                        let mut expected = Vec::with_capacity(items.len());
                        for item in items {
                            match item {
                                Item::Get { tag } => {
                                    expected.push(match model.get(tag) {
                                        Some(record) => {
                                            BatchItemResult::found(record.clone())
                                        }
                                        None => BatchItemResult::not_found(),
                                    });
                                }
                                Item::Put { tag, len, fill } => {
                                    if model.contains_key(tag) {
                                        let mut dup = BatchItemResult::accepted();
                                        dup.reason =
                                            Some("duplicate: existing entry kept".into());
                                        expected.push(dup);
                                    } else {
                                        model.insert(*tag, record_of(*tag, *len, *fill));
                                        expected.push(BatchItemResult::accepted());
                                    }
                                }
                            }
                        }
                        match response {
                            Message::BatchResponse(results) => {
                                if revived {
                                    // Only the duplicate verdicts may differ.
                                    for (item, (want, got)) in items
                                        .iter()
                                        .zip(expected.iter_mut().zip(&results))
                                    {
                                        if matches!(item, Item::Put { .. }) {
                                            want.reason.clone_from(&got.reason);
                                        }
                                    }
                                }
                                assert_eq!(
                                    results, expected,
                                    "op {index}: batch diverged"
                                )
                            }
                            other => panic!("op {index}: unexpected {other:?}"),
                        }
                    }
                    Op::Reload => unreachable!("disabled for the cluster arm"),
                }
            }
            // Converged epilogue (the trailing Rejoin healed everything;
            // healing again keeps shrunk sequences that dropped it
            // meaningful): every model entry is present on ALL of its
            // replicas, so the kill + rejoin cycle lost nothing and handoff
            // fully caught up.
            heal(&client, &switches);
            let aggregate = match client.roundtrip(&Message::StatsRequest) {
                Ok(Message::StatsResponse(stats)) => stats.entries,
                other => panic!("stats fan-out failed: {other:?}"),
            };
            assert_eq!(
                aggregate,
                2 * model.len() as u64,
                "every entry must live on exactly R = 2 replicas"
            );
            for (tag, record) in &model {
                match client
                    .roundtrip(&Message::GetRequest { app, tag: tag_of(*tag) })
                    .unwrap()
                {
                    Message::GetResponse(body) => assert_eq!(
                        body.record.as_ref(),
                        Some(record),
                        "epilogue: tag {tag} diverged"
                    ),
                    other => panic!("epilogue: unexpected {other:?}"),
                }
            }
        },
    );
}

/// The tag a chunk's bytes dedup under in the chunked-PUT arm: an FNV-1a
/// hash of the content, repeated to fill the tag width. Content-derived,
/// so the same chunk in two documents collides — which is the point.
fn chunk_tag(chunk: &[u8]) -> CompTag {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &byte in chunk {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01B3);
    }
    let mut bytes = [0u8; COMP_TAG_LEN];
    for slot in bytes.chunks_mut(8) {
        slot.copy_from_slice(&hash.to_le_bytes()[..slot.len()]);
    }
    CompTag::from_bytes(bytes)
}

/// The record a chunk stores: deterministic in the chunk content, so the
/// first-writer-wins rule is unobservable for identical chunks.
fn chunk_record(chunk: &[u8]) -> Record {
    let fill = chunk.first().copied().unwrap_or(0);
    Record {
        challenge: vec![fill; 32],
        wrapped_key: [fill; 16],
        nonce: [chunk.len() as u8; 12],
        boxed_result: vec![fill.wrapping_add(1); 8 + chunk.len() % 24],
    }
}

/// Chunked-PUT arm of the differential tester: documents assembled from a
/// shared segment pool are content-chunked and PUT chunk-by-chunk in one
/// batch per document. A flat model holding a per-chunk refcount predicts
/// every response: the first PUT of a chunk's content is a fresh insert,
/// every later one (same document, later document — any source) is a
/// duplicate; store entry/byte stats track *distinct* chunks only, and
/// every chunk reads back the first-written record.
#[test]
fn chunked_puts_match_flat_model_with_refcounts() {
    use speed_core::{chunk_all, ChunkerConfig};

    check(
        "chunked_puts_match_flat_model_with_refcounts",
        0x5EED_0006,
        |rng| {
            let pool_len = rng.range_usize(2, 6);
            let pool: Vec<Vec<u8>> = (0..pool_len)
                .map(|_| {
                    let mut segment = vec![0u8; rng.range_usize(256, 2048)];
                    rng.fill(&mut segment);
                    segment
                })
                .collect();
            let documents = rng.range_usize(1, 6);
            let plans: Vec<Vec<usize>> = (0..documents)
                .map(|_| {
                    (0..rng.range_usize(1, 5))
                        .map(|_| rng.range_usize(0, pool_len - 1))
                        .collect()
                })
                .collect();
            (pool, plans)
        },
        |(pool, plans): &(Vec<Vec<u8>>, Vec<Vec<usize>>)| {
            if pool.is_empty() {
                return; // shrunk to nothing: vacuously true
            }
            let platform = Platform::new(CostModel::no_sgx());
            let store = ResultStore::new(
                &platform,
                StoreConfig::with_capacity(100_000, u64::MAX),
            )
            .expect("store");
            let app = AppId(1);
            // chunk tag -> (record, refcount).
            let mut model: BTreeMap<CompTag, (Record, u64)> = BTreeMap::new();
            let mut total_chunks = 0u64;
            for (doc_index, plan) in plans.iter().enumerate() {
                let document: Vec<u8> = plan
                    .iter()
                    .flat_map(|&i| pool[i % pool.len()].iter().copied())
                    .collect();
                let chunks = chunk_all(ChunkerConfig::SMALL, &document);
                total_chunks += chunks.len() as u64;
                let items: Vec<BatchItem> = chunks
                    .iter()
                    .map(|chunk| BatchItem::Put {
                        tag: chunk_tag(chunk),
                        record: chunk_record(chunk),
                    })
                    .collect();
                let response = store.handle(Message::BatchRequest { app, items });
                let mut expected = Vec::with_capacity(chunks.len());
                for chunk in &chunks {
                    let slot = model
                        .entry(chunk_tag(chunk))
                        .or_insert_with(|| (chunk_record(chunk), 0));
                    slot.1 += 1;
                    if slot.1 == 1 {
                        expected.push(BatchItemResult::accepted());
                    } else {
                        let mut dup = BatchItemResult::accepted();
                        dup.reason = Some("duplicate: existing entry kept".into());
                        expected.push(dup);
                    }
                }
                match response {
                    Message::BatchResponse(results) => assert_eq!(
                        results, expected,
                        "document {doc_index}: chunked batch diverged"
                    ),
                    other => panic!("document {doc_index}: unexpected {other:?}"),
                }
            }
            // Stats charge distinct chunks only; refcounts account for the
            // rest of the traffic.
            let stats = store.stats();
            assert_eq!(stats.entries, model.len() as u64, "distinct-chunk count");
            assert_eq!(
                stats.stored_bytes,
                model.values().map(|(r, _)| r.boxed_result.len() as u64).sum::<u64>(),
                "stored bytes must charge each chunk once"
            );
            assert_eq!(
                model.values().map(|(_, refs)| refs).sum::<u64>(),
                total_chunks,
                "refcounts must account for every chunk PUT"
            );
            // Every distinct chunk reads back its first-written record.
            for (tag, (record, _)) in &model {
                match store.handle(Message::GetRequest { app, tag: *tag }) {
                    Message::GetResponse(body) => {
                        assert_eq!(body.record.as_ref(), Some(record), "chunk readback")
                    }
                    other => panic!("unexpected GET response {other:?}"),
                }
            }
        },
    );
}

/// Quota enforcement matches a simple prediction: with only
/// `max_entries_per_app` limited, a PUT is denied exactly when the app
/// already owns that many live entries (duplicates are charged then
/// refunded, so they never change the count).
#[test]
fn quota_denials_match_prediction() {
    const PER_APP: u64 = 3;
    check(
        "quota_denials_match_prediction",
        0x5EED_0003,
        |rng| {
            let len = rng.range_usize(0, 30);
            (0..len)
                .map(|_| {
                    let app = rng.byte() % 3;
                    let tag = rng.byte() % TAG_SPACE;
                    (app, tag, rng.byte())
                })
                .collect::<Vec<(u8, u8, u8)>>()
        },
        |puts: &Vec<(u8, u8, u8)>| {
            let platform = Platform::new(CostModel::no_sgx());
            let mut config = StoreConfig::with_capacity(10_000, u64::MAX);
            config.quota =
                QuotaPolicy { max_entries_per_app: PER_APP, ..QuotaPolicy::unlimited() };
            let store = ResultStore::new(&platform, config).expect("store");
            // tag -> owner, and per-app live entry counts.
            let mut owner: BTreeMap<u8, u8> = BTreeMap::new();
            let mut live = [0u64; 3];
            for (index, &(app, tag, fill)) in puts.iter().enumerate() {
                let response = store.handle(Message::PutRequest {
                    app: AppId(u64::from(app)),
                    tag: tag_of(tag),
                    record: record_of(tag, 16, fill),
                });
                let expect_deny = live[usize::from(app)] >= PER_APP;
                match response {
                    Message::PutResponse(body) => {
                        assert_eq!(
                            body.accepted,
                            !expect_deny,
                            "put {index}: app {app} with {} live entries, got {:?}",
                            live[usize::from(app)],
                            body.reason
                        );
                        if expect_deny {
                            assert!(
                                body.reason
                                    .as_deref()
                                    .is_some_and(|r| r.contains("entry quota")),
                                "put {index}: denial reason {:?}",
                                body.reason
                            );
                        } else if let std::collections::btree_map::Entry::Vacant(slot) =
                            owner.entry(tag)
                        {
                            slot.insert(app);
                            live[usize::from(app)] += 1;
                        }
                        // Duplicate: charged then refunded; counts unchanged.
                    }
                    other => panic!("put {index}: unexpected response {other:?}"),
                }
            }
        },
    );
}
