//! The `ResultStore` proper: request parsing outside the enclave, dictionary
//! access inside it (§IV-B).
//!
//! The dictionary is lock-sharded: the tag's leading byte routes each
//! request to one of [`StoreConfig::shards`] partitions, each owning its
//! own [`MetadataDict`], meta-heap accounting, and eviction budget. Shards
//! serve independent requests in parallel — the three global mutexes the
//! original single-dict store funnelled every connection through are gone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use speed_enclave::{BlobId, Enclave, EnclaveError, Platform, UntrustedMemory};
use speed_telemetry::{names, Counter, Gauge, Histogram};
use speed_wire::{
    AppId, BatchItem, BatchItemResult, BatchStatus, CompTag, FilterBody, GetResponseBody,
    Message, MetricsFormat, NegativeFilter, PutResponseBody, Record, RingBody,
    ShardStatsBody, StatsBody, SyncEntry,
};

use crate::backend::{MemoryBackend, RecoveryReport, StoreBackend};
use crate::dict::{DictEntry, MetadataDict};
use crate::quota::{QuotaDecision, QuotaPolicy, ShardedQuota};
use crate::StoreError;

/// Code identity of the store enclave (what remote parties attest against).
pub const STORE_ENCLAVE_CODE: &[u8] = b"speed-result-store-enclave-v1";

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// A poisoned store mutex only means some request died mid-flight; every
/// critical section below leaves the dictionary/quota/heap in a consistent
/// state before it can panic, so later requests must keep being served
/// instead of propagating the panic to every future caller.
fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Who may use the store — the "controlled deduplication" extension the
/// paper sketches in §III-D ("to ensure that only authorized applications
/// can access ResultStore, it requires an additional authorization
/// mechanism").
#[derive(Clone, Debug, Default)]
pub enum AccessControl {
    /// Any application may GET and PUT (the paper's prototype default).
    #[default]
    Open,
    /// Only the listed application ids may GET or PUT; everyone else gets
    /// a protocol error.
    Allowlist(std::collections::HashSet<u64>),
}

impl AccessControl {
    fn permits(&self, app: AppId) -> bool {
        match self {
            AccessControl::Open => true,
            AccessControl::Allowlist(allowed) => allowed.contains(&app.0),
        }
    }
}

/// Configuration for a [`ResultStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Maximum number of dictionary entries before LRU eviction. Split
    /// evenly across shards (each shard evicts against its own slice).
    pub max_entries: usize,
    /// Maximum total ciphertext bytes before LRU eviction, split evenly
    /// across shards like `max_entries`.
    pub max_stored_bytes: u64,
    /// Per-application quota policy.
    pub quota: QuotaPolicy,
    /// Which applications may use the store.
    pub access: AccessControl,
    /// Number of lock partitions of the metadata dictionary (at least 1).
    /// Requests route by the tag's leading byte; more shards mean more
    /// concurrent dictionary traffic at the cost of coarser per-shard
    /// eviction budgets.
    pub shards: usize,
}

/// Entries one [`ResultStore::import_entries`] batch carries.
const IMPORT_BATCH: usize = 256;

/// Default shard count: enough partitions that 8–16 concurrent clients
/// rarely collide, while keeping per-shard budget slices coarse.
pub const DEFAULT_SHARDS: usize = 8;

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_entries: 1_000_000,
            max_stored_bytes: 8 * 1024 * 1024 * 1024,
            quota: QuotaPolicy::default(),
            access: AccessControl::Open,
            shards: DEFAULT_SHARDS,
        }
    }
}

impl StoreConfig {
    /// A small-capacity config for eviction tests. Uses a single shard so
    /// `max_entries`/`max_stored_bytes` behave as exact global budgets with
    /// store-wide LRU order.
    pub fn with_capacity(max_entries: usize, max_stored_bytes: u64) -> Self {
        StoreConfig {
            max_entries,
            max_stored_bytes,
            quota: QuotaPolicy::unlimited(),
            access: AccessControl::Open,
            shards: 1,
        }
    }

    /// The same config with a different shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// One [`ResultStore`]'s handles into the process-wide telemetry registry:
/// its own cells of the event counters, which [`ResultStore::stats`] reads,
/// and the gauges that [`ResultStore::sync_telemetry`] sets just before a
/// snapshot is rendered.
#[derive(Debug)]
struct StoreTelemetry {
    gets: Counter,
    hits: Counter,
    puts: Counter,
    rejected_puts: Counter,
    evictions: Counter,
    entries: Gauge,
    stored_bytes: Gauge,
    request_duration: Histogram,
    filter_requests: Counter,
    filter_inserts: Counter,
}

impl StoreTelemetry {
    fn from_global() -> Self {
        let registry = speed_telemetry::global();
        StoreTelemetry {
            gets: registry
                .counter(names::STORE_GETS_TOTAL, "GET requests served by the store"),
            hits: registry
                .counter(names::STORE_HITS_TOTAL, "GET requests that found a live entry"),
            puts: registry
                .counter(names::STORE_PUTS_TOTAL, "PUT requests served by the store"),
            rejected_puts: registry.counter(
                names::STORE_REJECTED_PUTS_TOTAL,
                "PUT requests rejected by quota or enclave memory pressure",
            ),
            evictions: registry.counter(
                names::STORE_EVICTIONS_TOTAL,
                "Entries evicted under the LRU capacity policy, all shards",
            ),
            entries: registry.gauge(
                names::STORE_ENTRIES,
                "Dictionary entries currently held, all shards",
            ),
            stored_bytes: registry.gauge(
                names::STORE_STORED_BYTES,
                "Ciphertext bytes currently referenced, all shards",
            ),
            request_duration: registry.histogram(
                names::STORE_REQUEST_DURATION_NS,
                "Wall-clock service time of one store protocol message",
            ),
            filter_requests: registry.counter(
                names::STORE_FILTER_REQUESTS_TOTAL,
                "FILTER_REQUEST messages served (negative-filter snapshots shipped)",
            ),
            filter_inserts: registry.counter(
                names::STORE_FILTER_INSERTS_TOTAL,
                "Comp-tags inserted into per-shard negative filters, one per entry \
                 the store takes",
            ),
        }
    }
}

/// Page-pooled EPC accounting for dictionary metadata: entries are tens of
/// bytes, so the enclave heap commits pages as byte usage crosses page
/// boundaries instead of a page per entry. Each shard accounts its own
/// slice of the enclave heap.
#[derive(Debug, Default)]
struct MetaHeap {
    bytes: usize,
    committed: usize,
}

impl MetaHeap {
    fn reserve(&mut self, enclave: &Enclave, bytes: usize) -> Result<(), EnclaveError> {
        let new_bytes = self.bytes + bytes;
        let needed =
            new_bytes.div_ceil(speed_enclave::PAGE_SIZE) * speed_enclave::PAGE_SIZE;
        if needed > self.committed {
            enclave.commit_memory(needed - self.committed)?;
            self.committed = needed;
        }
        self.bytes = new_bytes;
        Ok(())
    }

    fn release(&mut self, enclave: &Enclave, bytes: usize) {
        self.bytes = self.bytes.saturating_sub(bytes);
        let needed =
            self.bytes.div_ceil(speed_enclave::PAGE_SIZE) * speed_enclave::PAGE_SIZE;
        if needed < self.committed {
            let _ = enclave.release_memory(self.committed - needed);
            self.committed = needed;
        }
    }
}

/// A dictionary guard that attributes its hold time to the shard's
/// `busy_ns` counter on drop — the shard's serial service time, reported
/// in [`ShardStatsBody`] and consumed by the `repro shard` concurrency
/// model.
struct Timed<'a, G> {
    inner: G,
    start: Instant,
    busy: &'a Counter,
}

impl<G> std::ops::Deref for Timed<'_, G>
where
    G: std::ops::Deref,
{
    type Target = G::Target;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl<G> std::ops::DerefMut for Timed<'_, G>
where
    G: std::ops::DerefMut,
{
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.inner
    }
}

impl<G> Drop for Timed<'_, G> {
    fn drop(&mut self) {
        self.busy.add(self.start.elapsed().as_nanos() as u64);
    }
}

/// One lock partition: its own dictionary, meta-heap slice, negative
/// filter, and `shard`-labelled registry series.
#[derive(Debug)]
struct Shard {
    dict: RwLock<MetadataDict>,
    meta_heap: Mutex<MetaHeap>,
    /// Negative-lookup filter over the comp-tags of every entry this shard
    /// took. Bits are only set, never cleared (eviction leaves stale bits
    /// — false positives only).
    filter: Mutex<NegativeFilter>,
    evictions: Counter,
    contention: Counter,
    busy_ns: Counter,
    entries_tm: Gauge,
    stored_bytes_tm: Gauge,
}

impl Shard {
    fn new(index: usize, filter_capacity: usize) -> Self {
        let registry = speed_telemetry::global();
        let label = index.to_string();
        let labels: &[(&str, &str)] = &[("shard", label.as_str())];
        Shard {
            dict: RwLock::new(MetadataDict::new()),
            meta_heap: Mutex::new(MetaHeap::default()),
            filter: Mutex::new(NegativeFilter::with_capacity(filter_capacity as u64)),
            evictions: registry.counter_with(
                names::STORE_SHARD_EVICTIONS_TOTAL,
                "LRU evictions performed by this shard",
                labels,
            ),
            contention: registry.counter_with(
                names::STORE_SHARD_LOCK_CONTENTION_TOTAL,
                "Dictionary lock acquisitions that had to block on this shard",
                labels,
            ),
            busy_ns: registry.counter_with(
                names::STORE_SHARD_BUSY_NS_TOTAL,
                "Nanoseconds this shard's dictionary lock was held",
                labels,
            ),
            entries_tm: registry.gauge_with(
                names::STORE_SHARD_ENTRIES,
                "Dictionary entries held by this shard",
                labels,
            ),
            stored_bytes_tm: registry.gauge_with(
                names::STORE_SHARD_STORED_BYTES,
                "Ciphertext bytes referenced by this shard's entries",
                labels,
            ),
        }
    }

    /// Shared (read) dictionary access with contention + busy accounting.
    fn dict_read(&self) -> Timed<'_, RwLockReadGuard<'_, MetadataDict>> {
        let guard = match self.dict.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.inc();
                self.dict.read().unwrap_or_else(std::sync::PoisonError::into_inner)
            }
        };
        Timed { inner: guard, start: Instant::now(), busy: &self.busy_ns }
    }

    /// Exclusive (write) dictionary access with contention + busy
    /// accounting.
    fn dict_write(&self) -> Timed<'_, RwLockWriteGuard<'_, MetadataDict>> {
        let guard = match self.dict.try_write() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.inc();
                self.dict.write().unwrap_or_else(std::sync::PoisonError::into_inner)
            }
        };
        Timed { inner: guard, start: Instant::now(), busy: &self.busy_ns }
    }

    /// Dictionary access for monitoring paths that must not skew the
    /// contention/busy counters they report.
    fn dict_observe(&self) -> RwLockReadGuard<'_, MetadataDict> {
        self.dict.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Host-side plan for one batch item, built before the batch ECALL: quota
/// decisions and bulk ciphertext placement happen outside the enclave, so
/// the single ECALL only touches dictionary metadata.
enum BatchPlan {
    Get {
        tag: CompTag,
    },
    Put {
        tag: CompTag,
        challenge: Vec<u8>,
        wrapped_key: [u8; 16],
        nonce: [u8; 12],
        blob: BlobId,
        boxed_len: u64,
    },
    /// Denied host-side (quota); never enters the enclave.
    Denied {
        reason: String,
    },
}

/// Per-item outcome of the batch ECALL, resolved to a wire result (and any
/// required blob/quota cleanup) back on the host side.
enum BatchOutcome {
    GetHit { challenge: Vec<u8>, wrapped_key: [u8; 16], nonce: [u8; 12], blob: BlobId },
    GetMiss,
    PutInserted,
    PutDuplicate { orphan: BlobId },
    PutFailed(String),
    Denied(String),
}

/// The encrypted result store.
///
/// Thread-safe: the TCP front end serves concurrent connections against one
/// shared instance, and requests to different shards proceed in parallel.
#[derive(Debug)]
pub struct ResultStore {
    enclave: Arc<Enclave>,
    untrusted: Arc<UntrustedMemory>,
    shards: Box<[Shard]>,
    /// Per-shard entry budget (`config.max_entries` split across shards).
    shard_max_entries: usize,
    /// Per-shard byte budget (`config.max_stored_bytes` split likewise).
    shard_max_bytes: u64,
    quota: ShardedQuota,
    config: StoreConfig,
    telemetry: StoreTelemetry,
    /// Bumped on every negative-filter mutation; shipped in
    /// [`FilterBody::epoch`] so clients can tell how stale their copy is.
    filter_epoch: AtomicU64,
    /// Durability backend under the dictionary ([`MemoryBackend`] unless
    /// the store was built with [`ResultStore::open`]).
    backend: Arc<dyn StoreBackend>,
    /// Cleared while recovered entries are re-imported on open so the
    /// replay itself is not logged back into the WAL.
    backend_logging: AtomicBool,
    /// The cluster membership view this node advertises to `RING_REQUEST`
    /// clients. Empty (version 0) on standalone nodes; set at startup by
    /// `speedctl serve --node-id/--peers` or [`ResultStore::set_topology`].
    topology: RwLock<RingBody>,
}

impl ResultStore {
    /// Creates a store whose enclave runs on `platform`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Enclave`] if the platform cannot host the
    /// store enclave.
    pub fn new(platform: &Platform, config: StoreConfig) -> Result<Self, StoreError> {
        let enclave = platform.create_enclave(STORE_ENCLAVE_CODE)?;
        let shard_count = config.shards.max(1);
        let shard_max_entries = config.max_entries.div_ceil(shard_count).max(1);
        let shards: Box<[Shard]> =
            (0..shard_count).map(|index| Shard::new(index, shard_max_entries)).collect();
        Ok(ResultStore {
            enclave,
            untrusted: Arc::clone(platform.untrusted()),
            shard_max_entries,
            shard_max_bytes: config.max_stored_bytes.div_ceil(shard_count as u64).max(1),
            quota: ShardedQuota::new(config.quota, shard_count),
            shards,
            config,
            telemetry: StoreTelemetry::from_global(),
            filter_epoch: AtomicU64::new(0),
            backend: Arc::new(MemoryBackend),
            backend_logging: AtomicBool::new(true),
            topology: RwLock::new(RingBody::default()),
        })
    }

    /// Creates a store on a durability `backend`, recovering whatever the
    /// backend persisted before (checkpoint + WAL replay for
    /// [`crate::LogBackend`]; nothing for [`MemoryBackend`]). Returns the
    /// store plus a [`RecoveryReport`] describing the recovery pass.
    ///
    /// # Errors
    ///
    /// - [`StoreError::Enclave`] if the platform cannot host the enclave.
    /// - Any error [`StoreBackend::open`] can return (backend directory
    ///   unusable). Unreadable prior *state* degrades to a fresh start and
    ///   is reported, never an error.
    pub fn open(
        platform: &Arc<Platform>,
        config: StoreConfig,
        backend: Arc<dyn StoreBackend>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let mut store = Self::new(platform.as_ref(), config)?;
        store.backend = Arc::clone(&backend);
        let recovery = backend.open(platform, &store.enclave)?;
        // Importing the recovered entries replays them through the normal
        // PUT path; suppress backend logging so recovery is not re-logged.
        store.backend_logging.store(false, Ordering::Relaxed);
        store.import_entries(recovery.entries);
        store.backend_logging.store(true, Ordering::Relaxed);
        Ok((store, recovery.report))
    }

    /// The durability backend the store runs on.
    pub fn backend(&self) -> &Arc<dyn StoreBackend> {
        &self.backend
    }

    /// Whether mutations must be mirrored into the backend right now.
    fn durable(&self) -> bool {
        self.backend.is_durable() && self.backend_logging.load(Ordering::Relaxed)
    }

    /// Writes a checkpoint of the current store state through the backend,
    /// bounding future WAL replay. No-op on non-durable backends.
    ///
    /// # Errors
    ///
    /// Any error [`StoreBackend::checkpoint`] can return; the WAL is
    /// untouched on failure and the store keeps running.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        if !self.backend.is_durable() {
            return Ok(());
        }
        self.backend.checkpoint(&|| self.export_shards())
    }

    /// Checkpoints when enough records accumulated since the last one. A
    /// failure is swallowed: the checkpoint is retried on a later request
    /// and the WAL still holds everything already acknowledged.
    fn maintain(&self) {
        if self.durable() && self.backend.wants_checkpoint() {
            let _ = self.checkpoint();
        }
    }

    /// The store's enclave (for attestation by clients).
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// Number of dictionary lock partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Installs the cluster membership view this node advertises to
    /// `RING_REQUEST` clients (see `docs/CLUSTER.md`). A view whose
    /// version is not newer than the current one is ignored, so stale
    /// gossip cannot roll the topology back.
    pub fn set_topology(&self, body: RingBody) -> bool {
        let mut topology =
            self.topology.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        if !topology.nodes.is_empty() && body.version <= topology.version {
            return false;
        }
        *topology = body;
        true
    }

    /// The cluster membership view this node currently advertises
    /// (default/empty with version 0 on standalone nodes).
    pub fn topology(&self) -> RingBody {
        self.topology.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// The shard `tag` routes to: its leading byte modulo the shard count.
    /// Tags are SHA-256 outputs, so the prefix is uniform across shards.
    pub fn shard_for_tag(&self, tag: &CompTag) -> usize {
        usize::from(tag.as_bytes()[0]) % self.shards.len()
    }

    fn shard(&self, tag: &CompTag) -> &Shard {
        &self.shards[self.shard_for_tag(tag)]
    }

    /// Handles one protocol message, returning the response message.
    ///
    /// Mirrors the paper's flow: preliminary parsing happens outside the
    /// enclave (the caller decoded the message), then the request is
    /// delegated to an ECALL that marshals data across the boundary and
    /// touches the in-enclave dictionary shard the tag routes to. Every
    /// data-plane message is served by one batch ECALL: a standalone GET
    /// or PUT is a batch of one, at the same boundary
    /// charge (32 B in and 128 B out per GET, the entry metadata in and one
    /// byte out per PUT). A `PutPrefiltered` is served as a `PutRequest`;
    /// its prefilter is ignored.
    pub fn handle(&self, message: Message) -> Message {
        let _request_span = self.telemetry.request_duration.start_span();
        match message {
            Message::GetRequest { app, tag } => {
                self.serve(app, vec![BatchItem::Get { tag }], |mut results| {
                    let record = results.pop().and_then(|result| result.record);
                    Message::GetResponse(GetResponseBody {
                        found: record.is_some(),
                        record,
                    })
                })
            }
            Message::PutRequest { app, tag, record }
            | Message::PutPrefiltered { app, tag, record, .. } => {
                self.serve(app, vec![BatchItem::Put { tag, record }], Self::put_response)
            }
            Message::BatchRequest { app, items } => {
                self.serve(app, items, Message::BatchResponse)
            }
            Message::FilterRequest => {
                self.telemetry.filter_requests.inc();
                Message::FilterResponse(self.filter_snapshot())
            }
            Message::StatsRequest => Message::StatsResponse(self.stats()),
            Message::MetricsRequest { format } => {
                self.sync_telemetry();
                let snapshot = speed_telemetry::global().snapshot();
                Message::MetricsResponse(match format {
                    MetricsFormat::Prometheus => snapshot.render_prometheus(),
                    MetricsFormat::Jsonl => snapshot.render_jsonl(),
                })
            }
            Message::RingRequest => Message::RingResponse(self.topology()),
            other => Message::Error(format!("unexpected message: {other:?}")),
        }
    }

    /// Serves `app`'s data-plane `items` through the batch path, shaping
    /// the per-item results into the reply; maintenance follows writes.
    fn serve(
        &self,
        app: AppId,
        items: Vec<BatchItem>,
        reply: impl FnOnce(Vec<BatchItemResult>) -> Message,
    ) -> Message {
        if !self.config.access.permits(app) {
            return Message::Error(format!("app {} not authorized", app.0));
        }
        let writes = items.iter().any(|item| matches!(item, BatchItem::Put { .. }));
        let response = reply(self.handle_batch(Some(app), items));
        if writes {
            self.maintain();
        }
        response
    }

    /// The `PUT_RESPONSE` for a standalone PUT's batch of one.
    fn put_response(mut results: Vec<BatchItemResult>) -> Message {
        let result = results.pop().unwrap_or_else(|| {
            BatchItemResult::rejected("a batch of one returned no result")
        });
        Message::PutResponse(PutResponseBody {
            accepted: result.status == BatchStatus::Accepted,
            reason: result.reason,
        })
    }

    /// Handles a batched request: every dictionary operation in the batch
    /// runs inside a single `store_batch` ECALL, so a batch of N items
    /// costs one enclave transition on the store side instead of N.
    ///
    /// Items are grouped by target shard inside the ECALL, each shard
    /// locked once and settled in request order (a tag always routes to one
    /// shard, so a PUT followed by a GET of the same tag still hits within
    /// the batch). Results are returned in request order. A quota denial or
    /// enclave memory failure rejects only the affected item, never the
    /// batch.
    ///
    /// PUTs are charged to `owner`'s quota. Imported entries have no owner
    /// (`None`): each already passed its owner's quota at its first PUT.
    fn handle_batch(
        &self,
        owner: Option<AppId>,
        items: Vec<BatchItem>,
    ) -> Vec<BatchItemResult> {
        if items.is_empty() {
            return Vec::new();
        }

        // Phase A (host): quota checks and bulk ciphertext straight to
        // untrusted memory; only metadata will cross the boundary.
        let mut plans = Vec::with_capacity(items.len());
        let mut args_len = 0usize;
        let mut ret_len = 0usize;
        for item in items {
            match item {
                BatchItem::Get { tag } => {
                    self.telemetry.gets.inc();
                    args_len += 32;
                    ret_len += 128;
                    plans.push(BatchPlan::Get { tag });
                }
                BatchItem::Put { tag, record } => {
                    self.telemetry.puts.inc();
                    // Degraded durability rejects writes up front: the store
                    // must not acknowledge a PUT it cannot make crash-safe.
                    if let Some(reason) = self.backend.read_only() {
                        plans.push(BatchPlan::Denied {
                            reason: format!("store is read-only: {reason}"),
                        });
                        continue;
                    }
                    let boxed_len = record.boxed_result.len() as u64;
                    let decision = owner.map(|app| self.quota.check_put(app, boxed_len));
                    if let Some(QuotaDecision::Deny(reason)) = decision {
                        plans.push(BatchPlan::Denied { reason });
                        continue;
                    }
                    args_len += record.challenge.len() + 16 + 12 + 8;
                    ret_len += 1;
                    let blob = self.untrusted.store(record.boxed_result);
                    plans.push(BatchPlan::Put {
                        tag,
                        challenge: record.challenge,
                        wrapped_key: record.wrapped_key,
                        nonce: record.nonce,
                        blob,
                        boxed_len,
                    });
                }
            }
        }

        // Phase B: ONE ECALL for the whole batch. Items are grouped by
        // shard; each shard's lock is taken once, and per-item
        // enclave-memory failures are recorded instead of aborting the
        // remaining items.
        let outcomes =
            self.enclave.ecall_with_bytes("store_batch", args_len, ret_len, || {
                let mut outcomes: Vec<Option<BatchOutcome>> =
                    plans.iter().map(|_| None).collect();
                let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
                for (index, plan) in plans.iter().enumerate() {
                    match plan {
                        BatchPlan::Denied { reason } => {
                            outcomes[index] = Some(BatchOutcome::Denied(reason.clone()));
                        }
                        BatchPlan::Get { tag } | BatchPlan::Put { tag, .. } => {
                            by_shard[self.shard_for_tag(tag)].push(index);
                        }
                    }
                }
                for (shard_index, indices) in by_shard.iter().enumerate() {
                    if indices.is_empty() {
                        continue;
                    }
                    let shard = &self.shards[shard_index];
                    // Pure-GET groups share the shard read lock; a group
                    // with a PUT takes the write lock.
                    let needs_write = indices
                        .iter()
                        .any(|&i| matches!(plans[i], BatchPlan::Put { .. }));
                    if needs_write {
                        let mut dict = shard.dict_write();
                        for &index in indices {
                            outcomes[index] = Some(self.settle_item(
                                owner,
                                &plans[index],
                                shard,
                                &mut dict,
                            ));
                        }
                    } else {
                        let dict = shard.dict_read();
                        for &index in indices {
                            if let BatchPlan::Get { tag } = &plans[index] {
                                outcomes[index] = Some(Self::settle_get(tag, &dict));
                            }
                        }
                    }
                }
                outcomes
                    .into_iter()
                    .map(|outcome| outcome.expect("every batch item settled"))
                    .collect::<Vec<_>>()
            });

        // Phase C (host): load hit blobs, clean up duplicate/failed items,
        // mirror mutations into the durable backend, and enforce capacity
        // once per inserted-into shard. WAL records are appended per item
        // but fsynced once for the whole batch (group commit) before the
        // results are returned.
        let durable = self.durable();
        let mut results = Vec::with_capacity(outcomes.len());
        let mut dangling: Vec<CompTag> = Vec::new();
        // Inserted PUTs, acknowledged only once the final flush succeeds:
        // the result index plus everything needed to roll the item back.
        let mut inserted: Vec<(usize, CompTag, BlobId, u64)> = Vec::new();
        // Duplicate PUTs, acknowledged only once that flush succeeds too:
        // the entry they name may still await its own group commit.
        let mut duplicates: Vec<usize> = Vec::new();
        let mut wal_touched = false;
        for (outcome, plan) in outcomes.into_iter().zip(plans) {
            match outcome {
                BatchOutcome::Denied(reason) => results.push(self.reject(reason)),
                BatchOutcome::GetMiss => results.push(BatchItemResult::not_found()),
                BatchOutcome::GetHit { challenge, wrapped_key, nonce, blob } => {
                    // The ciphertext itself is read from untrusted memory by
                    // the host side — no boundary crossing for the bulk bytes.
                    match self.untrusted.load(blob) {
                        Some(boxed_result) => {
                            self.telemetry.hits.inc();
                            results.push(BatchItemResult::found(Record {
                                challenge,
                                wrapped_key,
                                nonce,
                                boxed_result,
                            }));
                        }
                        None => {
                            // Hostile blob deletion; drop the metadata in one
                            // follow-up ECALL shared by all dangling items.
                            if let BatchPlan::Get { tag } = plan {
                                dangling.push(tag);
                            }
                            results.push(BatchItemResult::not_found());
                        }
                    }
                }
                BatchOutcome::PutInserted => {
                    let BatchPlan::Put {
                        tag,
                        challenge,
                        wrapped_key,
                        nonce,
                        blob,
                        boxed_len,
                    } = plan
                    else {
                        continue;
                    };
                    if durable {
                        // WAL-then-ack: the ciphertext is read back from
                        // untrusted memory (it was stored a moment ago)
                        // rather than cloned up front.
                        let logged = match self.untrusted.load(blob) {
                            Some(boxed_result) => self.backend.record_put(&SyncEntry {
                                tag,
                                record: Record {
                                    challenge,
                                    wrapped_key,
                                    nonce,
                                    boxed_result,
                                },
                            }),
                            None => Ok(()), // blob raced away; nothing to record
                        };
                        if let Err(e) = logged {
                            results.push(
                                self.rollback_batch_put(owner, &tag, blob, boxed_len, e),
                            );
                            continue;
                        }
                        wal_touched = true;
                    }
                    inserted.push((results.len(), tag, blob, boxed_len));
                    results.push(BatchItemResult::accepted());
                }
                BatchOutcome::PutDuplicate { orphan } => {
                    // First writer won: free the new blob and refund quota.
                    self.untrusted.remove(orphan);
                    if let BatchPlan::Put { boxed_len, .. } = plan {
                        self.release_quota(owner, boxed_len);
                    }
                    if durable {
                        duplicates.push(results.len());
                    }
                    results.push(BatchItemResult {
                        status: BatchStatus::Accepted,
                        record: None,
                        reason: Some("duplicate: existing entry kept".into()),
                    });
                }
                BatchOutcome::PutFailed(reason) => {
                    if let BatchPlan::Put { blob, boxed_len, .. } = plan {
                        self.untrusted.remove(blob);
                        self.release_quota(owner, boxed_len);
                    }
                    results.push(self.reject(reason));
                }
            }
        }
        if !dangling.is_empty() {
            self.enclave.ecall("store_drop_dangling", || {
                for tag in &dangling {
                    let shard = self.shard(tag);
                    let removed = shard.dict_write().remove(tag);
                    if let Some(entry) = removed {
                        self.release_entry_memory(shard, &entry);
                    }
                }
            });
            if durable {
                for tag in &dangling {
                    if self.backend.record_delete(tag).is_ok() {
                        wal_touched = true;
                    }
                }
            }
        }
        // Group commit: one fsync covers every record this batch appended,
        // and a duplicate PUT logs nothing but still waits for it. If it
        // fails, the PUTs acknowledged optimistically in `results` are not
        // durable — roll each insert back and reject every one.
        if wal_touched || !duplicates.is_empty() {
            if let Err(e) = self.backend.flush() {
                for (index, tag, blob, boxed_len) in inserted.drain(..) {
                    results[index] =
                        self.rollback_batch_put(owner, &tag, blob, boxed_len, e.clone());
                }
                for index in duplicates {
                    results[index] = self.reject(e.to_string());
                }
            }
        }
        let mut inserted_shards = vec![false; self.shards.len()];
        for (_, tag, _, _) in &inserted {
            let shard = self.shard_for_tag(tag);
            self.note_filter_insert(&self.shards[shard], tag);
            inserted_shards[shard] = true;
        }
        for (shard_index, inserted) in inserted_shards.iter().enumerate() {
            if *inserted {
                self.enforce_capacity(&self.shards[shard_index]);
            }
        }
        results
    }

    /// Returns `bytes` of quota to `owner`; imported entries charged none.
    fn release_quota(&self, owner: Option<AppId>, bytes: u64) {
        if let Some(app) = owner {
            self.quota.release(app, bytes);
        }
    }

    /// Counts one rejected PUT and returns its batch result.
    fn reject(&self, reason: impl Into<String>) -> BatchItemResult {
        self.telemetry.rejected_puts.inc();
        BatchItemResult::rejected(reason)
    }

    /// Rolls one batch-inserted PUT back out of the dictionary, untrusted
    /// memory, and quota accounting after its WAL record failed, and
    /// rejects it: an acknowledged PUT must survive a crash.
    fn rollback_batch_put(
        &self,
        owner: Option<AppId>,
        tag: &CompTag,
        blob: BlobId,
        boxed_len: u64,
        error: StoreError,
    ) -> BatchItemResult {
        let shard = self.shard(tag);
        self.enclave.ecall("store_put_rollback", || {
            let removed = shard.dict_write().remove(tag);
            if let Some(entry) = removed {
                self.release_entry_memory(shard, &entry);
            }
        });
        self.untrusted.remove(blob);
        self.release_quota(owner, boxed_len);
        self.reject(error.to_string())
    }

    /// Settles one batch item against its (write-locked) shard dictionary.
    fn settle_item(
        &self,
        owner: Option<AppId>,
        plan: &BatchPlan,
        shard: &Shard,
        dict: &mut MetadataDict,
    ) -> BatchOutcome {
        match plan {
            BatchPlan::Denied { reason } => BatchOutcome::Denied(reason.clone()),
            BatchPlan::Get { tag } => Self::settle_get(tag, dict),
            BatchPlan::Put { tag, challenge, wrapped_key, nonce, blob, boxed_len } => {
                let entry_footprint = DictEntry::enclave_footprint(challenge.len());
                let mut meta_heap = lock_recover(&shard.meta_heap);
                if let Err(e) = meta_heap.reserve(&self.enclave, entry_footprint) {
                    return BatchOutcome::PutFailed(e.to_string());
                }
                let rejected = dict.insert(
                    *tag,
                    challenge.clone(),
                    *wrapped_key,
                    *nonce,
                    *blob,
                    *boxed_len as u32,
                    owner,
                );
                match rejected {
                    Some(orphan) => {
                        meta_heap.release(&self.enclave, entry_footprint);
                        BatchOutcome::PutDuplicate { orphan }
                    }
                    None => BatchOutcome::PutInserted,
                }
            }
        }
    }

    /// Settles a GET of `tag` under either of its shard's locks.
    fn settle_get(tag: &CompTag, dict: &MetadataDict) -> BatchOutcome {
        match dict.get(tag) {
            Some(entry) => BatchOutcome::GetHit {
                challenge: entry.challenge.clone(),
                wrapped_key: entry.wrapped_key,
                nonce: entry.nonce,
                blob: entry.blob,
            },
            None => BatchOutcome::GetMiss,
        }
    }

    /// Evicts from `shard` until it fits its per-shard entry/byte budget.
    fn enforce_capacity(&self, shard: &Shard) {
        let mut logged_delete = false;
        loop {
            let evicted = self.enclave.ecall("store_evict", || {
                let mut dict = shard.dict_write();
                if dict.len() > self.shard_max_entries
                    || dict.stored_bytes() > self.shard_max_bytes
                {
                    dict.evict_lru()
                } else {
                    None
                }
            });
            match evicted {
                Some((tag, entry)) => {
                    shard.evictions.inc();
                    self.telemetry.evictions.inc();
                    self.untrusted.remove(entry.blob);
                    self.release_quota(entry.owner, u64::from(entry.boxed_len));
                    self.release_entry_memory(shard, &entry);
                    // Best-effort: a lost eviction record resurrects an
                    // evicted entry on restart, which capacity enforcement
                    // simply evicts again.
                    if self.durable() && self.backend.record_delete(&tag).is_ok() {
                        logged_delete = true;
                    }
                }
                None => break,
            }
        }
        if logged_delete {
            let _ = self.backend.flush();
        }
    }

    fn release_entry_memory(&self, shard: &Shard, entry: &DictEntry) {
        let footprint = DictEntry::enclave_footprint(entry.challenge.len());
        lock_recover(&shard.meta_heap).release(&self.enclave, footprint);
    }

    /// Records a freshly inserted entry's comp-tag in its shard's negative
    /// filter.
    fn note_filter_insert(&self, shard: &Shard, tag: &CompTag) {
        lock_recover(&shard.filter).insert(tag);
        self.telemetry.filter_inserts.inc();
        self.filter_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every shard's negative filter plus the
    /// current filter epoch — the payload of a `FILTER_RESPONSE`.
    pub fn filter_snapshot(&self) -> FilterBody {
        FilterBody {
            epoch: self.filter_epoch.load(Ordering::Relaxed),
            shards: self
                .shards
                .iter()
                .map(|shard| lock_recover(&shard.filter).clone())
                .collect(),
        }
    }

    /// Imports entries wholesale: recovery on [`open`](Self::open) lands
    /// here. Imports charge no application's quota, but capacity eviction
    /// still applies, and each imported tag enters its shard's negative
    /// filter like a PUT's. Entries route to shards by tag, so they import
    /// correctly into a store with any shard count, and each shard takes
    /// its entries in list order as its least to most recently used.
    /// Returns how many entries were accepted (a tag the store already held
    /// counts).
    ///
    /// Entries go in batches of 256, one `store_batch` ECALL per batch.
    /// Capacity is enforced after each batch, and eviction follows insertion
    /// order, so the entries that survive are those an import of one entry
    /// at a time would keep: the newest of each shard.
    pub fn import_entries(&self, entries: Vec<SyncEntry>) -> usize {
        let mut imported = 0usize;
        let mut entries = entries.into_iter().peekable();
        while entries.peek().is_some() {
            let items = entries
                .by_ref()
                .take(IMPORT_BATCH)
                .map(|entry| BatchItem::Put { tag: entry.tag, record: entry.record })
                .collect();
            imported += self
                .handle_batch(None, items)
                .iter()
                .filter(|result| result.status == BatchStatus::Accepted)
                .count();
        }
        self.maintain();
        imported
    }

    /// Exports every entry grouped by owning shard (checkpoint sections),
    /// each shard's least recently used first, so that
    /// [`import_entries`](Self::import_entries) rebuilds each shard's
    /// eviction order. Entries whose ciphertext blob vanished from
    /// untrusted memory are skipped.
    pub fn export_shards(&self) -> Vec<Vec<SyncEntry>> {
        self.shards
            .iter()
            .map(|shard| {
                let entries = self
                    .enclave
                    .ecall("store_export_shard", || shard.dict_read().by_recency());
                entries
                    .into_iter()
                    .filter_map(|(tag, entry)| {
                        self.untrusted.load(entry.blob).map(|boxed_result| SyncEntry {
                            tag,
                            record: Record {
                                challenge: entry.challenge,
                                wrapped_key: entry.wrapped_key,
                                nonce: entry.nonce,
                                boxed_result,
                            },
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// A snapshot of the store's counters: aggregates across shards plus
    /// one [`ShardStatsBody`] per shard.
    pub fn stats(&self) -> StatsBody {
        let mut entries = 0u64;
        let mut stored_bytes = 0u64;
        let mut evictions = 0u64;
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in self.shards.iter() {
            let (shard_entries, shard_bytes) = {
                let dict = shard.dict_observe();
                (dict.len() as u64, dict.stored_bytes())
            };
            let shard_evictions = shard.evictions.get();
            entries += shard_entries;
            stored_bytes += shard_bytes;
            evictions += shard_evictions;
            shards.push(ShardStatsBody {
                entries: shard_entries,
                stored_bytes: shard_bytes,
                evictions: shard_evictions,
                lock_contention: shard.contention.get(),
                busy_ns: shard.busy_ns.get(),
            });
        }
        StatsBody {
            entries,
            gets: self.telemetry.gets.get(),
            hits: self.telemetry.hits.get(),
            puts: self.telemetry.puts.get(),
            rejected_puts: self.telemetry.rejected_puts.get(),
            stored_bytes,
            evictions,
            shards,
        }
    }

    /// Sets the store's gauges — entry counts and byte totals, per shard and
    /// in all — in the process-global telemetry registry.
    ///
    /// Event counters (gets, hits, puts, rejections, evictions, per-shard
    /// contention and busy time) count live on this store's registry cells;
    /// the gauges are point-in-time readings that only a snapshot consumer
    /// needs, so they are refreshed on demand: [`handle`](Self::handle)
    /// calls this before answering a `MetricsRequest`, and the `speedctl
    /// serve` JSONL emitter calls it once per interval. Gauges are
    /// last-writer per series, so with several stores in one process they
    /// show the store that synced last.
    pub fn sync_telemetry(&self) {
        let mut entries = 0u64;
        let mut stored_bytes = 0u64;
        for shard in self.shards.iter() {
            let (shard_entries, shard_bytes) = {
                let dict = shard.dict_observe();
                (dict.len() as u64, dict.stored_bytes())
            };
            entries += shard_entries;
            stored_bytes += shard_bytes;
            shard.entries_tm.set(shard_entries);
            shard.stored_bytes_tm.set(shard_bytes);
        }
        self.telemetry.entries.set(entries);
        self.telemetry.stored_bytes.set(stored_bytes);
    }

    /// Number of LRU evictions so far, across all shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speed_enclave::CostModel;

    fn record(len: usize, fill: u8) -> Record {
        Record {
            challenge: vec![fill; 32],
            wrapped_key: [fill; 16],
            nonce: [fill; 12],
            boxed_result: vec![fill; len],
        }
    }

    fn tag(n: u8) -> CompTag {
        CompTag::from_bytes([n; 32])
    }

    fn store() -> (Arc<Platform>, ResultStore) {
        let platform = Platform::new(CostModel::default_sgx());
        let store = ResultStore::new(&platform, StoreConfig::default()).unwrap();
        (platform, store)
    }

    #[test]
    fn get_miss_then_put_then_hit() {
        let (_p, store) = store();
        let response = store.handle(Message::GetRequest { app: AppId(1), tag: tag(1) });
        assert_eq!(
            response,
            Message::GetResponse(GetResponseBody { found: false, record: None })
        );

        let put = store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(1),
            record: record(100, 7),
        });
        assert!(matches!(put, Message::PutResponse(body) if body.accepted));

        let response = store.handle(Message::GetRequest { app: AppId(2), tag: tag(1) });
        match response {
            Message::GetResponse(body) => {
                assert!(body.found);
                assert_eq!(body.record.unwrap().boxed_result, vec![7u8; 100]);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn stats_track_requests() {
        let (_p, store) = store();
        store.handle(Message::GetRequest { app: AppId(1), tag: tag(1) });
        store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(1),
            record: record(10, 1),
        });
        store.handle(Message::GetRequest { app: AppId(1), tag: tag(1) });
        let stats = store.stats();
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.puts, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.stored_bytes, 10);
    }

    #[test]
    fn stats_report_per_shard_counters() {
        let (_p, store) = store();
        // tag(n) routes by leading byte: distinct shards for 1 and 2.
        store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(1),
            record: record(10, 1),
        });
        store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(2),
            record: record(30, 2),
        });
        let stats = store.stats();
        assert_eq!(stats.shards.len(), store.shard_count());
        assert_eq!(stats.shards.iter().map(|s| s.entries).sum::<u64>(), 2);
        assert_eq!(stats.shards.iter().map(|s| s.stored_bytes).sum::<u64>(), 40);
        let shard_one = store.shard_for_tag(&tag(1));
        let shard_two = store.shard_for_tag(&tag(2));
        assert_ne!(shard_one, shard_two);
        assert_eq!(stats.shards[shard_one].entries, 1);
        assert_eq!(stats.shards[shard_one].stored_bytes, 10);
        assert_eq!(stats.shards[shard_two].stored_bytes, 30);
        // The dictionary paths above all held shard locks.
        assert!(stats.shards.iter().map(|s| s.busy_ns).sum::<u64>() > 0);
    }

    #[test]
    fn tags_spread_across_shards() {
        let (_p, store) = store();
        let mut seen = std::collections::HashSet::new();
        for n in 0..=255u8 {
            seen.insert(store.shard_for_tag(&tag(n)));
        }
        assert_eq!(seen.len(), store.shard_count());
    }

    #[test]
    fn single_shard_config_matches_global_budgets() {
        let platform = Platform::new(CostModel::default_sgx());
        let store =
            ResultStore::new(&platform, StoreConfig::with_capacity(4, 100)).unwrap();
        assert_eq!(store.shard_count(), 1);
        assert_eq!(store.shard_max_entries, 4);
        assert_eq!(store.shard_max_bytes, 100);
    }

    #[test]
    fn duplicate_put_keeps_first_version() {
        let (platform, store) = store();
        store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(1),
            record: record(10, 1),
        });
        let blobs_before = platform.untrusted().len();
        let response = store.handle(Message::PutRequest {
            app: AppId(2),
            tag: tag(1),
            record: record(10, 2),
        });
        assert!(matches!(
            response,
            Message::PutResponse(body) if body.accepted && body.reason.is_some()
        ));
        // The duplicate's blob was freed.
        assert_eq!(platform.untrusted().len(), blobs_before);
        let get = store.handle(Message::GetRequest { app: AppId(3), tag: tag(1) });
        match get {
            Message::GetResponse(body) => {
                assert_eq!(body.record.unwrap().boxed_result, vec![1u8; 10]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let platform = Platform::new(CostModel::default_sgx());
        let store =
            ResultStore::new(&platform, StoreConfig::with_capacity(2, u64::MAX)).unwrap();
        for n in 1..=3u8 {
            store.handle(Message::PutRequest {
                app: AppId(1),
                tag: tag(n),
                record: record(8, n),
            });
        }
        assert_eq!(store.evictions(), 1);
        // Entry 1 was LRU and is gone; 2 and 3 remain.
        let miss = store.handle(Message::GetRequest { app: AppId(1), tag: tag(1) });
        assert!(matches!(miss, Message::GetResponse(b) if !b.found));
        let hit = store.handle(Message::GetRequest { app: AppId(1), tag: tag(3) });
        assert!(matches!(hit, Message::GetResponse(b) if b.found));
    }

    #[test]
    fn byte_capacity_eviction() {
        let platform = Platform::new(CostModel::default_sgx());
        let store =
            ResultStore::new(&platform, StoreConfig::with_capacity(usize::MAX, 100))
                .unwrap();
        for n in 1..=4u8 {
            store.handle(Message::PutRequest {
                app: AppId(1),
                tag: tag(n),
                record: record(40, n),
            });
        }
        assert!(store.stats().stored_bytes <= 100);
        assert!(store.evictions() >= 2);
    }

    #[test]
    fn eviction_budgets_hold_per_shard() {
        // Four shards, room for 8 entries total → 2 per shard. Overfill one
        // shard: only that shard evicts, and it stays within its slice.
        let platform = Platform::new(CostModel::default_sgx());
        let config = StoreConfig {
            max_entries: 8,
            max_stored_bytes: u64::MAX,
            quota: QuotaPolicy::unlimited(),
            access: AccessControl::Open,
            shards: 4,
        };
        let store = ResultStore::new(&platform, config).unwrap();
        // Tags with leading byte 0, 4, 8, 12 all route to shard 0.
        for lead in [0u8, 4, 8, 12] {
            let mut bytes = [lead; 32];
            bytes[1] = lead.wrapping_add(1);
            store.handle(Message::PutRequest {
                app: AppId(1),
                tag: CompTag::from_bytes(bytes),
                record: record(8, lead),
            });
        }
        // One entry in a different shard is untouched.
        store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(1),
            record: record(8, 99),
        });
        let stats = store.stats();
        let target = store.shard_for_tag(&CompTag::from_bytes([0; 32]));
        assert_eq!(stats.shards[target].entries, 2, "shard holds its 2-entry slice");
        assert_eq!(stats.shards[target].evictions, 2);
        let other = store.shard_for_tag(&tag(1));
        assert_eq!(stats.shards[other].entries, 1);
        assert_eq!(stats.shards[other].evictions, 0);
    }

    #[test]
    fn quota_rejection_reported() {
        let platform = Platform::new(CostModel::default_sgx());
        let config = StoreConfig {
            max_entries: 1000,
            max_stored_bytes: u64::MAX,
            quota: QuotaPolicy { max_entries_per_app: 2, max_bytes_per_app: u64::MAX },
            access: AccessControl::Open,
            shards: DEFAULT_SHARDS,
        };
        let store = ResultStore::new(&platform, config).unwrap();
        for n in 1..=2u8 {
            let r = store.handle(Message::PutRequest {
                app: AppId(1),
                tag: tag(n),
                record: record(8, n),
            });
            assert!(matches!(r, Message::PutResponse(b) if b.accepted));
        }
        let rejected = store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(3),
            record: record(8, 3),
        });
        match rejected {
            Message::PutResponse(b) => {
                assert!(!b.accepted);
                assert!(b.reason.unwrap().contains("quota"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Another app is unaffected.
        let ok = store.handle(Message::PutRequest {
            app: AppId(2),
            tag: tag(4),
            record: record(8, 4),
        });
        assert!(matches!(ok, Message::PutResponse(b) if b.accepted));
    }

    #[test]
    fn hostile_blob_deletion_degrades_to_miss() {
        let (platform, store) = store();
        store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(1),
            record: record(10, 1),
        });
        // Adversary wipes all untrusted blobs.
        let ids: Vec<_> = (0..100).map(speed_enclave::BlobId::from_raw).collect();
        for id in ids {
            platform.untrusted().remove(id);
        }
        let response = store.handle(Message::GetRequest { app: AppId(1), tag: tag(1) });
        assert!(matches!(response, Message::GetResponse(b) if !b.found));
        // The dangling metadata was cleaned up.
        assert_eq!(store.stats().entries, 0);
    }

    #[test]
    fn ecall_counters_grow_with_requests() {
        let (_p, store) = store();
        let before = store.enclave().stats().ecalls;
        store.handle(Message::GetRequest { app: AppId(1), tag: tag(1) });
        store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(1),
            record: record(10, 1),
        });
        assert!(store.enclave().stats().ecalls > before);
    }

    #[test]
    fn unexpected_message_yields_error() {
        let (_p, store) = store();
        let response = store.handle(Message::Error("client-side".into()));
        assert!(matches!(response, Message::Error(_)));
    }

    #[test]
    fn export_shards_partitions_by_routing() {
        let (_p, store) = store();
        for n in 1..=4u8 {
            store.handle(Message::PutRequest {
                app: AppId(1),
                tag: tag(n),
                record: record(10, n),
            });
        }
        let sections = store.export_shards();
        assert_eq!(sections.len(), store.shard_count());
        let total: usize = sections.iter().map(|s| s.len()).sum();
        assert_eq!(total, 4);
        for (shard_index, section) in sections.iter().enumerate() {
            for entry in section {
                assert_eq!(store.shard_for_tag(&entry.tag), shard_index);
            }
        }
    }

    #[test]
    fn allowlist_blocks_unauthorized_apps() {
        let platform = Platform::new(CostModel::default_sgx());
        let config = StoreConfig {
            access: AccessControl::Allowlist([1u64, 2].into_iter().collect()),
            ..StoreConfig::default()
        };
        let store = ResultStore::new(&platform, config).unwrap();

        // Authorized app can PUT and GET.
        let ok = store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(1),
            record: record(8, 1),
        });
        assert!(matches!(ok, Message::PutResponse(b) if b.accepted));
        let ok = store.handle(Message::GetRequest { app: AppId(2), tag: tag(1) });
        assert!(matches!(ok, Message::GetResponse(b) if b.found));

        // Unauthorized app is refused both ways.
        let denied = store.handle(Message::GetRequest { app: AppId(3), tag: tag(1) });
        assert!(matches!(denied, Message::Error(ref m) if m.contains("not authorized")));
        let denied = store.handle(Message::PutRequest {
            app: AppId(3),
            tag: tag(2),
            record: record(8, 2),
        });
        assert!(matches!(denied, Message::Error(_)));
        assert_eq!(store.stats().entries, 1);
    }

    #[test]
    fn no_ttl_means_no_expiry() {
        // An entry outlives any amount of other traffic: only capacity
        // eviction removes it.
        let (_p, store) = store();
        store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(1),
            record: record(8, 1),
        });
        for n in 10..60u8 {
            store.handle(Message::GetRequest { app: AppId(1), tag: tag(n) });
        }
        let hit = store.handle(Message::GetRequest { app: AppId(1), tag: tag(1) });
        assert!(matches!(hit, Message::GetResponse(b) if b.found));
    }

    #[test]
    fn a_reopen_imports_in_batches() {
        let dir = std::env::temp_dir()
            .join(format!("speed-store-batched-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let platform = Platform::with_seed(CostModel::default_sgx(), Some(0x5eed));
        let backend = || Arc::new(crate::LogBackend::new(crate::LogConfig::new(&dir)));
        let open = |config| ResultStore::open(&platform, config, backend()).unwrap().0;
        let entries = (0..1_000u16).map(|n| {
            let mut bytes = [0u8; 32];
            bytes[..2].copy_from_slice(&n.to_le_bytes());
            SyncEntry { tag: CompTag::from_bytes(bytes), record: record(16, n as u8) }
        });
        let store = open(StoreConfig::default());
        assert_eq!(store.import_entries(entries.collect()), 1_000);
        // The reopen loads the checkpoint rather than replaying the WAL.
        store.checkpoint().unwrap();
        drop(store);

        let reopened = open(StoreConfig::default());
        let ecalls = reopened.enclave().stats().ecalls;
        assert_eq!(reopened.stats().entries, 1_000);
        assert!(ecalls * 10 < 1_000, "{ecalls} store ECALLs to reopen 1,000 entries");
        drop(reopened);

        // Into ten entries per shard, a reopen keeps the entries, their
        // order and the filter bits that importing one entry at a time keeps.
        let small = StoreConfig { max_entries: 80, ..StoreConfig::default() };
        let reference = ResultStore::new(&platform, small.clone()).unwrap();
        let recovery = backend().open(&platform, reference.enclave()).unwrap();
        for entry in recovery.entries {
            assert_eq!(reference.import_entries(vec![entry]), 1);
        }
        let reopened = open(small);
        assert_eq!(reopened.stats().entries, 80);
        assert_eq!(reopened.evictions(), 920);
        assert_eq!(reopened.export_shards(), reference.export_shards());
        assert_eq!(reopened.filter_snapshot(), reference.filter_snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reopen_keeps_the_eviction_order() {
        let dir = std::env::temp_dir()
            .join(format!("speed-store-reopen-lru-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Seeded, so the reopened store unseals what the first one wrote.
        let platform = Platform::with_seed(CostModel::no_sgx(), Some(0x5eed));
        let config = || StoreConfig::with_capacity(3, u64::MAX);
        let open = || {
            let backend = Arc::new(crate::LogBackend::new(crate::LogConfig::new(&dir)));
            ResultStore::open(&platform, config(), backend).unwrap().0
        };
        let put = |store: &ResultStore, n: u8| {
            let put = store.handle(Message::PutRequest {
                app: AppId(1),
                tag: tag(n),
                record: record(8, n),
            });
            assert!(matches!(put, Message::PutResponse(body) if body.accepted));
        };
        // Entries 1, 2 and 3, then five reads of entry 1: entry 2 is the
        // least recently used.
        let fill = |store: &ResultStore| {
            for n in 1..=3 {
                put(store, n);
            }
            for _ in 0..5 {
                store.handle(Message::GetRequest { app: AppId(1), tag: tag(1) });
            }
        };
        let live = |store: &ResultStore| {
            let mut tags: Vec<CompTag> =
                store.export_shards().concat().iter().map(|e| e.tag).collect();
            tags.sort();
            tags
        };

        let running = ResultStore::new(&platform, config()).unwrap();
        fill(&running);
        put(&running, 4);
        assert_eq!(live(&running), vec![tag(1), tag(3), tag(4)]);

        let store = open();
        fill(&store);
        store.checkpoint().unwrap();
        drop(store);
        let reopened = open();
        put(&reopened, 4);
        assert_eq!(
            live(&reopened),
            vec![tag(1), tag(3), tag(4)],
            "entry 2 must go first"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_import_charges_no_quota() {
        // Two apps hold 3 entries each under a 4-entry quota. Imported into
        // another store, all 6 land, and neither app is charged for them.
        let platform = Platform::new(CostModel::default_sgx());
        let config = || StoreConfig {
            quota: QuotaPolicy { max_entries_per_app: 4, ..QuotaPolicy::default() },
            ..StoreConfig::default()
        };
        let put = |store: &ResultStore, app: u64, n: u8| {
            let put = store.handle(Message::PutRequest {
                app: AppId(app),
                tag: tag(n),
                record: record(8, n),
            });
            matches!(put, Message::PutResponse(b) if b.accepted)
        };
        let source = ResultStore::new(&platform, config()).unwrap();
        let target = ResultStore::new(&platform, config()).unwrap();
        for n in 1..=6u8 {
            assert!(put(&source, u64::from(n % 2), n));
        }
        assert_eq!(target.import_entries(source.export_shards().concat()), 6);
        assert_eq!(target.export_shards(), source.export_shards());
        // App 0's whole quota is still free in the target.
        for n in 11..=14u8 {
            assert!(put(&target, 0, n), "PUT {n} refused");
        }
        assert!(!put(&target, 0, 15), "the quota no longer binds");
    }

    #[test]
    fn batch_of_gets_costs_one_ecall() {
        let (_p, store) = store();
        for n in 1..=3u8 {
            store.handle(Message::PutRequest {
                app: AppId(1),
                tag: tag(n),
                record: record(10, n),
            });
        }
        let ecalls_before = store.enclave().stats().ecalls;
        let response = store.handle(Message::BatchRequest {
            app: AppId(2),
            items: (1..=4u8).map(|n| BatchItem::Get { tag: tag(n) }).collect(),
        });
        let ecalls_after = store.enclave().stats().ecalls;
        assert_eq!(
            ecalls_after - ecalls_before,
            1,
            "a batch of GETs must enter the enclave exactly once, \
             even when the items span multiple shards"
        );
        match response {
            Message::BatchResponse(results) => {
                assert_eq!(results.len(), 4);
                for (i, result) in results.iter().take(3).enumerate() {
                    assert_eq!(result.status, BatchStatus::Found, "item {i}");
                    let rec = result.record.as_ref().unwrap();
                    assert_eq!(rec.boxed_result, vec![(i + 1) as u8; 10]);
                }
                assert_eq!(results[3].status, BatchStatus::NotFound);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_put_then_get_same_tag_hits_within_batch() {
        let (_p, store) = store();
        let response = store.handle(Message::BatchRequest {
            app: AppId(1),
            items: vec![
                BatchItem::Get { tag: tag(1) },
                BatchItem::Put { tag: tag(1), record: record(10, 7) },
                BatchItem::Get { tag: tag(1) },
            ],
        });
        match response {
            Message::BatchResponse(results) => {
                assert_eq!(results[0].status, BatchStatus::NotFound);
                assert_eq!(results[1].status, BatchStatus::Accepted);
                assert_eq!(results[2].status, BatchStatus::Found);
                assert_eq!(
                    results[2].record.as_ref().unwrap().boxed_result,
                    vec![7u8; 10]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(store.stats().entries, 1);
    }

    #[test]
    fn batch_duplicate_put_refunds_quota() {
        let (platform, store) = store();
        let blobs_before = platform.untrusted().len();
        let response = store.handle(Message::BatchRequest {
            app: AppId(1),
            items: vec![
                BatchItem::Put { tag: tag(1), record: record(10, 1) },
                BatchItem::Put { tag: tag(1), record: record(10, 2) },
            ],
        });
        match response {
            Message::BatchResponse(results) => {
                assert_eq!(results[0].status, BatchStatus::Accepted);
                assert_eq!(results[1].status, BatchStatus::Accepted);
                assert!(results[1].reason.as_ref().unwrap().contains("duplicate"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Only the first blob remains; the duplicate's was freed.
        assert_eq!(platform.untrusted().len(), blobs_before + 1);
        // First writer won.
        let get = store.handle(Message::GetRequest { app: AppId(2), tag: tag(1) });
        match get {
            Message::GetResponse(b) => {
                assert_eq!(b.record.unwrap().boxed_result, vec![1u8; 10]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_quota_denial_rejects_item_not_batch() {
        let platform = Platform::new(CostModel::default_sgx());
        let config = StoreConfig {
            quota: QuotaPolicy { max_entries_per_app: 1, max_bytes_per_app: u64::MAX },
            ..StoreConfig::default()
        };
        let store = ResultStore::new(&platform, config).unwrap();
        let response = store.handle(Message::BatchRequest {
            app: AppId(1),
            items: vec![
                BatchItem::Put { tag: tag(1), record: record(8, 1) },
                BatchItem::Put { tag: tag(2), record: record(8, 2) },
                BatchItem::Get { tag: tag(1) },
            ],
        });
        match response {
            Message::BatchResponse(results) => {
                assert_eq!(results[0].status, BatchStatus::Accepted);
                assert_eq!(results[1].status, BatchStatus::Rejected);
                assert!(results[1].reason.as_ref().unwrap().contains("quota"));
                // The rest of the batch is unaffected by the denial.
                assert_eq!(results[2].status, BatchStatus::Found);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(store.stats().rejected_puts, 1);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (_p, store) = store();
        let ecalls_before = store.enclave().stats().ecalls;
        let response =
            store.handle(Message::BatchRequest { app: AppId(1), items: Vec::new() });
        assert_eq!(store.enclave().stats().ecalls, ecalls_before);
        assert!(matches!(response, Message::BatchResponse(r) if r.is_empty()));
    }

    #[test]
    fn batch_respects_access_control() {
        let platform = Platform::new(CostModel::default_sgx());
        let config = StoreConfig {
            access: AccessControl::Allowlist([1u64].into_iter().collect()),
            ..StoreConfig::default()
        };
        let store = ResultStore::new(&platform, config).unwrap();
        let denied = store.handle(Message::BatchRequest {
            app: AppId(9),
            items: vec![BatchItem::Get { tag: tag(1) }],
        });
        assert!(matches!(denied, Message::Error(ref m) if m.contains("not authorized")));
    }

    #[test]
    fn lock_recover_survives_poisoned_mutex() {
        // Regression for the poison-panic bug: a panicking request used to
        // leave every later request panicking on `.expect("store lock
        // poisoned")`. `lock_recover` must hand back the guard instead.
        let mutex = Arc::new(Mutex::new(7u32));
        let poisoner = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(*lock_recover(&mutex), 7);
        *lock_recover(&mutex) = 8;
        assert_eq!(*lock_recover(&mutex), 8);
    }

    #[test]
    fn shard_locks_recover_from_poison() {
        // A request that panics while holding a shard's dict lock must not
        // take the shard down for every later request.
        let (_p, store) = store();
        let store = Arc::new(store);
        let poisoner = Arc::clone(&store);
        let _ = std::thread::spawn(move || {
            let shard = &poisoner.shards[0];
            let _guard = shard.dict.write().unwrap();
            panic!("poison the shard lock");
        })
        .join();
        assert!(store.shards[0].dict.is_poisoned());
        let mut bytes = [0u8; 32];
        bytes[1] = 9;
        let tag = CompTag::from_bytes(bytes);
        assert_eq!(store.shard_for_tag(&tag), 0);
        let put = store.handle(Message::PutRequest {
            app: AppId(1),
            tag,
            record: record(8, 1),
        });
        assert!(matches!(put, Message::PutResponse(b) if b.accepted));
        let get = store.handle(Message::GetRequest { app: AppId(1), tag });
        assert!(matches!(get, Message::GetResponse(b) if b.found));
    }

    #[test]
    fn topology_lock_recovers_from_poison() {
        // A panic while the topology lock is held must not make every later
        // RING_REQUEST, or the next membership change, panic in turn.
        let (_p, store) = store();
        let store = Arc::new(store);
        let node = |id| speed_wire::RingNodeBody { id, addr: String::new(), weight: 1 };
        assert!(store.set_topology(RingBody { version: 1, nodes: vec![node(0)] }));
        let poisoner = Arc::clone(&store);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.topology.write().unwrap();
            panic!("poison the topology lock");
        })
        .join();
        assert!(store.topology.is_poisoned());
        assert!(matches!(
            store.handle(Message::RingRequest),
            Message::RingResponse(body) if body.version == 1
        ));
        assert!(!store.set_topology(RingBody { version: 1, nodes: vec![node(1)] }));
        assert!(
            store.set_topology(RingBody { version: 2, nodes: vec![node(0), node(1)] })
        );
        assert_eq!(store.topology().nodes.len(), 2);
    }

    #[test]
    fn concurrent_puts_and_gets_are_safe() {
        let (_p, store) = store();
        let store = Arc::new(store);
        std::thread::scope(|s| {
            for worker in 0..4u8 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..50u8 {
                        let t = tag(worker.wrapping_mul(50).wrapping_add(i));
                        store.handle(Message::PutRequest {
                            app: AppId(u64::from(worker)),
                            tag: t,
                            record: record(16, i),
                        });
                        store.handle(Message::GetRequest {
                            app: AppId(u64::from(worker)),
                            tag: t,
                        });
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.puts, 200);
        assert_eq!(stats.gets, 200);
    }

    #[test]
    fn prefiltered_puts_feed_the_negative_filter() {
        let (_p, store) = store();
        let before = store.filter_snapshot();
        assert_eq!(before.shards.len(), store.shard_count());
        let shard = store.shard_for_tag(&tag(1));
        // An empty filter proves absence outright.
        assert!(!before.shards[shard].may_contain(&tag(1)));

        // The retired prefilter is ignored: the filter is keyed by the tag.
        let put = store.handle(Message::PutPrefiltered {
            app: AppId(1),
            tag: tag(1),
            prefilter: 0xAB,
            record: record(64, 3),
        });
        assert!(matches!(put, Message::PutResponse(body) if body.accepted));

        let after = store.filter_snapshot();
        assert!(after.epoch > before.epoch);
        assert!(after.shards[shard].may_contain(&tag(1)));
        assert_eq!(after.shards[shard].entries(), 1);
    }

    #[test]
    fn plain_puts_feed_the_negative_filter() {
        let (_p, store) = store();
        store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(2),
            record: record(64, 4),
        });
        let results = store.handle_batch(
            Some(AppId(1)),
            vec![BatchItem::Put { tag: tag(3), record: record(16, 5) }],
        );
        assert!(matches!(results[0].status, BatchStatus::Accepted));
        let snap = store.filter_snapshot();
        for n in [2, 3] {
            assert!(snap.shards[store.shard_for_tag(&tag(n))].may_contain(&tag(n)));
        }
        // A duplicate inserts nothing.
        store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(2),
            record: record(64, 4),
        });
        assert_eq!(store.filter_snapshot().epoch, snap.epoch);
    }

    #[test]
    fn filter_request_returns_per_shard_snapshot() {
        let (_p, store) = store();
        match store.handle(Message::FilterRequest) {
            Message::FilterResponse(body) => {
                assert_eq!(body.shards.len(), store.shard_count());
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn eviction_leaves_filter_bits_set() {
        let platform = Platform::new(CostModel::default_sgx());
        let store =
            ResultStore::new(&platform, StoreConfig::with_capacity(2, u64::MAX)).unwrap();
        for n in 1..=3u8 {
            let put = store.handle(Message::PutRequest {
                app: AppId(1),
                tag: tag(n),
                record: record(16, n),
            });
            assert!(matches!(put, Message::PutResponse(body) if body.accepted));
        }
        assert!(store.evictions() >= 1);
        let snap = store.filter_snapshot();
        // The evicted entry's bits stay set (false positives only): no
        // absence claim ever turns false-negative.
        for n in 1..=3u8 {
            assert!(snap.shards[0].may_contain(&tag(n)));
        }
    }

    #[test]
    fn imported_entries_feed_the_negative_filter() {
        let (_p, store) = store();
        let entries =
            (4..8u8).map(|n| SyncEntry { tag: tag(n), record: record(16, n) }).collect();
        assert_eq!(store.import_entries(entries), 4);
        let snap = store.filter_snapshot();
        for n in 4..8u8 {
            assert!(snap.shards[store.shard_for_tag(&tag(n))].may_contain(&tag(n)));
        }
        assert_eq!(snap.shards.iter().map(NegativeFilter::entries).sum::<u64>(), 4);
    }

    /// A `LogBackend` whose checkpoint first lets one PUT through the
    /// store: the PUT a concurrent caller can land after the checkpoint
    /// began but before the backend took its lock.
    #[derive(Debug)]
    struct PutDuringCheckpoint {
        log: crate::LogBackend,
        store: std::sync::OnceLock<std::sync::Weak<ResultStore>>,
        put: Mutex<Option<(CompTag, Record)>>,
    }

    impl StoreBackend for PutDuringCheckpoint {
        fn name(&self) -> &'static str {
            "put-during-checkpoint"
        }

        fn is_durable(&self) -> bool {
            true
        }

        fn open(
            &self,
            platform: &Arc<Platform>,
            enclave: &Arc<Enclave>,
        ) -> Result<crate::backend::Recovery, StoreError> {
            self.log.open(platform, enclave)
        }

        fn record_put(&self, entry: &SyncEntry) -> Result<(), StoreError> {
            self.log.record_put(entry)
        }

        fn record_delete(&self, tag: &CompTag) -> Result<(), StoreError> {
            self.log.record_delete(tag)
        }

        fn flush(&self) -> Result<(), StoreError> {
            self.log.flush()
        }

        fn checkpoint(
            &self,
            export: &dyn Fn() -> Vec<Vec<SyncEntry>>,
        ) -> Result<(), StoreError> {
            let pending = self.put.lock().unwrap().take();
            if let Some((tag, record)) = pending {
                let store = self.store.get().and_then(std::sync::Weak::upgrade).unwrap();
                let put =
                    store.handle(Message::PutRequest { app: AppId(1), tag, record });
                assert!(matches!(put, Message::PutResponse(body) if body.accepted));
            }
            self.log.checkpoint(export)
        }
    }

    #[test]
    fn checkpoint_keeps_a_put_that_lands_as_it_starts() {
        let dir = std::env::temp_dir()
            .join(format!("speed-store-checkpoint-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Seeded, so the reopened store unseals what the first one wrote.
        let platform = Platform::with_seed(CostModel::no_sgx(), Some(0x5eed));
        let open = |backend: Arc<dyn StoreBackend>| {
            ResultStore::open(&platform, StoreConfig::default(), backend).unwrap().0
        };

        let backend = Arc::new(PutDuringCheckpoint {
            log: crate::LogBackend::new(crate::LogConfig::new(&dir)),
            store: std::sync::OnceLock::new(),
            put: Mutex::new(Some((tag(2), record(64, 2)))),
        });
        let store = Arc::new(open(Arc::clone(&backend) as Arc<dyn StoreBackend>));
        backend.store.set(Arc::downgrade(&store)).unwrap();
        let put = store.handle(Message::PutRequest {
            app: AppId(1),
            tag: tag(1),
            record: record(64, 1),
        });
        assert!(matches!(put, Message::PutResponse(body) if body.accepted));
        store.checkpoint().unwrap();
        assert!(backend.put.lock().unwrap().is_none(), "the racing PUT ran");
        drop(store);
        drop(backend);

        let reopened =
            open(Arc::new(crate::LogBackend::new(crate::LogConfig::new(&dir))));
        for (n, fill) in [(1, 1), (2, 2)] {
            match reopened.handle(Message::GetRequest { app: AppId(1), tag: tag(n) }) {
                Message::GetResponse(body) => {
                    let record =
                        body.record.unwrap_or_else(|| panic!("PUT {n} was lost"));
                    assert_eq!(record.boxed_result, vec![fill; 64]);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
