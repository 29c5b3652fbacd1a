//! The secure deduplication runtime (§IV-B).
//!
//! `DedupRuntime` is "a trusted library linked against application enclaves"
//! that intercepts marked computations, performs duplicate checking against
//! the `ResultStore`, and either reuses the stored result or executes the
//! function and publishes the encrypted result. GETs and PUTs are both
//! synchronous: each OCALL waits for the store's answer, so a call returns
//! only after its PUT has been accepted, refused or parked for replay.

use std::sync::{Arc, Mutex};

use speed_crypto::{GhashPrf, Key128, SystemRng};
use speed_enclave::{Enclave, Platform, PAGE_SIZE};
use speed_store::ResultStore;
use speed_telemetry::{names, Counter, Histogram};
use speed_wire::{
    AppId, BatchItem, BatchItemResult, BatchStatus, CompTag, Message, NegativeFilter,
    Record, SessionAuthority, StatsBody,
};

use crate::client::{InProcessClient, StoreClient, TcpClient};
use crate::error::CoreError;
use crate::func::{FuncDesc, FuncIdentity, LibraryRegistry, TrustedLibrary};
use crate::hotcache::{HotCacheConfig, HotTagCache, Probe};
use crate::rce;
use crate::resilience::{
    Connector, ReplayQueue, ResilienceConfig, ResilienceStats, ResilientClient,
};
use crate::result_bytes::ResultBytes;
use crate::tag::{comp_digest, fingerprint, CompDigest, Fingerprint};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// A panicking marked computation (user closure) must not take the whole
/// runtime down with it: every critical section here is panic-consistent,
/// so later calls recover the guard and keep working.
fn lock_recover<T: ?Sized>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How results are protected before leaving the enclave.
#[derive(Clone, Debug)]
pub enum DedupMode {
    /// The main design (§III-C): cross-application RCE, no shared key.
    CrossApp,
    /// The basic design (§III-B): one system-wide secret key. Only
    /// applications configured with the same key can reuse results, and a
    /// single compromise exposes everything — kept for the ablation
    /// experiments.
    SingleKey(Key128),
    /// Classic deterministic convergent encryption (`k = H(d)`, with `d`
    /// the computation digest `H(func, m)`).
    /// Cheaper than RCE by one hash and the key wrap, but offline
    /// brute-force confirmable for predictable computations — see
    /// [`crate::rce::encrypt_result_convergent`]. For the scheme ablation.
    Convergent,
}

/// What happened on one marked function call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DedupOutcome {
    /// The result was found and reused without executing the function.
    Hit,
    /// The computation was fresh: executed and published.
    Miss,
    /// A record existed but failed the Fig. 3 verification protocol (wrong
    /// code/input binding or tampering); the function was executed locally
    /// and nothing was published.
    MissAfterFailedVerify,
    /// The result was served from the in-enclave hot-tag cache — its
    /// plaintext, or the RCE record the cache kept from the last verified
    /// store hit, verified and opened in the enclave: no OCALL, no store
    /// round-trip at all. Only occurs when [`RuntimeBuilder::hot_cache`] is
    /// enabled.
    HitLocalCache,
    /// The negative filter proved no stored result exists, so the GET
    /// round-trip was skipped entirely: the function executed and its
    /// result was published, exactly like [`DedupOutcome::Miss`], minus
    /// the wasted store round-trip. Only occurs when
    /// [`RuntimeBuilder::prefilter`] is enabled.
    MissFiltered,
}

/// The boxed compute fallback carried by a [`BatchCall`].
pub type BatchCompute<'a> = Box<dyn FnOnce(&[u8]) -> Vec<u8> + 'a>;

/// One marked call in a [`DedupRuntime::execute_batch`] batch: the verified
/// function identity, the serialized input, and the compute fallback for
/// when no stored result can be reused.
pub struct BatchCall<'a> {
    /// The verified function identity (see [`DedupRuntime::resolve`]).
    pub identity: FuncIdentity,
    /// Serialized input bytes.
    pub input: &'a [u8],
    /// Executed (inside the enclave) when the stored result cannot be
    /// reused for this item.
    pub compute: BatchCompute<'a>,
}

impl<'a> BatchCall<'a> {
    /// Creates a batch call.
    pub fn new(
        identity: FuncIdentity,
        input: &'a [u8],
        compute: impl FnOnce(&[u8]) -> Vec<u8> + 'a,
    ) -> Self {
        BatchCall { identity, input, compute: Box::new(compute) }
    }
}

impl std::fmt::Debug for BatchCall<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchCall")
            .field("input_len", &self.input.len())
            .finish_non_exhaustive()
    }
}

/// One item of a [`DedupRuntime`] pass over the tier ladder — a marked
/// call, or, without a compute, a [`DedupRuntime::lookup`] probe — and
/// what the pass has learned about it so far.
struct Planned<'a> {
    identity: FuncIdentity,
    input: &'a [u8],
    compute: Option<BatchCompute<'a>>,
    /// A call rather than a probe (its compute may already have run).
    call: bool,
    /// The secret hot-cache fingerprint, computed on first use: the one
    /// pass over its input of an item the hot cache answers.
    fp: Option<Fingerprint>,
    /// The secret digest and the full comp-tag, derived together on first
    /// use — the one SHA-256 pass over its input of an item that reaches
    /// the negative filter or the store — or supplied by the hot cache,
    /// which remembers them.
    derived: Option<(CompDigest, CompTag)>,
    answer: Option<(ResultBytes, DedupOutcome)>,
}

impl<'a> Planned<'a> {
    fn new(
        identity: FuncIdentity,
        input: &'a [u8],
        compute: Option<BatchCompute<'a>>,
    ) -> Self {
        Planned {
            identity,
            input,
            call: compute.is_some(),
            compute,
            fp: None,
            derived: None,
            answer: None,
        }
    }

    /// Runs the compute fallback (a probe has none).
    fn run(&mut self) -> Option<ResultBytes> {
        let compute = self.compute.take()?;
        Some(ResultBytes::new(compute(self.input)))
    }
}

/// Counters describing a runtime's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Marked calls intercepted.
    pub calls: u64,
    /// Calls satisfied from the store.
    pub hits: u64,
    /// Calls that executed the function.
    pub misses: u64,
    /// Records that failed result verification.
    pub verify_failures: u64,
    /// PUTs rejected by the store (quota etc.).
    pub rejected_puts: u64,
    /// Plaintext result bytes reused instead of recomputed.
    pub reused_bytes: u64,
    /// Calls that fell back to local execution (or queued their PUT for
    /// replay) because the store was unreachable. Always zero without the
    /// resilience layer.
    pub degraded_calls: u64,
    /// Store round-trip attempts retried by the resilience layer.
    pub retries: u64,
    /// Circuit-breaker state transitions (closed/open/half-open).
    pub breaker_transitions: u64,
    /// Queued PUTs delivered after the store recovered.
    pub replayed_puts: u64,
    /// Calls satisfied by the in-enclave hot-tag cache (no store
    /// round-trip), from a cached result or a kept record. Always zero
    /// unless the cache is enabled.
    pub cache_hits: u64,
    /// Hot-cache probes that found neither a cached result nor a kept
    /// record that verified, including those that supplied a remembered
    /// digest. Always zero unless the cache is enabled.
    pub cache_misses: u64,
    /// Misses whose GET round-trip was skipped because the negative filter
    /// proved no stored result exists. Always zero unless the filter tier
    /// is enabled. These calls are also counted in `misses`.
    pub filtered_misses: u64,
}

/// The counters behind [`RuntimeStats`]: this runtime's cells of the
/// process-wide registry series.
#[derive(Debug)]
struct AtomicStats {
    calls: Counter,
    hits: Counter,
    misses: Counter,
    verify_failures: Counter,
    rejected_puts: Counter,
    reused_bytes: Counter,
    degraded_calls: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    filtered_misses: Counter,
}

impl AtomicStats {
    fn from_global() -> Self {
        let reg = speed_telemetry::global();
        AtomicStats {
            calls: reg.counter(names::DEDUP_CALLS_TOTAL, "Marked calls intercepted"),
            hits: reg.counter(
                names::DEDUP_HITS_TOTAL,
                "Calls satisfied from the store (dedup hits)",
            ),
            misses: reg.counter(
                names::DEDUP_MISSES_TOTAL,
                "Calls that executed the function (initial computations)",
            ),
            verify_failures: reg.counter(
                names::DEDUP_VERIFY_FAILURES_TOTAL,
                "Records that failed the result-verification protocol",
            ),
            rejected_puts: reg.counter(
                names::DEDUP_REJECTED_PUTS_TOTAL,
                "PUTs the store rejected (quota, enclave memory, races)",
            ),
            reused_bytes: reg.counter(
                names::DEDUP_REUSED_BYTES_TOTAL,
                "Plaintext result bytes reused instead of recomputed",
            ),
            degraded_calls: reg.counter(
                names::DEDUP_DEGRADED_CALLS_TOTAL,
                "Calls that degraded to local execution during a store outage",
            ),
            cache_hits: reg.counter(
                names::DEDUP_CACHE_HITS_TOTAL,
                "Lookups answered by the in-enclave hot-tag cache",
            ),
            cache_misses: reg.counter(
                names::DEDUP_CACHE_MISSES_TOTAL,
                "Hot-cache probes answered neither by a cached result nor by a kept \
                 record, digest reuses included",
            ),
            filtered_misses: reg.counter(
                names::DEDUP_FILTERED_MISSES_TOTAL,
                "Misses whose store GET the negative filter proved unnecessary",
            ),
        }
    }
}

/// Histogram and stream handles into the process-wide telemetry registry:
/// the latencies the scalar counters cannot express.
#[derive(Clone, Debug)]
pub(crate) struct RuntimeTelemetry {
    call_duration: Histogram,
    batch_duration: Histogram,
    tag_derive: Histogram,
    tag_fingerprint: Histogram,
    rce_recover: Histogram,
    rce_encrypt: Histogram,
    hotcache_lookup: Histogram,
    hotcache_digest_reuses: Counter,
    hotcache_record_hits: Counter,
    hotcache_admissions_refused: Counter,
    filter_store_skips: Counter,
    filter_refreshes: Counter,
    pub(crate) stream_chunks: Counter,
    pub(crate) stream_chunk_hits: Counter,
    pub(crate) stream_bytes: Counter,
    pub(crate) stream_flush_duration: Histogram,
    pub(crate) chunker_forced_cuts: Counter,
}

impl RuntimeTelemetry {
    fn from_global() -> Self {
        let reg = speed_telemetry::global();
        RuntimeTelemetry {
            call_duration: reg.histogram(
                names::DEDUP_CALL_DURATION_NS,
                "End-to-end latency of one marked call",
            ),
            batch_duration: reg.histogram(
                names::DEDUP_BATCH_DURATION_NS,
                "End-to-end latency of one execute_batch invocation",
            ),
            tag_derive: reg.histogram(
                names::TAG_DERIVE_DURATION_NS,
                "Deriving the digest Hash(func, m) and its tag inside the enclave \
                 for a call that reaches the store and that the hot cache does not \
                 remember; a hot-cache hit or digest reuse does not",
            ),
            tag_fingerprint: reg.histogram(
                names::TAG_FINGERPRINT_DURATION_NS,
                "Computing the secret hot-cache fingerprint E_K(GHASH_H(func, m)) \
                 that keys a probe or remembers a resolved call",
            ),
            rce_recover: reg.histogram(
                names::RCE_RECOVER_DURATION_NS,
                "RCE key recovery, result decryption, and verification",
            ),
            rce_encrypt: reg.histogram(
                names::RCE_ENCRYPT_DURATION_NS,
                "RCE result encryption before publishing",
            ),
            hotcache_lookup: reg.histogram(
                names::HOTCACHE_LOOKUP_DURATION_NS,
                "In-enclave hot-tag cache lookup (hit or miss)",
            ),
            hotcache_digest_reuses: reg.counter(
                names::HOTCACHE_DIGEST_REUSES_TOTAL,
                "Hot-cache probes that supplied a remembered digest and tag, \
                 each saving a SHA-256 pass over the input",
            ),
            hotcache_record_hits: reg.counter(
                names::HOTCACHE_RECORD_HITS_TOTAL,
                "Hot-cache probes answered by verifying and opening the RCE record \
                 kept from the computation's last store hit, with no OCALL and no \
                 store GET",
            ),
            hotcache_admissions_refused: reg.counter(
                names::HOTCACHE_ADMISSIONS_REFUSED_TOTAL,
                "Resolved results the hot cache did not keep, refused by frequency \
                 admission or too large; the computation stays remembered by its \
                 digest where the table has room",
            ),
            filter_store_skips: reg.counter(
                names::TAG_PREFILTER_STORE_SKIPS_TOTAL,
                "Store GETs skipped because the store's comp-tag negative filter \
                 proved the tag absent",
            ),
            filter_refreshes: reg.counter(
                names::TAG_PREFILTER_REFRESHES_TOTAL,
                "Comp-tag negative-filter snapshots fetched from the store",
            ),
            stream_chunks: reg.counter(
                names::STREAM_CHUNKS_TOTAL,
                "Chunks processed by streaming dedup sessions",
            ),
            stream_chunk_hits: reg.counter(
                names::STREAM_CHUNK_HITS_TOTAL,
                "Stream chunks satisfied without executing the function",
            ),
            stream_bytes: reg.counter(
                names::STREAM_BYTES_TOTAL,
                "Input bytes consumed by streaming dedup sessions",
            ),
            stream_flush_duration: reg.histogram(
                names::STREAM_FLUSH_DURATION_NS,
                "One mid-stream or final chunk-batch flush",
            ),
            chunker_forced_cuts: reg.counter(
                names::CHUNKER_FORCED_CUTS_TOTAL,
                "Chunk cuts forced by the max bound instead of content",
            ),
        }
    }
}

/// Shared state between a runtime and its resilience-wrapped clients.
#[derive(Debug)]
struct ResilienceHandles {
    stats: Arc<ResilienceStats>,
    replay: Arc<ReplayQueue>,
}

/// Configuration for the negative-filter tier ([`RuntimeBuilder::prefilter`]).
///
/// When enabled, every item the hot cache does not answer consults its
/// comp-tag against a merged snapshot of the store's per-shard negative
/// filters, which are keyed by that tag. A *definite miss* skips the store
/// GET round-trip. The filters are conservative (never a false negative),
/// so the store remains the sole authority on what it holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefilterConfig {
    /// The staleness budget: refresh the merged negative filter from the
    /// store after this many consults. The first consult always fetches.
    /// Staleness is safe in only one direction — entries published since
    /// the last refresh can cause a skipped GET on what would have been a
    /// hit (a wasted recompute), never a wrong answer.
    pub refresh_ops: u64,
}

impl Default for PrefilterConfig {
    fn default() -> Self {
        PrefilterConfig { refresh_ops: 1024 }
    }
}

/// Client-side view of the store's negative filters: every per-shard filter
/// ORed into one, refreshed from the store on the staleness budget, and
/// kept in the enclave's own committed memory.
#[derive(Debug)]
struct ClientFilter {
    /// The merged filter: `None` before the first successful refresh, after
    /// one whose shard shapes disagree, and after one whose pages the
    /// enclave could not commit. Either way it proves nothing absent.
    merged: Option<NegativeFilter>,
    /// EPC bytes committed for `merged`, in whole pages.
    committed: usize,
    /// Store epoch of the last snapshot, `None` until a refresh succeeds.
    epoch: Option<u64>,
    /// Consults since the last refresh attempt.
    ops_since_refresh: u64,
    config: PrefilterConfig,
}

impl ClientFilter {
    /// Installs a freshly merged filter in place of the old one, moving the
    /// enclave's EPC charge from the old filter's pages to its own: a
    /// refresh of the same geometry commits nothing more. A commit the
    /// enclave refuses leaves no filter and releases the old one's pages.
    fn install(&mut self, enclave: &Enclave, merged: Option<NegativeFilter>) {
        let bytes = merged.as_ref().map_or(0, |filter| filter.bit_len() / 8);
        let mut needed = bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.merged = merged;
        if needed > self.committed
            && enclave.commit_memory(needed - self.committed).is_err()
        {
            self.merged = None;
            needed = 0;
        }
        if needed < self.committed {
            let _ = enclave.release_memory(self.committed - needed);
        }
        self.committed = needed;
    }
}

/// ORs the store's per-shard filters into one client-side view. A store
/// sizes its shards alike, but cluster members sized differently do not
/// merge: shapes that disagree yield no filter, which proves nothing.
fn merge_shard_filters(shards: Vec<NegativeFilter>) -> Option<NegativeFilter> {
    let mut iter = shards.into_iter();
    let first = iter.next()?;
    iter.try_fold(first, |mut merged, shard| merged.merge_from(&shard).then_some(merged))
}

/// Rejected items among the PUT items' results of a batch response.
fn rejections(results: &[BatchItemResult]) -> u64 {
    results.iter().filter(|r| r.status == BatchStatus::Rejected).count() as u64
}

enum ClientSpec {
    InProcess { store: Arc<ResultStore>, authority: Arc<SessionAuthority> },
    Tcp { addr: std::net::SocketAddr, authority: Arc<SessionAuthority> },
    Custom(Box<dyn StoreClient>),
    Factory(Connector),
}

impl std::fmt::Debug for ClientSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ClientSpec::InProcess { .. } => "InProcess",
            ClientSpec::Tcp { .. } => "Tcp",
            ClientSpec::Custom(_) => "Custom",
            ClientSpec::Factory(_) => "Factory",
        };
        write!(f, "ClientSpec::{name}")
    }
}

/// Builder for [`DedupRuntime`].
#[derive(Debug)]
pub struct RuntimeBuilder {
    platform: Arc<Platform>,
    app_code: Vec<u8>,
    client_spec: Option<ClientSpec>,
    registry: LibraryRegistry,
    mode: DedupMode,
    app_id: Option<u64>,
    rng_seed: Option<u64>,
    resilience: Option<ResilienceConfig>,
    hot_cache: Option<HotCacheConfig>,
    prefilter: Option<PrefilterConfig>,
}

impl RuntimeBuilder {
    fn new(platform: Arc<Platform>, app_code: &[u8]) -> Self {
        RuntimeBuilder {
            platform,
            app_code: app_code.to_vec(),
            client_spec: None,
            registry: LibraryRegistry::new(),
            mode: DedupMode::CrossApp,
            app_id: None,
            rng_seed: None,
            resilience: None,
            hot_cache: None,
            prefilter: None,
        }
    }

    /// Connects to an in-process store co-located on the same platform.
    pub fn in_process_store(
        mut self,
        store: Arc<ResultStore>,
        authority: Arc<SessionAuthority>,
    ) -> Self {
        self.client_spec = Some(ClientSpec::InProcess { store, authority });
        self
    }

    /// Connects to a TCP store server.
    pub fn tcp_store(
        mut self,
        addr: std::net::SocketAddr,
        authority: Arc<SessionAuthority>,
    ) -> Self {
        self.client_spec = Some(ClientSpec::Tcp { addr, authority });
        self
    }

    /// Uses a custom [`StoreClient`] (e.g. a test double). It cannot
    /// reconnect, so [`RuntimeBuilder::resilience`] is unavailable with it.
    pub fn client(mut self, client: Box<dyn StoreClient>) -> Self {
        self.client_spec = Some(ClientSpec::Custom(client));
        self
    }

    /// Uses a connector factory producing freshly connected clients. Each
    /// invocation must run the full handshake, which makes reconnection —
    /// and therefore [`RuntimeBuilder::resilience`] — available for
    /// arbitrary client types (chaos wrappers, test doubles).
    pub fn client_factory(mut self, factory: Connector) -> Self {
        self.client_spec = Some(ClientSpec::Factory(factory));
        self
    }

    /// Routes every store round-trip through a multi-node
    /// [`ClusterClient`](crate::cluster::ClusterClient): consistent-hash
    /// routing, R-way replication, and per-node failover re-attestation.
    /// Each connect hands out a clone of the handle, and clones share ring,
    /// hints, and breaker state, so a reconnect keeps what the cluster has
    /// learned; the cluster already fails over between replicas, while
    /// [`RuntimeBuilder::resilience`] composes on top as the outer line of
    /// defence for whole-cluster outages.
    pub fn cluster_store(self, cluster: crate::cluster::ClusterClient) -> Self {
        self.client_factory(Box::new(move || {
            Ok(Box::new(cluster.clone()) as Box<dyn StoreClient>)
        }))
    }

    /// Wraps every store client in the fault-tolerant resilience layer:
    /// retry with capped exponential backoff, transparent reconnect with
    /// re-attestation, a circuit breaker, and graceful degradation (GETs
    /// fall back to local execution, PUTs are queued for replay). With
    /// this enabled, store outages never fail a marked call.
    pub fn resilience(mut self, config: ResilienceConfig) -> Self {
        self.resilience = Some(config);
        self
    }

    /// Registers a trusted library whose functions may be marked.
    pub fn trusted_library(mut self, library: TrustedLibrary) -> Self {
        self.registry.add(library);
        self
    }

    /// Selects the result-protection mode (default: [`DedupMode::CrossApp`]).
    pub fn mode(mut self, mode: DedupMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the application id (defaults to the enclave id).
    pub fn app_id(mut self, id: u64) -> Self {
        self.app_id = Some(id);
        self
    }

    /// Seeds the runtime RNG for reproducible experiments.
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = Some(seed);
        self
    }

    /// Enables the bounded in-enclave hot cache: a result recently
    /// resolved — reused from the store or computed locally — is answered
    /// again with no enclave transition, no store round-trip and no
    /// SHA-256. The cache also remembers each recent computation's digest,
    /// and the RCE record of its last store hit in untrusted memory, so a
    /// repeat whose result was not kept (results are admitted by frequency)
    /// opens that record in the enclave, or reaches the store, without a
    /// SHA-256 pass over its input. It is keyed by
    /// a secret [`Fingerprint`] under keys the runtime draws from its RNG
    /// in [`build`](RuntimeBuilder::build). Off by default because the
    /// cache competes with the application for EPC; its pages are charged
    /// against the enclave's memory budget.
    pub fn hot_cache(mut self, config: HotCacheConfig) -> Self {
        self.hot_cache = Some(config);
        self
    }

    /// Turns on the negative-filter tier: a merged snapshot of the store's
    /// per-shard filters, keyed by the comp-tag, lets an item the hot cache
    /// did not answer skip the GET when the filter proves its tag absent
    /// ([`DedupOutcome::MissFiltered`]); it is computed before the store is
    /// asked, and its PUT rides the batch's GET request. Off by default:
    /// the extra tier changes the per-call transition profile, so existing
    /// deployments opt in explicitly.
    pub fn prefilter(mut self, config: PrefilterConfig) -> Self {
        self.prefilter = Some(config);
        self
    }

    /// Creates the application enclave, connects the store client, and
    /// builds the runtime.
    ///
    /// # Errors
    ///
    /// - [`CoreError::UnexpectedResponse`] if no store was configured, or
    ///   resilience was requested with a custom client.
    /// - [`CoreError::Enclave`] / [`CoreError::Channel`] /
    ///   [`CoreError::Store`] on enclave creation or connection failure.
    pub fn build(self) -> Result<Arc<DedupRuntime>, CoreError> {
        let enclave = self.platform.create_enclave(&self.app_code)?;
        let spec = self.client_spec.ok_or_else(|| {
            CoreError::UnexpectedResponse("no store configured on builder".into())
        })?;

        let mut resilience = None;
        let client: Box<dyn StoreClient> = match (spec, self.resilience) {
            (ClientSpec::Custom(_), Some(_)) => {
                return Err(CoreError::UnexpectedResponse(
                    "resilience requires a reconnectable store client; use \
                     client_factory instead of client"
                        .into(),
                ));
            }
            (ClientSpec::Custom(client), None) => client,
            (mut spec, None) => Self::make_client(&mut spec, &self.platform, &enclave)?,
            (spec, Some(config)) => {
                let handles = ResilienceHandles {
                    stats: Arc::new(ResilienceStats::default()),
                    replay: Arc::new(ReplayQueue::new(config.replay_capacity)),
                };
                let client = ResilientClient::new(
                    Self::connector_for(spec, &self.platform, &enclave),
                    config,
                    Arc::clone(&handles.stats),
                    Some(Arc::clone(&handles.replay)),
                );
                resilience = Some(handles);
                Box::new(client)
            }
        };

        let app_id = AppId(self.app_id.unwrap_or_else(|| enclave.id()));
        let mut rng = match self.rng_seed {
            Some(seed) => SystemRng::seeded(seed),
            None => SystemRng::new(),
        };
        let hot_cache = self.hot_cache.map(|config| HotCache {
            prf: GhashPrf::new(&mut rng),
            entries: Mutex::new(HotTagCache::new(config)),
        });

        Ok(Arc::new(DedupRuntime {
            enclave,
            app_id,
            registry: self.registry,
            client: Mutex::new(client),
            mode: self.mode,
            rng: Mutex::new(rng),
            stats: AtomicStats::from_global(),
            telemetry: RuntimeTelemetry::from_global(),
            resilience,
            hot_cache,
            filter: self.prefilter.map(|config| {
                Mutex::new(ClientFilter {
                    merged: None,
                    committed: 0,
                    epoch: None,
                    ops_since_refresh: 0,
                    config,
                })
            }),
        }))
    }

    /// A connector that rebuilds a client from `spec` on every call — for
    /// TCP that means a fresh attested handshake with a new session key.
    fn connector_for(
        mut spec: ClientSpec,
        platform: &Arc<Platform>,
        enclave: &Arc<Enclave>,
    ) -> Connector {
        let platform = Arc::clone(platform);
        let enclave = Arc::clone(enclave);
        Box::new(move || Self::make_client(&mut spec, &platform, &enclave))
    }

    fn make_client(
        spec: &mut ClientSpec,
        platform: &Arc<Platform>,
        enclave: &Arc<Enclave>,
    ) -> Result<Box<dyn StoreClient>, CoreError> {
        match spec {
            ClientSpec::InProcess { store, authority } => {
                Ok(Box::new(InProcessClient::connect(
                    Arc::clone(store),
                    authority,
                    platform,
                    enclave,
                )?))
            }
            ClientSpec::Tcp { addr, authority } => {
                Ok(Box::new(TcpClient::connect(*addr, platform, enclave, authority)?))
            }
            ClientSpec::Factory(factory) => factory(),
            ClientSpec::Custom(_) => Err(CoreError::UnexpectedResponse(
                "custom clients are moved at build time".into(),
            )),
        }
    }
}

/// The secure deduplication runtime linked against one application enclave.
#[derive(Debug)]
pub struct DedupRuntime {
    enclave: Arc<Enclave>,
    app_id: AppId,
    registry: LibraryRegistry,
    client: Mutex<Box<dyn StoreClient>>,
    mode: DedupMode,
    rng: Mutex<SystemRng>,
    stats: AtomicStats,
    telemetry: RuntimeTelemetry,
    resilience: Option<ResilienceHandles>,
    hot_cache: Option<HotCache>,
    filter: Option<Mutex<ClientFilter>>,
}

/// The in-enclave hot cache and the secret PRF whose fingerprints key it.
/// The runtime draws the PRF's keys from its RNG when it is built, and no
/// path takes them, or a fingerprint, out of the enclave.
#[derive(Debug)]
struct HotCache {
    prf: GhashPrf,
    entries: Mutex<HotTagCache>,
}

impl DedupRuntime {
    /// Starts building a runtime for an application whose enclave code
    /// identity is `app_code`, hosted on `platform`.
    pub fn builder(platform: Arc<Platform>, app_code: &[u8]) -> RuntimeBuilder {
        RuntimeBuilder::new(platform, app_code)
    }

    /// The application's enclave.
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// Registry handles shared with the streaming session layer.
    pub(crate) fn telemetry(&self) -> &RuntimeTelemetry {
        &self.telemetry
    }

    /// The application id used for store quota accounting.
    pub fn app_id(&self) -> AppId {
        self.app_id
    }

    /// Resolves a function description against the registered trusted
    /// libraries (the verification step of §IV-B).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FunctionNotTrusted`] if the function is absent.
    pub fn resolve(&self, desc: &FuncDesc) -> Result<FuncIdentity, CoreError> {
        self.registry.resolve(desc)
    }

    /// Runs one marked computation over serialized input bytes.
    ///
    /// Implements Algorithms 1 and 2: derives the tag inside the enclave,
    /// queries the store through an OCALL, reuses the result on a verified
    /// hit, otherwise executes `compute` and publishes the encrypted
    /// result. With [`RuntimeBuilder::prefilter`] enabled the store's
    /// negative filter, keyed by the comp-tag, lets definite misses skip
    /// the GET round-trip ([`DedupOutcome::MissFiltered`]). The call is a
    /// batch of one through the same pipeline as
    /// [`execute_batch`](DedupRuntime::execute_batch), at the same cost:
    /// one ECALL plus a GET and a PUT OCALL on a miss.
    ///
    /// Returns the serialized result — a [`ResultBytes`] sharing the hot
    /// cache's buffer on a cached hit, no copy — and what happened.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on store/transport failures. A record that
    /// fails verification is *not* an error: the function is executed
    /// locally and [`DedupOutcome::MissAfterFailedVerify`] is reported.
    pub fn execute_raw(
        &self,
        identity: &FuncIdentity,
        input: &[u8],
        compute: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Result<(ResultBytes, DedupOutcome), CoreError> {
        let _call_span = self.telemetry.call_duration.start_span();
        let call = Planned::new(*identity, input, Some(Box::new(compute)));
        self.plan(vec![call])?
            .pop()
            .flatten()
            .ok_or_else(|| CoreError::UnexpectedResponse("call left unresolved".into()))
    }

    /// Runs a batch of marked computations with O(1) enclave transitions
    /// and at most two network round trips.
    ///
    /// Where a loop of [`execute_raw`](DedupRuntime::execute_raw) costs one
    /// ECALL plus one or two OCALLs *per call*, this pipelines the whole
    /// batch:
    ///
    /// 1. one ECALL covers tag derivation, hot-cache lookups, and all
    ///    cryptographic work for every item, and computes, encrypts and
    ///    remembers every miss the negative filter proves before the
    ///    store is asked;
    /// 2. one OCALL sends a single [`Message::BatchRequest`] (one network
    ///    round trip, whose answer the call waits for) carrying every
    ///    unresolved GET first and then the proven misses' PUTs, so the
    ///    store settles the GETs against its state before those PUTs;
    /// 3. only the items whose GET came back not found are computed after
    ///    it, and their records are published in a single follow-up PUT —
    ///    one more OCALL, whose answer the call also waits for.
    ///
    /// A batch of store hits and proven misses therefore costs one ECALL
    /// and one OCALL, and one answered entirely by the hot-tag cache no
    /// OCALL at all. Results are returned in call order.
    ///
    /// Degradation is **per item**, matching the resilience layer's
    /// contract: when the store is unreachable, every unresolved item falls
    /// back to local execution and every PUT item is parked in the replay
    /// queue on its own, to be delivered as a one-item batch, so partial
    /// replay capacity still saves the newest results. Each call is counted
    /// once in [`RuntimeStats::degraded_calls`], as the per-call path
    /// counts it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on store/transport failures when no resilience
    /// layer is configured (with resilience, store outages degrade instead
    /// of failing). Items that fail record verification are not errors —
    /// they are reported as [`DedupOutcome::MissAfterFailedVerify`].
    pub fn execute_batch(
        &self,
        calls: Vec<BatchCall<'_>>,
    ) -> Result<Vec<(ResultBytes, DedupOutcome)>, CoreError> {
        if calls.is_empty() {
            return Ok(Vec::new());
        }
        let _batch_span = self.telemetry.batch_duration.start_span();
        let calls = calls
            .into_iter()
            .map(|call| Planned::new(call.identity, call.input, Some(call.compute)))
            .collect();
        Ok(self.plan(calls)?.into_iter().flatten().collect())
    }

    /// Convenience: resolve + execute in one call.
    ///
    /// # Errors
    ///
    /// As [`resolve`](DedupRuntime::resolve) and
    /// [`execute_raw`](DedupRuntime::execute_raw).
    pub fn execute(
        &self,
        desc: &FuncDesc,
        input: &[u8],
        compute: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Result<(ResultBytes, DedupOutcome), CoreError> {
        let identity = self.resolve(desc)?;
        self.execute_raw(&identity, input, compute)
    }

    /// Probes the tiered tag pipeline for an already-stored result without
    /// ever executing or publishing anything.
    ///
    /// The ladder runs cheapest-first: the hot-cache probe, keyed by the
    /// secret fingerprint (one GHASH pass over the input), then the full
    /// comp-tag (one SHA-256 pass) against the merged negative filter, then
    /// a store GET. A hot-cache hit returns *without computing the SHA-256
    /// at all*, and a computation the hot cache remembers opens its kept
    /// record, or reaches the filter and the GET with its remembered
    /// digest, also without one. An unseen input the filter proves absent
    /// costs one fingerprint and one SHA-256, and no store round trip. A
    /// probe that finds nothing remembers nothing; a verified store hit is
    /// remembered like a call's. A record that fails verification also
    /// yields `Ok(None)`. A probe is not a call: it is not counted in
    /// [`RuntimeStats::calls`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on store/transport failures (with the
    /// resilience layer, an unreachable store reads as `Ok(None)`).
    pub fn lookup(
        &self,
        identity: &FuncIdentity,
        input: &[u8],
    ) -> Result<Option<ResultBytes>, CoreError> {
        let probe = Planned::new(*identity, input, None);
        Ok(self.plan(vec![probe])?.pop().flatten().map(|(result, _)| result))
    }

    /// Algorithm 1 over a batch of items, in one ECALL: hot cache →
    /// negative filter, computing the misses it proves → one round trip of
    /// GETs and those misses' PUTs → RCE recover or compute → one
    /// follow-up PUT, degrading item by item. Each item computes its secret
    /// fingerprint only for the hot cache, and its SHA-256 digest and tag
    /// only if it reaches the filter, the GET, `recover` or `encrypt` and
    /// the hot cache did not supply them, so a hot-cache hit or a
    /// remembered computation runs no SHA-256. An item without a
    /// compute is a [`lookup`](DedupRuntime::lookup) probe: it never
    /// computes or publishes, and is not counted as a call. Returns each
    /// item's result in order; a probe that found nothing yields `None`.
    fn plan(
        &self,
        items: Vec<Planned<'_>>,
    ) -> Result<Vec<Option<(ResultBytes, DedupOutcome)>>, CoreError> {
        let calls = items.iter().filter(|item| item.call).count();
        self.stats.calls.add(calls as u64);
        self.enclave.ecall("dedup_execute", || self.ladder(items))
    }

    /// The body of [`plan`](DedupRuntime::plan)'s ECALL.
    fn ladder(
        &self,
        mut items: Vec<Planned<'_>>,
    ) -> Result<Vec<Option<(ResultBytes, DedupOutcome)>>, CoreError> {
        let mut pending: Vec<usize> = (0..items.len()).collect();

        // Tier 1 — hot cache: a recently resolved result is answered
        // without leaving the enclave, and a remembered computation whose
        // result is not cached hands over its digest and tag, so the tiers
        // below run no SHA-256 for it, and the record of its last store hit
        // if the cache kept one. The probe is keyed by the secret
        // fingerprint.
        if let Some(hot) = &self.hot_cache {
            let mut kept = Vec::new();
            let mut cache = lock_recover(&hot.entries);
            pending.retain(|&i| {
                let item = &mut items[i];
                let fp = self.fingerprint(&hot.prf, item);
                match self.telemetry.hotcache_lookup.time(|| cache.get(&fp)) {
                    Probe::Result(result) => {
                        let result = ResultBytes::from_shared(result);
                        self.count_reuse(&self.stats.cache_hits, &result);
                        item.answer = Some((result, DedupOutcome::HitLocalCache));
                        return false;
                    }
                    Probe::Digest(digest, tag, record) => {
                        self.telemetry.hotcache_digest_reuses.inc();
                        item.derived = Some((digest, tag));
                        if let Some(record) = record {
                            kept.push((i, record));
                            return true; // counted once its record is opened
                        }
                    }
                    Probe::Miss => {}
                }
                self.stats.cache_misses.add(1);
                true
            });
            drop(cache);
            // Kept records are verified and opened under each item's
            // digest with the cache unlocked, in this ECALL: no OCALL, no
            // GET. One that fails verification is dropped, and its item
            // goes on to the store GET with its digest.
            for (i, record) in kept {
                self.open_kept(hot, &mut items[i], &record)?;
            }
            pending.retain(|&i| items[i].answer.is_none());
        }

        // Tier 2 — the store's negative filter: a merged filter that lacks
        // the item's comp-tag *proves* no stored result exists, so the item
        // never needs the store's answer. It is computed, encrypted and
        // remembered here, before the store is asked, and its PUT rides the
        // GET request. The tag is derived here, or taken from the hot
        // cache, and serves the GET or the PUT that follows.
        let mut puts = Vec::new();
        if self.filter.is_some() {
            pending.retain(|&i| {
                let item = &mut items[i];
                let tag = self.derive(item).1;
                if !self.filter_proves_absent(&tag) {
                    return true;
                }
                self.telemetry.filter_store_skips.inc();
                if item.call {
                    self.stats.filtered_misses.add(1);
                }
                self.compute_miss(item, DedupOutcome::MissFiltered, &mut puts);
                false
            });
        }

        // OCALL: ONE synchronous round trip asks for every remaining tag
        // and publishes the proven misses. The GET items go first, so the
        // store settles them against its state before these PUTs.
        let gets = pending
            .iter()
            .map(|&i| BatchItem::Get { tag: self.derive(&mut items[i]).1 })
            .collect();
        let answered = self.exchange(gets, puts)?;
        let degraded = answered.is_none();
        let mut records = answered.unwrap_or_default().into_iter();

        // Verify hits; compute what the store does not hold.
        let mut puts = Vec::new();
        for &i in &pending {
            let item = &mut items[i];
            if let Some(record) = records.next().flatten() {
                self.enclave.charge_boundary_bytes(record.wire_size());
                match self.recover(&self.derive(item).0, &record) {
                    Ok(result) => {
                        let result = ResultBytes::new(result);
                        self.count_reuse(&self.stats.hits, &result);
                        self.remember(item, &result, Some(record));
                        item.answer = Some((result, DedupOutcome::Hit));
                    }
                    Err(CoreError::VerificationFailed) => {
                        // Fig. 3: ⊥ ⇒ execute locally, publish nothing (the
                        // tag slot is taken; overwriting is the store's
                        // anti-poisoning policy decision).
                        self.stats.verify_failures.add(1);
                        if item.call {
                            self.stats.misses.add(1);
                        }
                        if let Some(result) = item.run() {
                            item.answer =
                                Some((result, DedupOutcome::MissAfterFailedVerify));
                        }
                    }
                    Err(other) => return Err(other),
                }
                continue;
            }
            // Graceful degradation (resilience layer only): an unreachable
            // store is a miss, never an application error — Algorithm 1's
            // fallback is always "just execute".
            if degraded && item.call {
                self.stats.degraded_calls.add(1);
            }
            self.compute_miss(item, DedupOutcome::Miss, &mut puts);
        }

        // Publish the store's misses in one follow-up PUT. When the round
        // trip already found the store unreachable, their PUTs are parked
        // without a second doomed send; each was counted above.
        match &self.resilience {
            Some(handles) if degraded => {
                handles.replay.park(self.app_id, puts);
            }
            _ => {
                self.exchange(Vec::new(), puts)?;
            }
        }
        Ok(items.into_iter().map(|item| item.answer).collect())
    }

    /// A miss: a call executes inside the enclave, and its result is
    /// encrypted, remembered and queued in `puts` for publishing; a probe
    /// ends here with nothing.
    fn compute_miss(
        &self,
        item: &mut Planned<'_>,
        outcome: DedupOutcome,
        puts: &mut Vec<BatchItem>,
    ) {
        if !item.call {
            return;
        }
        self.stats.misses.add(1);
        let Some(result) = item.run() else { return };
        let tag = self.derive(item).1;
        let record = self.encrypt(&self.derive(item).0, &result);
        self.remember(item, &result, None);
        puts.push(BatchItem::Put { tag, record });
        item.answer = Some((result, outcome));
    }

    /// Sends `gets` then `puts` as one batched request in one OCALL, which
    /// charges the bytes a GET OCALL and a PUT OCALL would charge apiece,
    /// and waits for its answer. Returns the GET items' records in order
    /// and counts the PUT items the store refused; nothing to send costs
    /// nothing. When the store is unreachable (resilience layer only) the
    /// PUT items fail as a unit but degrade item by item: each is parked
    /// for replay and counted as a degraded call, and `None` tells the
    /// caller to run its GET items locally.
    fn exchange(
        &self,
        gets: Vec<BatchItem>,
        puts: Vec<BatchItem>,
    ) -> Result<Option<Vec<Option<Record>>>, CoreError> {
        let n_gets = gets.len();
        if n_gets + puts.len() == 0 {
            return Ok(Some(Vec::new()));
        }
        let mut args_len = 48 * n_gets;
        if !puts.is_empty() {
            args_len += 48 + puts.iter().map(BatchItem::wire_size).sum::<usize>();
        }
        let mut items = gets;
        items.extend(puts);
        let sent = items.len();
        let request = Message::BatchRequest { app: self.app_id, items };
        let response =
            self.enclave.ocall_with_bytes("batch_request", args_len, 0, || {
                lock_recover(&self.client).roundtrip(&request)
            });
        match (response, &self.resilience) {
            (Ok(Message::BatchResponse(mut results)), _) if results.len() == sent => {
                self.stats.rejected_puts.add(rejections(&results[n_gets..]));
                results.truncate(n_gets);
                Ok(Some(results.into_iter().map(|result| result.record).collect()))
            }
            (Ok(other), _) => Err(CoreError::UnexpectedResponse(format!("{other:?}"))),
            (Err(CoreError::StoreUnavailable(_)), Some(handles)) => {
                if let Message::BatchRequest { app, items } = request {
                    self.stats.degraded_calls.add(handles.replay.park(app, items));
                }
                Ok(None)
            }
            (Err(err), _) => Err(err),
        }
    }

    /// An item's secret digest `d = Hash(func, m)` and full comp-tag
    /// `Hash(d)`, derived on first use: its one SHA-256 pass over its input,
    /// made only when the item reaches the negative filter, the store,
    /// `recover` or `encrypt` and the hot cache did not supply them.
    fn derive<'p>(&self, item: &'p mut Planned<'_>) -> &'p (CompDigest, CompTag) {
        let (identity, input) = (&item.identity, item.input);
        item.derived.get_or_insert_with(|| {
            self.telemetry.tag_derive.time(|| {
                let digest = comp_digest(identity, input);
                let tag = digest.tag();
                (digest, tag)
            })
        })
    }

    /// An item's secret fingerprint `fp = E_K(GHASH_H(func, m))` under the
    /// hot cache's PRF, computed on first use: one GHASH pass over its
    /// input, the only pass a hot-cache hit makes.
    fn fingerprint(&self, prf: &GhashPrf, item: &mut Planned<'_>) -> Fingerprint {
        let (identity, input) = (&item.identity, item.input);
        *item.fp.get_or_insert_with(|| {
            self.telemetry.tag_fingerprint.time(|| fingerprint(prf, identity, input))
        })
    }

    /// Recovers and verifies a stored record under the runtime's mode.
    fn recover(
        &self,
        digest: &CompDigest,
        record: &Record,
    ) -> Result<Vec<u8>, CoreError> {
        self.telemetry.rce_recover.time(|| match &self.mode {
            DedupMode::CrossApp => rce::recover_result(digest, record),
            DedupMode::SingleKey(key) => rce::recover_result_single_key(key, record),
            DedupMode::Convergent => rce::recover_result_convergent(digest, record),
        })
    }

    /// Encrypts a fresh result for publishing under the runtime's mode.
    fn encrypt(&self, digest: &CompDigest, result: &[u8]) -> Record {
        self.telemetry.rce_encrypt.time(|| {
            let mut rng = lock_recover(&self.rng);
            match &self.mode {
                DedupMode::CrossApp => rce::encrypt_result(digest, result, &mut rng),
                DedupMode::SingleKey(key) => {
                    rce::encrypt_result_single_key(key, result, &mut rng)
                }
                DedupMode::Convergent => {
                    rce::encrypt_result_convergent(digest, result, &mut rng)
                }
            }
        })
    }

    /// Counts a reused result: a cache or store hit plus its bytes.
    fn count_reuse(&self, hits: &Counter, result: &ResultBytes) {
        hits.add(1);
        self.stats.reused_bytes.add(result.len() as u64);
    }

    /// Answers a remembered item from the RCE record the hot cache kept for
    /// it, verified and opened under its remembered digest like a store
    /// hit's record, and offers the result to the cache's admission test.
    /// A record that fails verification is dropped from the cache and
    /// counted; the item is then a cache miss and goes on to the store.
    fn open_kept(
        &self,
        hot: &HotCache,
        item: &mut Planned<'_>,
        record: &Arc<Record>,
    ) -> Result<(), CoreError> {
        self.enclave.charge_boundary_bytes(record.wire_size());
        match self.recover(&self.derive(item).0, record) {
            Ok(result) => {
                let result = ResultBytes::new(result);
                self.count_reuse(&self.stats.cache_hits, &result);
                self.telemetry.hotcache_record_hits.inc();
                self.remember(item, &result, None);
                item.answer = Some((result, DedupOutcome::HitLocalCache));
            }
            Err(CoreError::VerificationFailed) => {
                self.stats.verify_failures.add(1);
                self.stats.cache_misses.add(1);
                let fp = self.fingerprint(&hot.prf, item);
                lock_recover(&hot.entries).forget_record(&fp, record);
            }
            Err(other) => return Err(other),
        }
        Ok(())
    }

    /// Remembers a resolved item in the hot cache under its fingerprint,
    /// with the digest and tag it derived from `(func, m)` — after a
    /// verified store hit or a computed miss — and offers its result to the
    /// cache's admission test, when the cache is enabled. A store hit hands
    /// over its verified `record`, which the cache keeps in place of any
    /// older one, moved and not copied.
    fn remember(
        &self,
        item: &mut Planned<'_>,
        result: &ResultBytes,
        record: Option<Record>,
    ) {
        if let Some(hot) = &self.hot_cache {
            let fp = self.fingerprint(&hot.prf, item);
            let kept = lock_recover(&hot.entries).insert(
                &self.enclave,
                fp,
                self.derive(item),
                result.shared(),
                record.map(Arc::new),
            );
            if !kept {
                self.telemetry.hotcache_admissions_refused.inc();
            }
        }
    }

    /// Consults (and lazily refreshes) the merged client-side negative
    /// filter. `true` means *proof* of absence: the filter does not contain
    /// the tag. Refresh failures silently keep the stale view — the filter
    /// is an accelerator, never a correctness dependency.
    fn filter_proves_absent(&self, tag: &CompTag) -> bool {
        let Some(cell) = &self.filter else { return false };
        let mut state = lock_recover(cell);
        let stale =
            state.epoch.is_none() || state.ops_since_refresh >= state.config.refresh_ops;
        if stale {
            state.ops_since_refresh = 0;
            let response = self.enclave.ocall_with_bytes("filter_request", 1, 0, || {
                lock_recover(&self.client).roundtrip(&Message::FilterRequest)
            });
            if let Ok(Message::FilterResponse(body)) = response {
                self.telemetry.filter_refreshes.inc();
                state.epoch = Some(body.epoch);
                state.install(&self.enclave, merge_shard_filters(body.shards));
            }
        }
        state.ops_since_refresh += 1;
        state.merged.as_ref().is_some_and(|filter| !filter.may_contain(tag))
    }

    /// Current hot-cache occupancy as `(entries, bytes)` — remembered
    /// computations, with or without a cached result, and accounted bytes —
    /// or `None` when the cache is disabled. Exposed so harnesses and
    /// operators can check the configured bounds are actually respected.
    pub fn hot_cache_usage(&self) -> Option<(usize, usize)> {
        self.hot_cache.as_ref().map(|hot| {
            let cache = lock_recover(&hot.entries);
            (cache.len(), cache.bytes())
        })
    }

    /// The RCE records the hot cache keeps in untrusted memory, as
    /// `(records, wire bytes)`, or `None` when the cache is disabled. They
    /// are not in [`hot_cache_usage`](DedupRuntime::hot_cache_usage)'s EPC
    /// bytes, and their bytes stay within 16 × `max_bytes`.
    pub fn hot_cache_records(&self) -> Option<(usize, usize)> {
        self.hot_cache.as_ref().map(|hot| lock_recover(&hot.entries).record_usage())
    }

    /// A snapshot of the runtime counters.
    pub fn stats(&self) -> RuntimeStats {
        let (retries, breaker_transitions, replayed_puts) = match &self.resilience {
            Some(handles) => (
                handles.stats.retries.get(),
                handles.stats.breaker_transitions.get(),
                handles.stats.replayed_puts.get(),
            ),
            None => (0, 0, 0),
        };
        let stats = &self.stats;
        RuntimeStats {
            calls: stats.calls.get(),
            hits: stats.hits.get(),
            misses: stats.misses.get(),
            verify_failures: stats.verify_failures.get(),
            rejected_puts: stats.rejected_puts.get(),
            reused_bytes: stats.reused_bytes.get(),
            degraded_calls: stats.degraded_calls.get(),
            retries,
            breaker_transitions,
            replayed_puts,
            cache_hits: stats.cache_hits.get(),
            cache_misses: stats.cache_misses.get(),
            filtered_misses: stats.filtered_misses.get(),
        }
    }

    /// Fetches the store's counter snapshot — aggregate totals plus one
    /// [`speed_wire::ShardStatsBody`] per dictionary shard — over the
    /// runtime's store connection.
    ///
    /// # Errors
    ///
    /// Propagates transport failures, or
    /// [`CoreError::UnexpectedResponse`] if the store replies with
    /// anything but a stats response.
    pub fn store_stats(&self) -> Result<StatsBody, CoreError> {
        let response = lock_recover(&self.client).roundtrip(&Message::StatsRequest)?;
        match response {
            Message::StatsResponse(body) => Ok(body),
            other => Err(CoreError::UnexpectedResponse(format!(
                "expected stats response, got {other:?}"
            ))),
        }
    }

    /// PUTs currently parked in the replay queue, waiting for the store to
    /// recover. Zero when the resilience layer is not configured.
    pub fn pending_replays(&self) -> usize {
        self.resilience.as_ref().map_or(0, |handles| handles.replay.len())
    }

    /// PUTs evicted from the bounded replay queue because it overflowed
    /// during an outage. Zero when the resilience layer is not configured.
    pub fn dropped_replays(&self) -> u64 {
        self.resilience.as_ref().map_or(0, |handles| handles.replay.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speed_enclave::CostModel;
    use speed_store::StoreConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup() -> (Arc<Platform>, Arc<ResultStore>, Arc<SessionAuthority>) {
        let platform = Platform::new(CostModel::default_sgx());
        let store =
            Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
        let authority = Arc::new(SessionAuthority::with_seed(5));
        (platform, store, authority)
    }

    fn library() -> TrustedLibrary {
        let mut lib = TrustedLibrary::new("testlib", "1.0");
        lib.register("double()", b"double code");
        lib.register("reverse()", b"reverse code");
        lib
    }

    fn desc_double() -> FuncDesc {
        FuncDesc::new("testlib", "1.0", "double()")
    }

    fn runtime(
        platform: &Arc<Platform>,
        store: &Arc<ResultStore>,
        authority: &Arc<SessionAuthority>,
        code: &[u8],
    ) -> Arc<DedupRuntime> {
        DedupRuntime::builder(Arc::clone(platform), code)
            .in_process_store(Arc::clone(store), Arc::clone(authority))
            .trusted_library(library())
            .rng_seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn initial_then_subsequent_computation() {
        let (platform, store, authority) = setup();
        let rt = runtime(&platform, &store, &authority, b"app-1");
        let executions = AtomicUsize::new(0);
        let compute = |input: &[u8]| {
            executions.fetch_add(1, Ordering::Relaxed);
            input.iter().map(|b| b.wrapping_mul(2)).collect()
        };

        let (result, outcome) = rt.execute(&desc_double(), b"\x01\x02", compute).unwrap();
        assert_eq!(result, vec![2, 4]);
        assert_eq!(outcome, DedupOutcome::Miss);

        let (result, outcome) = rt
            .execute(&desc_double(), b"\x01\x02", |_| panic!("must not execute"))
            .unwrap();
        assert_eq!(result, vec![2, 4]);
        assert_eq!(outcome, DedupOutcome::Hit);
        assert_eq!(executions.load(Ordering::Relaxed), 1);

        let stats = rt.stats();
        assert_eq!((stats.calls, stats.hits, stats.misses), (2, 1, 1));
        assert_eq!(stats.reused_bytes, 2);
    }

    #[test]
    fn cross_application_sharing() {
        let (platform, store, authority) = setup();
        let rt_a = runtime(&platform, &store, &authority, b"app-a");
        let rt_b = runtime(&platform, &store, &authority, b"app-b");

        rt_a.execute(&desc_double(), b"shared", |input| input.to_vec()).unwrap();
        // A *different application* with the same trusted library and input
        // reuses A's result without re-executing.
        let (result, outcome) =
            rt_b.execute(&desc_double(), b"shared", |_| panic!("should dedup")).unwrap();
        assert_eq!(result, b"shared");
        assert_eq!(outcome, DedupOutcome::Hit);
    }

    #[test]
    fn different_function_does_not_collide() {
        let (platform, store, authority) = setup();
        let rt = runtime(&platform, &store, &authority, b"app");
        rt.execute(&desc_double(), b"x", |_| vec![1]).unwrap();
        let (result, outcome) = rt
            .execute(&FuncDesc::new("testlib", "1.0", "reverse()"), b"x", |_| vec![2])
            .unwrap();
        assert_eq!(result, vec![2]);
        assert_eq!(outcome, DedupOutcome::Miss);
    }

    #[test]
    fn untrusted_function_is_rejected() {
        let (platform, store, authority) = setup();
        let rt = runtime(&platform, &store, &authority, b"app");
        let err = rt
            .execute(&FuncDesc::new("evil", "6.6", "backdoor()"), b"x", |_| vec![])
            .unwrap_err();
        assert!(matches!(err, CoreError::FunctionNotTrusted { .. }));
        // The rejected call never reaches the dedup path.
        assert_eq!(rt.stats().calls, 0);
        assert_eq!(rt.stats().misses, 0);
    }

    #[test]
    fn single_key_mode_intra_app_dedup() {
        let (platform, store, authority) = setup();
        let key = Key128::from_bytes([9u8; 16]);
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"sk-app")
            .in_process_store(Arc::clone(&store), Arc::clone(&authority))
            .trusted_library(library())
            .mode(DedupMode::SingleKey(key))
            .build()
            .unwrap();
        rt.execute(&desc_double(), b"in", |i| i.to_vec()).unwrap();
        let (_, outcome) =
            rt.execute(&desc_double(), b"in", |_| panic!("dedup")).unwrap();
        assert_eq!(outcome, DedupOutcome::Hit);
    }

    #[test]
    fn single_key_mode_wrong_key_fails_verification() {
        let (platform, store, authority) = setup();
        let rt_good = DedupRuntime::builder(Arc::clone(&platform), b"good")
            .in_process_store(Arc::clone(&store), Arc::clone(&authority))
            .trusted_library(library())
            .mode(DedupMode::SingleKey(Key128::from_bytes([1u8; 16])))
            .build()
            .unwrap();
        let rt_other = DedupRuntime::builder(Arc::clone(&platform), b"other")
            .in_process_store(Arc::clone(&store), Arc::clone(&authority))
            .trusted_library(library())
            .mode(DedupMode::SingleKey(Key128::from_bytes([2u8; 16])))
            .build()
            .unwrap();

        rt_good.execute(&desc_double(), b"m", |_| vec![42]).unwrap();
        // The single-key brittleness (§III-B): a different key cannot reuse.
        let (result, outcome) =
            rt_other.execute(&desc_double(), b"m", |_| vec![43]).unwrap();
        assert_eq!(result, vec![43]);
        assert_eq!(outcome, DedupOutcome::MissAfterFailedVerify);
        assert_eq!(rt_other.stats().verify_failures, 1);
    }

    #[test]
    fn convergent_mode_cross_app_dedup() {
        let (platform, store, authority) = setup();
        let build = |code: &[u8]| {
            DedupRuntime::builder(Arc::clone(&platform), code)
                .in_process_store(Arc::clone(&store), Arc::clone(&authority))
                .trusted_library(library())
                .mode(DedupMode::Convergent)
                .build()
                .unwrap()
        };
        let rt_a = build(b"ce-app-a");
        let rt_b = build(b"ce-app-b");
        let identity = rt_a.resolve(&desc_double()).unwrap();
        rt_a.execute_raw(&identity, b"shared", |d| d.to_vec()).unwrap();
        let identity_b = rt_b.resolve(&desc_double()).unwrap();
        let (result, outcome) =
            rt_b.execute_raw(&identity_b, b"shared", |_| panic!("must reuse")).unwrap();
        assert_eq!(outcome, DedupOutcome::Hit);
        assert_eq!(result, b"shared");
    }

    #[test]
    fn convergent_and_rce_records_do_not_cross_decrypt() {
        let (platform, store, authority) = setup();
        let ce = DedupRuntime::builder(Arc::clone(&platform), b"ce")
            .in_process_store(Arc::clone(&store), Arc::clone(&authority))
            .trusted_library(library())
            .mode(DedupMode::Convergent)
            .build()
            .unwrap();
        let rce_rt = DedupRuntime::builder(Arc::clone(&platform), b"rce")
            .in_process_store(Arc::clone(&store), Arc::clone(&authority))
            .trusted_library(library())
            .build()
            .unwrap();
        let identity = ce.resolve(&desc_double()).unwrap();
        ce.execute_raw(&identity, b"m", |d| d.to_vec()).unwrap();
        // The RCE runtime finds the CE record but cannot verify it.
        let identity_rce = rce_rt.resolve(&desc_double()).unwrap();
        let (_, outcome) =
            rce_rt.execute_raw(&identity_rce, b"m", |d| d.to_vec()).unwrap();
        assert_eq!(outcome, DedupOutcome::MissAfterFailedVerify);
    }

    #[test]
    fn ecall_ocall_pattern_matches_paper() {
        let (platform, store, authority) = setup();
        let rt = runtime(&platform, &store, &authority, b"count-app");
        let before = rt.enclave().stats();
        rt.execute(&desc_double(), b"y", |i| i.to_vec()).unwrap();
        let after = rt.enclave().stats();
        // One ECALL into the dedup routine; two OCALLs (GET + PUT).
        assert_eq!(after.ecalls - before.ecalls, 1);
        assert_eq!(after.ocalls - before.ocalls, 2);

        rt.execute(&desc_double(), b"y", |_| panic!()).unwrap();
        let hit_stats = rt.enclave().stats();
        // Hit path: one ECALL, one OCALL (GET only).
        assert_eq!(hit_stats.ecalls - after.ecalls, 1);
        assert_eq!(hit_stats.ocalls - after.ocalls, 1);
    }

    /// A factory-built in-process client whose availability is switched by
    /// a shared flag — the store "goes down" and "comes back".
    fn flaky_factory(
        platform: &Arc<Platform>,
        store: &Arc<ResultStore>,
        authority: &Arc<SessionAuthority>,
        up: &Arc<std::sync::atomic::AtomicBool>,
    ) -> crate::resilience::Connector {
        #[derive(Debug)]
        struct Gated {
            inner: InProcessClient,
            up: Arc<std::sync::atomic::AtomicBool>,
        }
        impl StoreClient for Gated {
            fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError> {
                if !self.up.load(Ordering::Relaxed) {
                    return Err(CoreError::UnexpectedResponse("store down".into()));
                }
                self.inner.roundtrip(request)
            }
        }
        let platform = Arc::clone(platform);
        let store = Arc::clone(store);
        let authority = Arc::clone(authority);
        let up = Arc::clone(up);
        // Build a dedicated enclave identity for the channel ends; the
        // connector runs the full attestation on every call.
        let enclave = platform.create_enclave(b"flaky-client").unwrap();
        Box::new(move || {
            let inner = InProcessClient::connect(
                Arc::clone(&store),
                &authority,
                &platform,
                &enclave,
            )?;
            Ok(Box::new(Gated { inner, up: Arc::clone(&up) }) as Box<dyn StoreClient>)
        })
    }

    fn fast_resilience() -> crate::ResilienceConfig {
        crate::ResilienceConfig {
            retry: crate::RetryPolicy {
                max_attempts: 2,
                base_delay: std::time::Duration::from_micros(100),
                max_delay: std::time::Duration::from_millis(1),
                jitter: 0.5,
            },
            breaker: crate::BreakerConfig {
                failure_threshold: 100, // effectively disabled
                cooldown: std::time::Duration::from_millis(1),
            },
            call_budget: std::time::Duration::from_secs(1),
            replay_capacity: 32,
            jitter_seed: Some(11),
        }
    }

    #[test]
    fn degraded_get_falls_back_to_local_execution() {
        let (platform, store, authority) = setup();
        let up = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"degraded-app")
            .client_factory(flaky_factory(&platform, &store, &authority, &up))
            .resilience(fast_resilience())
            .trusted_library(library())
            .build()
            .unwrap();

        // Store down: the call still succeeds, executed locally, and the
        // PUT is parked for replay.
        let (result, outcome) = rt
            .execute(&desc_double(), b"\x03", |input| {
                input.iter().map(|b| b.wrapping_mul(2)).collect()
            })
            .unwrap();
        assert_eq!(result, vec![6]);
        assert_eq!(outcome, DedupOutcome::Miss);
        let stats = rt.stats();
        assert_eq!(stats.degraded_calls, 1);
        assert!(stats.retries > 0);
        assert_eq!(rt.pending_replays(), 1);
        assert_eq!(store.stats().puts, 0);
    }

    #[test]
    fn replay_queue_drains_after_recovery() {
        let (platform, store, authority) = setup();
        let up = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"replay-app")
            .client_factory(flaky_factory(&platform, &store, &authority, &up))
            .resilience(fast_resilience())
            .trusted_library(library())
            .build()
            .unwrap();

        // Three calls while down: three parked PUTs.
        for i in 0..3u8 {
            let (_, outcome) =
                rt.execute(&desc_double(), &[i], |input| input.to_vec()).unwrap();
            assert_eq!(outcome, DedupOutcome::Miss);
        }
        assert_eq!(rt.pending_replays(), 3);

        // Store recovers: the next successful round-trip drains the queue.
        up.store(true, Ordering::Relaxed);
        let (_, outcome) =
            rt.execute(&desc_double(), &[9], |input| input.to_vec()).unwrap();
        assert_eq!(outcome, DedupOutcome::Miss);
        assert_eq!(rt.pending_replays(), 0);
        assert_eq!(rt.stats().replayed_puts, 3);
        // The replayed results are now hits.
        let (_, outcome) =
            rt.execute(&desc_double(), &[0], |_| panic!("must hit")).unwrap();
        assert_eq!(outcome, DedupOutcome::Hit);
    }

    #[test]
    fn breaker_open_degrades_without_touching_store() {
        let (platform, store, authority) = setup();
        let up = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut config = fast_resilience();
        config.breaker.failure_threshold = 2;
        config.breaker.cooldown = std::time::Duration::from_secs(60);
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"breaker-app")
            .client_factory(flaky_factory(&platform, &store, &authority, &up))
            .resilience(config)
            .trusted_library(library())
            .build()
            .unwrap();

        // First call trips the breaker (2 failed attempts).
        rt.execute(&desc_double(), b"a", |i| i.to_vec()).unwrap();
        assert!(rt.stats().breaker_transitions >= 1);
        let retries_after_trip = rt.stats().retries;
        // Later calls fail fast: no new retries, still correct results.
        let (result, outcome) = rt.execute(&desc_double(), b"b", |i| i.to_vec()).unwrap();
        assert_eq!(result, b"b");
        assert_eq!(outcome, DedupOutcome::Miss);
        assert_eq!(rt.stats().retries, retries_after_trip);
        assert_eq!(rt.stats().degraded_calls, 2);
    }

    #[test]
    fn resilience_rejects_moved_custom_client() {
        let (platform, store, authority) = setup();
        let client = InProcessClient::connect(
            Arc::clone(&store),
            &authority,
            &platform,
            &platform.create_enclave(b"c").unwrap(),
        )
        .unwrap();
        let result = DedupRuntime::builder(Arc::clone(&platform), b"custom-res")
            .client(Box::new(client))
            .resilience(crate::ResilienceConfig::default())
            .trusted_library(library())
            .build();
        assert!(matches!(result, Err(CoreError::UnexpectedResponse(_))));
    }

    /// The one PUT contract: a call returns only after its batched PUT has
    /// been answered. Without the resilience layer a failed PUT round trip
    /// fails the call, and a PUT the store refuses is already counted when
    /// the call returns its computed result.
    #[test]
    fn a_call_returns_after_its_put_is_answered() {
        #[derive(Debug)]
        struct FailingPuts(InProcessClient);
        impl StoreClient for FailingPuts {
            fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError> {
                match request {
                    Message::BatchRequest { items, .. }
                        if items
                            .iter()
                            .any(|item| matches!(item, BatchItem::Put { .. })) =>
                    {
                        Err(CoreError::StoreUnavailable("PUT round trip lost".into()))
                    }
                    _ => self.0.roundtrip(request),
                }
            }
        }
        let (platform, store, authority) = setup();
        let enclave = platform.create_enclave(b"failing-puts").unwrap();
        let inner =
            InProcessClient::connect(Arc::clone(&store), &authority, &platform, &enclave)
                .unwrap();
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"failing-put-app")
            .client(Box::new(FailingPuts(inner)))
            .trusted_library(library())
            .build()
            .unwrap();
        let err = rt.execute(&desc_double(), b"x", |i| i.to_vec()).unwrap_err();
        assert!(matches!(err, CoreError::StoreUnavailable(_)), "{err}");
        assert_eq!(store.stats().puts, 0);

        // A 1-entry quota: the second result's PUT is refused, and counted
        // by the time its call returns the result as a plain miss.
        let quota = speed_store::QuotaPolicy {
            max_entries_per_app: 1,
            ..speed_store::QuotaPolicy::default()
        };
        let config = StoreConfig { quota, ..StoreConfig::default() };
        let store = Arc::new(ResultStore::new(&platform, config).unwrap());
        let rt = runtime(&platform, &store, &authority, b"quota-app");
        for (input, rejected) in [(b"first", 0), (b"other", 1)] {
            let (result, outcome) =
                rt.execute(&desc_double(), input, |i| i.to_vec()).unwrap();
            assert_eq!((result.to_vec(), outcome), (input.to_vec(), DedupOutcome::Miss));
            assert_eq!(rt.stats().rejected_puts, rejected, "{input:?}");
        }
        assert_eq!(store.stats().entries, 1);
    }

    #[test]
    fn builder_requires_store() {
        let platform = Platform::new(CostModel::no_sgx());
        let result = DedupRuntime::builder(platform, b"no-store").build();
        assert!(matches!(result, Err(CoreError::UnexpectedResponse(_))));
    }

    #[test]
    fn batch_of_hits_costs_two_transitions_and_one_roundtrip() {
        let (platform, store, authority) = setup();
        let seeder = runtime(&platform, &store, &authority, b"seed-app");
        let identity = seeder.resolve(&desc_double()).unwrap();
        let inputs: Vec<[u8; 4]> = (0..8u32).map(|i| i.to_le_bytes()).collect();
        for input in &inputs {
            seeder.execute_raw(&identity, input, |d| d.to_vec()).unwrap();
        }

        let rt = runtime(&platform, &store, &authority, b"batch-app");
        let identity = rt.resolve(&desc_double()).unwrap();
        let store_gets_before = store.stats().gets;
        let before = rt.enclave().stats();
        let calls = inputs
            .iter()
            .map(|input| {
                BatchCall::new(identity, input.as_slice(), |_| panic!("all hits"))
            })
            .collect();
        let results = rt.execute_batch(calls).unwrap();
        let after = rt.enclave().stats();

        assert_eq!(results.len(), 8);
        for (i, (result, outcome)) in results.iter().enumerate() {
            assert_eq!(*outcome, DedupOutcome::Hit, "item {i}");
            assert_eq!(result, &inputs[i].to_vec(), "item {i}");
        }
        // The paper-motivating claim: N lookups, O(1) transitions. One
        // ECALL into the batch routine, one OCALL for the batched GET.
        assert_eq!(after.ecalls - before.ecalls, 1);
        assert_eq!(after.ocalls - before.ocalls, 1);
        assert!(after.transitions() - before.transitions() <= 2);
        // And a single store-side batch message served all 8 lookups.
        assert_eq!(store.stats().gets - store_gets_before, 8);
        assert_eq!(rt.stats().hits, 8);
    }

    #[test]
    fn batch_mixed_hits_and_misses_in_order() {
        let (platform, store, authority) = setup();
        let seeder = runtime(&platform, &store, &authority, b"seed-mixed");
        let identity = seeder.resolve(&desc_double()).unwrap();
        // Seed even inputs only.
        for i in (0..6u32).step_by(2) {
            seeder.execute_raw(&identity, &i.to_le_bytes(), |d| d.to_vec()).unwrap();
        }

        let rt = runtime(&platform, &store, &authority, b"mixed-app");
        let identity = rt.resolve(&desc_double()).unwrap();
        let inputs: Vec<[u8; 4]> = (0..6u32).map(|i| i.to_le_bytes()).collect();
        let calls = inputs
            .iter()
            .map(|input| BatchCall::new(identity, input.as_slice(), |d| d.to_vec()))
            .collect();
        let results = rt.execute_batch(calls).unwrap();

        for (i, (result, outcome)) in results.iter().enumerate() {
            let expected =
                if i % 2 == 0 { DedupOutcome::Hit } else { DedupOutcome::Miss };
            assert_eq!(*outcome, expected, "item {i}");
            assert_eq!(result, &inputs[i].to_vec(), "item {i}");
        }
        let stats = rt.stats();
        assert_eq!((stats.calls, stats.hits, stats.misses), (6, 3, 3));

        // The batched PUTs landed: everything hits now.
        let calls = inputs
            .iter()
            .map(|input| {
                BatchCall::new(identity, input.as_slice(), |_| panic!("all stored"))
            })
            .collect();
        let results = rt.execute_batch(calls).unwrap();
        assert!(results.iter().all(|(_, o)| *o == DedupOutcome::Hit));
    }

    #[test]
    fn empty_batch_is_free() {
        let (platform, store, authority) = setup();
        let rt = runtime(&platform, &store, &authority, b"empty-batch");
        let before = rt.enclave().stats();
        let results = rt.execute_batch(Vec::new()).unwrap();
        assert!(results.is_empty());
        assert_eq!(rt.enclave().stats().transitions(), before.transitions());
        assert_eq!(rt.stats().calls, 0);
    }

    #[test]
    fn hot_cache_serves_repeats_without_ocalls() {
        let (platform, store, authority) = setup();
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"cache-app")
            .in_process_store(Arc::clone(&store), Arc::clone(&authority))
            .trusted_library(library())
            .hot_cache(crate::HotCacheConfig::default())
            .build()
            .unwrap();

        let (_, outcome) = rt.execute(&desc_double(), b"warm", |i| i.to_vec()).unwrap();
        assert_eq!(outcome, DedupOutcome::Miss);
        let store_gets = store.stats().gets;

        let before = rt.enclave().stats();
        let (result, outcome) =
            rt.execute(&desc_double(), b"warm", |_| panic!("cached")).unwrap();
        let after = rt.enclave().stats();
        assert_eq!(result, b"warm");
        assert_eq!(outcome, DedupOutcome::HitLocalCache);
        // One ECALL (the dedup routine), zero OCALLs, zero store traffic.
        assert_eq!(after.ocalls - before.ocalls, 0);
        assert_eq!(store.stats().gets, store_gets);
        let stats = rt.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(stats.reused_bytes, 4);
    }

    /// A runtime whose hot cache has two entries and 320 bytes of
    /// results: a 1000-byte result is never cached, so the repeat of a
    /// store hit reads the kept record.
    fn record_keeping_runtime(
        platform: &Arc<Platform>,
        store: &Arc<ResultStore>,
        authority: &Arc<SessionAuthority>,
    ) -> Arc<DedupRuntime> {
        DedupRuntime::builder(Arc::clone(platform), b"record-app")
            .in_process_store(Arc::clone(store), Arc::clone(authority))
            .trusted_library(library())
            .hot_cache(HotCacheConfig {
                max_entries: 2,
                max_bytes: 4 * crate::hotcache::ENTRY_OVERHEAD,
            })
            .build()
            .unwrap()
    }

    /// The record `rt`'s hot cache keeps for `input`; `tamper` edits it
    /// in place first.
    fn kept_record(
        rt: &DedupRuntime,
        input: &[u8],
        tamper: impl FnOnce(&mut Record),
    ) -> Option<Record> {
        let hot = rt.hot_cache.as_ref().expect("cache enabled");
        let identity = rt.resolve(&desc_double()).unwrap();
        let fp = fingerprint(&hot.prf, &identity, input);
        let mut cache = lock_recover(&hot.entries);
        let record = Arc::make_mut(cache.kept_record_mut(&fp)?);
        tamper(record);
        Some(record.clone())
    }

    /// Flips one bit of the field `field` of a record.
    fn flip(field: &str) -> impl FnOnce(&mut Record) + '_ {
        move |record| match field {
            "boxed_result" => record.boxed_result[7] ^= 0x10,
            _ => record.wrapped_key[3] ^= 0x01,
        }
    }

    /// A kept record that fails verification is dropped and never
    /// answers: the repeat gets its bytes from the store, and the entry
    /// keeps the store's fresh record, which answers the next repeat.
    #[test]
    fn a_tampered_kept_record_fails_over_to_the_store() {
        for field in ["boxed_result", "wrapped_key"] {
            let (platform, store, authority) = setup();
            let result = vec![0x42u8; 1000];
            runtime(&platform, &store, &authority, b"tamper-seed")
                .execute(&desc_double(), b"tamper", |_| result.clone())
                .unwrap();
            let rt = record_keeping_runtime(&platform, &store, &authority);
            let repeat = || rt.execute(&desc_double(), b"tamper", |_| panic!("stored"));
            assert_eq!(repeat().unwrap().1, DedupOutcome::Hit, "{field}");
            let stored = kept_record(&rt, b"tamper", |_| {}).expect("record kept");
            kept_record(&rt, b"tamper", flip(field));

            let gets = store.stats().gets;
            let (got, outcome) = repeat().unwrap();
            assert_eq!((got.to_vec(), outcome), (result.clone(), DedupOutcome::Hit));
            assert_eq!(store.stats().gets, gets + 1, "{field}: read from the store");
            assert_eq!(rt.stats().verify_failures, 1, "{field}");
            let fresh = kept_record(&rt, b"tamper", |_| {});
            assert_eq!(fresh, Some(stored), "{field}: the store's record is kept");

            let before = rt.enclave().stats();
            let (got, outcome) = repeat().unwrap();
            assert_eq!((got.to_vec(), outcome), (result, DedupOutcome::HitLocalCache));
            assert_eq!(rt.enclave().stats().ocalls, before.ocalls, "{field}");
            assert_eq!(store.stats().gets, gets + 1, "{field}");
            let stats = rt.stats();
            assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2), "{field}");
        }
    }

    /// A kept record that fails verification is dropped even when the
    /// store no longer holds the result: the repeat computes it, and the
    /// entry is left with no record rather than the bad one.
    #[test]
    fn a_failed_kept_record_is_dropped_when_the_store_forgot_it() {
        let platform = Platform::new(CostModel::default_sgx());
        let config = StoreConfig { max_entries: 1, shards: 1, ..StoreConfig::default() };
        let store = Arc::new(ResultStore::new(&platform, config).unwrap());
        let authority = Arc::new(SessionAuthority::with_seed(5));
        let seeder = runtime(&platform, &store, &authority, b"forgot-seed");
        let result = vec![0x42u8; 1000];
        seeder.execute(&desc_double(), b"first", |_| result.clone()).unwrap();
        let rt = record_keeping_runtime(&platform, &store, &authority);
        let (_, outcome) = rt.execute(&desc_double(), b"first", |_| panic!()).unwrap();
        assert_eq!(outcome, DedupOutcome::Hit);
        // A second result takes the store's only slot.
        seeder.execute(&desc_double(), b"second", |_| vec![2]).unwrap();
        kept_record(&rt, b"first", flip("boxed_result")).expect("record kept");

        let (got, outcome) =
            rt.execute(&desc_double(), b"first", |_| result.clone()).unwrap();
        assert_eq!((got.to_vec(), outcome), (result, DedupOutcome::Miss));
        assert_eq!(rt.stats().verify_failures, 1);
        assert_eq!(kept_record(&rt, b"first", |_| {}), None, "the bad record is gone");
        assert_eq!(rt.hot_cache_records(), Some((0, 0)));
    }

    #[test]
    fn hot_cache_batch_all_cached_skips_store_entirely() {
        let (platform, store, authority) = setup();
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"cache-batch")
            .in_process_store(Arc::clone(&store), Arc::clone(&authority))
            .trusted_library(library())
            .hot_cache(crate::HotCacheConfig::default())
            .build()
            .unwrap();
        let identity = rt.resolve(&desc_double()).unwrap();
        let inputs: Vec<[u8; 4]> = (0..4u32).map(|i| i.to_le_bytes()).collect();

        // First batch warms the cache (all misses).
        let calls = inputs
            .iter()
            .map(|input| BatchCall::new(identity, input.as_slice(), |d| d.to_vec()))
            .collect();
        rt.execute_batch(calls).unwrap();

        // Second batch: answered in-enclave, not a single OCALL.
        let store_gets = store.stats().gets;
        let before = rt.enclave().stats();
        let calls = inputs
            .iter()
            .map(|input| BatchCall::new(identity, input.as_slice(), |_| panic!("cached")))
            .collect();
        let results = rt.execute_batch(calls).unwrap();
        let after = rt.enclave().stats();
        assert!(results.iter().all(|(_, o)| *o == DedupOutcome::HitLocalCache));
        assert_eq!(after.ocalls - before.ocalls, 0);
        assert_eq!(after.ecalls - before.ecalls, 1);
        assert_eq!(store.stats().gets, store_gets);
        assert_eq!(rt.stats().cache_hits, 4);
    }

    #[test]
    fn batch_degrades_item_by_item_when_store_down() {
        let (platform, store, authority) = setup();
        let up = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"batch-degraded")
            .client_factory(flaky_factory(&platform, &store, &authority, &up))
            .resilience(fast_resilience())
            .trusted_library(library())
            .build()
            .unwrap();
        let identity = rt.resolve(&desc_double()).unwrap();
        let inputs: Vec<[u8; 4]> = (0..3u32).map(|i| i.to_le_bytes()).collect();

        // Store down: every item still succeeds via local execution, and
        // each PUT is parked individually.
        let calls = inputs
            .iter()
            .map(|input| BatchCall::new(identity, input.as_slice(), |d| d.to_vec()))
            .collect();
        let results = rt.execute_batch(calls).unwrap();
        assert!(results.iter().all(|(_, o)| *o == DedupOutcome::Miss));
        assert_eq!(rt.stats().degraded_calls, 3);
        assert_eq!(rt.pending_replays(), 3);
        assert_eq!(store.stats().puts, 0);

        // Recovery: one successful round-trip drains the queue item by item.
        up.store(true, Ordering::Relaxed);
        rt.execute(&desc_double(), b"recovered", |i| i.to_vec()).unwrap();
        assert_eq!(rt.pending_replays(), 0);
        assert_eq!(rt.stats().replayed_puts, 3);

        // The replayed records are now batch hits.
        let calls = inputs
            .iter()
            .map(|input| {
                BatchCall::new(identity, input.as_slice(), |_| panic!("replayed"))
            })
            .collect();
        let results = rt.execute_batch(calls).unwrap();
        assert!(results.iter().all(|(_, o)| *o == DedupOutcome::Hit));
    }

    #[test]
    fn stats_default_is_zeroed() {
        let (platform, store, authority) = setup();
        let rt = runtime(&platform, &store, &authority, b"fresh");
        assert_eq!(rt.stats(), RuntimeStats::default());
    }

    #[test]
    fn store_stats_surface_per_shard_counters() {
        let (platform, store, authority) = setup();
        let rt = runtime(&platform, &store, &authority, b"shard-stats");
        let (_, outcome) =
            rt.execute(&desc_double(), b"\x05", |input| input.to_vec()).unwrap();
        assert_eq!(outcome, DedupOutcome::Miss);
        let stats = rt.store_stats().unwrap();
        assert_eq!(stats.shards.len(), store.shard_count());
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.shards.iter().map(|s| s.entries).sum::<u64>(), 1);
    }

    fn filter_runtime(
        platform: &Arc<Platform>,
        store: &Arc<ResultStore>,
        authority: &Arc<SessionAuthority>,
        code: &[u8],
        config: PrefilterConfig,
    ) -> Arc<DedupRuntime> {
        DedupRuntime::builder(Arc::clone(platform), code)
            .in_process_store(Arc::clone(store), Arc::clone(authority))
            .trusted_library(library())
            .prefilter(config)
            .build()
            .unwrap()
    }

    #[test]
    fn filtered_miss_skips_the_get_round_trip() {
        let (platform, store, authority) = setup();
        let rt = filter_runtime(
            &platform,
            &store,
            &authority,
            b"filter-app",
            PrefilterConfig::default(),
        );

        // First call on an empty store: the first consult fetches the
        // filter snapshot (one OCALL), which proves absence, so the GET is
        // skipped — filter + PUT, never a GET.
        let before = rt.enclave().stats();
        let (result, outcome) = rt.execute(&desc_double(), b"a", |i| i.to_vec()).unwrap();
        let after = rt.enclave().stats();
        assert_eq!(result, b"a");
        assert_eq!(outcome, DedupOutcome::MissFiltered);
        assert_eq!(after.ecalls - before.ecalls, 1);
        assert_eq!(after.ocalls - before.ocalls, 2, "filter refresh + PUT, no GET");
        assert_eq!(store.stats().gets, 0);

        // Second distinct input: the cached snapshot still proves absence —
        // one ECALL and the PUT OCALL only.
        let (_, outcome) = rt.execute(&desc_double(), b"b", |i| i.to_vec()).unwrap();
        let done = rt.enclave().stats();
        assert_eq!(outcome, DedupOutcome::MissFiltered);
        assert_eq!(done.ecalls - after.ecalls, 1);
        assert_eq!(done.ocalls - after.ocalls, 1, "cached filter + PUT, no GET");
        assert_eq!(store.stats().gets, 0);
        assert_eq!(store.stats().puts, 2);
        assert_eq!(rt.stats().filtered_misses, 2);
        assert_eq!(rt.stats().misses, 2);
    }

    #[test]
    fn refreshed_filter_turns_known_tags_into_hits() {
        let (platform, store, authority) = setup();
        // refresh_ops: 1 ⇒ every consult refetches the snapshot, so the
        // client always sees the store's latest filter.
        let rt = filter_runtime(
            &platform,
            &store,
            &authority,
            b"refresh-app",
            PrefilterConfig { refresh_ops: 1 },
        );

        let (_, outcome) = rt.execute(&desc_double(), b"m", |i| i.to_vec()).unwrap();
        assert_eq!(outcome, DedupOutcome::MissFiltered);

        // The store inserted the PUT's comp-tag; the refreshed filter now
        // says "maybe present", so the call falls through to the GET and hits.
        // No false negative: a published result is always reachable.
        let (result, outcome) =
            rt.execute(&desc_double(), b"m", |_| panic!("must dedup")).unwrap();
        assert_eq!(outcome, DedupOutcome::Hit);
        assert_eq!(result, b"m");
        assert_eq!(store.stats().gets, 1);
    }

    /// The merged filter lives in the enclave, so its pages are committed
    /// when a refresh installs it, and a refresh of the same geometry
    /// commits nothing more. When the enclave cannot commit them there is
    /// no filter, which proves nothing: the call asks the store.
    #[test]
    fn the_merged_filter_is_committed_epc_and_a_refused_commit_proves_nothing() {
        let (platform, store, authority) = setup();
        let config = PrefilterConfig { refresh_ops: 1 };
        let rt = filter_runtime(&platform, &store, &authority, b"epc-app", config);
        let starved = filter_runtime(&platform, &store, &authority, b"starved", config);
        let shards = store.filter_snapshot().shards;
        let filter_bytes = shards[0].bit_len() / 8;
        assert!(shards.iter().all(|f| f.bit_len() / 8 == filter_bytes), "one geometry");
        let before = rt.enclave().committed_bytes();
        let (_, outcome) = rt.execute(&desc_double(), b"f1", |i| i.to_vec()).unwrap();
        assert_eq!(outcome, DedupOutcome::MissFiltered);
        let installed = rt.enclave().committed_bytes();
        assert_eq!(installed - before, filter_bytes as u64, "one merged filter");
        for input in [b"f2", b"f3", b"f1"] {
            rt.execute(&desc_double(), input, |i| i.to_vec()).unwrap();
            assert_eq!(rt.enclave().committed_bytes(), installed, "refreshed in place");
        }

        // The platform's EPC is full: the first refresh cannot commit the
        // filter, so the miss is not proven and goes to the store's GET.
        let epc = platform.epc();
        let used = epc.stats().committed_pages * PAGE_SIZE;
        epc.commit(4 * epc.usable_bytes() - used).unwrap();
        let (before, gets) = (starved.enclave().committed_bytes(), store.stats().gets);
        let (_, outcome) =
            starved.execute(&desc_double(), b"f4", |i| i.to_vec()).unwrap();
        assert_eq!(outcome, DedupOutcome::Miss);
        assert_eq!(store.stats().gets, gets + 1);
        assert_eq!(starved.enclave().committed_bytes(), before);
        epc.release(4 * epc.usable_bytes() - used).unwrap();
    }

    #[test]
    fn filter_refresh_honors_the_staleness_budget() {
        let (platform, store, authority) = setup();
        let rt = filter_runtime(
            &platform,
            &store,
            &authority,
            b"budget-app",
            PrefilterConfig { refresh_ops: 2 },
        );

        let mut ocalls = Vec::new();
        for input in [b"q1".as_slice(), b"q2", b"q3"] {
            let before = rt.enclave().stats().ocalls;
            let (_, outcome) = rt.execute(&desc_double(), input, |i| i.to_vec()).unwrap();
            assert_eq!(outcome, DedupOutcome::MissFiltered);
            ocalls.push(rt.enclave().stats().ocalls - before);
        }
        // Consult 1 refreshes (cold), consult 2 rides the snapshot, consult
        // 3 crosses the budget and refreshes again.
        assert_eq!(ocalls, vec![2, 1, 2]);
    }

    #[test]
    fn cache_hits_share_one_buffer_across_calls() {
        let (platform, store, authority) = setup();
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"share-app")
            .in_process_store(Arc::clone(&store), Arc::clone(&authority))
            .trusted_library(library())
            .hot_cache(HotCacheConfig::default())
            .build()
            .unwrap();

        rt.execute(&desc_double(), b"buf", |_| vec![7u8; 4096]).unwrap();
        let (first, o1) = rt.execute(&desc_double(), b"buf", |_| panic!()).unwrap();
        let (second, o2) = rt.execute(&desc_double(), b"buf", |_| panic!()).unwrap();
        assert_eq!(o1, DedupOutcome::HitLocalCache);
        assert_eq!(o2, DedupOutcome::HitLocalCache);
        // Zero-copy: both hits alias the cache's buffer instead of cloning.
        assert_eq!(first.as_ptr(), second.as_ptr());
    }

    #[test]
    fn hot_cache_usage_accounts_shared_buffers_once() {
        let (platform, store, authority) = setup();
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"usage-app")
            .in_process_store(Arc::clone(&store), Arc::clone(&authority))
            .trusted_library(library())
            .hot_cache(HotCacheConfig { max_entries: 8, max_bytes: 1 << 20 })
            .build()
            .unwrap();

        rt.execute(&desc_double(), b"u1", |_| vec![1u8; 1000]).unwrap();
        rt.execute(&desc_double(), b"u2", |_| vec![2u8; 500]).unwrap();
        let (entries, bytes) = rt.hot_cache_usage().unwrap();
        assert_eq!(entries, 2);
        // Result bytes plus the fixed per-entry charge — each buffer
        // charged exactly once.
        assert_eq!(bytes, 1500 + 2 * crate::hotcache::ENTRY_OVERHEAD);

        // Hits hand out references to the same buffers; usage accounting
        // must not drift while callers hold (or drop) those references.
        let held: Vec<_> = (0..4)
            .map(|_| rt.execute(&desc_double(), b"u1", |_| panic!()).unwrap().0)
            .collect();
        assert_eq!(rt.hot_cache_usage().unwrap(), (2, bytes));
        drop(held);
        assert_eq!(rt.hot_cache_usage().unwrap(), (2, bytes));
    }

    #[test]
    fn lookup_probes_without_computing_or_publishing() {
        let (platform, store, authority) = setup();
        let rt = filter_runtime(
            &platform,
            &store,
            &authority,
            b"lookup-app",
            PrefilterConfig::default(),
        );
        let identity = rt.resolve(&desc_double()).unwrap();

        // Absent, cold filter: the refresh OCALL runs, proves the tag
        // absent, and the probe returns without a GET.
        let before = rt.enclave().stats();
        assert_eq!(rt.lookup(&identity, b"absent-1").unwrap(), None);
        let after = rt.enclave().stats();
        assert_eq!(after.ecalls - before.ecalls, 1);
        assert_eq!(after.ocalls - before.ocalls, 1, "filter refresh only");

        // Absent, warm filter: pure in-enclave rejection — zero OCALLs.
        assert_eq!(rt.lookup(&identity, b"absent-2").unwrap(), None);
        let warm = rt.enclave().stats();
        assert_eq!(warm.ecalls - after.ecalls, 1);
        assert_eq!(warm.ocalls - after.ocalls, 0);
        assert_eq!(store.stats().gets, 0);

        // A probe is not a call: it never executes, publishes, or counts
        // as a miss.
        assert_eq!(rt.stats().calls, 0);
        assert_eq!(rt.stats().misses, 0);
        assert_eq!(store.stats().puts, 0);

        // Publish through a second runtime, then prove the probe can still
        // find it (the stale client filter is refreshed on budget, so use
        // a fresh runtime whose first consult fetches the latest filter).
        rt.execute_raw(&identity, b"present", |i| i.to_vec()).unwrap();
        let rt2 = filter_runtime(
            &platform,
            &store,
            &authority,
            b"lookup-app-2",
            PrefilterConfig::default(),
        );
        let identity2 = rt2.resolve(&desc_double()).unwrap();
        let found = rt2.lookup(&identity2, b"present").unwrap();
        assert_eq!(found.as_deref(), Some(b"present".as_slice()));
        assert_eq!(rt2.stats().hits, 1);
    }

    #[test]
    fn batch_filtered_misses_skip_the_batch_get() {
        let (platform, store, authority) = setup();
        let rt = filter_runtime(
            &platform,
            &store,
            &authority,
            b"batch-filter",
            PrefilterConfig::default(),
        );
        let identity = rt.resolve(&desc_double()).unwrap();
        let inputs: Vec<[u8; 4]> = (0..6u32).map(|i| i.to_le_bytes()).collect();

        let before = rt.enclave().stats();
        let calls = inputs
            .iter()
            .map(|input| BatchCall::new(identity, input.as_slice(), |d| d.to_vec()))
            .collect();
        let results = rt.execute_batch(calls).unwrap();
        let after = rt.enclave().stats();
        assert!(results.iter().all(|(_, o)| *o == DedupOutcome::MissFiltered));
        // One ECALL; the filter refresh and the batched PUT are the only
        // OCALLs — the batch GET round-trip never happened.
        assert_eq!(after.ecalls - before.ecalls, 1);
        assert_eq!(after.ocalls - before.ocalls, 2);
        assert_eq!(store.stats().gets, 0);
        assert_eq!(store.stats().puts, 6);
        assert_eq!(rt.stats().filtered_misses, 6);

        // A fresh runtime (cold filter ⇒ first consult sees the published
        // tags) resolves the same batch as hits through the batch GET.
        let rt2 = filter_runtime(
            &platform,
            &store,
            &authority,
            b"batch-filter-2",
            PrefilterConfig::default(),
        );
        let identity2 = rt2.resolve(&desc_double()).unwrap();
        let calls = inputs
            .iter()
            .map(|input| BatchCall::new(identity2, input.as_slice(), |_| panic!("hit")))
            .collect();
        let results = rt2.execute_batch(calls).unwrap();
        assert!(results.iter().all(|(_, o)| *o == DedupOutcome::Hit));
    }
}
