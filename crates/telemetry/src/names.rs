//! Canonical metric names.
//!
//! Every metric emitted anywhere in the workspace is named by a constant
//! here, and every constant here is documented in `docs/METRICS.md` (the
//! `metrics_docs_cover_every_name` integration test enforces the pairing).
//! Instrumentation code must use these constants — never string literals —
//! so the name set stays closed.
//!
//! Conventions: counters end in `_total`, histograms of nanosecond
//! latencies end in `_ns`, monotonic nanosecond totals end in `_ns_total`,
//! gauges have no suffix. Labels are noted per constant.

// --- speed-enclave: world switches and boundary copies (paper Fig. 6) ---

/// Counter, label `kind` ∈ {`ecall`, `ocall`}: world switches performed.
pub const ENCLAVE_TRANSITIONS_TOTAL: &str = "enclave_transitions_total";
/// Counter: bytes copied across the enclave boundary in either direction.
pub const ENCLAVE_BOUNDARY_BYTES_TOTAL: &str = "enclave_boundary_bytes_total";
/// Counter: modeled nanoseconds charged for switches and boundary copies.
pub const ENCLAVE_CHARGED_NS_TOTAL: &str = "enclave_charged_ns_total";

// --- speed-core: the DedupRuntime data path (Algorithms 1 and 2) ---

/// Counter: marked calls intercepted by any runtime in this process.
pub const DEDUP_CALLS_TOTAL: &str = "dedup_calls_total";
/// Counter: calls satisfied from the store (a dedup hit).
pub const DEDUP_HITS_TOTAL: &str = "dedup_hits_total";
/// Counter: calls that executed the function (initial computations).
pub const DEDUP_MISSES_TOTAL: &str = "dedup_misses_total";
/// Counter: records that failed the Fig. 3 verification protocol.
pub const DEDUP_VERIFY_FAILURES_TOTAL: &str = "dedup_verify_failures_total";
/// Counter: PUTs the store rejected (quota, enclave memory, races).
pub const DEDUP_REJECTED_PUTS_TOTAL: &str = "dedup_rejected_puts_total";
/// Counter: plaintext result bytes reused instead of recomputed.
pub const DEDUP_REUSED_BYTES_TOTAL: &str = "dedup_reused_bytes_total";
/// Counter: calls that degraded to local execution during a store outage.
pub const DEDUP_DEGRADED_CALLS_TOTAL: &str = "dedup_degraded_calls_total";
/// Counter: lookups answered by the in-enclave hot-tag cache.
pub const DEDUP_CACHE_HITS_TOTAL: &str = "dedup_cache_hits_total";
/// Counter: hot-cache probes that found no cached result, including those
/// that supplied a remembered digest (`hotcache_digest_reuses_total`).
pub const DEDUP_CACHE_MISSES_TOTAL: &str = "dedup_cache_misses_total";
/// Counter: misses whose store GET was skipped because the negative filter
/// proved no stored result exists (also counted in `dedup_misses_total`).
pub const DEDUP_FILTERED_MISSES_TOTAL: &str = "dedup_filtered_misses_total";

/// Histogram (ns): end-to-end latency of one marked call (`execute_raw`).
pub const DEDUP_CALL_DURATION_NS: &str = "dedup_call_duration_ns";
/// Histogram (ns): end-to-end latency of one `execute_batch` invocation.
pub const DEDUP_BATCH_DURATION_NS: &str = "dedup_batch_duration_ns";
/// Histogram (ns): deriving the digest `d ← Hash(func, m)` and the tag
/// `t ← Hash(d)` inside the enclave: the one SHA-256 pass over its input of
/// a call that reaches the store and that the hot cache does not remember.
/// A hot-cache hit or a digest reuse does not record it.
pub const TAG_DERIVE_DURATION_NS: &str = "tag_derive_duration_ns";
/// Histogram (ns): computing the secret hot-cache fingerprint
/// `fp ← E_K(GHASH_H(func, m))` inside the enclave: one GHASH pass over
/// the input, which keys the probe or remembers a resolved call. It is the
/// only pass a hot-cache hit or a digest reuse makes.
pub const TAG_FINGERPRINT_DURATION_NS: &str = "tag_fingerprint_duration_ns";
/// Histogram (ns): RCE key recovery + result decryption + verification,
/// from the digest (no pass over the input).
pub const RCE_RECOVER_DURATION_NS: &str = "rce_recover_duration_ns";
/// Histogram (ns): RCE result encryption before publishing, from the
/// digest (no pass over the input).
pub const RCE_ENCRYPT_DURATION_NS: &str = "rce_encrypt_duration_ns";
/// Histogram (ns): in-enclave hot-tag cache lookup (hit or miss).
pub const HOTCACHE_LOOKUP_DURATION_NS: &str = "hotcache_lookup_duration_ns";
/// Counter: hot-cache probes that found a remembered computation without
/// its result and supplied its digest and tag, so the call's opening of a
/// kept record, or its store GET, RCE recovery and any PUT, ran without a
/// SHA-256 pass over its input.
pub const HOTCACHE_DIGEST_REUSES_TOTAL: &str = "hotcache_digest_reuses_total";
/// Counter: hot-cache probes answered by verifying and opening the RCE
/// record the cache kept from the computation's last verified store hit,
/// with no OCALL and no store GET. Also counted in the cache hits.
pub const HOTCACHE_RECORD_HITS_TOTAL: &str = "hotcache_record_hits_total";
/// Counter: resolved results the hot cache did not keep — frequency
/// admission refused them or they were too large. The computation stays
/// remembered by its digest where the entry table has room.
pub const HOTCACHE_ADMISSIONS_REFUSED_TOTAL: &str = "hotcache_admissions_refused_total";

// --- speed-core: the negative-filter tier (comp-tag filters) ---

/// Retired: nothing records it; read only by speedbench until ROADMAP item 1.
pub const TAG_PREFILTER_DERIVE_DURATION_NS: &str = "tag_prefilter_derive_duration_ns";
/// Retired: nothing records it; read only by speedbench until ROADMAP item 1.
pub const TAG_PREFILTER_CACHE_SKIPS_TOTAL: &str = "tag_prefilter_cache_skips_total";
/// Counter: store round trips skipped because the client's merged negative
/// filter proved the item's comp-tag absent.
pub const TAG_PREFILTER_STORE_SKIPS_TOTAL: &str = "tag_prefilter_store_skips_total";
/// Counter: comp-tag negative-filter snapshots fetched from the store
/// (staleness budget refreshes).
pub const TAG_PREFILTER_REFRESHES_TOTAL: &str = "tag_prefilter_refreshes_total";

// --- speed-core: streaming chunked dedup (StreamSession + chunker) ---

/// Counter: chunks processed by streaming dedup sessions.
pub const STREAM_CHUNKS_TOTAL: &str = "stream_chunks_total";
/// Counter: stream chunks satisfied without executing the function
/// (store hit or in-enclave hot-cache hit).
pub const STREAM_CHUNK_HITS_TOTAL: &str = "stream_chunk_hits_total";
/// Counter: input bytes consumed by streaming dedup sessions.
pub const STREAM_BYTES_TOTAL: &str = "stream_bytes_total";
/// Histogram (ns): one mid-stream or final chunk-batch flush (an
/// `execute_batch` call made by a `StreamSession`).
pub const STREAM_FLUSH_DURATION_NS: &str = "stream_flush_duration_ns";
/// Counter: chunk cuts forced by the `max` bound instead of found by the
/// rolling-hash content test.
pub const CHUNKER_FORCED_CUTS_TOTAL: &str = "chunker_forced_cuts_total";

// --- speed-core resilience: the fault-tolerant store path ---

/// Counter: round-trip attempts retried with backoff.
pub const RESILIENCE_RETRIES_TOTAL: &str = "resilience_retries_total";
/// Counter: reconnects (each runs the full attested handshake again).
pub const RESILIENCE_RECONNECTS_TOTAL: &str = "resilience_reconnects_total";
/// Counter: circuit-breaker state transitions (closed/open/half-open).
pub const RESILIENCE_BREAKER_TRANSITIONS_TOTAL: &str =
    "resilience_breaker_transitions_total";
/// Counter: round-trips refused immediately by the open breaker.
pub const RESILIENCE_FAST_FAILS_TOTAL: &str = "resilience_fast_fails_total";
/// Counter: round-trips abandoned after exhausting retries or the deadline.
pub const RESILIENCE_GIVEUPS_TOTAL: &str = "resilience_giveups_total";
/// Counter: queued PUTs delivered after the store recovered.
pub const RESILIENCE_REPLAYED_PUTS_TOTAL: &str = "resilience_replayed_puts_total";
/// Counter: queued PUTs evicted because the bounded replay queue overflowed.
pub const RESILIENCE_REPLAY_DROPPED_TOTAL: &str = "resilience_replay_dropped_total";
/// Gauge: PUTs currently parked in the replay queue.
pub const RESILIENCE_REPLAY_QUEUE_DEPTH: &str = "resilience_replay_queue_depth";

// --- speed-core cluster: consistent-hash routing and replication ---
//
// Per-node series carry a `node` label holding the numeric node id from
// the cluster ring, so a 3-node client emits e.g. `cluster_node_up{node=0}`
// … `{node=2}`. Sum (counters) or inspect per label as appropriate.

/// Counter, label `node`: requests the cluster client routed to one node.
pub const CLUSTER_ROUTED_REQUESTS_TOTAL: &str = "cluster_routed_requests_total";
/// Counter, label `node`: requests that failed over past one unreachable
/// replica to the next one on the ring.
pub const CLUSTER_FAILOVERS_TOTAL: &str = "cluster_failovers_total";
/// Counter: acknowledged PUTs parked as hints because a replica was down.
pub const CLUSTER_HINTED_PUTS_TOTAL: &str = "cluster_hinted_puts_total";
/// Counter: hinted PUTs delivered after re-routing through the current ring.
pub const CLUSTER_HINTS_REPLAYED_TOTAL: &str = "cluster_hints_replayed_total";
/// Counter: hinted PUTs evicted because the bounded hint queue overflowed.
pub const CLUSTER_HINTS_DROPPED_TOTAL: &str = "cluster_hints_dropped_total";
/// Gauge: PUTs currently parked in the cluster hint queue.
pub const CLUSTER_HINT_QUEUE_DEPTH: &str = "cluster_hint_queue_depth";
/// Gauge, label `node`: 1 while the node answered its last round-trip,
/// 0 after a failure (last observation wins).
pub const CLUSTER_NODE_UP: &str = "cluster_node_up";
/// Gauge, label `node`: re-attested reconnects performed against one node
/// (mirrors the node's `ResilienceStats::reconnects`).
pub const CLUSTER_NODE_REATTESTATIONS: &str = "cluster_node_reattestations";
/// Gauge: version of the ring the cluster client currently routes by.
pub const CLUSTER_RING_VERSION: &str = "cluster_ring_version";
/// Gauge: member nodes on the ring the cluster client currently routes by.
pub const CLUSTER_RING_NODES: &str = "cluster_ring_nodes";

// --- speed-store: the encrypted ResultStore ---

/// Counter: GET requests served (single and batched).
pub const STORE_GETS_TOTAL: &str = "store_gets_total";
/// Counter: GETs that found a record (store-side dedup hits).
pub const STORE_HITS_TOTAL: &str = "store_hits_total";
/// Counter: PUT requests served (single and batched).
pub const STORE_PUTS_TOTAL: &str = "store_puts_total";
/// Counter: PUTs rejected (quota, enclave memory pressure).
pub const STORE_REJECTED_PUTS_TOTAL: &str = "store_rejected_puts_total";
/// Counter: LRU evictions across all shards.
pub const STORE_EVICTIONS_TOTAL: &str = "store_evictions_total";
/// Gauge: entries resident in the metadata dictionary, all shards.
pub const STORE_ENTRIES: &str = "store_entries";
/// Gauge: ciphertext bytes held outside the enclave, all shards.
pub const STORE_STORED_BYTES: &str = "store_stored_bytes";
/// Histogram (ns): serving one protocol message in `ResultStore::handle`.
pub const STORE_REQUEST_DURATION_NS: &str = "store_request_duration_ns";

// --- speed-store: per-shard negative-lookup filters ---

/// Counter: `FILTER_REQUEST` messages served (filter snapshots shipped).
pub const STORE_FILTER_REQUESTS_TOTAL: &str = "store_filter_requests_total";
/// Counter: comp-tags inserted into a shard's negative filter, one per
/// entry the store takes (a PUT, an import, or an entry recovered at open).
pub const STORE_FILTER_INSERTS_TOTAL: &str = "store_filter_inserts_total";
/// Retired: nothing records it; read only by speedbench until ROADMAP item 1.
pub const STORE_FILTER_BATCH_SKIPS_TOTAL: &str = "store_filter_batch_skips_total";

// --- speed-store durability: log backend, checkpoints, snapshots ---

/// Counter: WAL records appended by the log backend.
pub const STORE_WAL_APPENDS_TOTAL: &str = "store_wal_appends_total";
/// Counter: framed WAL bytes appended by the log backend.
pub const STORE_WAL_APPENDED_BYTES_TOTAL: &str = "store_wal_appended_bytes_total";
/// Counter: WAL records replayed on top of the checkpoint during recovery.
pub const STORE_WAL_REPLAY_RECORDS_TOTAL: &str = "store_wal_replay_records_total";
/// Counter: segment files whose torn/corrupt tail was truncated on open.
pub const STORE_WAL_TORN_SEGMENTS_TOTAL: &str = "store_wal_torn_segments_total";
/// Counter: checkpoints written by the log backend.
pub const STORE_CHECKPOINTS_TOTAL: &str = "store_checkpoints_total";
/// Counter: dead log bytes reclaimed by checkpoints.
pub const STORE_COMPACTION_RECLAIMED_BYTES_TOTAL: &str =
    "store_compaction_reclaimed_bytes_total";
/// Histogram (ns): one backend open/recovery pass (checkpoint + replay).
pub const STORE_RECOVERY_DURATION_NS: &str = "store_recovery_duration_ns";
/// Counter: corrupt checkpoints quarantined to `*.corrupt`.
pub const STORE_SNAPSHOT_QUARANTINED_TOTAL: &str = "store_snapshot_quarantined_total";
/// Gauge: 1 while the store is degraded to read-only after a durability
/// failure (failed append/fsync, disk full), 0 otherwise.
pub const STORE_READ_ONLY: &str = "store_read_only";

/// Gauge, label `shard`: entries held by one dictionary shard.
pub const STORE_SHARD_ENTRIES: &str = "store_shard_entries";
/// Gauge, label `shard`: ciphertext bytes referenced by one shard.
pub const STORE_SHARD_STORED_BYTES: &str = "store_shard_stored_bytes";
/// Counter, label `shard`: LRU evictions performed by one shard.
pub const STORE_SHARD_EVICTIONS_TOTAL: &str = "store_shard_evictions_total";
/// Counter, label `shard`: lock acquisitions that found the shard busy.
pub const STORE_SHARD_LOCK_CONTENTION_TOTAL: &str = "store_shard_lock_contention_total";
/// Counter, label `shard`: nanoseconds spent holding the shard's dict lock.
pub const STORE_SHARD_BUSY_NS_TOTAL: &str = "store_shard_busy_ns_total";

// --- speed-store server: the TCP front end's event loop ---
//
// Every server metric carries a `server` label (a process-unique instance
// id) so two servers in one process never stomp each other's series.

/// Gauge, label `server`: I/O event-loop threads owned by one server.
pub const SERVER_IO_THREADS: &str = "server_io_threads";
/// Gauge, label `server`: connections currently open.
pub const SERVER_CONNECTIONS_ACTIVE: &str = "server_connections_active";
/// Gauge, label `server`: high-water mark of concurrently open connections.
pub const SERVER_CONNECTIONS_PEAK: &str = "server_connections_peak";
/// Counter, label `server`: connections accepted over the server's lifetime.
pub const SERVER_CONNECTIONS_ACCEPTED_TOTAL: &str = "server_connections_accepted_total";
/// Counter, label `server`: connections refused with a busy frame because
/// the connection budget was saturated.
pub const SERVER_CONNECTIONS_REJECTED_TOTAL: &str = "server_connections_rejected_total";
/// Counter, label `server`: connections dropped on a protocol violation
/// (bad quote, unopenable sealed frame, oversized or truncated frame).
pub const SERVER_PROTOCOL_ERRORS_TOTAL: &str = "server_protocol_errors_total";
/// Counter, label `server`: connections dropped because a frame (or the
/// handshake) failed to complete within the per-frame deadline.
pub const SERVER_FRAME_TIMEOUTS_TOTAL: &str = "server_frame_timeouts_total";

// --- speed-store server: switchless calls ---

/// Counter, label `server`: hot-path requests posted to a resident
/// switchless worker.
pub const SWITCHLESS_REQUESTS_TOTAL: &str = "switchless_requests_total";
/// Counter, label `server`: hot-path requests served by the classic ECALL
/// path because their I/O thread's switchless worker was gone.
pub const SWITCHLESS_FALLBACKS_TOTAL: &str = "switchless_fallbacks_total";
/// Counter: enclave calls served by a resident switchless worker without
/// a world switch (boundary-copy bytes are still charged).
pub const ENCLAVE_SWITCHLESS_CALLS_TOTAL: &str = "enclave_switchless_calls_total";

/// Every metric name the workspace emits, for docs-coverage enforcement.
pub const ALL: &[&str] = &[
    ENCLAVE_TRANSITIONS_TOTAL,
    ENCLAVE_BOUNDARY_BYTES_TOTAL,
    ENCLAVE_CHARGED_NS_TOTAL,
    DEDUP_CALLS_TOTAL,
    DEDUP_HITS_TOTAL,
    DEDUP_MISSES_TOTAL,
    DEDUP_VERIFY_FAILURES_TOTAL,
    DEDUP_REJECTED_PUTS_TOTAL,
    DEDUP_REUSED_BYTES_TOTAL,
    DEDUP_DEGRADED_CALLS_TOTAL,
    DEDUP_CACHE_HITS_TOTAL,
    DEDUP_CACHE_MISSES_TOTAL,
    DEDUP_FILTERED_MISSES_TOTAL,
    DEDUP_CALL_DURATION_NS,
    DEDUP_BATCH_DURATION_NS,
    TAG_DERIVE_DURATION_NS,
    TAG_FINGERPRINT_DURATION_NS,
    RCE_RECOVER_DURATION_NS,
    RCE_ENCRYPT_DURATION_NS,
    HOTCACHE_LOOKUP_DURATION_NS,
    HOTCACHE_DIGEST_REUSES_TOTAL,
    HOTCACHE_RECORD_HITS_TOTAL,
    HOTCACHE_ADMISSIONS_REFUSED_TOTAL,
    TAG_PREFILTER_STORE_SKIPS_TOTAL,
    TAG_PREFILTER_REFRESHES_TOTAL,
    STREAM_CHUNKS_TOTAL,
    STREAM_CHUNK_HITS_TOTAL,
    STREAM_BYTES_TOTAL,
    STREAM_FLUSH_DURATION_NS,
    CHUNKER_FORCED_CUTS_TOTAL,
    RESILIENCE_RETRIES_TOTAL,
    RESILIENCE_RECONNECTS_TOTAL,
    RESILIENCE_BREAKER_TRANSITIONS_TOTAL,
    RESILIENCE_FAST_FAILS_TOTAL,
    RESILIENCE_GIVEUPS_TOTAL,
    RESILIENCE_REPLAYED_PUTS_TOTAL,
    RESILIENCE_REPLAY_DROPPED_TOTAL,
    RESILIENCE_REPLAY_QUEUE_DEPTH,
    CLUSTER_ROUTED_REQUESTS_TOTAL,
    CLUSTER_FAILOVERS_TOTAL,
    CLUSTER_HINTED_PUTS_TOTAL,
    CLUSTER_HINTS_REPLAYED_TOTAL,
    CLUSTER_HINTS_DROPPED_TOTAL,
    CLUSTER_HINT_QUEUE_DEPTH,
    CLUSTER_NODE_UP,
    CLUSTER_NODE_REATTESTATIONS,
    CLUSTER_RING_VERSION,
    CLUSTER_RING_NODES,
    STORE_GETS_TOTAL,
    STORE_HITS_TOTAL,
    STORE_PUTS_TOTAL,
    STORE_REJECTED_PUTS_TOTAL,
    STORE_EVICTIONS_TOTAL,
    STORE_ENTRIES,
    STORE_STORED_BYTES,
    STORE_REQUEST_DURATION_NS,
    STORE_FILTER_REQUESTS_TOTAL,
    STORE_FILTER_INSERTS_TOTAL,
    STORE_WAL_APPENDS_TOTAL,
    STORE_WAL_APPENDED_BYTES_TOTAL,
    STORE_WAL_REPLAY_RECORDS_TOTAL,
    STORE_WAL_TORN_SEGMENTS_TOTAL,
    STORE_CHECKPOINTS_TOTAL,
    STORE_COMPACTION_RECLAIMED_BYTES_TOTAL,
    STORE_RECOVERY_DURATION_NS,
    STORE_SNAPSHOT_QUARANTINED_TOTAL,
    STORE_READ_ONLY,
    STORE_SHARD_ENTRIES,
    STORE_SHARD_STORED_BYTES,
    STORE_SHARD_EVICTIONS_TOTAL,
    STORE_SHARD_LOCK_CONTENTION_TOTAL,
    STORE_SHARD_BUSY_NS_TOTAL,
    SERVER_IO_THREADS,
    SERVER_CONNECTIONS_ACTIVE,
    SERVER_CONNECTIONS_PEAK,
    SERVER_CONNECTIONS_ACCEPTED_TOTAL,
    SERVER_CONNECTIONS_REJECTED_TOTAL,
    SERVER_PROTOCOL_ERRORS_TOTAL,
    SERVER_FRAME_TIMEOUTS_TOTAL,
    SWITCHLESS_REQUESTS_TOTAL,
    SWITCHLESS_FALLBACKS_TOTAL,
    ENCLAVE_SWITCHLESS_CALLS_TOTAL,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for name in ALL {
            assert!(seen.insert(name), "duplicate metric name {name}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "metric name {name} must be snake_case ascii"
            );
        }
    }
}
