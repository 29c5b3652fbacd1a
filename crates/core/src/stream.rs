//! Streaming chunked deduplication: [`StreamSession`] and
//! [`DedupRuntime::execute_stream`].
//!
//! A session splits an incoming byte stream into content-defined chunks
//! (see [`crate::chunker`]) and runs each chunk through the full dedup
//! ladder as its own marked call: hot-cache probe, comp-tag against the
//! merged negative filter (a chunk it proves absent is computed at once),
//! one store round trip carrying the GETs and those chunks' PUTs, RCE
//! recovery, and a follow-up PUT for chunks the store did not hold.
//! Chunks are flushed in batches over [`DedupRuntime::execute_batch`], so
//! a session inherits everything the batch path already provides — O(1)
//! enclave transitions per flush (one OCALL when every GET finds its
//! chunk), cluster routing, and per-item outage degradation (a mid-stream
//! store outage turns the affected chunks into locally computed misses;
//! the stream keeps going and its state remains valid for the next push).
//!
//! The per-chunk function identity is the caller's identity: a chunk of
//! input bytes is deduplicated against *any* stream of *any* session that
//! produced the same chunk under the same function, which is exactly what
//! turns partial overlap between large inputs into partial hits.

// hot-path: deny-clone
//
// Chunk results stay behind `ResultBytes` from the batch path all the way
// into `StreamOutcome::parts`; this module must never copy a chunk result.

use crate::chunker::{Chunker, ChunkerConfig, ChunkerStats};
use crate::error::CoreError;
use crate::func::FuncIdentity;
use crate::result_bytes::ResultBytes;
use crate::runtime::{BatchCall, DedupOutcome, DedupRuntime};

/// Streaming policy for one session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Chunk boundary policy.
    pub chunker: ChunkerConfig,
    /// Completed chunks buffered before a mid-stream flush through
    /// [`DedupRuntime::execute_batch`]. Larger batches amortize enclave
    /// transitions and round-trips; smaller batches bound session memory.
    pub flush_chunks: usize,
}

impl StreamConfig {
    /// The default policy: [`ChunkerConfig::DEFAULT`] with 32-chunk
    /// flushes.
    pub const DEFAULT: StreamConfig =
        StreamConfig { chunker: ChunkerConfig::DEFAULT, flush_chunks: 32 };

    /// A small policy for tests: [`ChunkerConfig::SMALL`] with 8-chunk
    /// flushes.
    pub const SMALL: StreamConfig =
        StreamConfig { chunker: ChunkerConfig::SMALL, flush_chunks: 8 };
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig::DEFAULT
    }
}

/// Counters describing one finished stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Chunks the stream was split into.
    pub chunks: u64,
    /// Chunks satisfied without executing the function (store hit or
    /// in-enclave hot-cache hit).
    pub chunk_hits: u64,
    /// Chunks that executed the function (any miss flavor).
    pub chunk_misses: u64,
    /// Chunker cuts forced by the `max` bound.
    pub forced_cuts: u64,
    /// Input bytes consumed.
    pub bytes_in: u64,
    /// Result bytes produced across all chunks.
    pub bytes_out: u64,
    /// Mid-stream and final batch flushes performed.
    pub flushes: u64,
}

/// The result of a finished stream: one [`ResultBytes`] per chunk, in
/// stream order, plus the per-chunk outcomes and counters.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Per-chunk results, in stream order. Hits are `Arc`-shared with the
    /// hot cache — reassembly via [`concat`](StreamOutcome::concat) is the
    /// only copy the streaming path ever makes.
    pub parts: Vec<ResultBytes>,
    /// Per-chunk dedup outcomes, parallel to `parts`.
    pub outcomes: Vec<DedupOutcome>,
    /// Counters for the whole stream.
    pub stats: StreamStats,
}

impl StreamOutcome {
    /// Reassembles the full output by concatenating the chunk results.
    pub fn concat(&self) -> Vec<u8> {
        let total: usize = self.parts.iter().map(|p| p.len()).sum();
        let mut out = Vec::with_capacity(total);
        for part in &self.parts {
            out.extend_from_slice(part.as_slice());
        }
        out
    }
}

/// An open streaming dedup session; create one with
/// [`DedupRuntime::open_stream`].
///
/// Push input fragments of any size with [`push`](StreamSession::push) —
/// chunk boundaries are split-invariant — then call
/// [`finish`](StreamSession::finish) for the tail chunk and the collected
/// [`StreamOutcome`].
pub struct StreamSession<'r, F> {
    runtime: &'r DedupRuntime,
    identity: FuncIdentity,
    compute: F,
    chunker: Chunker,
    flush_chunks: usize,
    pending: Vec<Vec<u8>>,
    parts: Vec<ResultBytes>,
    outcomes: Vec<DedupOutcome>,
    flushes: u64,
}

impl<'r, F> StreamSession<'r, F>
where
    F: Fn(&[u8]) -> Vec<u8>,
{
    pub(crate) fn new(
        runtime: &'r DedupRuntime,
        identity: FuncIdentity,
        config: StreamConfig,
        compute: F,
    ) -> Self {
        StreamSession {
            runtime,
            identity,
            compute,
            chunker: Chunker::new(config.chunker),
            flush_chunks: config.flush_chunks.max(1),
            pending: Vec::new(),
            parts: Vec::new(),
            outcomes: Vec::new(),
            flushes: 0,
        }
    }

    /// Chunks resolved so far (a resumability probe for callers that
    /// checkpoint mid-stream).
    pub fn chunks_resolved(&self) -> usize {
        self.parts.len()
    }

    /// Consumes the next fragment of the input stream, flushing completed
    /// chunks through the batch dedup path whenever `flush_chunks` of
    /// them have accumulated.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from the batch path. With the resilience
    /// layer configured, a store outage is *not* an error: the affected
    /// chunks degrade to local execution and the session stays usable.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), CoreError> {
        let pending = &mut self.pending;
        self.chunker.push(bytes, |chunk| pending.push(chunk));
        if self.pending.len() >= self.flush_chunks {
            self.flush_pending()?;
        }
        Ok(())
    }

    /// Flushes the final partial chunk and returns the collected
    /// [`StreamOutcome`].
    ///
    /// # Errors
    ///
    /// As [`push`](StreamSession::push).
    pub fn finish(mut self) -> Result<StreamOutcome, CoreError> {
        if let Some(tail) = self.chunker.finish() {
            self.pending.push(tail);
        }
        self.flush_pending()?;

        let chunker: ChunkerStats = self.chunker.stats();
        let mut stats = StreamStats {
            chunks: chunker.chunks,
            forced_cuts: chunker.forced_cuts,
            bytes_in: chunker.bytes,
            bytes_out: self.parts.iter().map(|p| p.len() as u64).sum(),
            flushes: self.flushes,
            ..StreamStats::default()
        };
        for outcome in &self.outcomes {
            match outcome {
                DedupOutcome::Hit | DedupOutcome::HitLocalCache => {
                    stats.chunk_hits += 1;
                }
                _ => stats.chunk_misses += 1,
            }
        }

        let telemetry = self.runtime.telemetry();
        telemetry.stream_chunks.add(stats.chunks);
        telemetry.stream_chunk_hits.add(stats.chunk_hits);
        telemetry.stream_bytes.add(stats.bytes_in);
        telemetry.chunker_forced_cuts.add(stats.forced_cuts);

        Ok(StreamOutcome { parts: self.parts, outcomes: self.outcomes, stats })
    }

    /// Runs every buffered chunk through one `execute_batch` call.
    fn flush_pending(&mut self) -> Result<(), CoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.flushes += 1;
        let chunks = std::mem::take(&mut self.pending);
        let runtime = self.runtime;
        let identity = self.identity;
        let compute = &self.compute;
        let calls: Vec<BatchCall<'_>> = chunks
            .iter()
            .map(|chunk| {
                BatchCall::new(identity, chunk.as_slice(), move |input| compute(input))
            })
            .collect();
        let results = runtime
            .telemetry()
            .stream_flush_duration
            .time(|| runtime.execute_batch(calls))?;
        for (part, outcome) in results {
            self.parts.push(part);
            self.outcomes.push(outcome);
        }
        Ok(())
    }
}

impl<F> std::fmt::Debug for StreamSession<'_, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("chunks_resolved", &self.parts.len())
            .field("pending_chunks", &self.pending.len())
            .field("pending_bytes", &self.chunker.pending_len())
            .finish_non_exhaustive()
    }
}

impl DedupRuntime {
    /// Opens a streaming dedup session for `identity`.
    ///
    /// `compute` is the per-chunk fallback: it receives one chunk's bytes
    /// and must return that chunk's result. For the reassembled stream
    /// output to be meaningful, `compute` must be *chunk-local* — the
    /// output for a chunk depends only on that chunk's bytes (compression
    /// with per-chunk framing, per-record parsing, hashing, filtering all
    /// qualify; a stateful scan across chunk boundaries does not).
    pub fn open_stream<F>(
        &self,
        identity: FuncIdentity,
        config: StreamConfig,
        compute: F,
    ) -> StreamSession<'_, F>
    where
        F: Fn(&[u8]) -> Vec<u8>,
    {
        StreamSession::new(self, identity, config, compute)
    }

    /// Convenience: stream a whole in-memory input through
    /// [`open_stream`](DedupRuntime::open_stream) in one call.
    ///
    /// # Errors
    ///
    /// As [`StreamSession::push`] / [`StreamSession::finish`].
    pub fn execute_stream<F>(
        &self,
        identity: FuncIdentity,
        config: StreamConfig,
        input: &[u8],
        compute: F,
    ) -> Result<StreamOutcome, CoreError>
    where
        F: Fn(&[u8]) -> Vec<u8>,
    {
        let mut session = self.open_stream(identity, config, compute);
        session.push(input)?;
        session.finish()
    }
}
