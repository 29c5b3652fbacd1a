//! SPEED's core contribution: secure, generic computation deduplication for
//! enclave applications.
//!
//! This crate implements the paper's `DedupRuntime` (§IV-B) and the
//! cryptographic machinery of Algorithms 1 and 2 (§III-C):
//!
//! - [`FuncDesc`] + [`TrustedLibrary`] — the *description* of a marked
//!   function (library family, version, signature) from which the runtime
//!   derives "a universally unique value for function identification" after
//!   verifying the application actually owns the code.
//! - [`comp_digest`] — the one SHA-256 pass over the input of a call that
//!   reaches the store: the secret digest `d ← Hash(func, m)`, which never
//!   leaves the enclave. The duplicate-checking tag `t` ([`CompDigest::tag`],
//!   [`tag_for`]) and the secondary key `h` ([`CompDigest::secondary_key`])
//!   are domain-separated hashes of `d`, where Algorithms 1 and 2 hash
//!   `(func, m)` twice.
//! - [`fingerprint`] — the key of the in-enclave hot cache: a secret
//!   [`Fingerprint`] `E_K(GHASH_H(func, m))` under keys each runtime draws
//!   in its enclave. A hot-cache hit computes it and runs no SHA-256, and
//!   neither does a call whose digest the cache remembers.
//! - [`rce`] — the randomized-convergent-encryption result protection:
//!   random key `k`, secondary key `h ← Hash(d, r)`, wrapped key
//!   `[k] ← k ⊕ h`, ciphertext `[res] ← AES.Enc(k, res)`, and the Fig. 3
//!   verification protocol on recovery.
//! - [`DedupRuntime`] — intercepts marked computations, queries the
//!   `ResultStore` over a [`StoreClient`] (in-process or TCP), reuses
//!   results on hit, and publishes fresh results, returning once the store
//!   has answered the PUT.
//! - [`Deduplicable`] — the 2-lines-of-code developer API (§IV-C): wrap a
//!   function once, then call the wrapped version as normal.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use speed_core::{Deduplicable, DedupRuntime, FuncDesc, TrustedLibrary};
//! use speed_enclave::{CostModel, Platform};
//! use speed_store::{ResultStore, StoreConfig};
//! use speed_wire::SessionAuthority;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::new(CostModel::default_sgx());
//! let store = Arc::new(ResultStore::new(&platform, StoreConfig::default())?);
//! let authority = Arc::new(SessionAuthority::new());
//!
//! let mut library = TrustedLibrary::new("mathlib", "1.0.0");
//! library.register("u64 square(u64)", b"fn square(x: u64) -> u64 { x * x }");
//!
//! let runtime = DedupRuntime::builder(Arc::clone(&platform), b"demo-app")
//!     .in_process_store(Arc::clone(&store), Arc::clone(&authority))
//!     .trusted_library(library)
//!     .build()?;
//!
//! // The 2-line change: describe the function, wrap it, use it as normal.
//! let desc = FuncDesc::new("mathlib", "1.0.0", "u64 square(u64)");
//! let square = Deduplicable::new(&runtime, desc, |x: &u64| x * x)?;
//!
//! assert_eq!(square.call(&12)?, 144); // initial computation
//! assert_eq!(square.call(&12)?, 144); // subsequent computation (dedup hit)
//! assert_eq!(runtime.stats().hits, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod chunker;
mod client;
pub mod cluster;
mod deduplicable;
mod error;
mod func;
mod hotcache;
pub mod rce;
pub mod resilience;
mod result_bytes;
mod runtime;
mod stream;
mod tag;

pub use chaos::{
    ChaosClient, Fault, FaultConfig, FaultCounts, FaultInjector, FaultRates,
    OutageSwitch, SwitchedClient,
};
pub use chunker::{chunk_all, Chunker, ChunkerConfig, ChunkerStats};
pub use client::{InProcessClient, StoreClient, TcpClient};
pub use cluster::{
    ClusterBuilder, ClusterClient, ClusterConfig, ClusterCounts, HashRing, NodeId,
};
pub use deduplicable::Deduplicable;
pub use error::CoreError;
pub use func::{FuncDesc, FuncIdentity, TrustedLibrary};
pub use hotcache::HotCacheConfig;
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, Connector, Deadline, ReplayQueue,
    ResilienceConfig, ResilienceStats, ResilientClient, RetryPolicy,
};
pub use result_bytes::ResultBytes;
pub use runtime::{
    BatchCall, BatchCompute, DedupMode, DedupOutcome, DedupRuntime, PrefilterConfig,
    RuntimeBuilder, RuntimeStats,
};
pub use stream::{StreamConfig, StreamOutcome, StreamSession, StreamStats};
pub use tag::{comp_digest, fingerprint, tag_for, CompDigest, Fingerprint};
