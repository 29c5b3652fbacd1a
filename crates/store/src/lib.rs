//! The encrypted `ResultStore` of SPEED (§IV-B).
//!
//! The store manages previously computed, encrypted results keyed by the
//! computation tag `t`. Its structure mirrors the paper's prototype:
//!
//! - **In-enclave metadata dictionary** ([`MetadataDict`]): small entries
//!   (challenge `r`, wrapped key `[k]`, GCM nonce, and a *pointer* to the
//!   ciphertext) kept inside protected memory.
//! - **Outside-enclave ciphertext heap**: the actual `[res]` bytes live in
//!   [`speed_enclave::UntrustedMemory`] — they are AES-GCM protected, so
//!   confidentiality and integrity survive outside the enclave.
//! - **Request handling** ([`ResultStore::handle`]): "the main body of
//!   encrypted ResultStore runs outside the enclave. Upon receiving a
//!   request, ResultStore first applies preliminary parsing, and then
//!   delegates the request to one of two customized ECALLs" — exactly the
//!   flow implemented here, with boundary-copy and world-switch costs
//!   charged to the platform's simulated clock.
//! - **DoS mitigation** ([`QuotaPolicy`]): per-application entry and byte
//!   quotas, the quota mechanism sketched in §III-D to stop a malicious
//!   application from polluting the store with useless results.
//! - **TCP deployment** ([`server::StoreServer`]): a framed, attested,
//!   AES-GCM-protected network front end.
//!
//! # Example
//!
//! ```
//! use speed_enclave::{CostModel, Platform};
//! use speed_store::{ResultStore, StoreConfig};
//! use speed_wire::{AppId, BatchItem, BatchStatus, CompTag, Message, Record};
//!
//! let platform = Platform::new(CostModel::default_sgx());
//! let store = ResultStore::new(&platform, StoreConfig::default()).unwrap();
//! let tag = CompTag::from_bytes([7u8; 32]);
//! // A single GET or PUT is a batch of one.
//! let status = |item| match store.handle(Message::BatchRequest { app: AppId(1), items: vec![item] }) {
//!     Message::BatchResponse(results) => results[0].status,
//!     other => panic!("unexpected {other:?}"),
//! };
//!
//! // First lookup misses…
//! assert_eq!(status(BatchItem::Get { tag }), BatchStatus::NotFound);
//!
//! // …after a PUT it hits.
//! let record = Record {
//!     challenge: vec![0u8; 32],
//!     wrapped_key: [0u8; 16],
//!     nonce: [0u8; 12],
//!     boxed_result: vec![1, 2, 3],
//! };
//! assert_eq!(status(BatchItem::Put { tag, record }), BatchStatus::Accepted);
//! assert_eq!(status(BatchItem::Get { tag }), BatchStatus::Found);
//! ```

// `deny` rather than `forbid`: the event-loop server needs readiness
// notification, which std does not expose, so `poller` carries this
// crate's one tightly-scoped exemption from the lint — a single extern "C"
// binding to poll(2). Everything else in the crate stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod dict;
mod error;
mod log;
pub mod persist;
mod poller;
mod quota;
pub mod segment;
pub mod server;
mod store;
mod switchless;
pub mod vfs;
pub mod wal;

pub use backend::{BackendStats, MemoryBackend, Recovery, RecoveryReport, StoreBackend};
pub use dict::{DictEntry, MetadataDict};
pub use error::StoreError;
pub use log::{LogBackend, LogConfig};
pub use quota::{QuotaDecision, QuotaPolicy, QuotaTracker, ShardedQuota};
pub use store::{AccessControl, ResultStore, StoreConfig, DEFAULT_SHARDS};
