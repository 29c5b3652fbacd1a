//! Unified telemetry for the SPEED reproduction.
//!
//! SPEED's value proposition is quantitative — dedup hit ratio, saved
//! recomputation time, and the ECALL/OCALL world-switch cost the paper's
//! Fig. 6 isolates — so every layer of this workspace reports into one
//! metrics registry with one naming scheme instead of scattering ad-hoc
//! counters. This crate is that registry. It is deliberately dependency-free
//! (the workspace builds offline) and lock-light: metric *handles* are
//! `Arc`-wrapped atomics, so the hot paths (an `ECALL`, a dedup lookup, a
//! store request) pay one relaxed atomic RMW per event; the registry lock is
//! only taken at registration and snapshot time.
//!
//! # Model
//!
//! - [`Counter`] — monotonically increasing `u64` (requests served,
//!   transitions performed, bytes copied). Every registration is its own
//!   cell: a component registers its counters when it is built, counts each
//!   event once on its own cell, and builds its stats view from
//!   [`Counter::get`]. A snapshot reports a series as the sum of its cells,
//!   including the final counts of cells whose owners have dropped, so a
//!   series never goes down.
//! - [`Gauge`] — a `u64` that can go up and down (entries resident, replay
//!   queue depth, live workers). Every registration of a series shares one
//!   cell, so the last writer wins.
//! - [`Histogram`] — fixed-bucket latency distribution in **nanoseconds**
//!   (bucket bounds are upper-inclusive `le` limits, Prometheus-style).
//!   Every registration is its own cell, as a counter's is: a snapshot
//!   sums the series' buckets, count and sum over its cells, dropped ones
//!   included, and keeps the bounds of its first registration.
//!
//! Counter and histogram cells each sit on cache lines of their own, so
//! two components recording from two threads share no line per event.
//! - [`Span`] — a timed scope: created from a histogram, it observes the
//!   elapsed wall time into the histogram when dropped.
//!
//! Metric names are centralized in [`names`]; every name emitted anywhere in
//! the workspace appears there (and in `docs/METRICS.md`, which a test
//! enforces).
//!
//! # Registries
//!
//! Components record into the process-wide [`global()`] registry, which a
//! server renders on a `METRICS_REQUEST` and `speedctl metrics` prints.
//! Unit tests that need exact values construct their own [`Registry`].
//!
//! # Example
//!
//! ```
//! use speed_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("dedup_hits_total", "calls satisfied from the store");
//! hits.inc();
//! let latency = registry.histogram("dedup_call_duration_ns", "marked-call latency");
//! {
//!     let _span = latency.start_span(); // observes on drop
//! }
//! let snapshot = registry.snapshot();
//! assert!(snapshot.render_prometheus().contains("dedup_hits_total 1"));
//! assert_eq!(snapshot.render_jsonl().lines().count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
pub mod names;
mod registry;
mod snapshot;
mod span;

pub use metrics::{Counter, Gauge, Histogram, DEFAULT_NS_BUCKETS};
pub use registry::{global, Registry};
pub use snapshot::{MetricSnapshot, MetricValue, TelemetrySnapshot};
pub use span::Span;
