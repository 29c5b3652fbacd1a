//! The metric handles: lock-free atomics behind `Arc`s.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::span::Span;

/// Default histogram bucket upper bounds, in nanoseconds.
///
/// Powers of eight from 250 ns to ~2.1 s: wide enough to separate an
/// in-enclave hot-cache hit (hundreds of nanoseconds) from an attested TCP
/// round-trip (hundreds of microseconds) from a recomputation of a SIFT
/// pyramid (tens to hundreds of milliseconds). An implicit `+Inf` bucket is
/// always appended.
pub const DEFAULT_NS_BUCKETS: &[u64] = &[
    250,
    1_000,
    8_000,
    64_000,
    512_000,
    4_096_000,
    32_768_000,
    262_144_000,
    2_097_152_000,
];

/// A value on 128 bytes of its own, the pair of cache lines the
/// adjacent-line prefetcher moves together, so that cells which different
/// threads update never share a line.
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct Padded<T>(pub(crate) T);

impl<T> Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// A monotonically increasing counter: one cell of a registry series.
///
/// Each [`Registry::counter`](crate::Registry::counter) call returns a new
/// cell, which the caller owns; the series sums every cell of its name.
/// Cloning is cheap (an `Arc` bump); all clones share the same cell.
#[derive(Clone, Debug)]
pub struct Counter(pub(crate) Arc<Padded<AtomicU64>>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// This cell's count: the events added through this handle and its
    /// clones, not the whole series.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (queue depth, resident entries).
#[derive(Clone, Debug)]
pub struct Gauge(pub(crate) Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `value`.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrements by `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        // fetch_update never fails with a total function; saturating_sub
        // keeps a racy double-decrement from wrapping to u64::MAX.
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(n))
        });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One histogram cell: an atomic per bucket plus count and sum, each on
/// cache lines no other cell uses.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    /// Upper bounds (inclusive `le` limits) of the finite buckets,
    /// ascending: those of the series' first registration.
    pub(crate) bounds: Box<[u64]>,
    /// Per-bucket observation counts; `counts[bounds.len()]` is `+Inf`.
    pub(crate) counts: Box<[Padded<AtomicU64>]>,
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
}

/// A fixed-bucket latency histogram over `u64` nanosecond observations:
/// one cell of a registry series.
///
/// Each [`Registry::histogram`](crate::Registry::histogram) call returns a
/// new cell, which the caller owns; the series sums the buckets, count and
/// sum of every cell of its name, as a counter series sums its cells.
/// Cloning is cheap (an `Arc` bump); all clones share the same cell.
#[derive(Clone, Debug)]
pub struct Histogram(pub(crate) Arc<Padded<HistogramCore>>);

impl Histogram {
    pub(crate) fn new(bounds: &[u64]) -> Self {
        let bounds: Box<[u64]> = bounds.into();
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let counts = (0..=bounds.len()).map(|_| Padded(AtomicU64::new(0))).collect();
        Histogram(Arc::new(Padded(HistogramCore {
            bounds,
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        })))
    }

    /// Records one observation (binary search for the first bucket whose
    /// upper bound admits `value`; the `+Inf` bucket catches the rest).
    pub fn observe(&self, value: u64) {
        let core = &self.0;
        let index = core.bounds.partition_point(|&bound| bound < value);
        core.counts[index].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records the nanoseconds elapsed since `start`.
    pub fn observe_since(&self, start: std::time::Instant) {
        self.observe(start.elapsed().as_nanos() as u64);
    }

    /// Starts a timed scope; the elapsed time is observed when the returned
    /// [`Span`] drops.
    pub fn start_span(&self) -> Span {
        Span::new(self.clone())
    }

    /// Times `body`, observing its wall-clock duration.
    pub fn time<R>(&self, body: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let result = body();
        self.observe_since(start);
        result
    }

    /// Observations so far through this handle and its clones, not the
    /// whole series.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of the values this cell observed (nanoseconds).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The finite bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }

    /// This cell's cumulative count of observations `<= bound` for each
    /// finite bound, in bound order (the Prometheus `le` semantics),
    /// excluding `+Inf`.
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut running = 0u64;
        self.0
            .bounds
            .iter()
            .enumerate()
            .map(|(i, _)| {
                running += self.0.counts[i].load(Ordering::Relaxed);
                running
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let counter = Counter(Arc::default());
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);

        let gauge = Gauge(Arc::new(AtomicU64::new(0)));
        gauge.set(7);
        gauge.add(3);
        gauge.sub(5);
        assert_eq!(gauge.get(), 5);
        gauge.sub(50);
        assert_eq!(gauge.get(), 0, "gauge must saturate, not wrap");
    }

    #[test]
    fn histogram_bucket_boundaries_are_upper_inclusive() {
        let hist = Histogram::new(&[10, 100, 1000]);
        // Exactly on a bound lands in that bound's bucket (le semantics).
        hist.observe(10);
        hist.observe(11);
        hist.observe(100);
        hist.observe(1000);
        hist.observe(1001); // +Inf
        assert_eq!(hist.cumulative_counts(), vec![1, 3, 4]);
        assert_eq!(hist.count(), 5);
        assert_eq!(hist.sum(), 10 + 11 + 100 + 1000 + 1001);
    }

    #[test]
    fn histogram_zero_and_max_values() {
        let hist = Histogram::new(&[10]);
        hist.observe(0);
        hist.observe(u64::MAX);
        assert_eq!(hist.cumulative_counts(), vec![1]);
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn default_buckets_ascend() {
        assert!(DEFAULT_NS_BUCKETS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn span_records_on_drop() {
        let hist = Histogram::new(DEFAULT_NS_BUCKETS);
        {
            let _span = hist.start_span();
        }
        assert_eq!(hist.count(), 1);
        let out = hist.time(|| 42);
        assert_eq!(out, 42);
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn concurrent_counter_increments_do_not_lose_updates() {
        let counter = Counter(Arc::default());
        let hist = Histogram::new(&[100, 10_000]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = counter.clone();
                let hist = hist.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        counter.inc();
                        hist.observe(i % 200);
                    }
                });
            }
        });
        assert_eq!(counter.get(), 80_000);
        assert_eq!(hist.count(), 80_000);
        // 0..=100 of every 200-cycle: 101 of 200 observations per cycle.
        assert_eq!(hist.cumulative_counts()[0], 8 * 10_000 / 200 * 101);
        assert_eq!(hist.cumulative_counts()[1], 80_000);
    }
}
