//! The metric registry: a cell per counter or histogram registration,
//! shared gauges, snapshot on demand.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::{
    Counter, Gauge, Histogram, HistogramCore, Padded, DEFAULT_NS_BUCKETS,
};
use crate::snapshot::{MetricSnapshot, MetricValue, TelemetrySnapshot};

/// A label set, sorted by key at registration so `{a="1",b="2"}` and
/// `{b="2",a="1"}` name the same series.
type Labels = Vec<(String, String)>;

#[derive(Debug)]
enum Handle {
    Counter(CounterCells),
    Gauge(Gauge),
    Histogram(HistogramCells),
}

/// The cells of one counter series: one per registration, plus the final
/// counts of cells no [`Counter`] refers to any more.
#[derive(Debug, Default)]
struct CounterCells {
    cells: Vec<Arc<Padded<AtomicU64>>>,
    carried: u64,
}

impl CounterCells {
    /// Folds every cell whose handles have all dropped into `carried`, then
    /// adds a fresh cell. The write lock is held, and a cell's count cannot
    /// change once only the registry holds it, so a snapshot sees the same
    /// total before and after the fold.
    fn register(&mut self) -> Counter {
        let carried = &mut self.carried;
        self.cells.retain_mut(|cell| match Arc::get_mut(cell) {
            Some(count) => {
                *carried += *count.0.get_mut();
                false
            }
            None => true,
        });
        let cell = Counter(Arc::default());
        self.cells.push(Arc::clone(&cell.0));
        cell
    }

    fn total(&self) -> u64 {
        self.carried + self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>()
    }
}

/// The cells of one histogram series, as [`CounterCells`] keeps a
/// counter's: one per registration, all with the bounds of the first,
/// plus what the cells no [`Histogram`] refers to any more observed.
#[derive(Debug)]
struct HistogramCells {
    bounds: Box<[u64]>,
    cells: Vec<Histogram>,
    carried: Observed,
}

/// Observations summed over cells: per-bucket counts, `+Inf` last, then
/// the count and the sum.
#[derive(Clone, Debug)]
struct Observed {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Observed {
    fn add(&mut self, cell: &HistogramCore) {
        for (total, bucket) in self.buckets.iter_mut().zip(cell.counts.iter()) {
            *total += bucket.load(Ordering::Relaxed);
        }
        self.count += cell.count.load(Ordering::Relaxed);
        self.sum += cell.sum.load(Ordering::Relaxed);
    }
}

impl HistogramCells {
    fn new(bounds: &[u64]) -> Self {
        let carried = Observed { buckets: vec![0; bounds.len() + 1], count: 0, sum: 0 };
        HistogramCells { bounds: bounds.into(), cells: Vec::new(), carried }
    }

    /// Folds every cell whose handles have all dropped into `carried`, then
    /// adds a fresh cell, as [`CounterCells::register`] does.
    fn register(&mut self) -> Histogram {
        let carried = &mut self.carried;
        self.cells.retain_mut(|cell| match Arc::get_mut(&mut cell.0) {
            Some(core) => {
                carried.add(core);
                false
            }
            None => true,
        });
        let cell = Histogram::new(&self.bounds);
        self.cells.push(cell.clone());
        cell
    }

    fn value(&self) -> MetricValue {
        let mut observed = self.carried.clone();
        for cell in &self.cells {
            observed.add(&cell.0);
        }
        let finite = &observed.buckets[..self.bounds.len()];
        MetricValue::Histogram {
            bounds: self.bounds.to_vec(),
            cumulative: finite
                .iter()
                .scan(0, |running, bucket| {
                    *running += bucket;
                    Some(*running)
                })
                .collect(),
            count: observed.count,
            sum: observed.sum,
        }
    }
}

#[derive(Debug)]
struct Series {
    help: String,
    handle: Handle,
}

/// A collection of named metrics.
///
/// Every `counter`/`counter_with` and `histogram`/`histogram_with` call
/// registers a fresh cell of the named `(name, labels)` series and returns
/// a handle to it, so each component records its own events, on cache
/// lines no other cell shares, and reads them back from its handle. A
/// snapshot reports the series as the sum of its cells (a histogram's
/// buckets, count and sum alike) plus what the cells whose handles have
/// all dropped recorded, so a series never goes down. `gauge` is
/// get-or-register: every call for a pair returns a clone of one shared
/// handle. Registering a name that already exists with a *different*
/// metric type panics — that is a programming error, not a runtime
/// condition.
///
/// The internal lock is held only during registration and
/// [`snapshot`](Registry::snapshot); recording through a handle never takes
/// it.
#[derive(Debug, Default)]
pub struct Registry {
    series: RwLock<HashMap<(String, Labels), Series>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a new cell of an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers a new cell of a counter carrying the given labels.
    pub fn counter_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Counter {
        self.register(
            name,
            help,
            labels,
            || Handle::Counter(CounterCells::default()),
            |handle| match handle {
                Handle::Counter(cells) => Some(cells.register()),
                _ => None,
            },
        )
    }

    /// Gets or registers an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Gets or registers a gauge carrying the given labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.register(
            name,
            help,
            labels,
            || Handle::Gauge(Gauge(Default::default())),
            |handle| match handle {
                Handle::Gauge(gauge) => Some(gauge.clone()),
                _ => None,
            },
        )
    }

    /// Registers a new cell of an unlabeled histogram with the
    /// [`DEFAULT_NS_BUCKETS`] bounds.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[], DEFAULT_NS_BUCKETS)
    }

    /// Registers a new cell of a histogram with explicit labels and bucket
    /// bounds.
    ///
    /// If the series already exists its original bounds are kept; bounds are
    /// fixed at first registration.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        buckets: &[u64],
    ) -> Histogram {
        self.register(
            name,
            help,
            labels,
            || Handle::Histogram(HistogramCells::new(buckets)),
            |handle| match handle {
                Handle::Histogram(cells) => Some(cells.register()),
                _ => None,
            },
        )
    }

    /// Finds or creates the series and takes a handle from it with `take`,
    /// which returns `None` when the series holds another metric type.
    fn register<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
        take: impl FnOnce(&mut Handle) -> Option<T>,
    ) -> T {
        let mut labels: Labels =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        let mut map = self.series.write().expect("registry poisoned");
        let series = map
            .entry((name.to_string(), labels))
            .or_insert_with(|| Series { help: help.to_string(), handle: make() });
        let kind = match take(&mut series.handle) {
            Some(handle) => return handle,
            None => kind_of(&series.handle),
        };
        // Release the lock first so the panic does not poison the registry.
        drop(map);
        panic!("metric {name} already registered as {kind}")
    }

    /// Captures every series into a point-in-time [`TelemetrySnapshot`],
    /// sorted by name then labels so renders are deterministic.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let map = self.series.read().expect("registry poisoned");
        let mut metrics: Vec<MetricSnapshot> = map
            .iter()
            .map(|((name, labels), series)| MetricSnapshot {
                name: name.clone(),
                help: series.help.clone(),
                labels: labels.clone(),
                value: match &series.handle {
                    Handle::Counter(cells) => MetricValue::Counter(cells.total()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(cells) => cells.value(),
                },
            })
            .collect();
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        TelemetrySnapshot { metrics }
    }
}

fn kind_of(handle: &Handle) -> &'static str {
    match handle {
        Handle::Counter(_) => "counter",
        Handle::Gauge(_) => "gauge",
        Handle::Histogram(_) => "histogram",
    }
}

/// The process-wide registry every component records into.
///
/// Servers render it on a metrics request; `speedctl metrics` prints it;
/// benches dump it at exit. Tests sharing a process should assert monotonic
/// deltas against it (or use a private [`Registry`] for exact values).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_shares_one_cell() {
        let registry = Registry::new();
        registry.gauge("g", "test").set(4);
        registry.gauge("g", "test").add(1);
        let counter = registry.counter("c_total", "test");
        let clone = counter.clone();
        counter.inc();
        clone.add(2);
        assert_eq!(counter.get(), 3, "clones of a counter share its cell");
        let snap = registry.snapshot();
        assert_eq!(snap.scalar("g"), Some(5), "gauge registrations share one cell");
        assert_eq!(snap.scalar("c_total"), Some(3));
    }

    #[test]
    fn registrations_of_one_name_are_cells_summed_by_the_series() {
        let registry = Registry::new();
        let a = registry.counter("c_total", "test");
        let b = registry.counter("c_total", "test");
        a.inc();
        b.add(2);
        assert_eq!((a.get(), b.get()), (1, 2));
        assert_eq!(registry.snapshot().scalar("c_total"), Some(3));
    }

    #[test]
    fn dropped_cell_count_stays_in_the_series() {
        let registry = Registry::new();
        let kept = registry.counter("c_total", "test");
        kept.inc();
        let dropped = registry.counter("c_total", "test");
        dropped.add(5);
        drop(dropped);
        assert_eq!(registry.snapshot().scalar("c_total"), Some(6));
        // A later registration folds the dropped cell into the carried total.
        let fresh = registry.counter("c_total", "test");
        assert_eq!(fresh.get(), 0);
        assert_eq!(registry.snapshot().scalar("c_total"), Some(6));
        kept.add(2);
        assert_eq!(registry.snapshot().scalar("c_total"), Some(8));
    }

    #[test]
    fn series_never_decreases_while_cells_come_and_go() {
        const THREADS: usize = 4;
        const ADDS: u64 = 25;
        let registry = Registry::new();
        let total = || registry.snapshot().scalar("churn_total").unwrap_or(0);
        let snapshots = AtomicU64::new(0);
        let done = std::sync::atomic::AtomicBool::new(false);
        let rounds: u64 = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                let mut last = 0;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let now = total();
                    assert!(now >= last, "series went down: {last} -> {now}");
                    last = now;
                    snapshots.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        return;
                    }
                }
            });
            // Each worker churns until the watcher has snapshotted throughout.
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let long_lived = registry.counter("churn_total", "test");
                        let mut rounds = 0u64;
                        while rounds < 200 || snapshots.load(Ordering::Relaxed) < 100 {
                            let cell = registry.counter("churn_total", "test");
                            let clone = cell.clone();
                            for _ in 0..ADDS - 1 {
                                clone.inc();
                            }
                            drop(clone);
                            drop(cell);
                            long_lived.inc();
                            rounds += 1;
                        }
                        rounds
                    })
                })
                .collect();
            let rounds =
                workers.into_iter().map(|w| w.join().expect("worker panicked")).sum();
            done.store(true, Ordering::Release);
            watcher.join().expect("watcher panicked");
            rounds
        });
        assert_eq!(total(), rounds * ADDS);
    }

    /// The histogram series `name`'s cumulative buckets, count and sum.
    fn histogram_totals(registry: &Registry, name: &str) -> (Vec<u64>, u64, u64) {
        let snapshot = registry.snapshot();
        let series = snapshot.metrics.iter().find(|m| m.name == name);
        match series.map(|m| &m.value) {
            Some(MetricValue::Histogram { cumulative, count, sum, .. }) => {
                (cumulative.clone(), *count, *sum)
            }
            other => panic!("{name} is not a histogram: {other:?}"),
        }
    }

    #[test]
    fn histogram_registrations_of_one_series_are_cells_summed_by_the_series() {
        let registry = Registry::new();
        let labels = [("stage", "probe")];
        let a = registry.histogram_with("h_ns", "test", &labels, &[100, 1000]);
        let b = registry.histogram_with("h_ns", "test", &labels, &[100, 1000]);
        a.observe(50);
        a.observe(5000);
        b.observe(500);
        assert_eq!((a.count(), a.sum(), a.cumulative_counts()), (2, 5050, vec![1, 1]));
        assert_eq!((b.count(), b.sum(), b.cumulative_counts()), (1, 500, vec![0, 1]));
        let snapshot = registry.snapshot();
        let series: Vec<_> =
            snapshot.metrics.iter().filter(|m| m.name == "h_ns").collect();
        assert_eq!(series.len(), 1, "two cells, one series");
        assert_eq!(series[0].labels, [("stage".to_string(), "probe".to_string())]);
        let expected = MetricValue::Histogram {
            bounds: vec![100, 1000],
            cumulative: vec![1, 2],
            count: 3,
            sum: 5550,
        };
        assert_eq!(series[0].value, expected);
        // A later registration with other bounds is a cell of the same
        // series, with the series' bounds.
        let c = registry.histogram_with("h_ns", "test", &labels, &[7]);
        assert_eq!(c.bounds(), [100, 1000]);
    }

    #[test]
    fn a_dropped_histogram_cell_stays_in_the_series() {
        let registry = Registry::new();
        let kept = registry.histogram("h_ns", "test");
        kept.observe(300);
        let dropped = registry.histogram("h_ns", "test");
        dropped.observe(10);
        dropped.observe(9_000);
        drop(dropped);
        let before = histogram_totals(&registry, "h_ns");
        assert_eq!((before.1, before.2), (3, 9_310));
        // A later registration folds the dropped cell into the carried
        // observations: the series reads the same, and then only grows.
        let fresh = registry.histogram("h_ns", "test");
        assert_eq!(fresh.count(), 0);
        assert_eq!(histogram_totals(&registry, "h_ns"), before);
        fresh.observe(1);
        let after = histogram_totals(&registry, "h_ns");
        assert_eq!((after.1, after.2), (4, 9_311));
        assert!(after.0.iter().zip(&before.0).all(|(a, b)| a >= b), "{after:?}");
    }

    #[test]
    fn threads_observing_through_their_own_cells_sum_exactly() {
        const THREADS: u64 = 8;
        const OBSERVATIONS: u64 = 10_000;
        let registry = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let cell =
                        registry.histogram_with("h_ns", "test", &[], &[99, 10_000]);
                    for i in 0..OBSERVATIONS {
                        cell.observe(i % 200);
                    }
                    assert_eq!(cell.count(), OBSERVATIONS, "a cell counts its own only");
                });
            }
        });
        let (cumulative, count, sum) = histogram_totals(&registry, "h_ns");
        let per_thread_sum = OBSERVATIONS / 200 * (0..200).sum::<u64>();
        assert_eq!(count, THREADS * OBSERVATIONS);
        assert_eq!(sum, THREADS * per_thread_sum);
        // 0..=99 of every 200-cycle lands at or below 99.
        assert_eq!(cumulative, vec![THREADS * OBSERVATIONS / 2, THREADS * OBSERVATIONS]);
    }

    #[test]
    fn labels_distinguish_series_regardless_of_order() {
        let registry = Registry::new();
        let ecalls = registry.counter_with("t_total", "test", &[("kind", "ecall")]);
        let ocalls = registry.counter_with("t_total", "test", &[("kind", "ocall")]);
        ecalls.inc();
        ocalls.add(5);
        assert_eq!(ecalls.get(), 1);
        assert_eq!(ocalls.get(), 5);

        let multi = registry.counter_with("m_total", "test", &[("a", "1"), ("b", "2")]);
        let same = registry.counter_with("m_total", "test", &[("b", "2"), ("a", "1")]);
        multi.inc();
        same.add(2);
        let snap = registry.snapshot();
        let series: Vec<_> =
            snap.metrics.iter().filter(|m| m.name == "m_total").collect();
        assert_eq!(series.len(), 1, "label order must not split the series");
        assert_eq!(series[0].value, MetricValue::Counter(3));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x_total", "test");
        registry.gauge("x_total", "test");
    }

    #[test]
    fn snapshot_is_sorted_and_point_in_time() {
        let registry = Registry::new();
        registry.counter("zz_total", "test").inc();
        registry.gauge("aa", "test").set(9);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["aa", "zz_total"]);
    }

    #[test]
    fn global_registry_is_shared() {
        const NAME: &str = "registry_test_shared_total";
        let a = global().counter(NAME, "test");
        a.inc();
        global().counter(NAME, "test").add(2);
        assert_eq!(a.get(), 1);
        assert_eq!(global().snapshot().scalar(NAME), Some(3));
    }
}
