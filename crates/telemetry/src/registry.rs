//! The metric registry: a cell per counter registration, shared gauges and
//! histograms, snapshot on demand.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::{Counter, Gauge, Histogram, DEFAULT_NS_BUCKETS};
use crate::snapshot::{MetricSnapshot, MetricValue, TelemetrySnapshot};

/// A label set, sorted by key at registration so `{a="1",b="2"}` and
/// `{b="2",a="1"}` name the same series.
type Labels = Vec<(String, String)>;

#[derive(Debug)]
enum Handle {
    Counter(CounterCells),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The cells of one counter series: one per registration, plus the final
/// counts of cells no [`Counter`] refers to any more.
#[derive(Debug, Default)]
struct CounterCells {
    cells: Vec<Arc<AtomicU64>>,
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
                *carried += *count.get_mut();
                false
            }
            None => true,
        });
        let cell = Arc::new(AtomicU64::new(0));
        self.cells.push(Arc::clone(&cell));
        Counter(cell)
    }

    fn total(&self) -> u64 {
        self.carried + self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>()
    }
}

#[derive(Debug)]
struct Series {
    help: String,
    handle: Handle,
}

/// A collection of named metrics.
///
/// Every `counter`/`counter_with` call registers a fresh cell of the named
/// `(name, labels)` series and returns a handle to it, so each component
/// counts its own events and reads them back with [`Counter::get`]. A
/// snapshot reports the series as the sum of its cells plus the counts of
/// cells whose handles have all dropped, so a series never goes down.
/// `gauge`/`histogram` are get-or-register: every call for a pair returns
/// a clone of one shared handle. Registering a name that already exists
/// with a *different* metric type panics — that is a programming error,
/// not a runtime condition.
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

    /// Gets or registers an unlabeled histogram with the
    /// [`DEFAULT_NS_BUCKETS`] bounds.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[], DEFAULT_NS_BUCKETS)
    }

    /// Gets or registers a histogram with explicit labels and bucket bounds.
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
            || Handle::Histogram(Histogram::new(buckets)),
            |handle| match handle {
                Handle::Histogram(histogram) => Some(histogram.clone()),
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
                    Handle::Histogram(h) => MetricValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        cumulative: h.cumulative_counts(),
                        count: h.count(),
                        sum: h.sum(),
                    },
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
