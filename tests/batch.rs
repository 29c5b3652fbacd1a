//! Batched pipeline integration: transition/round-trip accounting for
//! `execute_batch`, concurrent batches over one shared runtime, and
//! recovery after panic-poisoned locks.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use speed_core::{
    BatchCall, BreakerConfig, Connector, CoreError, DedupOutcome, DedupRuntime, FuncDesc,
    InProcessClient, OutageSwitch, PrefilterConfig, ResilienceConfig, RetryPolicy,
    StoreClient, SwitchedClient, TrustedLibrary,
};
use speed_enclave::{CostModel, Platform};
use speed_store::{QuotaPolicy, ResultStore, StoreConfig};
use speed_wire::{Message, SessionAuthority};

fn world() -> (Arc<Platform>, Arc<ResultStore>, Arc<SessionAuthority>) {
    let platform = Platform::new(CostModel::default_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::with_seed(42));
    (platform, store, authority)
}

fn library() -> TrustedLibrary {
    let mut lib = TrustedLibrary::new("batchlib", "1.0");
    lib.register("bytes echo(bytes)", b"echo code");
    lib
}

fn desc() -> FuncDesc {
    FuncDesc::new("batchlib", "1.0", "bytes echo(bytes)")
}

/// A pass-through client that counts network round-trips, standing in for
/// the TCP transport (each `roundtrip` is one request/response exchange).
#[derive(Debug)]
struct CountingClient {
    inner: InProcessClient,
    roundtrips: Arc<AtomicU64>,
}

impl StoreClient for CountingClient {
    fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError> {
        self.roundtrips.fetch_add(1, Ordering::SeqCst);
        self.inner.roundtrip(request)
    }
}

#[test]
fn batch_of_gets_is_two_transitions_and_one_roundtrip() {
    let (platform, store, authority) = world();

    // Seed the store with 16 results through an ordinary runtime.
    let seeder = DedupRuntime::builder(Arc::clone(&platform), b"seeder")
        .in_process_store(Arc::clone(&store), Arc::clone(&authority))
        .trusted_library(library())
        .build()
        .unwrap();
    let identity = seeder.resolve(&desc()).unwrap();
    let inputs: Vec<[u8; 4]> = (0..16u32).map(|i| i.to_le_bytes()).collect();
    for input in &inputs {
        seeder.execute_raw(&identity, input, |d| d.to_vec()).unwrap();
    }

    // The runtime under test counts its network round-trips.
    let roundtrips = Arc::new(AtomicU64::new(0));
    let enclave = platform.create_enclave(b"counting-end").unwrap();
    let inner =
        InProcessClient::connect(Arc::clone(&store), &authority, &platform, &enclave)
            .unwrap();
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"batch-counting")
        .client(Box::new(CountingClient { inner, roundtrips: Arc::clone(&roundtrips) }))
        .trusted_library(library())
        .build()
        .unwrap();
    let identity = rt.resolve(&desc()).unwrap();

    let before = rt.enclave().stats();
    let calls = inputs
        .iter()
        .map(|input| BatchCall::new(identity, input.as_slice(), |_| panic!("hit")))
        .collect();
    let results = rt.execute_batch(calls).unwrap();
    let after = rt.enclave().stats();

    assert_eq!(results.len(), 16);
    for (i, (result, outcome)) in results.iter().enumerate() {
        assert_eq!(*outcome, DedupOutcome::Hit, "item {i}");
        assert_eq!(result, &inputs[i].to_vec(), "item {i}");
    }
    // The acceptance bar: N GET lookups in ≤ 2 enclave transitions and a
    // single network round-trip.
    assert!(
        after.transitions() - before.transitions() <= 2,
        "expected ≤2 transitions, got {}",
        after.transitions() - before.transitions()
    );
    assert_eq!(roundtrips.load(Ordering::SeqCst), 1);
}

/// With the filter tier on, store hits and the misses the filter proves
/// share one round trip: the proven misses are computed before the store
/// is asked and their PUTs ride the GET request. Only a GET the store
/// answers "not found" costs a second OCALL, the follow-up PUT.
#[test]
fn hits_and_proven_misses_share_one_round_trip() {
    const HITS: usize = 6;
    const PROVEN: usize = 4;
    let platform = Platform::new(CostModel::default_sgx());
    // One shard that holds exactly the first batch's store once it ran.
    let config = StoreConfig {
        max_entries: HITS + PROVEN + 1,
        shards: 1,
        ..StoreConfig::default()
    };
    let store = Arc::new(ResultStore::new(&platform, config).unwrap());
    let authority = Arc::new(SessionAuthority::with_seed(42));
    let seeder = DedupRuntime::builder(Arc::clone(&platform), b"mixed-seeder")
        .in_process_store(Arc::clone(&store), Arc::clone(&authority))
        .trusted_library(library())
        .build()
        .unwrap();
    let seed_identity = seeder.resolve(&desc()).unwrap();
    let input = |i: usize| (i as u32).to_le_bytes().to_vec();
    // The victim is published first, so it is the least recently used
    // entry when the store evicts below.
    let victim = input(100);
    let hits: Vec<Vec<u8>> = (0..HITS).map(input).collect();
    for x in std::iter::once(&victim).chain(&hits) {
        seeder.execute_raw(&seed_identity, x, |d| d.to_vec()).unwrap();
    }

    let roundtrips = Arc::new(AtomicU64::new(0));
    let enclave = platform.create_enclave(b"mixed-counting-end").unwrap();
    let inner =
        InProcessClient::connect(Arc::clone(&store), &authority, &platform, &enclave)
            .unwrap();
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"mixed-counting")
        .client(Box::new(CountingClient { inner, roundtrips: Arc::clone(&roundtrips) }))
        .trusted_library(library())
        .prefilter(PrefilterConfig::default())
        .build()
        .unwrap();
    let identity = rt.resolve(&desc()).unwrap();
    // The first consult fetches the filter snapshot, an OCALL and a round
    // trip of its own; the batches below ride it.
    assert_eq!(rt.lookup(&identity, &input(999)).unwrap(), None);

    // Runs one batch of echo calls: its outcomes, and the ECALLs, OCALLs
    // and round trips it cost.
    let batch = |inputs: &[Vec<u8>]| {
        let before = (rt.enclave().stats(), roundtrips.load(Ordering::SeqCst));
        let calls = inputs
            .iter()
            .map(|input| BatchCall::new(identity, input.as_slice(), |d| d.to_vec()))
            .collect();
        let results = rt.execute_batch(calls).unwrap();
        let after = rt.enclave().stats();
        for ((result, _), input) in results.iter().zip(inputs) {
            assert_eq!(result, input);
        }
        let outcomes: Vec<DedupOutcome> = results.iter().map(|(_, o)| *o).collect();
        let cost = (
            after.ecalls - before.0.ecalls,
            after.ocalls - before.0.ocalls,
            roundtrips.load(Ordering::SeqCst) - before.1,
        );
        (outcomes, cost)
    };
    let outcomes_of = |counts: &[(usize, DedupOutcome)]| -> Vec<DedupOutcome> {
        counts.iter().flat_map(|&(n, o)| std::iter::repeat_n(o, n)).collect()
    };

    let fresh: Vec<Vec<u8>> = (200..200 + PROVEN).map(input).collect();
    let inputs: Vec<Vec<u8>> = hits.iter().chain(&fresh).cloned().collect();
    let (outcomes, cost) = batch(&inputs);
    assert_eq!(
        outcomes,
        outcomes_of(&[(HITS, DedupOutcome::Hit), (PROVEN, DedupOutcome::MissFiltered)])
    );
    assert_eq!(
        cost,
        (1, 1, 1),
        "k hits + m proven misses: 1 ECALL, 1 OCALL, 1 round trip"
    );
    assert_eq!(store.stats().entries, (HITS + PROVEN + 1) as u64);

    // A result published elsewhere evicts the victim after the snapshot,
    // which still holds its tag: its GET comes back not found, and only
    // it is computed after the round trip and published in a follow-up.
    seeder.execute_raw(&seed_identity, &input(300), |d| d.to_vec()).unwrap();
    let fresh: Vec<Vec<u8>> = (400..400 + PROVEN).map(input).collect();
    let inputs: Vec<Vec<u8>> =
        hits.iter().chain(std::iter::once(&victim)).chain(&fresh).cloned().collect();
    let (outcomes, cost) = batch(&inputs);
    assert_eq!(
        outcomes,
        outcomes_of(&[
            (HITS, DedupOutcome::Hit),
            (1, DedupOutcome::Miss),
            (PROVEN, DedupOutcome::MissFiltered)
        ])
    );
    assert_eq!(cost, (1, 2, 2), "a GET answered not found adds one OCALL and round trip");
    let stats = rt.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.filtered_misses),
        (2 * HITS as u64, 1 + 2 * PROVEN as u64, 2 * PROVEN as u64)
    );
}

#[test]
fn per_item_path_pays_linear_transitions_for_the_same_work() {
    // The contrast case: the same 16 lookups through `execute_raw` cost a
    // transition pair per call, which is what batching eliminates.
    let (platform, store, authority) = world();
    let seeder = DedupRuntime::builder(Arc::clone(&platform), b"seeder2")
        .in_process_store(Arc::clone(&store), Arc::clone(&authority))
        .trusted_library(library())
        .build()
        .unwrap();
    let identity = seeder.resolve(&desc()).unwrap();
    let inputs: Vec<[u8; 4]> = (0..16u32).map(|i| i.to_le_bytes()).collect();
    for input in &inputs {
        seeder.execute_raw(&identity, input, |d| d.to_vec()).unwrap();
    }

    let rt = DedupRuntime::builder(Arc::clone(&platform), b"per-item")
        .in_process_store(Arc::clone(&store), Arc::clone(&authority))
        .trusted_library(library())
        .build()
        .unwrap();
    let identity = rt.resolve(&desc()).unwrap();
    let before = rt.enclave().stats();
    for input in &inputs {
        rt.execute_raw(&identity, input, |_| panic!("hit")).unwrap();
    }
    let after = rt.enclave().stats();
    // 16 hits at 1 ECALL + 1 OCALL each.
    assert_eq!(after.transitions() - before.transitions(), 32);
}

#[test]
fn concurrent_batches_share_one_runtime() {
    let (platform, store, authority) = world();
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"mt-app")
        .in_process_store(Arc::clone(&store), Arc::clone(&authority))
        .trusted_library(library())
        .build()
        .unwrap();
    let identity = rt.resolve(&desc()).unwrap();

    // Seed 8 shared inputs every thread will hit.
    let shared: Vec<Vec<u8>> = (0..8u32).map(|i| i.to_le_bytes().to_vec()).collect();
    let calls = shared
        .iter()
        .map(|input| BatchCall::new(identity, input.as_slice(), |d| d.to_vec()))
        .collect();
    rt.execute_batch(calls).unwrap();

    const THREADS: u32 = 4;
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let rt = &rt;
            let shared = &shared;
            s.spawn(move || {
                // Mixed batch: 8 seeded hits + 8 thread-private misses.
                let mut inputs: Vec<Vec<u8>> = shared.clone();
                for i in 0..8u32 {
                    inputs.push((1000 + tid * 100 + i).to_le_bytes().to_vec());
                }
                let calls = inputs
                    .iter()
                    .map(|input| {
                        BatchCall::new(identity, input.as_slice(), |d| d.to_vec())
                    })
                    .collect();
                let results = rt.execute_batch(calls).unwrap();
                assert_eq!(results.len(), 16);
                for (i, (result, outcome)) in results.iter().enumerate() {
                    assert_eq!(result, &inputs[i], "thread {tid} item {i}");
                    if i < 8 {
                        assert_eq!(*outcome, DedupOutcome::Hit, "thread {tid} item {i}");
                    } else {
                        assert_eq!(*outcome, DedupOutcome::Miss, "thread {tid} item {i}");
                    }
                }

                // A panicking marked computation must not wedge the shared
                // runtime for the other threads.
                let poison_input = (9000 + tid).to_le_bytes();
                let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    rt.execute_raw(&identity, &poison_input, |_| {
                        panic!("injected compute panic")
                    })
                }));
                assert!(panicked.is_err(), "thread {tid} expected a panic");
            });
        }
    });

    // Every counter adds up despite the interleaving and the panics:
    // seeding (8 misses) + 4×16 batch calls + 4 panicked calls.
    let stats = rt.stats();
    assert_eq!(stats.calls, 8 + u64::from(THREADS) * 16 + u64::from(THREADS));
    assert_eq!(stats.hits, u64::from(THREADS) * 8);
    // Panicked calls were counted as misses before their closures blew up.
    assert_eq!(stats.misses, 8 + u64::from(THREADS) * 8 + u64::from(THREADS));
    assert_eq!(stats.hits + stats.misses, stats.calls);

    // And the runtime still works.
    let (result, outcome) =
        rt.execute_raw(&identity, &shared[0], |_| panic!("hit")).unwrap();
    assert_eq!(result, shared[0]);
    assert_eq!(outcome, DedupOutcome::Hit);
}

/// A client that panics on demand *inside* `roundtrip` — while the
/// runtime's client mutex is held — to poison the lock.
#[derive(Debug)]
struct PanickyClient {
    inner: InProcessClient,
    panic_next: Arc<AtomicBool>,
}

impl StoreClient for PanickyClient {
    fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError> {
        if self.panic_next.swap(false, Ordering::SeqCst) {
            panic!("injected client panic");
        }
        self.inner.roundtrip(request)
    }
}

#[test]
fn runtime_survives_poisoned_client_lock() {
    // Regression: a panic while holding the client mutex used to make every
    // later call panic on `.expect("client lock poisoned")`. The runtime
    // must recover the lock and keep serving.
    let (platform, store, authority) = world();
    let panic_next = Arc::new(AtomicBool::new(false));
    let enclave = platform.create_enclave(b"panicky-end").unwrap();
    let inner =
        InProcessClient::connect(Arc::clone(&store), &authority, &platform, &enclave)
            .unwrap();
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"poison-app")
        .client(Box::new(PanickyClient { inner, panic_next: Arc::clone(&panic_next) }))
        .trusted_library(library())
        .build()
        .unwrap();
    let identity = rt.resolve(&desc()).unwrap();

    // Trigger the panic inside the GET round-trip (client lock held).
    panic_next.store(true, Ordering::SeqCst);
    let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
        rt.execute_raw(&identity, b"boom", |d| d.to_vec())
    }));
    assert!(panicked.is_err(), "expected the injected panic to surface");

    // The client mutex is now poisoned; both code paths must still work.
    let (result, outcome) = rt.execute_raw(&identity, b"after", |d| d.to_vec()).unwrap();
    assert_eq!(result, b"after");
    assert_eq!(outcome, DedupOutcome::Miss);

    let inputs: Vec<&[u8]> = vec![b"after", b"fresh"];
    let calls = inputs
        .iter()
        .map(|input| BatchCall::new(identity, input, |d| d.to_vec()))
        .collect();
    let results = rt.execute_batch(calls).unwrap();
    assert_eq!(results[0].1, DedupOutcome::Hit);
    assert_eq!(results[1].1, DedupOutcome::Miss);
    assert_eq!(results[0].0, b"after");
    assert_eq!(results[1].0, b"fresh");
}

/// Inputs the equivalence guard draws from: few enough that a sequence of
/// groups revisits them, so later groups mix store hits, hot-cache hits
/// and fresh misses. Index `GUARD_POOL` is the one call between the
/// guard's two phases, and `i + GUARD_FRESH` is a fresh input beside `i`
/// in the outage phase.
const GUARD_POOL: u8 = 10;
const GUARD_FRESH: u8 = GUARD_POOL + 1;

/// Entries the guard's app may own before the store refuses its PUTs.
const GUARD_QUOTA: u64 = 6;

/// A sequence of groups of distinct pool indices. Shrinking may repeat an
/// index inside a group; the property drops such repeats, so every group
/// it runs holds distinct inputs.
fn gen_groups(rng: &mut speed_testkit::TestRng) -> Vec<Vec<u8>> {
    let groups = rng.range_usize(1, 7);
    (0..groups)
        .map(|_| {
            let mut group: Vec<u8> = Vec::new();
            for _ in 0..rng.range_usize(1, 6) {
                let index = rng.byte() % GUARD_POOL;
                if !group.contains(&index) {
                    group.push(index);
                }
            }
            group
        })
        .collect()
}

fn distinct(group: &[u8]) -> Vec<u8> {
    let mut seen = Vec::new();
    for &index in group {
        if !seen.contains(&index) {
            seen.push(index);
        }
    }
    seen
}

fn guard_input(index: u8) -> Vec<u8> {
    let len = 8 + usize::from(index) * 3;
    (0..len).map(|i| index.wrapping_mul(31).wrapping_add(i as u8)).collect()
}

fn guard_compute(input: &[u8]) -> Vec<u8> {
    input.iter().rev().map(|b| b ^ 0x5A).collect()
}

/// One tier configuration of the runtime under the guard.
#[derive(Clone, Copy, Debug)]
struct Tiers {
    hot_cache: bool,
    filter: bool,
}

/// Everything the guard compares between the two runs of one sequence:
/// outcomes and bytes, runtime counters, store entries/puts/gets/hits, and
/// the PUTs left parked for replay.
type GuardRun = (Vec<(Vec<u8>, DedupOutcome)>, speed_core::RuntimeStats, [u64; 4], usize);

/// A connector of in-process clients to `store` that fail every round
/// trip while `switch` is down.
fn switched_connector(
    platform: &Arc<Platform>,
    store: &Arc<ResultStore>,
    authority: &Arc<SessionAuthority>,
    switch: &Arc<OutageSwitch>,
) -> Connector {
    let (platform, store) = (Arc::clone(platform), Arc::clone(store));
    let (authority, switch) = (Arc::clone(authority), Arc::clone(switch));
    let enclave = platform.create_enclave(b"guard-client").unwrap();
    Box::new(move || {
        let inner = InProcessClient::connect(
            Arc::clone(&store),
            &authority,
            &platform,
            &enclave,
        )?;
        Ok(Box::new(SwitchedClient::new(Box::new(inner), Arc::clone(&switch)))
            as Box<dyn StoreClient>)
    })
}

/// Runs `groups` on a fresh store and runtime, either one `execute_raw`
/// per input or one `execute_batch` per group, in two phases. First the
/// store is up and refuses the app's PUTs once it owns `GUARD_QUOTA`
/// entries. Then one fresh call leaves both runs with the same filter
/// snapshot, the store goes down for good, and each group runs again with
/// a fresh input beside each of its own, so a batch mixes GETs with
/// proven misses. The resilience layer neither retries nor trips its
/// breaker, so single calls and batches see the same failures.
fn run_guard(groups: &[Vec<u8>], tiers: Tiers, batched: bool) -> GuardRun {
    let platform = Platform::new(CostModel::no_sgx());
    let quota =
        QuotaPolicy { max_entries_per_app: GUARD_QUOTA, ..QuotaPolicy::unlimited() };
    let config = StoreConfig { quota, ..StoreConfig::with_capacity(1_000, u64::MAX) };
    let store = Arc::new(ResultStore::new(&platform, config).unwrap());
    let authority = Arc::new(SessionAuthority::with_seed(13));
    let switch = Arc::new(OutageSwitch::new());
    let mut builder = DedupRuntime::builder(Arc::clone(&platform), b"guard-app")
        .client_factory(switched_connector(&platform, &store, &authority, &switch))
        .resilience(ResilienceConfig {
            retry: RetryPolicy::none(),
            breaker: BreakerConfig {
                failure_threshold: u32::MAX,
                cooldown: std::time::Duration::ZERO,
            },
            jitter_seed: Some(1),
            ..ResilienceConfig::default()
        })
        .trusted_library(library())
        .rng_seed(99);
    if tiers.hot_cache {
        builder = builder.hot_cache(speed_core::HotCacheConfig::default());
    }
    if tiers.filter {
        builder = builder.prefilter(PrefilterConfig { refresh_ops: 1 });
    }
    let rt = builder.build().unwrap();
    let identity = rt.resolve(&desc()).unwrap();

    let mut results = Vec::new();
    let mut run = |group: &[u8]| {
        let inputs: Vec<Vec<u8>> = distinct(group).into_iter().map(guard_input).collect();
        if batched {
            let calls = inputs
                .iter()
                .map(|input| BatchCall::new(identity, input, guard_compute))
                .collect();
            for (result, outcome) in rt.execute_batch(calls).unwrap() {
                results.push((result.as_slice().to_vec(), outcome));
            }
        } else {
            for input in &inputs {
                let (result, outcome) =
                    rt.execute_raw(&identity, input, guard_compute).unwrap();
                results.push((result.as_slice().to_vec(), outcome));
            }
        }
    };
    for group in groups {
        run(group);
    }
    run(&[GUARD_POOL]);
    switch.set_down(true);
    for group in groups {
        let mixed: Vec<u8> =
            distinct(group).into_iter().flat_map(|i| [i, i + GUARD_FRESH]).collect();
        run(&mixed);
    }
    let stats = store.stats();
    (
        results,
        rt.stats(),
        [stats.entries, stats.puts, stats.gets, stats.hits],
        rt.pending_replays(),
    )
}

/// The four tier configurations: hot cache and negative filter, each off
/// and on.
const GUARD_TIERS: [Tiers; 4] = [
    Tiers { hot_cache: false, filter: false },
    Tiers { hot_cache: true, filter: false },
    Tiers { hot_cache: false, filter: true },
    Tiers { hot_cache: true, filter: true },
];

/// The equivalence guard for the single and batched entry points: the same
/// seeded sequence of input groups, run once as one `execute_raw` per
/// input and once as one `execute_batch` per group, each on its own fresh
/// store, must yield the same outcomes, result bytes, runtime counters
/// (`rejected_puts` and `degraded_calls` among them), store counters and
/// parked PUTs — under every combination of the hot-cache and
/// negative-filter tiers.
#[test]
fn single_and_batched_calls_agree_on_seeded_sequences() {
    speed_testkit::check(
        "single_and_batched_calls_agree_on_seeded_sequences",
        0x5EED_0013,
        gen_groups,
        |groups: &Vec<Vec<u8>>| {
            for tiers in GUARD_TIERS {
                let single = run_guard(groups, tiers, false);
                let batched = run_guard(groups, tiers, true);
                assert_eq!(single.0, batched.0, "{tiers:?}: outcomes or bytes");
                assert_eq!(single.1, batched.1, "{tiers:?}: runtime stats");
                assert_eq!(
                    single.2, batched.2,
                    "{tiers:?}: store entries/puts/gets/hits"
                );
                assert_eq!(single.3, batched.3, "{tiers:?}: parked PUTs");
            }
        },
    );
}

/// The guard's phases reach what they are there for: on a sequence that
/// visits the whole pool, the quota refuses PUTs, the outage degrades
/// calls and parks their PUTs, and an outage batch of the filter tier
/// holds both a GET and a proven miss.
#[test]
fn the_guard_refuses_degrades_and_mixes() {
    let groups: Vec<Vec<u8>> = vec![(0..5).collect(), (5..10).collect(), vec![1, 7, 3]];
    for tiers in GUARD_TIERS {
        let single = run_guard(&groups, tiers, false);
        assert_eq!(single, run_guard(&groups, tiers, true), "{tiers:?}");
        let (results, stats, _, parked) = single;
        assert!(stats.rejected_puts > 0, "{tiers:?}: {stats:?}");
        assert!(stats.degraded_calls > 0 && parked > 0, "{tiers:?}: {stats:?}");
        let outage_calls = 2 * groups.iter().map(Vec::len).sum::<usize>();
        let outage = &results[results.len() - outage_calls..];
        if tiers.filter && !tiers.hot_cache {
            for outcome in [DedupOutcome::Miss, DedupOutcome::MissFiltered] {
                assert!(
                    outage.iter().any(|(_, o)| *o == outcome),
                    "{tiers:?}: {outcome:?}"
                );
            }
        }
    }
}
