//! Fault-injection integration tests: the full TCP stack (attested
//! handshake, framed secure channel, `StoreServer`) driven through a
//! deterministic `FaultInjector`, plus a mid-workload kill-and-restart of
//! the store recovered from its `LogBackend` directory. Single calls and
//! streamed documents through the negative-filter tier, whose batches send
//! GETs and proven misses' PUTs in one request, both run through it.
//!
//! The invariant under test is the SPEED degradation contract: the store is
//! an *optimization*, so no store outage, dropped frame, corrupt response,
//! or torn-down connection may ever surface as an application error — every
//! call must return the same result the fault-free execution would.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use speed_core::{
    chunk_all, BreakerConfig, ChaosClient, Connector, DedupOutcome, DedupRuntime,
    FaultConfig, FaultInjector, FaultRates, FuncDesc, FuncIdentity, PrefilterConfig,
    ResilienceConfig, RetryPolicy, StoreClient, StreamConfig, TcpClient, TrustedLibrary,
};
use speed_crypto::SystemRng;
use speed_enclave::{CostModel, Platform};
use speed_store::server::StoreServer;
use speed_store::{LogBackend, LogConfig, ResultStore, StoreConfig};
use speed_wire::SessionAuthority;

fn library() -> TrustedLibrary {
    let mut lib = TrustedLibrary::new("chaoslib", "1.0");
    lib.register("bytes scramble(bytes)", b"scramble code");
    lib
}

fn desc() -> FuncDesc {
    FuncDesc::new("chaoslib", "1.0", "bytes scramble(bytes)")
}

/// The marked computation: deterministic, cheap to model in the test.
fn scramble(input: &[u8]) -> Vec<u8> {
    let mut out: Vec<u8> =
        input.iter().rev().map(|b| b.wrapping_mul(31).wrapping_add(7)).collect();
    out.push(input.len() as u8);
    out
}

fn spawn_server(
    platform: &Arc<Platform>,
    store: &Arc<ResultStore>,
    authority: &Arc<SessionAuthority>,
) -> StoreServer {
    StoreServer::spawn(
        Arc::clone(store),
        Arc::clone(platform),
        Arc::clone(authority),
        "127.0.0.1:0",
    )
    .expect("spawn store server")
}

/// Opens the store on a `LogBackend` in `dir`, recovering whatever an
/// earlier instance acknowledged there.
fn open_store(platform: &Arc<Platform>, dir: &Path) -> Arc<ResultStore> {
    let backend = Arc::new(LogBackend::new(LogConfig::new(dir)));
    Arc::new(ResultStore::open(platform, StoreConfig::default(), backend).unwrap().0)
}

/// A connector that dials whatever address is currently in `addr` (the
/// restarted server binds a fresh ephemeral port) and wraps every new
/// connection in a `ChaosClient` sharing one deterministic injector.
fn chaotic_connector(
    platform: &Arc<Platform>,
    authority: &Arc<SessionAuthority>,
    addr: &Arc<Mutex<SocketAddr>>,
    injector: &Arc<FaultInjector>,
) -> Connector {
    let platform = Arc::clone(platform);
    let authority = Arc::clone(authority);
    let addr = Arc::clone(addr);
    let injector = Arc::clone(injector);
    let enclave = platform.create_enclave(b"chaos-test-client").expect("client enclave");
    Box::new(move || {
        let target = *addr.lock().expect("addr lock poisoned");
        let tcp = TcpClient::connect(target, &platform, &enclave, &authority)?;
        Ok(Box::new(ChaosClient::new(Box::new(tcp), Arc::clone(&injector)))
            as Box<dyn StoreClient>)
    })
}

/// What a streamed document returns when no fault touches it: each
/// chunk scrambled on its own, in stream order.
fn fault_free(config: StreamConfig, document: &[u8]) -> Vec<u8> {
    chunk_all(config.chunker, document).iter().flat_map(|chunk| scramble(chunk)).collect()
}

/// Waits out the breaker cooldown, then calls until `rt`'s replay queue
/// empties (the first successful round trip drains it); false if it never
/// does.
fn drains(rt: &DedupRuntime, identity: &FuncIdentity) -> bool {
    (0..40).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        rt.execute_raw(identity, b"drain-probe", scramble).unwrap();
        rt.pending_replays() == 0
    })
}

fn resilience() -> ResilienceConfig {
    ResilienceConfig {
        retry: RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(8),
            jitter: 0.5,
        },
        breaker: BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(50),
        },
        call_budget: Duration::from_secs(5),
        replay_capacity: 1024,
        jitter_seed: Some(0xC4A05),
    }
}

#[test]
fn workload_survives_faults_and_store_restart() {
    let platform = Platform::new(CostModel::default_sgx());
    let authority = Arc::new(SessionAuthority::with_seed(77));
    let dir = std::env::temp_dir().join(format!("speed-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = open_store(&platform, &dir);
    let server = spawn_server(&platform, &store, &authority);
    let addr = Arc::new(Mutex::new(server.addr()));

    // 30% aggregate fault rate, evenly split across drop / delay /
    // disconnect / corrupt-response, on a fixed seed.
    let injector = Arc::new(FaultInjector::new(
        FaultConfig {
            rates: FaultRates::uniform(0.30),
            delay: Duration::from_micros(500),
        },
        0xFA_u64,
    ));

    let rt = DedupRuntime::builder(Arc::clone(&platform), b"chaos-app")
        .client_factory(chaotic_connector(&platform, &authority, &addr, &injector))
        .resilience(resilience())
        .trusted_library(library())
        .rng_seed(9)
        .build()
        .unwrap();
    let identity = rt.resolve(&desc()).unwrap();

    // Phase A: 150 calls over 40 distinct inputs under fault injection.
    // Every call must return the fault-free result, whatever the transport
    // does underneath.
    let mut rng = SystemRng::seeded(0x90AD);
    let inputs: Vec<Vec<u8>> = (0..40u8)
        .map(|i| {
            let mut buf = vec![0u8; rng.range_usize_inclusive(1, 64)];
            rng.fill(&mut buf);
            buf[0] = i; // guarantee distinctness
            buf
        })
        .collect();
    let executions = AtomicU64::new(0);
    // Visit every input once (so phase D can demand a hit for each), then
    // keep drawing repeats to give deduplication something to do.
    let schedule: Vec<usize> = (0..inputs.len())
        .chain((0..110).map(|_| rng.range_usize(0, inputs.len())))
        .collect();
    for index in schedule {
        let input = &inputs[index];
        let (result, _) = rt
            .execute_raw(&identity, input, |d| {
                executions.fetch_add(1, Ordering::Relaxed);
                scramble(d)
            })
            .unwrap_or_else(|e| panic!("store fault escaped to the application: {e}"));
        assert_eq!(result, scramble(input), "wrong result under fault injection");
    }
    let mid_stats = rt.stats();
    assert_eq!(mid_stats.calls, 150);
    assert!(mid_stats.retries > 0, "30% fault rate must force at least one retry");
    // Dedup still pays off: strictly fewer executions than calls.
    assert!(executions.load(Ordering::Relaxed) < 150);

    // Phase A': streamed documents under the same faults, through a second
    // runtime with the filter tier on. `rt` publishes four shared segments
    // first; the streaming runtime takes its one filter snapshot at its
    // first consult, so each of its batches asks for the shared chunks and
    // carries the PUTs of the chunks the snapshot proves absent.
    let sr = DedupRuntime::builder(Arc::clone(&platform), b"chaos-stream-app")
        .client_factory(chaotic_connector(&platform, &authority, &addr, &injector))
        .resilience(resilience())
        .trusted_library(library())
        .prefilter(PrefilterConfig { refresh_ops: u64::MAX })
        .rng_seed(10)
        .build()
        .unwrap();
    let stream_identity = sr.resolve(&desc()).unwrap();
    let config = StreamConfig::SMALL;
    let mut random = |len: usize| {
        let mut buf = vec![0u8; len];
        rng.fill(&mut buf);
        buf
    };
    let segments: Vec<Vec<u8>> = (0..4).map(|_| random(1024)).collect();
    for segment in &segments {
        rt.execute_stream(identity, config, segment, scramble).unwrap();
    }
    let documents: Vec<Vec<u8>> = (0..9)
        .map(|n| {
            let (fresh, tail) = (random(1024), random(512));
            [&segments[n % 4][..], &fresh, &segments[(n + 1) % 4], &tail].concat()
        })
        .collect();
    let (faulted, outage_documents) = documents.split_at(6);
    for document in faulted {
        let streamed = sr
            .execute_stream(stream_identity, config, document, scramble)
            .unwrap_or_else(|e| panic!("store fault escaped a stream: {e}"));
        assert_eq!(streamed.concat(), fault_free(config, document));
    }

    // Phase B: kill the store mid-workload and leave it down.
    server.shutdown();
    drop(store);
    injector.set_enabled(false); // outage failures now come from the dead TCP endpoint
    let outage_inputs: Vec<Vec<u8>> =
        (0..10u8).map(|i| vec![0xB0 | 1, i, i, i]).collect();
    let degraded_before = mid_stats.degraded_calls;
    for input in &outage_inputs {
        let (result, outcome) = rt
            .execute_raw(&identity, input, scramble)
            .unwrap_or_else(|e| panic!("outage escaped to the application: {e}"));
        assert_eq!(result, scramble(input));
        assert_eq!(outcome, DedupOutcome::Miss, "outage calls execute locally");
    }
    let outage_stats = rt.stats();
    assert_eq!(
        outage_stats.degraded_calls - degraded_before,
        outage_inputs.len() as u64,
        "every outage call must be marked degraded"
    );
    assert!(rt.pending_replays() > 0, "outage PUTs must be parked for replay");
    assert!(
        outage_stats.breaker_transitions > 0,
        "a dead store must trip the circuit breaker"
    );

    // Phase B': streamed documents through the outage. Each batch's one
    // request fails; its GET items run locally and every PUT item is
    // parked on its own, each chunk counted as degraded once, and no
    // second send follows: one ECALL and one OCALL per flush.
    let before = (sr.enclave().stats(), sr.stats().degraded_calls, sr.pending_replays());
    let (mut chunks, mut flushes, mut outcomes) = (0, 0, Vec::new());
    for document in outage_documents {
        let streamed = sr
            .execute_stream(stream_identity, config, document, scramble)
            .unwrap_or_else(|e| panic!("outage escaped a stream: {e}"));
        assert_eq!(streamed.concat(), fault_free(config, document));
        chunks += streamed.stats.chunks;
        flushes += streamed.stats.flushes;
        outcomes.extend(streamed.outcomes);
    }
    let after = sr.enclave().stats();
    assert_eq!(sr.stats().degraded_calls - before.1, chunks);
    assert_eq!(sr.pending_replays() - before.2, chunks as usize);
    assert_eq!(after.ecalls - before.0.ecalls, flushes);
    assert_eq!(after.ocalls - before.0.ocalls, flushes, "one send per flush");
    // The failed requests held GETs (now local misses) and proven misses.
    for outcome in [DedupOutcome::Miss, DedupOutcome::MissFiltered] {
        assert!(outcomes.contains(&outcome), "no {outcome:?} in the outage");
    }

    // Phase C: reopen the store from its directory on a fresh ephemeral
    // port; the resilient client re-attests against it.
    let restored = open_store(&platform, &dir);
    let server2 = spawn_server(&platform, &restored, &authority);
    *addr.lock().unwrap() = server2.addr();

    // Drain both runtimes' replay queues.
    assert!(
        drains(&rt, &identity),
        "replay queue never drained after the store came back"
    );
    assert!(rt.stats().replayed_puts >= outage_inputs.len() as u64);
    assert_eq!(
        rt.dropped_replays(),
        0,
        "replay queue must not overflow in this workload"
    );
    assert!(drains(&sr, &stream_identity), "the streaming runtime's queue never drained");
    assert_eq!(sr.dropped_replays(), 0);

    // Phase D: convergence. Every input seen so far — including the ones
    // computed during the outage — must now be a dedup hit served by the
    // restored store, with the correct result.
    for input in inputs.iter().chain(&outage_inputs) {
        let (result, outcome) = rt
            .execute_raw(&identity, input, |_| panic!("result must come from the store"))
            .unwrap();
        assert_eq!(result, scramble(input));
        assert_eq!(outcome, DedupOutcome::Hit);
    }
    assert!(rt.stats().hits >= 50, "hit rate must converge once faults stop");
    // Every chunk of every streamed document, the outage's included, is
    // found in the restored store.
    for document in segments.iter().chain(&documents) {
        let streamed = rt
            .execute_stream(identity, config, document, |_| {
                panic!("every chunk must come from the store")
            })
            .unwrap();
        assert!(streamed.outcomes.iter().all(|o| *o == DedupOutcome::Hit));
        assert_eq!(streamed.concat(), fault_free(config, document));
    }
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_schedule_is_deterministic_end_to_end() {
    // Two identical runs over the chaotic TCP stack produce identical
    // fault counts and identical runtime stats: the whole failure path is
    // replayable from the seeds.
    fn run() -> (u64, u64, u64) {
        let platform = Platform::new(CostModel::default_sgx());
        let authority = Arc::new(SessionAuthority::with_seed(3));
        let store =
            Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
        let server = spawn_server(&platform, &store, &authority);
        let addr = Arc::new(Mutex::new(server.addr()));
        let injector = Arc::new(FaultInjector::new(
            FaultConfig {
                rates: FaultRates {
                    drop: 0.2,
                    delay: 0.0,
                    disconnect: 0.1,
                    corrupt: 0.1,
                },
                delay: Duration::ZERO,
            },
            1234,
        ));
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"replay-app")
            .client_factory(chaotic_connector(&platform, &authority, &addr, &injector))
            .resilience(ResilienceConfig {
                // No breaker interference: its admission decisions depend on
                // wall-clock cooldowns, which would perturb the schedule.
                breaker: BreakerConfig {
                    failure_threshold: u32::MAX,
                    cooldown: Duration::ZERO,
                },
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_delay: Duration::from_micros(100),
                    max_delay: Duration::from_millis(1),
                    jitter: 0.5,
                },
                ..ResilienceConfig::default()
            })
            .trusted_library(library())
            .rng_seed(4)
            .build()
            .unwrap();
        let identity = rt.resolve(&desc()).unwrap();
        for i in 0..60u32 {
            let input = (i % 20).to_le_bytes();
            let (result, _) = rt.execute_raw(&identity, &input, scramble).unwrap();
            assert_eq!(result, scramble(&input));
        }
        let stats = rt.stats();
        server.shutdown();
        (injector.counts().total(), stats.retries, stats.degraded_calls)
    }
    assert_eq!(run(), run());
}
