//! Degraded mode: a store outage never fails a marked computation.
//!
//! Starts a TCP `StoreServer`, runs a deduplicated workload against it,
//! kills the server mid-run (computations keep succeeding locally, PUTs
//! queue for replay), then reopens it from its `LogBackend` directory and
//! watches the replay queue drain and the hits come back.
//!
//! ```text
//! cargo run --release --example degraded_mode
//! ```

use std::sync::{Arc, Mutex};
use std::time::Duration;

use speed_core::{
    BreakerConfig, Connector, DedupRuntime, FuncDesc, ResilienceConfig, RetryPolicy,
    StoreClient, TcpClient, TrustedLibrary,
};
use speed_enclave::{CostModel, Platform};
use speed_store::server::StoreServer;
use speed_store::{LogBackend, LogConfig, ResultStore, StoreConfig};
use speed_wire::SessionAuthority;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::new(CostModel::default_sgx());
    let authority = Arc::new(SessionAuthority::with_seed(42));
    let dir = std::env::temp_dir().join(format!("speed-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The store persists every acknowledged PUT to a write-ahead log in
    // `dir`, so a restart reopens it with nothing lost.
    let open = || -> Result<Arc<ResultStore>, Box<dyn std::error::Error>> {
        let backend = Arc::new(LogBackend::new(LogConfig::new(&dir)));
        Ok(Arc::new(ResultStore::open(&platform, StoreConfig::default(), backend)?.0))
    };
    let store = open()?;

    let server = StoreServer::spawn(
        Arc::clone(&store),
        Arc::clone(&platform),
        Arc::clone(&authority),
        "127.0.0.1:0",
    )?;
    println!("store server up on {}", server.addr());

    // The connector re-dials (and re-attests) on every reconnect; the
    // address cell lets the restarted server come back on a new port.
    let addr = Arc::new(Mutex::new(server.addr()));
    let connector: Connector = {
        let platform = Arc::clone(&platform);
        let authority = Arc::clone(&authority);
        let addr = Arc::clone(&addr);
        let enclave = platform.create_enclave(b"degraded-mode-client")?;
        Box::new(move || {
            let target = *addr.lock().expect("addr lock");
            let client = TcpClient::connect(target, &platform, &enclave, &authority)?;
            Ok(Box::new(client) as Box<dyn StoreClient>)
        })
    };

    let mut library = TrustedLibrary::new("mathlib", "1.0.0");
    library.register("u64 square(u64)", b"fn square(x: u64) -> u64 { x * x }");
    let runtime = DedupRuntime::builder(Arc::clone(&platform), b"degraded-mode-app")
        .client_factory(connector)
        .resilience(ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(20),
                jitter: 0.5,
            },
            breaker: BreakerConfig {
                failure_threshold: 4,
                cooldown: Duration::from_millis(100),
            },
            ..ResilienceConfig::default()
        })
        .trusted_library(library)
        .build()?;
    let desc = FuncDesc::new("mathlib", "1.0.0", "u64 square(u64)");
    let identity = runtime.resolve(&desc)?;
    let square = |input: &[u8]| {
        let x = u64::from_le_bytes(input.try_into().expect("8-byte input"));
        (x * x).to_le_bytes().to_vec()
    };

    println!("\n--- store up: normal deduplication ---");
    for x in [3u64, 4, 3, 4] {
        let (result, outcome) =
            runtime.execute_raw(&identity, &x.to_le_bytes(), square)?;
        let y = u64::from_le_bytes(result.as_slice().try_into()?);
        println!("square({x}) = {y:<4} [{outcome:?}]");
    }

    println!("\n--- killing the store mid-workload ---");
    server.shutdown();
    drop(store);
    for x in [5u64, 6, 7] {
        let (result, outcome) =
            runtime.execute_raw(&identity, &x.to_le_bytes(), square)?;
        let y = u64::from_le_bytes(result.as_slice().try_into()?);
        println!("square({x}) = {y:<4} [{outcome:?}]  (store down — executed locally)");
    }
    let stats = runtime.stats();
    println!(
        "degraded_calls={} retries={} breaker_transitions={} pending_replays={}",
        stats.degraded_calls,
        stats.retries,
        stats.breaker_transitions,
        runtime.pending_replays()
    );

    println!("\n--- reopening the store from its log directory ---");
    let restored = open()?;
    let server = StoreServer::spawn(
        Arc::clone(&restored),
        Arc::clone(&platform),
        Arc::clone(&authority),
        "127.0.0.1:0",
    )?;
    *addr.lock().expect("addr lock") = server.addr();
    println!("store back on {}", server.addr());

    // Wait out the breaker cooldown, then let a call drain the queue.
    std::thread::sleep(Duration::from_millis(150));
    while runtime.pending_replays() > 0 {
        runtime.execute_raw(&identity, &8u64.to_le_bytes(), square)?;
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = runtime.stats();
    println!(
        "replayed_puts={} pending_replays={}",
        stats.replayed_puts,
        runtime.pending_replays()
    );

    println!("\n--- results computed during the outage are now shared ---");
    for x in [5u64, 6, 7] {
        let (result, outcome) =
            runtime.execute_raw(&identity, &x.to_le_bytes(), |_| {
                unreachable!("must be served from the restored store")
            })?;
        let y = u64::from_le_bytes(result.as_slice().try_into()?);
        println!("square({x}) = {y:<4} [{outcome:?}]");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
