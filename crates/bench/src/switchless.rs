//! Switchless calls and connection scaling (`repro switchless`,
//! `BENCH_switchless.json`).
//!
//! 1. **World switches per hot-path op.** A client sends GETs over TCP to a
//!    switchless server and to a classic one, which makes an ECALL per
//!    request. The store enclave's transition counter must read 0 per op on
//!    the switchless path (each resident worker entered once at start-up)
//!    and at least 1 on the classic path, and the store enclave's modeled
//!    time (`charged_ns`) must be lower.
//! 2. **Connection scaling on a fixed thread budget.** The event loop
//!    multiplexes every connection over `io_threads` poll(2) loops. Each
//!    ramp step holds K idle attested connections, checks that the server's
//!    thread count did not move, and times an active client's requests
//!    through the crowd.
//!
//! Wall-clock numbers are noisy on small hosts; the counters are
//! deterministic and carry the claims.

use std::sync::Arc;
use std::time::{Duration, Instant};

use speed_enclave::{CostModel, Enclave, Platform};
use speed_store::server::{ServerConfig, StoreServer, TcpStoreClient};
use speed_store::{ResultStore, StoreConfig};
use speed_wire::{AppId, BatchItem, BatchStatus, SessionAuthority};

use crate::harness::measure;
use crate::report::{self, bench_record, bench_tag, list, num, obj, text};

const RECORD_LEN: usize = 256;

struct World {
    platform: Arc<Platform>,
    store: Arc<ResultStore>,
    authority: Arc<SessionAuthority>,
    server: StoreServer,
}

impl World {
    fn new(switchless: bool, max_connections: usize) -> World {
        let platform = Platform::new(CostModel::default_sgx());
        let store = Arc::new(
            ResultStore::new(&platform, StoreConfig::default()).expect("store fits"),
        );
        let authority = Arc::new(SessionAuthority::with_seed(0xBE));
        let server = StoreServer::spawn_with_config(
            Arc::clone(&store),
            Arc::clone(&platform),
            Arc::clone(&authority),
            "127.0.0.1:0",
            ServerConfig { switchless, max_connections, ..ServerConfig::default() },
        )
        .expect("bind");
        World { platform, store, authority, server }
    }

    /// An attested connection presenting `enclave`.
    fn connect(&self, enclave: &Enclave) -> TcpStoreClient {
        let addr = self.server.addr();
        TcpStoreClient::connect(addr, &self.platform, enclave, &self.authority)
            .expect("connect")
    }

    /// An attested connection from a new client enclave named `label`.
    fn client(&self, label: &[u8]) -> TcpStoreClient {
        self.connect(&self.platform.create_enclave(label).expect("client enclave"))
    }
}

/// Sends one item in a batch of one and checks its status.
fn call(client: &mut TcpStoreClient, app: AppId, item: BatchItem, want: BatchStatus) {
    let response = client.roundtrip(&report::one(app, item)).expect("round trip");
    assert_eq!(report::status(&response), Some(want), "{response:?}");
}

fn put(client: &mut TcpStoreClient, app: AppId, i: u64) {
    let item =
        BatchItem::Put { tag: bench_tag(i), record: bench_record(RECORD_LEN, 0xC5) };
    call(client, app, item, BatchStatus::Accepted);
}

fn get(client: &mut TcpStoreClient, app: AppId, i: u64) {
    call(client, app, BatchItem::Get { tag: bench_tag(i) }, BatchStatus::Found);
}

struct HotPath {
    transitions_per_op: f64,
    enclave_us_per_op: f64,
    json: String,
}

/// Sends `ops` GETs over one connection and attributes the store
/// enclave's counter deltas to them.
fn hot_path(variant: &'static str, switchless: bool, ops: u64) -> HotPath {
    let world = World::new(switchless, ServerConfig::default().max_connections);
    let mut client = world.client(b"bench-hot-client");
    put(&mut client, AppId(1), 0);
    get(&mut client, AppId(1), 0);
    // Each resident worker enters with one ECALL of its own, and the
    // handshake took one more. The PUT and GET above reach only this
    // connection's worker, so wait for every worker's entry before the
    // measured window opens.
    let workers = world.server.thread_count() - ServerConfig::default().io_threads;
    let entered = workers as u64 + 1;
    let deadline = Instant::now() + Duration::from_secs(5);
    while switchless && world.store.enclave().stats().ecalls < entered {
        assert!(Instant::now() < deadline, "resident workers never entered");
        std::thread::sleep(Duration::from_micros(200));
    }

    let before = world.store.enclave().stats();
    let ((), timing) = measure(&world.platform, || {
        for _ in 0..ops {
            get(&mut client, AppId(1), 0);
        }
    });
    let after = world.store.enclave().stats();
    world.server.shutdown();

    let per_op = |delta: u64| delta as f64 / ops as f64;
    let transitions_per_op = per_op(after.transitions() - before.transitions());
    let switchless_per_op = per_op(after.switchless_calls - before.switchless_calls);
    let enclave_us_per_op = per_op(after.charged_ns - before.charged_ns) / 1e3;
    let [wall, modeled] = report::per_op_us(timing, ops);
    println!(
        "  {variant:>14}: {transitions_per_op:.4} transitions/op, \
         {switchless_per_op:.2} switchless calls/op, \
         {enclave_us_per_op:.3} store-enclave µs/op (modeled), {} wall µs/op",
        wall.1,
    );
    let json = obj(&[
        ("variant", text(variant)),
        ("ops", ops.to_string()),
        ("transitions_per_op", num(transitions_per_op)),
        ("switchless_calls_per_op", num(switchless_per_op)),
        ("enclave_us_per_op", num(enclave_us_per_op)),
        wall,
        modeled,
    ]);
    HotPath { transitions_per_op, enclave_us_per_op, json }
}

/// Holds `idle` attested connections open and times an active client
/// working through the crowd.
fn ramp_step(world: &World, idle: usize, ops: u64) -> String {
    let budget = world.server.thread_count();
    let enclave = world.platform.create_enclave(b"bench-idle-client").expect("enclave");
    let (holders, ramp) = measure(&world.platform, || {
        (0..idle).map(|_| world.connect(&enclave)).collect::<Vec<_>>()
    });
    assert_eq!(
        world.server.thread_count(),
        budget,
        "the thread budget must not grow with connections"
    );

    let mut active = world.client(b"bench-active-client");
    put(&mut active, AppId(2), 1);
    let ((), timing) = measure(&world.platform, || {
        for _ in 0..ops {
            get(&mut active, AppId(2), 1);
        }
    });
    let peak = world.server.stats().peak;
    drop(holders);

    let [ramp_wall, ramp_modeled] = report::timed_ms(ramp);
    let [wall, modeled] = report::per_op_us(timing, ops);
    println!(
        "  {idle:>5} idle conns: {budget} event-loop threads (vs {} thread-per-conn), \
         ramp {} ms, active client {} µs/op, peak {peak}",
        idle + 2,
        ramp_wall.1,
        wall.1,
    );
    obj(&[
        ("idle_connections", idle.to_string()),
        ("event_loop_threads", budget.to_string()),
        // What a thread-per-connection design would hold: one thread per
        // open connection (idle and active), plus the acceptor.
        ("thread_per_conn_threads", (idle + 2).to_string()),
        ("ramp", obj(&[ramp_wall, ramp_modeled])),
        ("active_ops", ops.to_string()),
        wall,
        modeled,
        ("peak_connections", peak.to_string()),
    ])
}

/// Runs the bench and writes `BENCH_switchless.json`.
pub fn run(smoke: bool) {
    let hot_ops: u64 = if smoke { 512 } else { 4096 };
    let ramp_steps: &[usize] = if smoke { &[16, 64] } else { &[64, 256, 1024] };
    let ramp_ops: u64 = if smoke { 128 } else { 512 };
    println!("switchless bench{}", if smoke { " [smoke]" } else { "" });

    println!("== hot path: transitions per op ==");
    let switchless = hot_path("switchless", true, hot_ops);
    let classic = hot_path("classic_ecall", false, hot_ops);
    assert_eq!(
        switchless.transitions_per_op, 0.0,
        "the switchless hot path must cross zero enclave boundaries"
    );
    assert!(
        classic.transitions_per_op >= 1.0,
        "the classic path pays at least one world switch per op"
    );
    assert!(
        switchless.enclave_us_per_op < classic.enclave_us_per_op,
        "zero transitions must show as lower modeled enclave time"
    );

    println!("== idle connection ramp (fixed thread budget) ==");
    // A connection budget above the deepest step: the question here is
    // thread scaling, not admission control.
    let deepest = ramp_steps[ramp_steps.len() - 1];
    let world = World::new(true, deepest * 2);
    let steps: Vec<String> =
        ramp_steps.iter().map(|&idle| ramp_step(&world, idle, ramp_ops)).collect();
    world.server.shutdown();

    report::write(
        "switchless",
        smoke,
        &[
            (
                "methodology",
                text(
                    "transitions and enclave_us from the store enclave's counters; \
                     each request a one-item BatchRequest over attested TCP",
                ),
            ),
            (
                "config",
                obj(&[
                    ("hot_ops", hot_ops.to_string()),
                    ("ramp_ops", ramp_ops.to_string()),
                    ("record_bytes", RECORD_LEN.to_string()),
                ]),
            ),
            ("hot_path", list(vec![switchless.json, classic.json])),
            ("connection_ramp", list(steps)),
            (
                "headline",
                obj(&[(
                    "modeled_enclave_time_factor",
                    num(classic.enclave_us_per_op / switchless.enclave_us_per_op),
                )]),
            ),
        ],
    )
}
