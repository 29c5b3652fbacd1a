//! End-to-end exercise of the `speedctl` binary: serve a store, drive it
//! with `put`/`get`, and scrape it with `metrics` in both formats; check
//! that a refused or failed request exits 1; and check that a flag a
//! command does not take, or a word after a switch, is refused.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use speed_enclave::attestation::Quote;
use speed_enclave::{CostModel, Platform};
use speed_store::server::StoreServer;
use speed_store::{AccessControl, ResultStore, StoreConfig};
use speed_wire::frame::{read_frame, write_frame};
use speed_wire::SessionAuthority;

const SECRET: &str = "4242";

struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `speedctl serve` on an ephemeral port and parses the bound
/// address from its first stdout line.
fn spawn_server() -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_speedctl"))
        .args(["serve", "--addr", "127.0.0.1:0", "--secret", SECRET, "--shards", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn speedctl serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("serve prints a banner").expect("banner readable");
    let addr = banner
        .rsplit_once(" listening on ")
        .map(|(_, addr)| addr.trim().to_string())
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"));
    // Keep draining stdout in the background so the child never blocks on
    // a full pipe while the test runs.
    std::thread::spawn(move || for _ in lines {});
    Server { child, addr }
}

fn speedctl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_speedctl"))
        .args(args)
        .output()
        .expect("run speedctl")
}

#[test]
fn metrics_subcommand_scrapes_a_live_server() {
    let server = spawn_server();

    let put = speedctl(&[
        "put",
        "--addr",
        &server.addr,
        "--secret",
        SECRET,
        "--tag",
        "0b0b",
        "--data",
        "payload",
    ]);
    assert!(put.status.success(), "put failed: {put:?}");
    let get =
        speedctl(&["get", "--addr", &server.addr, "--secret", SECRET, "--tag", "0b0b"]);
    assert!(get.status.success(), "get failed: {get:?}");

    // Prometheus text exposition (the default).
    let metrics = speedctl(&["metrics", "--addr", &server.addr, "--secret", SECRET]);
    assert!(metrics.status.success(), "metrics failed: {metrics:?}");
    let text = String::from_utf8(metrics.stdout).expect("utf-8 exposition");
    assert!(text.contains("# TYPE store_gets_total counter"), "got:\n{text}");
    assert!(text.contains("# TYPE store_entries gauge"));
    assert!(text.contains("# TYPE store_request_duration_ns histogram"));
    assert!(text.contains("store_request_duration_ns_bucket{le=\"+Inf\"}"));
    assert!(text.contains("enclave_transitions_total{kind=\"ecall\"}"));
    assert!(text.contains("store_shard_entries{shard=\"0\"}"));
    // The put/get workload above is reflected in the counters.
    let line = text
        .lines()
        .find(|l| l.starts_with("store_hits_total "))
        .expect("store_hits_total rendered");
    let hits: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(hits >= 1, "the GET above must count as a hit, got {line}");

    // JSONL via --json.
    let metrics =
        speedctl(&["metrics", "--addr", &server.addr, "--secret", SECRET, "--json"]);
    assert!(metrics.status.success(), "metrics --json failed: {metrics:?}");
    let jsonl = String::from_utf8(metrics.stdout).expect("utf-8 jsonl");
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        assert!(
            line.starts_with("{\"name\":") && line.ends_with('}'),
            "malformed jsonl line: {line}"
        );
    }
    assert!(jsonl.contains("\"name\":\"store_puts_total\""));
    assert!(jsonl.contains("\"type\":\"histogram\""));
}

#[test]
fn a_refused_or_failed_request_exits_1() {
    let platform = Platform::new(CostModel::no_sgx());
    let authority = Arc::new(SessionAuthority::with_seed(SECRET.parse().unwrap()));

    // A store whose allowlist omits speedctl's app (3185) refuses its get
    // and put with an error reply.
    let config = StoreConfig {
        access: AccessControl::Allowlist([1u64].into_iter().collect()),
        ..StoreConfig::default()
    };
    let store = Arc::new(ResultStore::new(&platform, config).unwrap());
    let server = StoreServer::spawn(
        store,
        Arc::clone(&platform),
        Arc::clone(&authority),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr().to_string();
    let put =
        ["put", "--addr", &addr, "--secret", SECRET, "--tag", "0c0c", "--data", "x"];
    let get = ["get", "--addr", &addr, "--secret", SECRET, "--tag", "0c0c"];
    for args in [&put[..], &get[..]] {
        let output = speedctl(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("app 3185 not authorized"), "{args:?}: {stderr}");
    }
    server.shutdown();

    // A peer that hangs up right after the handshake fails `stats`.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let quote = Quote::from_bytes(&read_frame(&mut stream).unwrap()).unwrap();
        let enclave = platform.create_enclave(b"hang-up-peer").unwrap();
        let (_, reply) = authority.accept(&platform, &enclave, &quote).unwrap();
        write_frame(&mut stream, &reply.to_bytes()).unwrap();
    });
    let output = speedctl(&["stats", "--addr", &addr, "--secret", SECRET]);
    peer.join().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("request failed"), "{stderr}");
}

#[test]
fn a_flag_the_command_does_not_take_is_refused() {
    // Held, so that a `serve` that took its flags exits on a failed bind
    // instead of serving.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let cases: [(&[&str], &str); 4] = [
        (
            &["serve", "--addr", &addr, "--secret", SECRET, "--ring-slots", "64"],
            "--ring-slots",
        ),
        (
            &["serve", "--addr", &addr, "--secret", SECRET, "--checkpoint-evry", "0"],
            "--checkpoint-evry",
        ),
        // The store keeps no clock, so it has no entry time-to-live.
        (&["serve", "--addr", &addr, "--secret", SECRET, "--ttl-ms", "5"], "--ttl-ms"),
        // A flag of another command is refused too.
        (&["stats", "--addr", &addr, "--secret", SECRET, "--json"], "--json"),
    ];
    for (args, flag) in cases {
        let output = speedctl(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?} must exit with the usage code: {stderr}"
        );
        assert!(stderr.contains(flag), "the refusal must name {flag}: {stderr}");
        assert!(stderr.contains("usage: speedctl"), "usage text expected: {stderr}");
    }
}

#[test]
fn a_switch_given_a_value_is_refused() {
    // Held, so that a `serve` that took the word as the switch's value
    // exits on a failed bind instead of serving.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    for switch in ["--no-switchless", "--no-sgx"] {
        let output =
            speedctl(&["serve", "--addr", &addr, "--secret", SECRET, switch, "yes"]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{switch} yes must be refused: {stderr}"
        );
        assert!(stderr.contains("unexpected argument `yes`"), "got: {stderr}");
        assert!(stderr.contains("usage: speedctl"), "usage text expected: {stderr}");
    }
}
