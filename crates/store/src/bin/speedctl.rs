//! `speedctl` — operate a SPEED `ResultStore` from the command line.
//!
//! The server and its clients derive their attestation trust from a shared
//! deployment secret (`--secret`), standing in for provisioning both sides
//! with the same attestation-service identity.
//!
//! ```text
//! # terminal 1: run a store server
//! speedctl serve --addr 127.0.0.1:7700 --secret 42
//!
//! # terminal 2: poke it
//! speedctl put   --addr 127.0.0.1:7700 --secret 42 --tag 0a0a --data "hello"
//! speedctl get   --addr 127.0.0.1:7700 --secret 42 --tag 0a0a
//! speedctl stats --addr 127.0.0.1:7700 --secret 42
//! ```
//!
//! Each command takes only the flags its usage line lists; any other flag
//! is refused with the usage text.

use std::collections::HashMap;
use std::sync::Arc;

use speed_enclave::{CostModel, Platform};
use speed_store::server::{ServerConfig, StoreServer, TcpStoreClient};
use speed_store::{ResultStore, StoreConfig};
use speed_wire::{
    AppId, BatchItem, BatchItemResult, BatchStatus, CompTag, Message, MetricsFormat,
    Record, RingBody, RingNodeBody, SessionAuthority,
};

/// What `speedctl` prints on a usage error. Each command's lines list
/// exactly the flags [`known_flags`] lets it take.
const USAGE: &str = "\
usage: speedctl <command> [flags]
commands:
  serve   --addr HOST:PORT --secret N [--no-sgx] [--max-entries N]
          [--max-bytes N] [--shards N] [--io-threads N]
          [--max-conns N] [--no-switchless]
          [--metrics-jsonl PATH] [--data-dir PATH] [--checkpoint-every N]
          [--node-id N --peers ID=HOST:PORT[,ID=HOST:PORT...]]
  ping    --addr HOST:PORT --secret N [--count N]
  stats   --addr HOST:PORT --secret N
  metrics --addr HOST:PORT --secret N [--json]
  ring    --addr HOST:PORT --secret N
  get     --addr HOST:PORT --secret N --tag HEX
  put     --addr HOST:PORT --secret N --tag HEX --data STRING
notes:
  --secret is the shared deployment secret both sides derive their
  attestation trust from; --tag is zero-padded to 32 bytes
  --data-dir enables the crash-safe log-structured backend: the
  store recovers its contents from PATH on start and makes every
  acknowledged PUT durable (see docs/OPERATIONS.md)
  --checkpoint-every N checkpoints the store every N WAL records
  (default 4096). A checkpoint deletes the WAL files it covers and
  is the only thing that reclaims WAL space: with 0 (no automatic
  checkpoint) the WAL grows for as long as PATH is used, and every
  start replays all of it
  --node-id/--peers advertise a cluster membership ring that
  ClusterClient callers fetch with `ring` (see docs/CLUSTER.md);
  every member must be started with the same member list";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

/// The flags that never take a value: the word after one is an argument
/// of its own, and so refused.
const SWITCHES: [&str; 3] = ["no-sgx", "no-switchless", "json"];

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                match iter.peek() {
                    Some(next)
                        if !next.starts_with("--") && !SWITCHES.contains(&name) =>
                    {
                        values.insert(
                            name.to_string(),
                            iter.next().cloned().expect("peeked"),
                        );
                    }
                    _ => switches.push(name.to_string()),
                }
            } else {
                eprintln!("unexpected argument `{arg}`");
                usage();
            }
        }
        Flags { values, switches }
    }

    fn required(&self, name: &str) -> &str {
        match self.values.get(name) {
            Some(value) => value,
            None => {
                eprintln!("missing required flag --{name}");
                usage();
            }
        }
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.values.get(name).map(|raw| match raw.parse() {
            Ok(value) => value,
            Err(_) => {
                eprintln!("invalid value for --{name}: `{raw}`");
                usage();
            }
        })
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The first flag given that `known` (space-separated names) lacks.
    fn unknown(&self, known: &str) -> Option<&str> {
        self.values
            .keys()
            .chain(&self.switches)
            .map(String::as_str)
            .find(|name| !known.split(' ').any(|flag| flag == *name))
    }
}

/// The flags `command` takes, as its [`USAGE`] lines list them, or `None`
/// for an unknown command.
fn known_flags(command: &str) -> Option<&'static str> {
    Some(match command {
        "serve" => {
            "addr secret no-sgx max-entries max-bytes shards io-threads max-conns \
             no-switchless metrics-jsonl data-dir checkpoint-every node-id peers"
        }
        "ping" => "addr secret count",
        "stats" | "ring" => "addr secret",
        "metrics" => "addr secret json",
        "get" => "addr secret tag",
        "put" => "addr secret tag data",
        _ => return None,
    })
}

fn parse_tag(hex: &str) -> CompTag {
    if !hex.len().is_multiple_of(2) || hex.len() > 64 {
        eprintln!("--tag must be an even-length hex string of at most 64 chars");
        usage();
    }
    let mut bytes = [0u8; 32];
    for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
        let pair = std::str::from_utf8(chunk).expect("hex ascii");
        bytes[i] = match u8::from_str_radix(pair, 16) {
            Ok(byte) => byte,
            Err(_) => {
                eprintln!("invalid hex in --tag: `{pair}`");
                usage();
            }
        };
    }
    CompTag::from_bytes(bytes)
}

fn connect(flags: &Flags) -> TcpStoreClient {
    let addr: std::net::SocketAddr = match flags.required("addr").parse() {
        Ok(addr) => addr,
        Err(_) => {
            eprintln!("invalid --addr");
            usage();
        }
    };
    let secret: u64 = flags.get_parsed("secret").unwrap_or_else(|| usage());
    let authority = SessionAuthority::with_seed(secret);
    let platform = Platform::new(CostModel::default_sgx());
    let enclave =
        platform.create_enclave(b"speedctl-client").expect("client enclave fits");
    match TcpStoreClient::connect(addr, &platform, &enclave, &authority) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("connect failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Parses a `--peers` list of `ID=HOST:PORT` pairs.
fn parse_peers(spec: &str) -> Vec<(u32, String)> {
    spec.split(',')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let Some((id, addr)) = pair.split_once('=') else {
                eprintln!("--peers entries must look like ID=HOST:PORT, got `{pair}`");
                usage();
            };
            match id.parse() {
                Ok(id) => (id, addr.to_string()),
                Err(_) => {
                    eprintln!("invalid node id in --peers entry `{pair}`");
                    usage();
                }
            }
        })
        .collect()
}

/// The membership ring a `serve --node-id/--peers` invocation advertises:
/// this node plus every peer, all weight 1, version 1. Every member of a
/// cluster is started with the same list, so they all advertise the same
/// ring and a client may bootstrap from any of them.
fn topology_from_flags(flags: &Flags, self_addr: &str) -> Option<RingBody> {
    let node_id: u32 = flags.get_parsed("node-id")?;
    let mut nodes =
        vec![RingNodeBody { id: node_id, addr: self_addr.to_string(), weight: 1 }];
    if let Some(spec) = flags.values.get("peers") {
        for (id, addr) in parse_peers(spec) {
            if nodes.iter().any(|n| n.id == id) {
                eprintln!("duplicate node id {id} in --node-id/--peers");
                usage();
            }
            nodes.push(RingNodeBody { id, addr, weight: 1 });
        }
    }
    nodes.sort_by_key(|n| n.id);
    Some(RingBody { version: 1, nodes })
}

fn cmd_serve(flags: &Flags) {
    let secret: u64 = flags.get_parsed("secret").unwrap_or_else(|| usage());
    let addr = flags.required("addr").to_string();
    let model =
        if flags.has("no-sgx") { CostModel::no_sgx() } else { CostModel::default_sgx() };
    let config = StoreConfig {
        max_entries: flags.get_parsed("max-entries").unwrap_or(1_000_000),
        max_stored_bytes: flags.get_parsed("max-bytes").unwrap_or(8 << 30),
        shards: flags.get_parsed("shards").unwrap_or(speed_store::DEFAULT_SHARDS),
        ..StoreConfig::default()
    };
    let defaults = ServerConfig::default();
    let server_config = ServerConfig {
        io_threads: flags.get_parsed("io-threads").unwrap_or(defaults.io_threads),
        max_connections: flags
            .get_parsed("max-conns")
            .unwrap_or(defaults.max_connections),
        switchless: !flags.has("no-switchless"),
        ..defaults
    };

    // A durable store must unseal WAL records and checkpoints written by
    // the *previous* run of this server. Real SGX fuse secrets are stable
    // per CPU; the simulation randomizes them per process, so with
    // --data-dir the fuse secret is derived from the deployment secret to
    // model a restart on the same machine.
    let platform = if flags.values.contains_key("data-dir") {
        Platform::with_seed(model, Some(secret))
    } else {
        Platform::new(model)
    };
    let store = match flags.values.get("data-dir") {
        Some(dir) => {
            let mut log_config = speed_store::LogConfig::new(dir);
            if let Some(every) = flags.get_parsed("checkpoint-every") {
                log_config.checkpoint_every = every;
            }
            let backend = Arc::new(speed_store::LogBackend::new(log_config));
            let (store, recovery) = ResultStore::open(&platform, config, backend)
                .expect("data directory usable");
            println!(
                "recovered {} entries from {dir} ({} checkpointed, {} WAL records \
                 replayed across {} segments, {} torn tails cut, {:.1} ms)",
                store.stats().entries,
                recovery.checkpoint_entries,
                recovery.wal_records_replayed,
                recovery.wal_segments,
                recovery.torn_segments,
                recovery.duration_ns as f64 / 1e6,
            );
            if recovery.quarantined_checkpoint {
                eprintln!(
                    "warning: the checkpoint was unreadable and has been \
                     quarantined to checkpoint.snap.corrupt"
                );
            }
            Arc::new(store)
        }
        None => Arc::new(ResultStore::new(&platform, config).expect("store fits in epc")),
    };
    if let Some(topology) = topology_from_flags(flags, &addr) {
        let members = topology.nodes.len();
        store.set_topology(topology);
        println!("cluster member: advertising a {members}-node ring (`speedctl ring`)");
    }
    let authority = Arc::new(SessionAuthority::with_seed(secret));
    let server = StoreServer::spawn_with_config(
        Arc::clone(&store),
        Arc::clone(&platform),
        authority,
        &addr,
        server_config,
    )
    .expect("bind listen address");
    println!("speed result store listening on {}", server.addr());
    println!("enclave measurement: {}", store.enclave().measurement());
    println!("dictionary shards: {}", store.shard_count());
    println!("press ctrl-c to stop");
    let metrics_jsonl = flags.values.get("metrics-jsonl").cloned();
    if let Some(path) = &metrics_jsonl {
        println!("emitting a JSONL metrics snapshot to {path} every 5s");
    }
    loop {
        std::thread::sleep(std::time::Duration::from_secs(5));
        if let Some(path) = &metrics_jsonl {
            // Refresh derived gauges, then overwrite the file with the
            // latest snapshot (one metric per line) so it stays bounded.
            store.sync_telemetry();
            let jsonl = speed_telemetry::global().snapshot().render_jsonl();
            if let Err(e) = std::fs::write(path, jsonl) {
                eprintln!("metrics-jsonl write failed: {e}");
            }
        }
        if let Some(reason) = store.backend().read_only() {
            eprintln!("[degraded] store is read-only: {reason}");
        }
        let stats = store.stats();
        let srv = server.stats();
        println!(
            "[stats] entries={} gets={} hits={} puts={} rejected={} bytes={} \
             evictions={} conns={}/{} (peak {}, busy-rejected {}) \
             switchless={} fallback={} proto-errors={} frame-timeouts={}",
            stats.entries,
            stats.gets,
            stats.hits,
            stats.puts,
            stats.rejected_puts,
            stats.stored_bytes,
            stats.evictions,
            srv.active,
            server_config.max_connections,
            srv.peak,
            srv.rejected,
            srv.switchless_requests,
            srv.switchless_fallbacks,
            srv.protocol_errors,
            srv.frame_timeouts,
        );
    }
}

/// Sends `request` and returns what `pick` takes from the reply. A failed
/// request, or a reply `pick` does not take (one of another kind, such as
/// a refusal), is reported and exits 1.
fn call<T>(
    client: &mut TcpStoreClient,
    request: &Message,
    pick: impl FnOnce(&Message) -> Option<T>,
) -> T {
    let reply = client.roundtrip(request).unwrap_or_else(|e| {
        eprintln!("request failed: {e}");
        std::process::exit(1)
    });
    pick(&reply).unwrap_or_else(|| {
        eprintln!("unexpected response: {reply:?}");
        std::process::exit(1)
    })
}

/// Sends one data-plane `item`, for app 3185, as a batch of one and returns
/// its result.
fn call_one(flags: &Flags, item: BatchItem) -> BatchItemResult {
    let request = Message::BatchRequest { app: AppId(0xC71), items: vec![item] };
    call(&mut connect(flags), &request, |reply| match reply {
        Message::BatchResponse(results) if results.len() == 1 => Some(results[0].clone()),
        _ => None,
    })
}

fn cmd_ping(flags: &Flags) {
    let count: usize = flags.get_parsed("count").unwrap_or(4).max(1);
    // Connection time includes the attested handshake (quote exchange and
    // session-key derivation) — the cost the resilience layer pays on every
    // reconnect.
    let start = std::time::Instant::now();
    let mut client = connect(flags);
    let handshake = start.elapsed();
    println!("attested handshake: {handshake:?}");

    let mut worst = std::time::Duration::ZERO;
    let mut total = std::time::Duration::ZERO;
    for i in 0..count {
        let start = std::time::Instant::now();
        call(&mut client, &Message::StatsRequest, |reply| {
            matches!(reply, Message::StatsResponse(_)).then_some(())
        });
        let rtt = start.elapsed();
        println!("ping {i}: {rtt:?}");
        worst = worst.max(rtt);
        total += rtt;
    }
    println!(
        "{count} attested round-trips: avg {:?}, worst {worst:?}",
        total / count as u32
    );
}

fn cmd_stats(flags: &Flags) {
    let stats = call(&mut connect(flags), &Message::StatsRequest, |reply| match reply {
        Message::StatsResponse(stats) => Some(stats.clone()),
        _ => None,
    });
    println!("entries:       {}", stats.entries);
    println!("gets:          {}", stats.gets);
    println!("hits:          {}", stats.hits);
    println!("puts:          {}", stats.puts);
    println!("rejected puts: {}", stats.rejected_puts);
    println!("stored bytes:  {}", stats.stored_bytes);
    println!("evictions:     {}", stats.evictions);
    println!("shards:        {}", stats.shards.len());
    for (index, shard) in stats.shards.iter().enumerate() {
        println!(
            "  shard {index:>2}: entries={} bytes={} evictions={} \
             contention={} busy_ms={:.3}",
            shard.entries,
            shard.stored_bytes,
            shard.evictions,
            shard.lock_contention,
            shard.busy_ns as f64 / 1e6,
        );
    }
}

fn cmd_metrics(flags: &Flags) {
    let format =
        if flags.has("json") { MetricsFormat::Jsonl } else { MetricsFormat::Prometheus };
    let request = Message::MetricsRequest { format };
    let text = call(&mut connect(flags), &request, |reply| match reply {
        Message::MetricsResponse(text) => Some(text.clone()),
        _ => None,
    });
    print!("{text}");
}

fn cmd_ring(flags: &Flags) {
    let body = call(&mut connect(flags), &Message::RingRequest, |reply| match reply {
        Message::RingResponse(body) => Some(body.clone()),
        _ => None,
    });
    if body.nodes.is_empty() {
        println!("standalone node: no membership ring advertised");
        return;
    }
    println!("ring version {} ({} nodes)", body.version, body.nodes.len());
    for node in &body.nodes {
        let addr = if node.addr.is_empty() { "(in-process)" } else { node.addr.as_str() };
        println!("  node {:>3}  weight {}  {addr}", node.id, node.weight);
    }
}

fn cmd_get(flags: &Flags) {
    let tag = parse_tag(flags.required("tag"));
    match call_one(flags, BatchItem::Get { tag }).record {
        Some(record) => {
            println!("found: {} ciphertext bytes", record.boxed_result.len());
            println!("challenge: {} bytes", record.challenge.len());
        }
        None => {
            println!("not found");
            std::process::exit(3);
        }
    }
}

fn cmd_put(flags: &Flags) {
    let tag = parse_tag(flags.required("tag"));
    let data = flags.required("data").as_bytes().to_vec();
    // speedctl stores raw bytes in the record body; real applications go
    // through DedupRuntime, which encrypts. This is an operator tool for
    // smoke-testing a deployment.
    let record = Record {
        challenge: vec![0u8; 32],
        wrapped_key: [0u8; 16],
        nonce: [0u8; 12],
        boxed_result: data,
    };
    let result = call_one(flags, BatchItem::Put { tag, record });
    if result.status == BatchStatus::Accepted {
        println!(
            "accepted{}",
            result.reason.map(|r| format!(" ({r})")).unwrap_or_default()
        );
    } else {
        println!("rejected: {}", result.reason.unwrap_or_default());
        std::process::exit(4);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let Some(known) = known_flags(command) else { usage() };
    let flags = Flags::parse(&args[1..]);
    if let Some(name) = flags.unknown(known) {
        eprintln!("`{command}` takes no flag --{name}");
        usage();
    }
    match command.as_str() {
        "serve" => cmd_serve(&flags),
        "ping" => cmd_ping(&flags),
        "stats" => cmd_stats(&flags),
        "metrics" => cmd_metrics(&flags),
        "ring" => cmd_ring(&flags),
        "get" => cmd_get(&flags),
        "put" => cmd_put(&flags),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_values_and_switches() {
        let flags = Flags::parse(&args(&[
            "--addr",
            "127.0.0.1:7700",
            "--no-sgx",
            "--secret",
            "42",
        ]));
        assert_eq!(flags.required("addr"), "127.0.0.1:7700");
        assert_eq!(flags.get_parsed::<u64>("secret"), Some(42));
        assert!(flags.has("no-sgx"));
        assert!(!flags.has("sgx"));
        assert_eq!(flags.get_parsed::<u64>("ttl-ms"), None);
    }

    /// Each command [`USAGE`] lists, in order, with the `--name`s of its
    /// lines: a line that starts with a command name opens its entry, and
    /// the lines under it, which start with a flag, continue it.
    fn usage_flags() -> Vec<(&'static str, BTreeSet<&'static str>)> {
        let (_, commands) = USAGE.split_once("commands:\n").expect("commands section");
        let (commands, _) = commands.split_once("notes:").expect("notes section");
        let mut listed: Vec<(&str, BTreeSet<&str>)> = Vec::new();
        for line in commands.lines() {
            let first = line.split_whitespace().next().expect("no blank line");
            if !first.starts_with(['-', '[']) {
                listed.push((first, BTreeSet::new()));
            }
            let (_, flags) = listed.last_mut().expect("a command line comes first");
            for after in line.split("--").skip(1) {
                let end = after
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(after.len());
                flags.insert(&after[..end]);
            }
        }
        listed
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_takes() {
        let listed = usage_flags();
        let commands: Vec<&str> = listed.iter().map(|(command, _)| *command).collect();
        assert_eq!(commands, ["serve", "ping", "stats", "metrics", "ring", "get", "put"]);
        for (command, flags) in listed {
            let known: BTreeSet<&str> = known_flags(command)
                .expect("a listed command is known")
                .split(' ')
                .collect();
            assert_eq!(flags, known, "`{command}`: usage lines against known_flags");
        }
    }

    #[test]
    fn consecutive_switches_parse() {
        let flags = Flags::parse(&args(&["--no-sgx", "--verbose"]));
        assert!(flags.has("no-sgx"));
        assert!(flags.has("verbose"));
    }

    #[test]
    fn peers_parse_into_a_sorted_ring() {
        let flags = Flags::parse(&args(&[
            "--node-id",
            "2",
            "--peers",
            "0=10.0.0.1:7700,1=10.0.0.2:7700",
        ]));
        let body = topology_from_flags(&flags, "10.0.0.3:7700").unwrap();
        assert_eq!(body.version, 1);
        let ids: Vec<u32> = body.nodes.iter().map(|n| n.id).collect();
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(body.nodes[2].addr, "10.0.0.3:7700");
        assert!(body.nodes.iter().all(|n| n.weight == 1));
    }

    #[test]
    fn topology_absent_without_node_id() {
        let flags = Flags::parse(&args(&["--addr", "127.0.0.1:7700"]));
        assert!(topology_from_flags(&flags, "127.0.0.1:7700").is_none());
    }

    #[test]
    fn tag_parses_and_pads() {
        let tag = parse_tag("0a0b");
        assert_eq!(tag.as_bytes()[0], 0x0a);
        assert_eq!(tag.as_bytes()[1], 0x0b);
        assert_eq!(tag.as_bytes()[2], 0);
        let full = parse_tag(&"ff".repeat(32));
        assert_eq!(full.as_bytes(), &[0xff; 32]);
    }
}
