//! Multi-node store mode, end to end: consistent-hash routing over real
//! replicated stores, killed-node chaos, partitions, hinted handoff, and
//! failover re-attestation. `docs/CLUSTER.md` is the spec these scenarios
//! are written against.
//!
//! The headline invariant (the CI `cluster` job's pass condition):
//! a 3-node cluster survives a seeded kill-one-node chaos run with ZERO
//! lost acknowledged PUTs — every acknowledged record stays readable
//! throughout the outage and, once the node rejoins and hinted handoff
//! drains, is back on all R replicas.

use std::sync::Arc;
use std::time::Duration;

use speed_core::{
    BreakerConfig, ClusterClient, ClusterConfig, Connector, CoreError, DedupOutcome,
    DedupRuntime, FuncDesc, InProcessClient, NodeId, OutageSwitch, ResilienceConfig,
    RetryPolicy, StoreClient, SwitchedClient, TcpClient, TrustedLibrary,
};
use speed_enclave::{CostModel, Platform};
use speed_store::server::StoreServer;
use speed_store::{ResultStore, StoreConfig};
use speed_testkit::TestRng;
use speed_wire::{
    AppId, CompTag, Message, Record, RingBody, RingNodeBody, SessionAuthority,
};

const APP: AppId = AppId(0xC1A5);

fn tag_of(seed: u64) -> CompTag {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[9] = 0x3C;
    CompTag::from_bytes(bytes)
}

fn record_of(seed: u64) -> Record {
    Record {
        challenge: vec![seed as u8; 24],
        wrapped_key: [seed as u8; 16],
        nonce: [(seed >> 8) as u8; 12],
        boxed_result: seed.to_le_bytes().repeat(4).to_vec(),
    }
}

/// Per-node resilience for tests: fail over immediately, never fast-fail
/// (the scenarios assert on clean failovers, not breaker windows).
fn node_resilience() -> ResilienceConfig {
    ResilienceConfig {
        retry: RetryPolicy::none(),
        breaker: BreakerConfig {
            failure_threshold: 1_000_000,
            cooldown: Duration::from_millis(1),
        },
        call_budget: Duration::from_secs(2),
        replay_capacity: 1,
        jitter_seed: Some(0x3C),
    }
}

struct Cluster {
    client: ClusterClient,
    stores: Vec<Arc<ResultStore>>,
    switches: Vec<Arc<OutageSwitch>>,
}

/// An `n`-node in-process cluster: each member is a real `ResultStore`
/// behind an attested channel, reachable through an [`OutageSwitch`] so
/// scenarios can kill and revive it deterministically.
fn in_process_cluster(n: u32) -> Cluster {
    let platform = Platform::new(CostModel::no_sgx());
    let authority = Arc::new(SessionAuthority::with_seed(0x3C0));
    let enclave = platform.create_enclave(b"cluster-it-client").unwrap();
    let mut builder = ClusterClient::builder(ClusterConfig {
        node_resilience: node_resilience(),
        ..ClusterConfig::default()
    });
    let mut stores = Vec::new();
    let mut switches = Vec::new();
    for id in 0..n {
        let store = Arc::new(
            ResultStore::new(&platform, StoreConfig::with_capacity(100_000, u64::MAX))
                .unwrap(),
        );
        let switch = Arc::new(OutageSwitch::new());
        let connector: Connector = {
            let store = Arc::clone(&store);
            let switch = Arc::clone(&switch);
            let authority = Arc::clone(&authority);
            let platform = Arc::clone(&platform);
            let enclave = Arc::clone(&enclave);
            Box::new(move || {
                if switch.is_down() {
                    return Err(CoreError::StoreUnavailable("node is down".into()));
                }
                let inner = InProcessClient::connect(
                    Arc::clone(&store),
                    &authority,
                    &platform,
                    &enclave,
                )?;
                Ok(Box::new(SwitchedClient::new(Box::new(inner), Arc::clone(&switch)))
                    as Box<dyn StoreClient>)
            })
        };
        builder = builder.node(id, connector);
        stores.push(store);
        switches.push(switch);
    }
    Cluster { client: builder.build().unwrap(), stores, switches }
}

fn holds(store: &ResultStore, seed: u64) -> bool {
    matches!(
        store.handle(Message::GetRequest { app: APP, tag: tag_of(seed) }),
        Message::GetResponse(body) if body.found
    )
}

/// The seeded kill-one-node chaos run. Drives a 3-node cluster through
/// `ops` random PUT/GET operations while one node at a time is killed and
/// revived on a random schedule; every acknowledged PUT must stay readable
/// at all times, and after the final rejoin + handoff drain every
/// acknowledged record must be back on exactly R = 2 replicas.
fn kill_one_node_chaos(seed: u64, ops: usize) {
    let mut cluster = in_process_cluster(3);
    let mut rng = TestRng::new(seed);
    let mut acked: Vec<u64> = Vec::new();
    let mut down: Option<usize> = None;
    let mut killed_ever = [false; 3];
    let mut next_seed = 0u64;

    for op in 0..ops {
        // Flip the outage state with small probability: at most one node
        // is down at a time, mirroring the single-fault-domain drill.
        match down {
            None if rng.chance(0.08) => {
                let node = rng.range_usize(0, 2);
                cluster.switches[node].set_down(true);
                killed_ever[node] = true;
                down = Some(node);
            }
            Some(node) if rng.chance(0.2) => {
                cluster.switches[node].set_down(false);
                down = None;
            }
            _ => {}
        }
        if rng.chance(0.6) || acked.is_empty() {
            let put_seed = next_seed;
            next_seed += 1;
            let response = cluster
                .client
                .roundtrip(&Message::PutRequest {
                    app: APP,
                    tag: tag_of(put_seed),
                    record: record_of(put_seed),
                })
                .unwrap_or_else(|e| {
                    panic!("op {op}: PUT failed with one node down: {e}")
                });
            assert!(
                matches!(response, Message::PutResponse(body) if body.accepted),
                "op {op}: PUT not acknowledged"
            );
            acked.push(put_seed);
        } else {
            // Zero-loss invariant, checked DURING the outage: any
            // acknowledged PUT is readable from some replica right now.
            let probe = acked[rng.range_usize(0, acked.len() - 1)];
            let response = cluster
                .client
                .roundtrip(&Message::GetRequest { app: APP, tag: tag_of(probe) })
                .unwrap_or_else(|e| panic!("op {op}: GET failed: {e}"));
            assert!(
                matches!(response, Message::GetResponse(body) if body.found),
                "op {op}: acknowledged PUT {probe} lost mid-run \
                 (seed {seed:#x}, down node {down:?})"
            );
        }
    }

    // Rejoin and drain: replication debt is repaid.
    for switch in &cluster.switches {
        switch.set_down(false);
    }
    cluster.client.drain_hints();
    assert_eq!(cluster.client.hint_depth(), 0, "hints left after full drain");
    for &put_seed in &acked {
        let replicas: usize =
            cluster.stores.iter().filter(|s| holds(s, put_seed)).count();
        assert_eq!(
            replicas, 2,
            "seed {seed:#x}: PUT {put_seed} on {replicas} replicas after drain"
        );
    }
    // Every node that was ever killed reconnected — and therefore ran the
    // full attestation handshake again — when it came back.
    for (node, was_killed) in killed_ever.iter().enumerate() {
        if *was_killed {
            assert!(
                cluster.client.reattestations(node as u32) >= 1,
                "killed node {node} never re-attested"
            );
        }
    }
    let counts = cluster.client.counts();
    assert_eq!(counts.hinted_puts, counts.hints_replayed, "hints leaked");
    assert_eq!(counts.hints_dropped, 0, "hint queue overflowed");
}

/// Pinned-seed arm of the chaos run (deterministic in CI).
#[test]
fn kill_one_node_chaos_pinned_seed() {
    kill_one_node_chaos(0xC1A0_5EED, 400);
}

/// Random-smoke arm: honors `SPEED_TESTKIT_SEED` so the CI `cluster` job
/// can roll a fresh seed per run; the failure message embeds the seed.
#[test]
fn kill_one_node_chaos_env_seed() {
    let seed = std::env::var("SPEED_TESTKIT_SEED")
        .ok()
        .and_then(|raw| {
            let raw = raw.trim().to_string();
            match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => raw.parse().ok(),
            }
        })
        .unwrap_or(0x3C0_5EED);
    kill_one_node_chaos(seed, 250);
}

/// A partition that cuts the client off from one member: keyed traffic
/// stays fully available (every tag keeps one reachable replica at R = 2),
/// while the filter fan-out — which needs the whole membership — fails
/// closed rather than serving a partial union.
#[test]
fn partition_keeps_keyed_traffic_available() {
    let mut cluster = in_process_cluster(3);
    for seed in 0..20 {
        assert!(cluster
            .client
            .roundtrip(&Message::PutRequest {
                app: APP,
                tag: tag_of(seed),
                record: record_of(seed),
            })
            .is_ok());
    }
    cluster.switches[2].set_down(true);

    // All 20 tags remain readable and writable across the partition.
    for seed in 0..20 {
        let response = cluster
            .client
            .roundtrip(&Message::GetRequest { app: APP, tag: tag_of(seed) })
            .expect("partitioned GET");
        assert!(matches!(response, Message::GetResponse(body) if body.found));
    }
    for seed in 20..30 {
        let response = cluster
            .client
            .roundtrip(&Message::PutRequest {
                app: APP,
                tag: tag_of(seed),
                record: record_of(seed),
            })
            .expect("partitioned PUT");
        assert!(matches!(response, Message::PutResponse(body) if body.accepted));
    }
    // Fan-outs that need every member fail closed during the partition.
    assert!(cluster.client.roundtrip(&Message::FilterRequest).is_err());

    // Heal: handoff repays the partitioned node's replication debt.
    cluster.switches[2].set_down(false);
    assert!(cluster.client.drain_hints() > 0 || cluster.client.hint_depth() == 0);
    assert_eq!(cluster.client.hint_depth(), 0);
    for seed in 0..30 {
        let replicas: usize = cluster.stores.iter().filter(|s| holds(s, seed)).count();
        assert_eq!(replicas, 2, "tag {seed} not fully replicated after heal");
    }
}

/// The full TCP stack: three `StoreServer`s advertising a shared topology,
/// a `ClusterClient` dialing them with attested `TcpClient` connectors,
/// `RING_REQUEST` bootstrap, failover past a dead server, and the
/// departed-node bugfix end to end — a hint queued for a node that then
/// leaves the ring is delivered to the tag's *current* owners at drain.
#[test]
fn tcp_cluster_ring_fetch_failover_and_departed_node_drain() {
    let platform = Platform::new(CostModel::default_sgx());
    let authority = Arc::new(SessionAuthority::with_seed(0x7C9));
    let enclave = platform.create_enclave(b"tcp-cluster-client").unwrap();

    let mut stores = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..3 {
        let store =
            Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
        let server = StoreServer::spawn(
            Arc::clone(&store),
            Arc::clone(&platform),
            Arc::clone(&authority),
            "127.0.0.1:0",
        )
        .unwrap();
        stores.push(store);
        servers.push(Some(server));
    }
    let topology = RingBody {
        version: 1,
        nodes: (0..3u32)
            .map(|id| RingNodeBody {
                id,
                addr: servers[id as usize].as_ref().unwrap().addr().to_string(),
                weight: 1,
            })
            .collect(),
    };
    for store in &stores {
        assert!(store.set_topology(topology.clone()));
    }

    let mut builder = ClusterClient::builder(ClusterConfig {
        node_resilience: node_resilience(),
        ..ClusterConfig::default()
    });
    for node in &topology.nodes {
        let addr: std::net::SocketAddr = node.addr.parse().unwrap();
        let connector: Connector = {
            let platform = Arc::clone(&platform);
            let enclave = Arc::clone(&enclave);
            let authority = Arc::clone(&authority);
            Box::new(move || {
                let tcp = TcpClient::connect(addr, &platform, &enclave, &authority)?;
                Ok(Box::new(tcp) as Box<dyn StoreClient>)
            })
        };
        builder = builder.member(node.clone(), connector);
    }
    let mut client = builder.build().unwrap();

    // Bootstrap: any member serves the advertised membership over TCP.
    assert_eq!(client.fetch_ring().unwrap(), topology);

    // Replicated PUT/GET over real attested TCP connections.
    assert!(matches!(
        client
            .roundtrip(&Message::PutRequest {
                app: APP,
                tag: tag_of(1),
                record: record_of(1),
            })
            .unwrap(),
        Message::PutResponse(body) if body.accepted
    ));
    assert_eq!(stores.iter().filter(|s| holds(s, 1)).count(), 2);

    // Kill the primary server of tag 2 for good (process death: the port
    // goes away). The PUT is still acknowledged by the surviving replica
    // and a hint is parked for the dead node.
    let primary = client.replicas_of(&tag_of(2))[0].0;
    servers[primary as usize].take().unwrap().shutdown();
    assert!(matches!(
        client
            .roundtrip(&Message::PutRequest {
                app: APP,
                tag: tag_of(2),
                record: record_of(2),
            })
            .unwrap(),
        Message::PutResponse(body) if body.accepted
    ));
    assert_eq!(client.hint_depth(), 1);
    assert!(matches!(
        client.roundtrip(&Message::GetRequest { app: APP, tag: tag_of(2) }).unwrap(),
        Message::GetResponse(body) if body.found
    ));

    // The operator replaces the dead node: it leaves the ring. The parked
    // hint must re-route to the tag's current owners, not chase the
    // departed address.
    client.remove_node(primary);
    assert_eq!(client.drain_hints(), 1);
    assert_eq!(client.hint_depth(), 0);
    let current = client.replicas_of(&tag_of(2));
    assert!(!current.contains(&NodeId(primary)));
    for node in &current {
        assert!(
            holds(&stores[node.0 as usize], 2),
            "current replica {node:?} missing the re-routed PUT"
        );
    }
    assert!(
        !holds(&stores[primary as usize], 2),
        "departed node must never receive the replayed PUT"
    );

    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
}

/// The runtime-level replay bugfix: a PUT parked by the *runtime's*
/// resilience layer during a whole-cluster outage is replayed through the
/// cluster client — i.e. routed by the ring current at replay time — so it
/// cannot land on a node that departed while the PUT sat in the queue.
#[test]
fn runtime_replay_reroutes_through_current_ring() {
    let mut library = TrustedLibrary::new("clusterlib", "1.0");
    library.register("bytes echo(bytes)", b"echo code");
    let desc = FuncDesc::new("clusterlib", "1.0", "bytes echo(bytes)");

    let cluster = in_process_cluster(3);
    let platform = Platform::new(CostModel::no_sgx());
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"cluster-rt-app")
        .cluster_store(cluster.client.clone())
        .resilience(ResilienceConfig {
            retry: RetryPolicy::none(),
            breaker: BreakerConfig {
                failure_threshold: 1_000_000,
                cooldown: Duration::from_millis(1),
            },
            call_budget: Duration::from_secs(2),
            replay_capacity: 64,
            jitter_seed: Some(1),
        })
        .trusted_library(library)
        .build()
        .unwrap();
    let identity = rt.resolve(&desc).unwrap();

    // Whole-cluster outage: the call degrades to local execution and the
    // fresh result is parked in the runtime's replay queue.
    for switch in &cluster.switches {
        switch.set_down(true);
    }
    let (result, outcome) =
        rt.execute_raw(&identity, b"outage-input", |d| d.to_vec()).unwrap();
    assert_eq!(result, b"outage-input".to_vec());
    assert_eq!(outcome, DedupOutcome::Miss);
    assert!(rt.pending_replays() > 0, "outage PUT must be parked for replay");

    // While the PUT sits in the queue, node 0 is decommissioned and the
    // rest of the cluster comes back.
    cluster.client.remove_node(0);
    for switch in &cluster.switches {
        switch.set_down(false);
    }

    // The next successful round-trip drains the replay queue through the
    // cluster client, which routes by the CURRENT two-node ring.
    let mut drained = false;
    for _ in 0..10 {
        let _ = rt.execute_raw(&identity, b"drain-probe", |d| d.to_vec()).unwrap();
        if rt.pending_replays() == 0 {
            drained = true;
            break;
        }
    }
    assert!(drained, "replay queue never drained after the cluster came back");

    // The replayed record must be a store hit now — served by the
    // surviving nodes — and the departed node must have stayed empty.
    let (replayed, outcome) = rt
        .execute_raw(&identity, b"outage-input", |_| {
            panic!("must be served from the cluster")
        })
        .unwrap();
    assert_eq!(replayed, b"outage-input".to_vec());
    assert_eq!(outcome, DedupOutcome::Hit);
    assert_eq!(
        cluster.stores[0].stats().entries,
        0,
        "departed node received a replayed PUT"
    );
}

/// Ring metadata stays consistent through membership changes, and the
/// in-process cluster answers `RING_REQUEST` from the client's own view.
#[test]
fn membership_changes_bump_versions_and_move_few_keys() {
    let mut cluster = in_process_cluster(3);
    assert_eq!(cluster.client.ring_version(), 1);
    let before: Vec<NodeId> =
        (0..1000).map(|s| cluster.client.replicas_of(&tag_of(s))[0]).collect();

    // A fourth node joins (connector never used unless routed to).
    cluster.client.add_node(
        RingNodeBody { id: 3, addr: String::new(), weight: 1 },
        Box::new(|| Err(CoreError::StoreUnavailable("stub".into()))),
    );
    assert_eq!(cluster.client.ring_version(), 2);
    let moved = (0..1000)
        .filter(|&s| {
            let now = cluster.client.replicas_of(&tag_of(s))[0];
            now != before[s as usize]
        })
        .count();
    // Consistent hashing: ~K/N = 250 of 1000 primaries move, all to the
    // new node; well under half in any case.
    assert!(
        (100..=450).contains(&moved),
        "adding 1 of 4 nodes moved {moved}/1000 primaries"
    );

    cluster.client.remove_node(3);
    assert_eq!(cluster.client.ring_version(), 3);
    for s in 0..1000 {
        assert_eq!(
            cluster.client.replicas_of(&tag_of(s))[0],
            before[s as usize],
            "removing the node must restore the old placement"
        );
    }
    match cluster.client.roundtrip(&Message::RingRequest).unwrap() {
        Message::RingResponse(body) => {
            assert_eq!(body.version, 3);
            assert_eq!(body.nodes.len(), 3);
        }
        other => panic!("unexpected {other:?}"),
    }
}
