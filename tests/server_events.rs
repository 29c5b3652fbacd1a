//! Event-loop server integration: per-server telemetry isolation, frame
//! deadlines against slow-loris peers, protocol-error containment, and
//! busy-frame backpressure riding the resilience layer.
//!
//! All tests in this binary share one process-global telemetry registry,
//! so registry assertions are written per-label or as monotonic deltas.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use speed_core::{
    CoreError, ResilienceConfig, ResilienceStats, ResilientClient, RetryPolicy,
    StoreClient, TcpClient,
};
use speed_enclave::attestation::Quote;
use speed_enclave::{CostModel, Platform};
use speed_store::server::{ServerConfig, StoreServer, TcpStoreClient};
use speed_store::{ResultStore, StoreConfig, StoreError};
use speed_telemetry::{names, MetricValue};
use speed_wire::frame::{read_frame, write_frame};
use speed_wire::{
    from_bytes, to_bytes, AppId, CompTag, Message, Record, SecureChannel,
    SessionAuthority,
};

fn world(seed: u64) -> (Arc<Platform>, Arc<ResultStore>, Arc<SessionAuthority>) {
    let platform = Platform::new(CostModel::default_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::with_seed(seed));
    (platform, store, authority)
}

fn spawn(
    store: &Arc<ResultStore>,
    platform: &Arc<Platform>,
    authority: &Arc<SessionAuthority>,
    config: ServerConfig,
) -> StoreServer {
    StoreServer::spawn_with_config(
        Arc::clone(store),
        Arc::clone(platform),
        Arc::clone(authority),
        "127.0.0.1:0",
        config,
    )
    .unwrap()
}

fn sample_record() -> Record {
    Record {
        challenge: vec![1u8; 32],
        wrapped_key: [2u8; 16],
        nonce: [3u8; 12],
        boxed_result: vec![4u8; 64],
    }
}

/// Runs the client side of the attested handshake over a raw stream,
/// returning the stream and channel so tests can inject malformed traffic.
fn manual_handshake(
    server: &StoreServer,
    platform: &Platform,
    authority: &SessionAuthority,
    name: &[u8],
) -> (TcpStream, SecureChannel) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let enclave = platform.create_enclave(name).unwrap();
    let channel = authority
        .connect(platform, &enclave, |client_quote| {
            write_frame(&mut stream, &client_quote.to_bytes())?;
            Ok::<_, StoreError>(Quote::from_bytes(&read_frame(&mut stream)?)?)
        })
        .unwrap();
    (stream, channel)
}

/// Waits until `predicate` holds or five seconds pass.
fn eventually(mut predicate: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if predicate() {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn two_servers_keep_distinct_telemetry_series() {
    // Regression: pool gauges used to be process-global, so the second
    // server's reaping zeroed the first server's active-connections gauge.
    let (platform, store, authority) = world(21);
    let server_a = spawn(&store, &platform, &authority, ServerConfig::default());
    let server_b = spawn(&store, &platform, &authority, ServerConfig::default());

    let e1 = platform.create_enclave(b"a-client-1").unwrap();
    let e2 = platform.create_enclave(b"a-client-2").unwrap();
    let mut a1 =
        TcpStoreClient::connect(server_a.addr(), &platform, &e1, &authority).unwrap();
    let mut a2 =
        TcpStoreClient::connect(server_a.addr(), &platform, &e2, &authority).unwrap();
    a1.roundtrip(&Message::StatsRequest).unwrap();
    a2.roundtrip(&Message::StatsRequest).unwrap();

    // Server B sees one connection come and go, then shuts down entirely —
    // none of which may disturb server A's accounting.
    {
        let e3 = platform.create_enclave(b"b-client").unwrap();
        let mut b1 =
            TcpStoreClient::connect(server_b.addr(), &platform, &e3, &authority).unwrap();
        b1.roundtrip(&Message::StatsRequest).unwrap();
    }
    assert!(eventually(|| server_b.stats().active == 0));
    server_b.shutdown();

    assert_eq!(server_a.stats().active, 2, "server A's own counter survives");
    // The registry must carry a series still reading 2 — with the old
    // shared gauge, B's reap left every server's series at 0.
    let snapshot = speed_telemetry::global().snapshot();
    let readings: Vec<u64> = snapshot
        .metrics
        .iter()
        .filter(|m| m.name == names::SERVER_CONNECTIONS_ACTIVE)
        .filter_map(|m| match m.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        })
        .collect();
    assert!(
        readings.contains(&2),
        "server A's labelled gauge must still read 2, got {readings:?}"
    );
    // Both servers registered distinct label sets.
    assert!(readings.len() >= 2, "each server owns its own series");

    a1.roundtrip(&Message::StatsRequest).unwrap();
    server_a.shutdown();
}

#[test]
fn slow_loris_cannot_stall_shutdown() {
    // Regression: a worker blocked in a frame read used to ignore shutdown
    // for up to the 5 s frame timeout when a client dribbled bytes.
    let (platform, store, authority) = world(22);
    let server = spawn(&store, &platform, &authority, ServerConfig::default());

    let mut loris = TcpStream::connect(server.addr()).unwrap();
    // One byte of the 4-byte frame header, then silence.
    loris.write_all(&[1u8]).unwrap();
    assert!(eventually(|| server.stats().accepted >= 1));

    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "shutdown must not wait out the frame timeout, took {:?}",
        start.elapsed()
    );
    drop(loris);
}

#[test]
fn mid_frame_stall_trips_deadline_and_frees_slot() {
    let (platform, store, authority) = world(23);
    let server = spawn(
        &store,
        &platform,
        &authority,
        ServerConfig {
            frame_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    );

    let mut loris = TcpStream::connect(server.addr()).unwrap();
    loris.write_all(&[1u8]).unwrap();
    assert!(
        eventually(|| server.stats().frame_timeouts >= 1),
        "the per-frame deadline must fire"
    );
    assert!(eventually(|| server.stats().active == 0), "the slot must free");

    // The freed capacity serves a well-behaved client normally.
    let enclave = platform.create_enclave(b"after-loris").unwrap();
    let mut client =
        TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority).unwrap();
    client.roundtrip(&Message::StatsRequest).unwrap();
    drop(loris);
    server.shutdown();
}

#[test]
fn protocol_errors_drop_one_connection_and_spare_the_rest() {
    let (platform, store, authority) = world(24);
    let server = spawn(&store, &platform, &authority, ServerConfig::default());

    // A healthy bystander connection that must survive every abuse below.
    let bystander_enclave = platform.create_enclave(b"bystander").unwrap();
    let mut bystander =
        TcpStoreClient::connect(server.addr(), &platform, &bystander_enclave, &authority)
            .unwrap();
    bystander.roundtrip(&Message::StatsRequest).unwrap();
    let baseline = server.stats().protocol_errors;

    // 1. Garbage where a sealed frame should be: opens fine as a frame,
    //    fails authenticated decryption.
    let (mut garbage, _channel) =
        manual_handshake(&server, &platform, &authority, b"garbage-client");
    write_frame(&mut garbage, &[0xABu8; 48]).unwrap();
    assert!(eventually(|| server.stats().protocol_errors > baseline));

    // 2. Oversized declared length: a header promising 3 GiB trips the
    //    frame cap before any payload is read.
    let (mut oversized, _channel) =
        manual_handshake(&server, &platform, &authority, b"oversized-client");
    oversized.write_all(&(3u32 << 30).to_le_bytes()).unwrap();
    assert!(eventually(|| server.stats().protocol_errors >= baseline + 2));

    // 3. Truncated frame mid-session: the peer vanishes halfway through a
    //    declared payload.
    let (mut truncated, _channel) =
        manual_handshake(&server, &platform, &authority, b"truncated-client");
    let mut partial = Vec::new();
    partial.extend_from_slice(&64u32.to_le_bytes()); // promises 64 bytes...
    partial.extend_from_slice(&[0x55u8; 20]); // ...delivers 20
    truncated.write_all(&partial).unwrap();
    drop(truncated); // FIN mid-frame
    assert!(eventually(|| server.stats().protocol_errors >= baseline + 3));

    // The bystander never noticed.
    bystander.roundtrip(&Message::StatsRequest).unwrap();
    let tag = CompTag::from_bytes([24u8; 32]);
    let put = bystander
        .roundtrip(&Message::PutRequest { app: AppId(9), tag, record: sample_record() })
        .unwrap();
    assert!(matches!(put, Message::PutResponse(b) if b.accepted));

    // 4. The retired master-sync messages, hand-encoded: a pull (tag 7,
    //    `min_hits` 0) once returned every record, and a one-entry batch
    //    (tag 8) once inserted its entry. Both now close only their own
    //    connection, with no reply.
    let entries = store.stats().entries;
    let pull = [&[7u8][..], &0u64.to_le_bytes()].concat();
    let batch = [
        &[8u8][..],
        &1u32.to_le_bytes(),
        &to_bytes(&CompTag::from_bytes([25u8; 32])),
        &to_bytes(&sample_record()),
        &0u64.to_le_bytes(), // hits
    ]
    .concat();
    for (n, request) in [pull, batch].into_iter().enumerate() {
        let name = format!("sync-client-{n}");
        let (mut stream, mut channel) =
            manual_handshake(&server, &platform, &authority, name.as_bytes());
        write_frame(&mut stream, &channel.seal_message(&request)).unwrap();
        assert!(read_frame(&mut stream).is_err(), "tag {} got a reply", request[0]);
        assert!(eventually(|| server.stats().protocol_errors >= baseline + 4 + n as u64));
    }
    assert_eq!(store.stats().entries, entries, "no entry may arrive by sync");
    bystander.roundtrip(&Message::StatsRequest).unwrap();
    server.shutdown();
}

#[test]
fn a_frame_sealed_for_one_session_is_refused_by_the_next() {
    // Two sessions of the same client code against the same server: a
    // frame sealed for the first, and never sent on it, must not open as
    // the second session's first frame.
    let (platform, store, authority) = world(29);
    let server = spawn(&store, &platform, &authority, ServerConfig::default());
    let (_first, mut first) =
        manual_handshake(&server, &platform, &authority, b"same-client");
    let (mut stream, mut second) =
        manual_handshake(&server, &platform, &authority, b"same-client");
    let request = to_bytes(&Message::StatsRequest);
    let stolen = first.seal_message(&request);
    assert_ne!(stolen, second.seal_message(&request), "the sessions share a key");

    let baseline = server.stats().protocol_errors;
    write_frame(&mut stream, &stolen).unwrap();
    assert!(read_frame(&mut stream).is_err(), "the stolen frame was answered");
    assert!(eventually(|| server.stats().protocol_errors > baseline));
    server.shutdown();
}

#[test]
fn busy_rejection_is_retryable_through_the_resilience_layer() {
    let (platform, store, authority) = world(25);
    let server = spawn(
        &store,
        &platform,
        &authority,
        ServerConfig { max_connections: 1, ..ServerConfig::default() },
    );

    let holder_enclave = platform.create_enclave(b"budget-holder").unwrap();
    let mut holder =
        TcpStoreClient::connect(server.addr(), &platform, &holder_enclave, &authority)
            .unwrap();
    holder.roundtrip(&Message::StatsRequest).unwrap();

    // Direct connect surfaces the typed busy error...
    let direct_enclave = platform.create_enclave(b"direct").unwrap();
    match TcpStoreClient::connect(server.addr(), &platform, &direct_enclave, &authority) {
        Err(StoreError::Busy(_)) => {}
        other => panic!("expected busy, got {other:?}"),
    }

    // ...and the resilience layer treats it as transient: retries span the
    // holder's release and the call ultimately succeeds.
    let addr = server.addr();
    let retry_platform = Arc::clone(&platform);
    let retry_authority = Arc::clone(&authority);
    let connector: speed_core::Connector = Box::new(move || {
        let enclave = retry_platform.create_enclave(b"retrying-client").unwrap();
        let client =
            TcpClient::connect(addr, &retry_platform, &enclave, &retry_authority)?;
        Ok(Box::new(client) as Box<dyn StoreClient>)
    });
    let mut resilient = ResilientClient::new(
        connector,
        ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: 20,
                base_delay: Duration::from_millis(25),
                max_delay: Duration::from_millis(50),
                jitter: 0.0,
            },
            call_budget: Duration::from_secs(10),
            jitter_seed: Some(7),
            ..ResilienceConfig::default()
        },
        Arc::new(ResilienceStats::default()),
        None,
    );

    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        drop(holder);
    });
    let response = resilient.roundtrip(&Message::StatsRequest);
    release.join().unwrap();
    match response {
        Ok(Message::StatsResponse(_)) => {}
        other => panic!("busy must be survivable via retry, got {other:?}"),
    }
    assert!(server.stats().rejected >= 1, "the busy path was actually exercised");
    server.shutdown();
}

#[test]
fn busy_error_converts_to_core_error() {
    // The From impl the resilience layer depends on: a connector returning
    // StoreError::Busy must flow through CoreError without losing the kind.
    let err: CoreError = StoreError::Busy("saturated".into()).into();
    assert!(err.to_string().contains("busy"));
    let _ = from_bytes::<Message>(&to_bytes(&Message::StatsRequest)).unwrap();
}
