//! Security-property integration tests: the guarantees of §III-D exercised
//! against an active adversary controlling everything outside the
//! enclaves.

use std::sync::Arc;

use speed_core::rce::recover_result;
use speed_core::{
    comp_digest, fingerprint, tag_for, CoreError, DedupOutcome, DedupRuntime, FuncDesc,
    HotCacheConfig, TrustedLibrary,
};
use speed_crypto::{GhashPrf, SystemRng};
use speed_enclave::{BlobId, CostModel, Platform};
use speed_store::{ResultStore, StoreConfig};
use speed_wire::{AppId, ChannelError, CompTag, Message, Record, SessionAuthority};

struct World {
    platform: Arc<Platform>,
    store: Arc<ResultStore>,
    authority: Arc<SessionAuthority>,
}

fn world() -> World {
    let platform = Platform::new(CostModel::default_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::new());
    World { platform, store, authority }
}

fn library(code: &[u8]) -> TrustedLibrary {
    let mut lib = TrustedLibrary::new("zlib", "1.2.11");
    lib.register("int deflate(...)", code);
    lib
}

fn runtime(world: &World, app_code: &[u8], lib_code: &[u8]) -> Arc<DedupRuntime> {
    DedupRuntime::builder(Arc::clone(&world.platform), app_code)
        .in_process_store(Arc::clone(&world.store), Arc::clone(&world.authority))
        .trusted_library(library(lib_code))
        .build()
        .unwrap()
}

const DESCRIPTION: (&str, &str, &str) = ("zlib", "1.2.11", "int deflate(...)");

fn desc() -> FuncDesc {
    FuncDesc::new(DESCRIPTION.0, DESCRIPTION.1, DESCRIPTION.2)
}

/// Tampering with ciphertext outside the enclave is detected: the victim
/// recomputes instead of consuming a poisoned result (cache-poisoning
/// defence, §III-D).
#[test]
fn tampered_ciphertext_is_detected_not_consumed() {
    let world = world();
    let rt = runtime(&world, b"victim", b"genuine");
    let identity = rt.resolve(&desc()).unwrap();
    let input = b"input under attack".to_vec();

    rt.execute_raw(&identity, &input, |_| b"correct result".to_vec()).unwrap();

    // Adversary with root access flips bits in every untrusted blob.
    let mut tampered_any = false;
    for raw in 0..64u64 {
        tampered_any |=
            world.platform.untrusted().tamper(BlobId::from_raw(raw), |data| {
                if let Some(byte) = data.first_mut() {
                    *byte ^= 0xFF;
                }
            });
    }
    assert!(tampered_any, "no blobs found to tamper with");

    let (result, outcome) =
        rt.execute_raw(&identity, &input, |_| b"correct result".to_vec()).unwrap();
    assert_eq!(outcome, DedupOutcome::MissAfterFailedVerify);
    assert_eq!(result, b"correct result");
}

/// The query-forging attack (§III-D): an application that knows the *tag*
/// of someone else's computation can fetch `(r, [k], [res])` but cannot
/// decrypt, because it cannot recompute `h = H(d, r)` without the digest
/// `d = H(func, m)`, which takes owning the same code and input.
#[test]
fn query_forging_attacker_cannot_decrypt() {
    let world = world();
    let victim = runtime(&world, b"victim-app", b"genuine code");
    let identity = victim.resolve(&desc()).unwrap();
    let secret_input = b"the victim's secret input".to_vec();
    victim.execute_raw(&identity, &secret_input, |_| b"secret result".to_vec()).unwrap();

    // The attacker somehow learned the tag (leakage setting) and queries
    // the store directly, getting the full record.
    let tag = tag_for(&identity, &secret_input);
    let response = world.store.handle(Message::GetRequest { app: AppId(666), tag });
    let record = match response {
        Message::GetResponse(body) => body.record.expect("record leaked to attacker"),
        other => panic!("unexpected {other:?}"),
    };

    // Without the same (func, m) the key cannot be recovered: try with a
    // different function identity (attacker's own code)…
    let attacker = runtime(&world, b"attacker-app", b"attacker code");
    let attacker_identity = attacker.resolve(&desc()).unwrap();
    assert!(
        recover_result(&comp_digest(&attacker_identity, &secret_input), &record).is_err()
    );
    // …and with the right code but a guessed input.
    assert!(recover_result(&comp_digest(&identity, b"guessed input"), &record).is_err());
    // The eligible party still recovers fine.
    assert_eq!(
        recover_result(&comp_digest(&identity, &secret_input), &record).unwrap(),
        b"secret result"
    );
}

/// Everything the store holds outside the enclave is ciphertext: the
/// plaintext result never appears in untrusted memory.
#[test]
fn untrusted_memory_never_sees_plaintext() {
    let world = world();
    let rt = runtime(&world, b"privacy-app", b"genuine");
    let identity = rt.resolve(&desc()).unwrap();
    let plaintext_result = b"EXTREMELY-RECOGNIZABLE-SECRET-RESULT-BYTES".to_vec();
    rt.execute_raw(&identity, b"in", |_| plaintext_result.clone()).unwrap();

    for raw in 0..64u64 {
        if let Some(blob) = world.platform.untrusted().load(BlobId::from_raw(raw)) {
            assert!(
                !blob
                    .windows(plaintext_result.len())
                    .any(|window| window == &plaintext_result[..]),
                "plaintext result leaked into untrusted blob {raw}"
            );
        }
    }
}

/// The RNG's `Debug` prints no state: its ChaCha20 key and buffered
/// keystream predict every later challenge `r`, result key and hot-cache
/// key of the runtime that owns it.
#[test]
fn rng_debug_shows_no_state() {
    assert_eq!(
        format!("{:?}", SystemRng::seeded(1)),
        format!("{:?}", SystemRng::seeded(2))
    );
}

/// The hot cache's PRF and its fingerprints print nothing that depends on
/// the keys or the fingerprint's value.
#[test]
fn fingerprint_debug_shows_no_key_or_value() {
    let world = world();
    let identity = runtime(&world, b"fp-app", b"genuine").resolve(&desc()).unwrap();
    let a = GhashPrf::new(&mut SystemRng::seeded(1));
    let b = GhashPrf::new(&mut SystemRng::seeded(2));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    let (x, y) = (fingerprint(&a, &identity, b"one"), fingerprint(&b, &identity, b"two"));
    assert_ne!(x, y);
    assert_eq!(format!("{x:?}"), format!("{y:?}"));
}

/// A runtime's `Debug` output carries neither a hot-cached plaintext result,
/// nor a byte of the RCE record the hot cache kept, nor its RNG state.
#[test]
fn runtime_debug_shows_no_cached_result() {
    let world = world();
    let rt = DedupRuntime::builder(Arc::clone(&world.platform), b"debug-app")
        .in_process_store(Arc::clone(&world.store), Arc::clone(&world.authority))
        .trusted_library(library(b"genuine"))
        .hot_cache(HotCacheConfig::default())
        .build()
        .unwrap();
    let identity = rt.resolve(&desc()).unwrap();
    // Distinct large byte values: no counter, id or length prints these.
    let result: Vec<u8> = (0..32u8).map(|i| 0x9D ^ i.wrapping_mul(37)).collect();
    // Another application publishes the result, so this runtime's first
    // call is a store hit: the cache keeps its record and its result.
    runtime(&world, b"debug-publisher", b"genuine")
        .execute_raw(&identity, b"debug input", |_| result.clone())
        .unwrap();
    let (_, outcome) =
        rt.execute_raw(&identity, b"debug input", |_| b"recomputed".to_vec()).unwrap();
    assert_eq!(outcome, DedupOutcome::Hit);
    let (_, outcome) =
        rt.execute_raw(&identity, b"debug input", |_| b"recomputed".to_vec()).unwrap();
    assert_eq!(outcome, DedupOutcome::HitLocalCache, "the result is hot-cached");
    let tag = tag_for(&identity, b"debug input");
    let record = match world.store.handle(Message::GetRequest { app: AppId(1), tag }) {
        Message::GetResponse(body) => body.record.expect("the result is stored"),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(rt.hot_cache_records(), Some((1, record.wire_size())), "record kept");

    let shown = format!("{rt:?}");
    let kept: [&[u8]; 4] =
        [&record.challenge, &record.wrapped_key, &record.nonce, &record.boxed_result];
    for bytes in std::iter::once(&result[..]).chain(kept) {
        for window in bytes.windows(3) {
            let rendered = format!("{window:?}");
            let rendered = rendered.trim_start_matches('[').trim_end_matches(']');
            assert!(!shown.contains(rendered), "bytes {rendered} in {shown}");
        }
    }
    assert!(!shown.contains("SystemRng {"), "RNG state in {shown}");
}

/// DoS mitigation (§III-D): a malicious application flooding PUTs is held
/// to its entry quota; a well-behaved application is unaffected.
#[test]
fn put_flood_is_rate_limited_per_app() {
    let platform = Platform::new(CostModel::default_sgx());
    let config = StoreConfig {
        max_entries: 1_000_000,
        max_stored_bytes: u64::MAX,
        quota: speed_store::QuotaPolicy {
            max_entries_per_app: 50,
            max_bytes_per_app: u64::MAX,
        },
        access: speed_store::AccessControl::Open,
        shards: speed_store::DEFAULT_SHARDS,
    };
    let store = Arc::new(ResultStore::new(&platform, config).unwrap());

    let flood_record = || speed_wire::Record {
        challenge: vec![0; 32],
        wrapped_key: [0; 16],
        nonce: [0; 12],
        boxed_result: vec![0xEE; 128],
    };
    let mut rejected = 0;
    for i in 0..200u64 {
        let mut tag = [0u8; 32];
        tag[..8].copy_from_slice(&i.to_le_bytes());
        let response = store.handle(Message::PutRequest {
            app: AppId(666),
            tag: CompTag::from_bytes(tag),
            record: flood_record(),
        });
        if matches!(response, Message::PutResponse(body) if !body.accepted) {
            rejected += 1;
        }
    }
    assert_eq!(rejected, 150, "quota allowed the flood");

    // An honest app still gets service.
    let mut tag = [9u8; 32];
    tag[0] = 0xAA;
    let response = store.handle(Message::PutRequest {
        app: AppId(7),
        tag: CompTag::from_bytes(tag),
        record: flood_record(),
    });
    assert!(matches!(response, Message::PutResponse(body) if body.accepted));
}

/// Replay of secure-channel frames is rejected end to end.
#[test]
fn channel_replay_rejected() {
    let world = world();
    let enclave = world.platform.create_enclave(b"replay-app").unwrap();
    let mut server = None;
    let mut client = world
        .authority
        .connect(&world.platform, &enclave, |client_quote| {
            let (end, server_quote) = world.authority.accept(
                &world.platform,
                world.store.enclave(),
                client_quote,
            )?;
            server = Some(end);
            Ok::<_, ChannelError>(server_quote)
        })
        .unwrap();
    let mut server = server.unwrap();
    let frame = client.seal_message(b"GET something");
    assert!(server.open_message(&frame).is_ok());
    assert!(server.open_message(&frame).is_err());
}

/// The measurement binds code identity: same description, different code →
/// different tags, so a trojaned library can never address genuine entries.
#[test]
fn code_identity_separates_tag_spaces() {
    let world = world();
    let genuine = runtime(&world, b"app-1", b"genuine code");
    let trojaned = runtime(&world, b"app-2", b"trojan code");
    let input = b"same input".to_vec();

    let genuine_tag = tag_for(&genuine.resolve(&desc()).unwrap(), &input);
    let trojan_tag = tag_for(&trojaned.resolve(&desc()).unwrap(), &input);
    assert_ne!(genuine_tag, trojan_tag);
}

/// Sealing: store state sealed by the store enclave cannot be unsealed by
/// a different enclave or platform (used for at-rest persistence).
#[test]
fn sealed_state_bound_to_enclave_identity() {
    use speed_enclave::sealing::{seal, unseal, SealPolicy};
    let world = world();
    let other_platform = Platform::new(CostModel::default_sgx());
    let other_enclave = other_platform.create_enclave(b"other").unwrap();

    let store_enclave = world.store.enclave();
    let sealed = seal(
        &world.platform,
        store_enclave,
        &SealPolicy::MrEnclave,
        b"dict-snapshot",
        b"serialized dictionary",
    );
    assert_eq!(
        unseal(
            &world.platform,
            store_enclave,
            &SealPolicy::MrEnclave,
            b"dict-snapshot",
            &sealed
        )
        .unwrap(),
        b"serialized dictionary"
    );
    assert!(unseal(
        &other_platform,
        &other_enclave,
        &SealPolicy::MrEnclave,
        b"dict-snapshot",
        &sealed
    )
    .is_err());
}

// Record-format guard. A version-1 runtime derived the tag as
// H("comp-tag", func, m) and the secondary key as H("secondary-key", func,
// m, r), under result AAD "speed-result-v1". The constants below are one
// such entry, made with that code for `library(b"genuine")` resolved through
// a runtime of app code `V1_APP`: `V1_TAG` is `tag_for(&identity, V1_INPUT)`
// and the record is `rce::encrypt_result(&identity, V1_INPUT, V1_MARKER,
// &mut SystemRng::seeded(0x5EED_0001))`. No compute below returns the
// marker, so seeing it means a version-1 record was decrypted.

const V1_APP: &[u8] = b"format-app";
const V1_INPUT: &[u8] = b"record written before the digest change";
const V1_MARKER: &[u8] = b"v1 result";
const V1_TAG: &str = "40a34bace772bdd83b429cbcd960dc835f80456e07f7519a843f26b0561f9d69";
const V1_CHALLENGE: &str =
    "1e535fa56274f5ce05f7ceb6a975aa9c47f6e2d99decc19821af929b8ad36186";
const V1_WRAPPED_KEY: &str = "ea646308f7efc818c8297a4709c318ee";
const V1_NONCE: &str = "0afb39c3a050fc39ac9e4a02";
const V1_BOXED: &str = "21e2dac3251e3f2f720088d2354e0e2436c898c0cdcc7ad5f6";

fn unhex<const N: usize>(hex: &str) -> [u8; N] {
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    bytes.try_into().unwrap()
}

fn v1_tag() -> CompTag {
    CompTag::from_bytes(unhex(V1_TAG))
}

fn v1_record() -> Record {
    Record {
        challenge: unhex::<32>(V1_CHALLENGE).to_vec(),
        wrapped_key: unhex(V1_WRAPPED_KEY),
        nonce: unhex(V1_NONCE),
        boxed_result: unhex::<25>(V1_BOXED).to_vec(),
    }
}

/// Stores `record` under `tag`, as a version-1 runtime's PUT would have.
fn preload(world: &World, tag: CompTag, record: Record) {
    let response = world.store.handle(Message::PutRequest { app: AppId(1), tag, record });
    assert!(matches!(response, Message::PutResponse(body) if body.accepted));
}

#[test]
fn v1_tag_is_not_the_current_tag() {
    let world = world();
    let identity = runtime(&world, V1_APP, b"genuine").resolve(&desc()).unwrap();
    assert_ne!(tag_for(&identity, V1_INPUT), v1_tag());
}

/// A version-1 entry under its own tag is never addressed again: the call
/// is a plain miss and publishes a second entry.
#[test]
fn v1_entry_under_its_v1_tag_is_a_miss() {
    let world = world();
    preload(&world, v1_tag(), v1_record());
    let rt = runtime(&world, V1_APP, b"genuine");
    let identity = rt.resolve(&desc()).unwrap();
    let (result, outcome) =
        rt.execute_raw(&identity, V1_INPUT, |_| b"computed".to_vec()).unwrap();
    assert_eq!(outcome, DedupOutcome::Miss);
    assert_eq!(result, b"computed");
    assert_eq!(world.store.stats().entries, 2);
}

/// A version-1 record placed under the current tag fails verification: the
/// call recomputes, and the marker is never returned.
#[test]
fn v1_record_under_the_current_tag_fails_verification() {
    let world = world();
    let rt = runtime(&world, V1_APP, b"genuine");
    let identity = rt.resolve(&desc()).unwrap();
    preload(&world, tag_for(&identity, V1_INPUT), v1_record());
    let (result, outcome) =
        rt.execute_raw(&identity, V1_INPUT, |_| b"computed".to_vec()).unwrap();
    assert_eq!(outcome, DedupOutcome::MissAfterFailedVerify);
    assert_eq!(rt.stats().verify_failures, 1);
    assert_eq!(result, b"computed");
    assert_ne!(result, V1_MARKER);
}

#[test]
fn v1_record_never_decrypts_under_the_digest() {
    let world = world();
    let identity = runtime(&world, V1_APP, b"genuine").resolve(&desc()).unwrap();
    assert!(matches!(
        recover_result(&comp_digest(&identity, V1_INPUT), &v1_record()),
        Err(CoreError::VerificationFailed)
    ));
}
