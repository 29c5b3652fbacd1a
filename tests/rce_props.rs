//! Property suite for the crypto/core layer: RCE round-trips, tamper
//! detection, tag collision-freedom, hot-cache bounds, and chaos schedule
//! determinism. Driven by `speed-testkit`; failures shrink and print a
//! `SPEED_TESTKIT_SEED=…` reproducer (see docs/TESTING.md).

use std::sync::Arc;

use speed_core::rce::{encrypt_result, recover_result};
use speed_core::{
    comp_digest, tag_for, DedupRuntime, FaultConfig, FaultInjector, FuncDesc,
    FuncIdentity, HotCacheConfig, TrustedLibrary,
};
use speed_crypto::SystemRng;
use speed_enclave::{CostModel, Platform};
use speed_store::{ResultStore, StoreConfig};
use speed_testkit::check;
use speed_testkit::shrink::NoShrink;
use speed_wire::SessionAuthority;

/// Builds function identities for each code blob via a throwaway runtime
/// (the only public path from code bytes to a `FuncIdentity`).
fn identities(codes: &[Vec<u8>]) -> Vec<FuncIdentity> {
    let platform = Platform::new(CostModel::no_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::new());
    let mut library = TrustedLibrary::new("lib", "1");
    for (index, code) in codes.iter().enumerate() {
        library.register(format!("f{index}()"), code);
    }
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"rce-props")
        .in_process_store(store, authority)
        .trusted_library(library)
        .build()
        .unwrap();
    (0..codes.len())
        .map(|index| {
            rt.resolve(&FuncDesc::new("lib", "1", format!("f{index}()"))).unwrap()
        })
        .collect()
}

fn identity(code: &[u8]) -> FuncIdentity {
    identities(std::slice::from_ref(&code.to_vec())).remove(0)
}

/// RCE round-trip: whatever the function, input, and result bytes, a record
/// produced by `encrypt_result` recovers to the original result — and two
/// encryptions of the same computation still both recover (the challenge is
/// fresh per record, the recovery key is not).
#[test]
fn rce_roundtrip_recovers_exact_result() {
    check(
        "rce_roundtrip_recovers_exact_result",
        0x5EED_2001,
        |rng| (rng.bytes(32), rng.bytes(64), rng.bytes(128), rng.next_u64()),
        |case: &(Vec<u8>, Vec<u8>, Vec<u8>, u64)| {
            let (code, input, result, crypto_seed) = case;
            let digest = comp_digest(&identity(code), input);
            let mut rng = SystemRng::seeded(*crypto_seed);
            let record_a = encrypt_result(&digest, result, &mut rng);
            let record_b = encrypt_result(&digest, result, &mut rng);
            // Independent challenges, both recoverable by the rightful owner.
            assert_eq!(recover_result(&digest, &record_a).unwrap(), *result);
            assert_eq!(recover_result(&digest, &record_b).unwrap(), *result);
            // The per-record randomness actually differs.
            assert_ne!(record_a.challenge, record_b.challenge, "challenge reuse");
        },
    );
}

/// Tamper detection: flipping any single bit anywhere in the record — the
/// challenge, the wrapped key, the nonce, or the ciphertext — must make
/// recovery fail. No field is malleable.
#[test]
fn any_flipped_record_bit_fails_recovery() {
    check(
        "any_flipped_record_bit_fails_recovery",
        0x5EED_2002,
        |rng| {
            (
                rng.bytes(16),
                rng.bytes(32),
                rng.bytes(48),
                rng.next_u64(),
                rng.next_u64(), // flip position ticket
                rng.byte() % 8,
            )
        },
        |case: &(Vec<u8>, Vec<u8>, Vec<u8>, u64, u64, u8)| {
            let (code, input, result, crypto_seed, position, bit) = case;
            let digest = comp_digest(&identity(code), input);
            let mut rng = SystemRng::seeded(*crypto_seed);
            let mut record = encrypt_result(&digest, result, &mut rng);
            let total = record.challenge.len()
                + record.wrapped_key.len()
                + record.nonce.len()
                + record.boxed_result.len();
            let mut at = (*position as usize) % total;
            let flip = 1u8 << bit;
            if at < record.challenge.len() {
                record.challenge[at] ^= flip;
            } else {
                at -= record.challenge.len();
                if at < record.wrapped_key.len() {
                    record.wrapped_key[at] ^= flip;
                } else {
                    at -= record.wrapped_key.len();
                    if at < record.nonce.len() {
                        record.nonce[at] ^= flip;
                    } else {
                        at -= record.nonce.len();
                        record.boxed_result[at] ^= flip;
                    }
                }
            }
            assert!(
                recover_result(&digest, &record).is_err(),
                "tampered record recovered"
            );
        },
    );
}

/// Only the rightful (function, input) pair recovers: a different function
/// identity or a different input derives a different secondary key.
#[test]
fn wrong_identity_or_input_cannot_recover() {
    check(
        "wrong_identity_or_input_cannot_recover",
        0x5EED_2003,
        |rng| {
            let code = rng.bytes(24);
            let mut other_code = code.clone();
            other_code.push(rng.byte()); // always differs (longer)
            (code, other_code, rng.bytes(32), rng.bytes(32), rng.next_u64())
        },
        |case: &(Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>, u64)| {
            let (code, other_code, input, result, crypto_seed) = case;
            let ids = identities(&[code.clone(), other_code.clone()]);
            let mut rng = SystemRng::seeded(*crypto_seed);
            let record = encrypt_result(&comp_digest(&ids[0], input), result, &mut rng);
            assert!(
                recover_result(&comp_digest(&ids[1], input), &record).is_err(),
                "foreign function recovered the result"
            );
            let mut other_input = input.clone();
            other_input.push(0);
            assert!(
                recover_result(&comp_digest(&ids[0], &other_input), &record).is_err(),
                "foreign input recovered the result"
            );
        },
    );
}

/// Tag collision-freedom and determinism: distinct (function, input) pairs
/// get distinct tags; the same pair always gets the same tag.
#[test]
fn tags_are_deterministic_and_collision_free() {
    check(
        "tags_are_deterministic_and_collision_free",
        0x5EED_2004,
        |rng| {
            let funcs = rng.range_usize(1, 4);
            let codes: Vec<Vec<u8>> = (0..funcs).map(|i| vec![i as u8; 8 + i]).collect();
            let inputs: Vec<Vec<u8>> =
                (0..rng.range_usize(1, 6)).map(|_| rng.bytes(16)).collect();
            (codes, inputs)
        },
        |case: &(Vec<Vec<u8>>, Vec<Vec<u8>>)| {
            let (codes, inputs) = case;
            let ids = identities(codes);
            let mut seen = std::collections::HashMap::new();
            for (func_index, func) in ids.iter().enumerate() {
                for input in inputs {
                    let tag = tag_for(func, input);
                    assert_eq!(tag, tag_for(func, input), "tag not deterministic");
                    assert_eq!(tag, comp_digest(func, input).tag(), "tag not from d");
                    if let Some(previous) = seen.insert(tag, (func_index, input.clone()))
                    {
                        assert_eq!(
                            previous,
                            (func_index, input.clone()),
                            "tag collision between distinct computations"
                        );
                    }
                }
            }
        },
    );
}

/// Hot-cache bounds: under any stream of repeated executions the in-enclave
/// cache never exceeds its configured entry or byte budget, and cached
/// replays return the exact computed bytes.
#[test]
fn hot_cache_respects_bounds_under_random_streams() {
    const CACHE: HotCacheConfig = HotCacheConfig { max_entries: 4, max_bytes: 2048 };
    check(
        "hot_cache_respects_bounds_under_random_streams",
        0x5EED_2005,
        |rng| {
            let len = rng.range_usize(1, 40);
            (0..len)
                .map(|_| (rng.byte() % 10, rng.range_usize(0, 300)))
                .collect::<Vec<(u8, usize)>>()
        },
        |ops: &Vec<(u8, usize)>| {
            let platform = Platform::new(CostModel::no_sgx());
            let store =
                Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
            let authority = Arc::new(SessionAuthority::new());
            let mut library = TrustedLibrary::new("lib", "1");
            library.register("f()", b"code");
            let rt = DedupRuntime::builder(Arc::clone(&platform), b"hot-cache-prop")
                .in_process_store(store, authority)
                .trusted_library(library)
                .hot_cache(CACHE)
                .build()
                .unwrap();
            let func = rt.resolve(&FuncDesc::new("lib", "1", "f()")).unwrap();
            for (index, &(input_seed, result_len)) in ops.iter().enumerate() {
                // Result bytes are a pure function of the input (the length
                // is part of the input), so every path — compute, store hit,
                // hot-cache hit — must agree.
                let mut input = vec![input_seed; 8];
                input.extend_from_slice(&(result_len as u64).to_le_bytes());
                let expected = vec![input_seed ^ 0x5A; result_len];
                let compute = |_: &[u8]| vec![input_seed ^ 0x5A; result_len];
                let (got, _) = rt.execute_raw(&func, &input, compute).unwrap();
                assert_eq!(got, expected, "op {index}: wrong result bytes");
                let (entries, bytes) = rt.hot_cache_usage().expect("hot cache enabled");
                assert!(
                    entries <= CACHE.max_entries,
                    "op {index}: {entries} entries exceed bound"
                );
                assert!(
                    bytes <= CACHE.max_bytes,
                    "op {index}: {bytes} accounted bytes exceed bound"
                );
                // Kept records live outside the enclave, within their own
                // budget of 16 × max_bytes.
                let (_, record_bytes) =
                    rt.hot_cache_records().expect("hot cache enabled");
                assert!(
                    record_bytes <= 16 * CACHE.max_bytes,
                    "op {index}: {record_bytes} kept record bytes exceed the budget"
                );
            }
        },
    );
}

/// Chaos schedules are pure functions of (config, seed): two injectors with
/// the same seed agree on every fault decision, so any chaos test failure
/// replays exactly.
#[test]
fn chaos_schedule_replays_deterministically() {
    check(
        "chaos_schedule_replays_deterministically",
        0x5EED_2006,
        |rng| NoShrink(rng.next_u64()),
        |seed: &NoShrink<u64>| {
            let config = FaultConfig::default();
            let a = FaultInjector::new(config, seed.0);
            let b = FaultInjector::new(config, seed.0);
            let schedule_a: Vec<_> = (0..200).map(|_| a.next_fault()).collect();
            let schedule_b: Vec<_> = (0..200).map(|_| b.next_fault()).collect();
            assert_eq!(schedule_a, schedule_b, "same seed, different schedule");
            // And both replicas agree on what they injected.
            assert_eq!(a.counts(), b.counts(), "fault counters diverged");
        },
    );
}
