//! Wire-protocol fuzzing: round-trips, hostile bytes, and frames.
//!
//! Three layers of assault on `speed-wire`:
//! 1. every randomly generated [`Message`] must round-trip bit-exactly;
//! 2. mutated, truncated, and random buffers must produce a typed
//!    `WireError` — never a panic — and any buffer that *does* decode must
//!    be canonical (re-encoding reproduces the input bytes);
//! 3. the length-prefixed framing must reject oversized declarations and
//!    report truncation as `UnexpectedEof`.
//!
//! Inputs that once found bugs live on as the checked-in corpus under
//! `tests/fixtures/fuzz/` (see the `corpus_regressions` test).

use std::io::Cursor;
use std::path::PathBuf;

use speed_testkit::{check, corpus, mutate, wiregen, TestRng};
use speed_wire::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use speed_wire::{from_bytes, to_bytes, Message};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fuzz")
}

/// Decoding must be total: Ok or typed error, never a panic. Returns the
/// decoded message when the bytes were valid.
fn decode_must_not_panic(bytes: &[u8], context: &str) -> Option<Message> {
    let result = std::panic::catch_unwind(|| from_bytes::<Message>(bytes));
    match result {
        Ok(decoded) => decoded.ok(),
        Err(_) => panic!("{context}: decoder panicked on {bytes:02x?}"),
    }
}

#[test]
fn every_message_roundtrips() {
    check(
        "every_message_roundtrips",
        0x5EED_1001,
        |rng| {
            let message = wiregen::message(rng, 64);
            speed_testkit::shrink::NoShrink(message)
        },
        |message| {
            let bytes = to_bytes(&message.0);
            let decoded = from_bytes::<Message>(&bytes).expect("valid encoding");
            assert_eq!(decoded, message.0, "round-trip changed the message");
        },
    );
}

/// Mutated valid encodings: never panic, and when the mutant still decodes
/// the codec must be canonical — re-encoding yields the exact mutant bytes
/// (no two byte strings decode to the same value).
#[test]
fn mutated_messages_error_cleanly_and_stay_canonical() {
    check(
        "mutated_messages_error_cleanly_and_stay_canonical",
        0x5EED_1002,
        |rng| {
            let message = wiregen::message(rng, 48);
            let bytes = to_bytes(&message);
            let mut fork = rng.fork();
            mutate::mutated(&mut fork, &bytes, 4)
        },
        |mutant: &Vec<u8>| {
            if let Some(decoded) = decode_must_not_panic(mutant, "mutant") {
                assert_eq!(
                    to_bytes(&decoded),
                    *mutant,
                    "non-canonical encoding accepted"
                );
            }
        },
    );
}

#[test]
fn random_bytes_never_panic_the_decoder() {
    check(
        "random_bytes_never_panic_the_decoder",
        0x5EED_1003,
        |rng| rng.bytes(256),
        |bytes: &Vec<u8>| {
            decode_must_not_panic(bytes, "random bytes");
        },
    );
}

/// Truncating a valid frame at every possible point yields `UnexpectedEof`
/// (or, for cuts inside the header, EOF as well) — never a panic, never a
/// short read that silently succeeds.
#[test]
fn truncated_frames_are_clean_eof() {
    check(
        "truncated_frames_are_clean_eof",
        0x5EED_1004,
        |rng| {
            let payload = rng.bytes(64);
            let cut_ratio = rng.next_u32();
            (payload, cut_ratio)
        },
        |case: &(Vec<u8>, u32)| {
            let (payload, cut_ratio) = case;
            let mut framed = Vec::new();
            write_frame(&mut framed, payload).expect("frame within limit");
            // Cut strictly before the end so the frame is always incomplete.
            let cut = (*cut_ratio as usize) % framed.len().max(1);
            framed.truncate(cut);
            let err = read_frame(Cursor::new(framed)).expect_err("truncated frame");
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        },
    );
}

/// Hostile 4-byte headers: any declared length over the cap is rejected as
/// `InvalidData` before any payload is read; in-cap declarations with a
/// short stream fail with EOF (the incremental reader never trusts the
/// header with a single allocation).
#[test]
fn hostile_frame_headers_are_rejected() {
    check(
        "hostile_frame_headers_are_rejected",
        0x5EED_1005,
        |rng| rng.next_u32(),
        |declared: &u32| {
            let mut buf = declared.to_le_bytes().to_vec();
            buf.extend_from_slice(&[0u8; 32]);
            match read_frame(Cursor::new(buf)) {
                Ok(payload) => assert_eq!(payload.len(), *declared as usize),
                Err(err) if (*declared as usize) > MAX_FRAME_LEN => {
                    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData)
                }
                Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof),
            }
        },
    );
}

/// Every checked-in corpus input decodes to a typed error (or, for the
/// canonical ones, decodes and re-encodes identically) without panicking.
/// These are permanent regression tests for past findings and hand-built
/// hostile inputs.
#[test]
fn corpus_regressions() {
    let entries = corpus::load_dir(&corpus_dir())
        .expect("fuzz corpus missing: run `cargo test -- --ignored regenerate_corpus`");
    assert!(!entries.is_empty(), "fuzz corpus is empty");
    for entry in entries {
        if let Some(decoded) = decode_must_not_panic(&entry.bytes, &entry.name) {
            assert_eq!(
                to_bytes(&decoded),
                entry.bytes,
                "{}: decoded non-canonically",
                entry.name
            );
        }
    }
}

/// Rebuilds the corpus from its recipes. Run explicitly after changing the
/// wire format: `cargo test --test wire_fuzz -- --ignored regenerate_corpus`
#[test]
#[ignore = "writes tests/fixtures/fuzz; run explicitly to regenerate"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    let mut rng = TestRng::new(0x5EED_C05E);

    // A valid message of each interesting shape, then targeted corruptions.
    let valid = to_bytes(&wiregen::message(&mut rng, 32));
    corpus::save(&dir, "valid_message.bin", &valid).unwrap();

    // Unknown envelope tag.
    let mut unknown_tag = valid.clone();
    unknown_tag[0] = 0xEE;
    corpus::save(&dir, "unknown_tag.bin", &unknown_tag).unwrap();

    // Truncated mid-structure.
    let put = to_bytes(&Message::PutRequest {
        app: speed_wire::AppId(7),
        tag: wiregen::comp_tag(&mut rng),
        record: wiregen::record(&mut rng, 32),
    });
    corpus::save(&dir, "truncated_put.bin", &put[..put.len() / 2]).unwrap();

    // Length prefix far beyond the remaining bytes.
    let mut overflow = put.clone();
    let at = overflow.len() - 8;
    overflow[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    corpus::save(&dir, "length_overflow.bin", &overflow).unwrap();

    // A BatchResponse claiming a huge result count with none behind it.
    let mut hostile_count =
        to_bytes(&Message::BatchResponse(vec![wiregen::batch_item_result(&mut rng, 16)]));
    hostile_count[1..5].copy_from_slice(&0xFFFF_FF00u32.to_le_bytes());
    corpus::save(&dir, "hostile_seq_count.bin", &hostile_count).unwrap();

    // A bool byte that is neither 0 nor 1 (strict decoders reject it).
    let get_response = to_bytes(&Message::GetResponse(speed_wire::GetResponseBody {
        found: false,
        record: None,
    }));
    let mut bad_bool = get_response.clone();
    bad_bool[1] = 0x02;
    corpus::save(&dir, "bool_junk.bin", &bad_bool).unwrap();

    // Trailing garbage after a complete message.
    let mut trailing = get_response.clone();
    trailing.extend_from_slice(b"junk");
    corpus::save(&dir, "trailing_garbage.bin", &trailing).unwrap();

    // Empty input.
    corpus::save(&dir, "empty.bin", &[]).unwrap();

    // A handful of seeded random mutants of a batch request, frozen.
    let batch = to_bytes(&Message::BatchRequest {
        app: speed_wire::AppId(1),
        items: (0..3).map(|_| wiregen::batch_item(&mut rng, 24)).collect(),
    });
    for i in 0..4 {
        let mutant = mutate::mutated(&mut rng, &batch, 3);
        corpus::save(&dir, &format!("mutant_batch_{i}.bin"), &mutant).unwrap();
    }
}
