//! Differential tests: every hardware backend against the portable one,
//! byte for byte.
//!
//! Each test runs the backends this CPU has and lists them on stderr, so a
//! log from a CPU without some hardware path shows that the path went
//! unchecked there.

use crate::aes::{Aes128, BLOCK_LEN};
use crate::rng::SystemRng;
use crate::{AesGcm128, CryptoError, GhashPrf, Key128, Sha256};

fn note_backends_checked(test: &str, backends: &[&str]) {
    eprintln!("note: {test} checked the backends this CPU runs: {}", backends.join(", "));
}

/// The AES-GCM backends `AesGcm128::backends` gives on this CPU.
fn gcm_backend_names() -> Vec<&'static str> {
    AesGcm128::backends(&Key128::from_bytes([0; 16]))
        .iter()
        .map(AesGcm128::backend_name)
        .collect()
}

fn sha256_backend_name(hasher: &Sha256) -> &'static str {
    if hasher.is_hardware() {
        "sha-ni"
    } else {
        "soft"
    }
}

/// `offset + len` random bytes, for data that starts `offset` bytes in.
fn misaligned(rng: &mut SystemRng, offset: usize, len: usize) -> Vec<u8> {
    let mut buffer = vec![0u8; offset + len];
    rng.fill(&mut buffer);
    buffer
}

fn update_in_random_splits(hasher: &mut Sha256, mut data: &[u8], rng: &mut SystemRng) {
    loop {
        let take = rng.range_usize_inclusive(0, data.len());
        hasher.update(&data[..take]);
        data = &data[take..];
        if data.is_empty() {
            return;
        }
    }
}

#[test]
fn sha256_backends_agree_at_every_length_offset_and_split() {
    let backends = Sha256::backends();
    let names: Vec<_> = backends.iter().map(sha256_backend_name).collect();
    note_backends_checked(
        "sha256_backends_agree_at_every_length_offset_and_split",
        &names,
    );
    let mut rng = SystemRng::seeded(0xD1FF_5A25);
    let largest = 64 * 1024 + 7;
    let buffer = misaligned(&mut rng, 15, largest);
    for len in (0..=1024).chain([largest]) {
        for offset in 0..=15 {
            let data = &buffer[offset..offset + len];
            let mut reference = backends[0].clone();
            reference.update(data);
            let reference = reference.finalize();
            for backend in &backends {
                let mut hasher = backend.clone();
                update_in_random_splits(&mut hasher, data, &mut rng);
                assert_eq!(
                    hasher.finalize(),
                    reference,
                    "length {len}, offset {offset}, {}",
                    sha256_backend_name(backend)
                );
            }
        }
    }
}

#[test]
fn gcm_backends_agree_on_seal_open_and_tampering() {
    note_backends_checked(
        "gcm_backends_agree_on_seal_open_and_tampering",
        &gcm_backend_names(),
    );
    let mut rng = SystemRng::seeded(0xD1FF_6C4D);
    for len in (0..=600).chain([25_000, 65_543]) {
        let ciphers = AesGcm128::backends(&rng.gen_key());
        let nonce = rng.gen_nonce();
        let (pt_offset, aad_offset) = (rng.range_usize(0, 16), rng.range_usize(0, 16));
        let mut plaintext = misaligned(&mut rng, pt_offset, len);
        let mut aad = misaligned(&mut rng, aad_offset, len % 81);
        let (plaintext, aad) = (&mut plaintext[pt_offset..], &mut aad[aad_offset..]);

        let boxed = ciphers[0].seal(&nonce, aad, plaintext);
        let box_offset = rng.range_usize(0, 16);
        let mut boxed_copy = vec![0u8; box_offset];
        boxed_copy.extend_from_slice(&boxed);
        for cipher in &ciphers {
            let context = format!("length {len}, aad {}, {cipher:?}", aad.len());
            assert_eq!(cipher.seal(&nonce, aad, plaintext), boxed, "{context}");
            let opened = cipher.open(&nonce, aad, &boxed_copy[box_offset..]);
            assert_eq!(opened.as_deref(), Ok(&*plaintext), "{context}");
        }

        // One flipped bit anywhere in the box or the AAD fails everywhere.
        let bit = rng.range_usize(0, (boxed.len() + aad.len()) * 8);
        let mut tampered = boxed.clone();
        let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
        match tampered.get_mut(byte) {
            Some(b) => *b ^= mask,
            None => aad[byte - boxed.len()] ^= mask,
        }
        for cipher in &ciphers {
            let context = format!("length {len}, bit {bit}, {cipher:?}");
            let failed = CryptoError::AuthenticationFailed;
            assert_eq!(cipher.open(&nonce, aad, &tampered), Err(failed), "{context}");
            assert_eq!(cipher.verify(&nonce, aad, &tampered), Err(failed), "{context}");
        }
    }
}

/// Lengths around the GHASH block (16 bytes), four-block group (64 bytes)
/// and 32-block group (512 bytes) boundaries: zero, one and two 32-block
/// groups, each followed by four-block, single-block and partial-block
/// remainders.
const GHASH_EDGE_LENGTHS: [usize; 23] = [
    0, 1, 15, 16, 17, 48, 63, 64, 65, 80, 127, 128, 129, 255, 256, 257, 511, 512, 513,
    527, 1023, 1024, 1025,
];

#[test]
fn gcm_backends_agree_at_every_ghash_group_boundary_pair() {
    note_backends_checked(
        "gcm_backends_agree_at_every_ghash_group_boundary_pair",
        &gcm_backend_names(),
    );
    let mut rng = SystemRng::seeded(0xD1FF_64A4);
    for aad_len in GHASH_EDGE_LENGTHS {
        for len in GHASH_EDGE_LENGTHS {
            let ciphers = AesGcm128::backends(&rng.gen_key());
            let nonce = rng.gen_nonce();
            let (pt_offset, aad_offset) =
                (rng.range_usize(1, 16), rng.range_usize(1, 16));
            let plaintext = misaligned(&mut rng, pt_offset, len);
            let aad = misaligned(&mut rng, aad_offset, aad_len);
            let (plaintext, aad) = (&plaintext[pt_offset..], &aad[aad_offset..]);

            let boxed = ciphers[0].seal(&nonce, aad, plaintext);
            let box_offset = rng.range_usize(1, 16);
            let mut boxed_copy = vec![0u8; box_offset];
            boxed_copy.extend_from_slice(&boxed);
            let boxed_copy = &boxed_copy[box_offset..];
            // A flipped tag bit: caught by GHASH of every backend alike.
            let mut tampered = boxed.clone();
            tampered[len + rng.range_usize(0, 16)] ^= 1 << rng.range_usize(0, 8);
            for cipher in &ciphers {
                let context = format!("aad {aad_len}, length {len}, {cipher:?}");
                assert_eq!(cipher.seal(&nonce, aad, plaintext), boxed, "{context}");
                let opened = cipher.open(&nonce, aad, boxed_copy);
                assert_eq!(opened.as_deref(), Ok(plaintext), "{context}");
                assert_eq!(cipher.verify(&nonce, aad, boxed_copy), Ok(()), "{context}");
                let failed = Err(CryptoError::AuthenticationFailed);
                assert_eq!(cipher.verify(&nonce, aad, &tampered), failed, "{context}");
            }
        }
    }
}

#[test]
fn ghash_prf_backends_agree_at_every_ghash_group_boundary_pair() {
    let zero = Key128::from_bytes([0; 16]);
    let names: Vec<_> =
        GhashPrf::backends(&zero, &zero).iter().map(GhashPrf::backend_name).collect();
    note_backends_checked(
        "ghash_prf_backends_agree_at_every_ghash_group_boundary_pair",
        &names,
    );
    let mut rng = SystemRng::seeded(0xD1FF_F9F0);
    for a_len in GHASH_EDGE_LENGTHS {
        for m_len in GHASH_EDGE_LENGTHS {
            let (k_h, k) = (rng.gen_key(), rng.gen_key());
            let prfs = GhashPrf::backends(&k_h, &k);
            let (a_offset, m_offset) = (rng.range_usize(1, 16), rng.range_usize(1, 16));
            let a = misaligned(&mut rng, a_offset, a_len);
            let m = misaligned(&mut rng, m_offset, m_len);
            let (a, m) = (&a[a_offset..], &m[m_offset..]);
            let context =
                |prf: &GhashPrf| format!("a {a_len}, m {m_len}, {}", prf.backend_name());
            let reference = prfs[0].eval(a, m);
            for prf in &prfs {
                assert_eq!(prf.eval(a, m), reference, "{}", context(prf));
            }
            // Either key alone changes the output, on every backend. The
            // one exception is K_h on empty (a, m), whose GHASH is 0 · H.
            let other = rng.gen_key();
            let mut rekeyed = GhashPrf::backends(&k_h, &other);
            if a_len + m_len > 0 {
                rekeyed.extend(GhashPrf::backends(&other, &k));
            }
            for prf in &rekeyed {
                assert_ne!(prf.eval(a, m), reference, "{}", context(prf));
            }
        }
    }
}

/// The wide GHASH prefetches the 512-byte group eight groups (4 KiB) ahead
/// of the one it folds. Over a fingerprinted document, 64 KiB plus 0 to 15
/// bytes at every start offset 0 to 15, and over every length that ends
/// within 4 KiB past a group boundary, where the prefetch runs out of
/// groups: every backend's GHASH, as AAD and as ciphertext, and every
/// backend's `GhashPrf` agree with the portable code.
#[test]
fn ghash_backends_agree_where_the_wide_prefetch_runs_out() {
    let zero = Key128::from_bytes([0; 16]);
    let names: Vec<_> =
        GhashPrf::backends(&zero, &zero).iter().map(GhashPrf::backend_name).collect();
    note_backends_checked(
        "ghash_backends_agree_where_the_wide_prefetch_runs_out",
        &names,
    );
    let mut rng = SystemRng::seeded(0xD1FF_9F37);
    let (k_h, k) = (rng.gen_key(), rng.gen_key());
    let (ciphers, prfs) = (AesGcm128::backends(&k_h), GhashPrf::backends(&k_h, &k));
    let buffer = misaligned(&mut rng, 15, 64 * 1024 + 15);
    let check = |data: &[u8], context: &str| {
        let ghash = (ciphers[0].ghash(data, &[]), ciphers[0].ghash(&[], data));
        for cipher in &ciphers {
            let pair = (cipher.ghash(data, &[]), cipher.ghash(&[], data));
            assert_eq!(pair, ghash, "{context}, {cipher:?}");
        }
        let reference = prfs[0].eval(b"func", data);
        for prf in &prfs {
            assert_eq!(
                prf.eval(b"func", data),
                reference,
                "{context}, {}",
                prf.backend_name()
            );
        }
    };
    for extra in 0..=15 {
        for offset in 0..=15 {
            let len = 64 * 1024 + extra;
            check(
                &buffer[offset..offset + len],
                &format!("length {len}, offset {offset}"),
            );
        }
    }
    // Nine groups, then up to 4 KiB more: the group whose prefetch would
    // be the last one in reach, and every tail after it.
    let base = 9 * 512;
    for past in (0..=4096).step_by(64).chain([1, 15, 16, 17, 511, 513, 4095]) {
        let offset = rng.range_usize(0, 16);
        let len = base + past;
        check(&buffer[offset..offset + len], &format!("length {len}, offset {offset}"));
    }
}

#[test]
fn ctr_wraps_inside_an_eight_block_batch_like_the_portable_code() {
    let mut rng = SystemRng::seeded(0xD1FF_C7E0);
    let key = rng.gen_key();
    let ciphers = AesGcm128::backends(&key);
    note_backends_checked(
        "ctr_wraps_inside_an_eight_block_batch_like_the_portable_code",
        &gcm_backend_names(),
    );
    let data = misaligned(&mut rng, 0, 3 * 8 * BLOCK_LEN + 5);
    // Counter blocks ending 0xffff_fff0..=0xffff_ffff put the 32-bit wrap at
    // each lane of the first batch of eight blocks, and past it.
    for last in 0xffff_fff0..=0xffff_ffffu32 {
        let mut counter0 = [0u8; BLOCK_LEN];
        rng.fill(&mut counter0[..12]);
        counter0[12..].copy_from_slice(&last.to_be_bytes());
        let outputs: Vec<Vec<u8>> = ciphers
            .iter()
            .map(|cipher| {
                let mut out = data.clone();
                cipher.ctr_xor(&counter0, &mut out);
                out
            })
            .collect();
        for (cipher, out) in ciphers.iter().zip(&outputs) {
            assert_eq!(out, &outputs[0], "counter {last:#x}, {cipher:?}");
        }
        // The block after the wrap is keyed by counter 0 with the nonce
        // bytes untouched (inc32 wraps 32 bits, never carries further).
        let wrap_block = (u32::MAX - last) as usize * BLOCK_LEN;
        let mut expected = counter0;
        expected[12..].fill(0);
        Aes128::new(&key).encrypt_block(&mut expected);
        for (i, want) in expected.iter().enumerate() {
            let at = wrap_block + i;
            assert_eq!(outputs[0][at] ^ data[at], *want, "counter {last:#x}");
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn detection_selects_the_hardware_backends() {
    let common = is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    let sha = common && is_x86_feature_detected!("sha");
    let aes = common
        && is_x86_feature_detected!("aes")
        && is_x86_feature_detected!("pclmulqdq");
    // Every feature the 32-block GHASH enables beyond the AES-NI code's.
    let wide = aes
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("vpclmulqdq");
    assert_eq!(Sha256::new().is_hardware(), sha);
    let cipher = AesGcm128::new(&Key128::from_bytes([0x5a; 16]));
    let expected = match (aes, wide) {
        (_, true) => "aes-ni+vpclmulqdq",
        (true, false) => "aes-ni",
        (false, false) => "soft",
    };
    assert_eq!(cipher.backend_name(), expected);
    assert_eq!(format!("{cipher:?}"), format!("AesGcm128({expected}, <key redacted>)"));
}
