//! Table I — latency of the cryptographic operations in `DedupRuntime`
//! under four input sizes (1 KB, 10 KB, 100 KB, 1 MB).

use std::time::{Duration, Instant};

use speed_core::{comp_digest, rce, FuncDesc};
use speed_crypto::{AesGcm128, Key128, SystemRng};

use crate::apps::DedupEnv;
use crate::harness::{fmt_bytes, render_table};

/// The paper's input sizes.
pub const SIZES: [usize; 4] = [1 << 10, 10 << 10, 100 << 10, 1 << 20];

/// One row of Table I.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Input size in bytes.
    pub input_bytes: usize,
    /// `d ← Hash(func, m)`, `t ← Hash(d)` — tag generation, the call's one
    /// pass over the input.
    pub tag_gen: Duration,
    /// Key generation and protection: pick `r`, compute `h ← Hash(d, r)`
    /// from the digest, generate `k`, wrap `[k] = k ⊕ h`.
    pub key_gen: Duration,
    /// Key recovery: recompute `h` from the digest, unwrap `k = [k] ⊕ h`.
    pub key_rec: Duration,
    /// `[res] ← AES.Enc(k, res)` over a result of the same size.
    pub result_enc: Duration,
    /// `res ← AES.Dec(k, [res])`.
    pub result_dec: Duration,
}

fn time_op(trials: usize, mut f: impl FnMut()) -> Duration {
    // Warm up once, then average.
    f();
    let start = Instant::now();
    for _ in 0..trials {
        f();
    }
    start.elapsed() / trials as u32
}

/// Measures all five operations at every paper size.
pub fn run(trials: usize) -> Vec<Table1Row> {
    // Build a function identity through the real resolution path.
    let env = DedupEnv::new(speed_enclave::CostModel::no_sgx());
    let runtime = env.runtime(b"table1-app");
    let identity = runtime
        .resolve(&FuncDesc::new("zlib", "1.2.11", "int deflate(...)"))
        .expect("registered");

    let mut rng = SystemRng::seeded(0x7AB1E);
    let mut rows = Vec::new();
    for size in SIZES {
        let mut input = vec![0u8; size];
        rng.fill(&mut input);
        let result = input.clone(); // result of the same size, as in the paper

        let tag_gen = time_op(trials, || {
            std::hint::black_box(comp_digest(&identity, &input).tag());
        });
        let digest = comp_digest(&identity, &input);

        let challenge = rng.gen_challenge(32);
        let key_gen = {
            let mut local_rng = SystemRng::seeded(7);
            time_op(trials, || {
                let r = local_rng.gen_challenge(32);
                let h = digest.secondary_key(&r);
                let k = local_rng.gen_key();
                std::hint::black_box(k.xor_pad(&h));
            })
        };

        let key = Key128::from_bytes([0x2A; 16]);
        let wrapped = key.xor_pad(&digest.secondary_key(&challenge));
        let key_rec = time_op(trials, || {
            let h = digest.secondary_key(&challenge);
            std::hint::black_box(wrapped.xor_pad(&h));
        });

        let cipher = AesGcm128::new(&key);
        let nonce = rng.gen_nonce();
        let result_enc = time_op(trials, || {
            std::hint::black_box(cipher.seal(&nonce, b"speed-result-v2", &result));
        });

        let boxed = cipher.seal(&nonce, b"speed-result-v2", &result);
        let result_dec = time_op(trials, || {
            std::hint::black_box(
                cipher.open(&nonce, b"speed-result-v2", &boxed).expect("valid"),
            );
        });

        // Cross-check: the rce module produces the same operations end to
        // end (guards against measuring dead code).
        let record = rce::encrypt_result(&digest, &result, &mut rng);
        assert_eq!(rce::recover_result(&digest, &record).expect("self-recovery"), result);

        rows.push(Table1Row {
            input_bytes: size,
            tag_gen,
            key_gen,
            key_rec,
            result_enc,
            result_dec,
        });
    }
    rows
}

/// Renders the table in the paper's layout, in µs: key generation and
/// recovery take well under a microsecond, which milliseconds round to 0.
pub fn render(rows: &[Table1Row]) -> String {
    let us = |d: Duration| format!("{:.2}", d.as_secs_f64() * 1e6);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                fmt_bytes(row.input_bytes),
                us(row.tag_gen),
                us(row.key_gen),
                us(row.key_rec),
                us(row.result_enc),
                us(row.result_dec),
            ]
        })
        .collect();
    format!(
        "Table I — cryptographic operations in DedupRuntime (µs)\n{}",
        render_table(
            &["input", "Tag Gen.", "Key Gen.", "Key Rec.", "Result Enc.", "Result Dec."],
            &table_rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_scale_with_input() {
        let rows = run(3);
        assert_eq!(rows.len(), 4);
        // The passes over the input or the result grow ~linearly: 1 MB ≫ 1 KB.
        let first = &rows[0];
        let last = &rows[3];
        assert!(last.tag_gen > first.tag_gen * 20);
        assert!(last.result_enc > first.result_enc * 20);
        assert!(last.result_dec > first.result_dec * 20);
        // Key generation and recovery hash the 32-byte digest `d`, not the
        // input, so their cost does not grow with it.
        assert!(last.key_gen * 20 < last.tag_gen, "key gen {:?}", last.key_gen);
        assert!(last.key_rec * 20 < last.tag_gen, "key rec {:?}", last.key_rec);
    }

    #[test]
    fn enc_dec_faster_than_tag_gen_at_scale() {
        // The paper: "result encryption and decryption … are even faster
        // with the same sized input, literally an order of magnitude".
        // The ratio here depends on the CPU: SHA-256 and AES-GCM each run
        // on hardware extensions when present and in software otherwise,
        // so this only checks that decryption stays within 10× of tag
        // generation at 100 KB.
        let rows = run(3);
        let big = &rows[2];
        assert!(
            big.result_dec < big.tag_gen * 10,
            "dec {:?} vs tag {:?}",
            big.result_dec,
            big.tag_gen
        );
    }

    #[test]
    fn render_has_all_sizes() {
        let rows = run(1);
        let text = render(&rows);
        for label in ["1KB", "10KB", "100KB", "1MB"] {
            assert!(text.contains(label), "{label} missing");
        }
    }
}
