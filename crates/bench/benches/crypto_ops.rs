//! Criterion bench for Table I: the cryptographic operations of
//! `DedupRuntime` at the paper's four input sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use speed_bench::apps::DedupEnv;
use speed_core::{comp_digest, rce, FuncDesc};
use speed_crypto::{AesGcm128, Key128, SystemRng};
use speed_enclave::CostModel;

fn bench_crypto_ops(c: &mut Criterion) {
    let env = DedupEnv::new(CostModel::no_sgx());
    let runtime = env.runtime(b"bench-crypto");
    let identity = runtime
        .resolve(&FuncDesc::new("zlib", "1.2.11", "int deflate(...)"))
        .expect("registered");
    let mut rng = SystemRng::seeded(1);

    let mut group = c.benchmark_group("table1");
    for size in [1usize << 10, 10 << 10, 100 << 10, 1 << 20] {
        let mut input = vec![0u8; size];
        rng.fill(&mut input);
        group.throughput(Throughput::Bytes(size as u64));

        group.bench_with_input(BenchmarkId::new("tag_gen", size), &input, |b, input| {
            b.iter(|| comp_digest(&identity, input).tag())
        });
        let digest = comp_digest(&identity, &input);

        group.bench_with_input(BenchmarkId::new("key_gen", size), &input, |b, _| {
            let mut rng = SystemRng::seeded(2);
            b.iter(|| {
                let r = rng.gen_challenge(32);
                let h = digest.secondary_key(&r);
                rng.gen_key().xor_pad(&h)
            })
        });

        let challenge = rng.gen_challenge(32);
        let wrapped =
            Key128::from_bytes([7; 16]).xor_pad(&digest.secondary_key(&challenge));
        group.bench_with_input(BenchmarkId::new("key_rec", size), &input, |b, _| {
            b.iter(|| wrapped.xor_pad(&digest.secondary_key(&challenge)))
        });

        let key = Key128::from_bytes([7; 16]);
        let cipher = AesGcm128::new(&key);
        let nonce = rng.gen_nonce();
        group.bench_with_input(
            BenchmarkId::new("result_enc", size),
            &input,
            |b, input| b.iter(|| cipher.seal(&nonce, b"aad", input)),
        );

        let boxed = cipher.seal(&nonce, b"aad", &input);
        group.bench_with_input(BenchmarkId::new("result_dec", size), &boxed, |b, boxed| {
            b.iter(|| cipher.open(&nonce, b"aad", boxed).expect("valid"))
        });

        group.bench_with_input(
            BenchmarkId::new("full_rce_encrypt", size),
            &input,
            |b, input| {
                let mut rng = SystemRng::seeded(3);
                b.iter(|| rce::encrypt_result(&digest, input, &mut rng))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_crypto_ops
}
criterion_main!(benches);
