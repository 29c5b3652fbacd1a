//! An image-analysis service: SIFT feature extraction over user-submitted
//! images, many of which repeat (re-uploads, thumbnails regenerated, the
//! paper's "repeated input data (even from different requesters)").
//!
//! ```text
//! cargo run --release --example image_service
//! ```

use std::sync::Arc;
use std::time::Instant;

use speed_core::{DedupOutcome, DedupRuntime, Deduplicable, FuncDesc, TrustedLibrary};
use speed_enclave::{CostModel, Platform};
use speed_store::{ResultStore, StoreConfig};
use speed_wire::SessionAuthority;
use speed_workloads::{images, RequestStream};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::new(CostModel::default_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default())?);
    let authority = Arc::new(SessionAuthority::new());

    let mut siftlib = TrustedLibrary::new("libsiftpp", "0.8.1");
    siftlib.register("Keypoints sift(Image)", b"speed-sift pipeline v1");

    let runtime = DedupRuntime::builder(Arc::clone(&platform), b"image-service")
        .in_process_store(Arc::clone(&store), Arc::clone(&authority))
        .trusted_library(siftlib)
        .build()?;

    let dedup_sift = Deduplicable::new(
        &runtime,
        FuncDesc::new("libsiftpp", "0.8.1", "Keypoints sift(Image)"),
        |image_bytes: &Vec<u8>| -> Vec<u8> {
            let image = images::image_from_bytes(image_bytes).expect("valid image");
            let features = speed_sift::sift(&image, &speed_sift::SiftParams::default());
            speed_sift::features_to_bytes(&features)
        },
    )?;

    // 8 distinct images; 30 extraction requests, 65% duplicates.
    let corpus: Vec<Vec<u8>> =
        images::image_corpus(8, 96, 42).iter().map(images::image_to_bytes).collect();
    let stream = RequestStream::new(corpus.len(), 30, 0.65, 4242);

    let mut hit_time = std::time::Duration::ZERO;
    let mut miss_time = std::time::Duration::ZERO;
    let (mut hits, mut misses) = (0u32, 0u32);
    for &idx in stream.indices() {
        let start = Instant::now();
        let (features, outcome) = dedup_sift.call_traced(&corpus[idx])?;
        let elapsed = start.elapsed();
        match outcome {
            DedupOutcome::Hit => {
                hits += 1;
                hit_time += elapsed;
            }
            _ => {
                misses += 1;
                miss_time += elapsed;
            }
        }
        let parsed = speed_sift::features_from_bytes(&features).expect("valid features");
        assert!(!parsed.is_empty());
    }

    println!("served 30 extraction requests over 8 distinct images");
    println!("misses (computed): {misses}, mean {:?}", miss_time / misses.max(1));
    println!("hits (reused):     {hits}, mean {:?}", hit_time / hits.max(1));
    if hits > 0 && misses > 0 {
        let speedup = (miss_time.as_secs_f64() / f64::from(misses))
            / (hit_time.as_secs_f64() / f64::from(hits)).max(1e-9);
        println!("per-request dedup speedup: {speedup:.0}x");
    }
    let store_stats = store.stats();
    println!(
        "store: {} entries holding {} ciphertext bytes outside the enclave",
        store_stats.entries, store_stats.stored_bytes
    );
    Ok(())
}
