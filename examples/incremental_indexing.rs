//! Incremental index building over an evolving dataset — the paper's §I
//! motivation: "incrementally updated datasets are constantly being
//! processed by the same or similar computing tasks, such as […] index
//! building for fast queries."
//!
//! Every epoch, a pipeline recomputes a per-document index (compressed
//! term list) for the whole corpus; only ~10% of documents actually
//! changed, so ~90% of the per-document computations are served from the
//! encrypted store.
//!
//! ```text
//! cargo run --release --example incremental_indexing
//! ```

use std::sync::Arc;
use std::time::Instant;

use speed_core::{DedupRuntime, Deduplicable, FuncDesc, TrustedLibrary};
use speed_enclave::{CostModel, Platform};
use speed_store::{ResultStore, StoreConfig};
use speed_wire::SessionAuthority;
use speed_workloads::{EvolutionConfig, EvolvingCorpus};

/// Builds one document's index entry: tokenize, count, compress.
fn build_index_entry(document: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(document);
    let counts = speed_mapreduce::bag_of_words(
        &[text.into_owned()],
        &speed_mapreduce::BowConfig::default(),
    );
    let serialized = speed_mapreduce::counts_to_bytes(&counts);
    speed_deflate::compress(&serialized, speed_deflate::Level::Default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::new(CostModel::default_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default())?);
    let authority = Arc::new(SessionAuthority::new());

    let mut indexer_lib = TrustedLibrary::new("indexer", "2.1");
    indexer_lib.register("Entry build_index_entry(Doc)", b"tokenize+count+deflate v2.1");

    let runtime = DedupRuntime::builder(Arc::clone(&platform), b"index-builder")
        .in_process_store(Arc::clone(&store), Arc::clone(&authority))
        .trusted_library(indexer_lib)
        .build()?;

    let dedup_index = Deduplicable::new(
        &runtime,
        FuncDesc::new("indexer", "2.1", "Entry build_index_entry(Doc)"),
        |doc: &Vec<u8>| build_index_entry(doc),
    )?;

    let mut corpus = EvolvingCorpus::new(
        EvolutionConfig { documents: 120, document_bytes: 8192, churn: 0.1 },
        2024,
    );

    println!("indexing {} documents across 5 epochs (10% churn/epoch)\n", 120);
    let mut previous_hits = 0u64;
    for epoch in 0..5 {
        let start = Instant::now();
        let mut index_bytes = 0usize;
        for document in corpus.documents() {
            let entry = dedup_index.call(&document.clone())?;
            index_bytes += entry.len();
        }
        let stats = runtime.stats();
        let epoch_hits = stats.hits - previous_hits;
        previous_hits = stats.hits;
        println!(
            "epoch {epoch}: rebuilt full index ({} KB) in {:?} — {} of 120 \
             entries reused{}",
            index_bytes / 1024,
            start.elapsed(),
            epoch_hits,
            if epoch == 0 { " (cold)" } else { "" },
        );
        corpus.advance();
    }

    let stats = runtime.stats();
    println!(
        "\ntotals: {} index builds, {} reused ({:.0}%), {} recomputed",
        stats.calls,
        stats.hits,
        stats.hits as f64 / stats.calls as f64 * 100.0,
        stats.misses
    );
    println!(
        "store grew to {} entries / {} ciphertext bytes",
        store.stats().entries,
        store.stats().stored_bytes
    );
    Ok(())
}
