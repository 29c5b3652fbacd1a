//! The four evaluation applications (§V-A), wired for deduplication.
//!
//! Each app exposes three things the experiments need:
//! an input generator (seeded, size-parameterized), the raw computation
//! (`bytes → bytes`, deterministic), and the [`speed_core::FuncDesc`]
//! under which it is marked deduplicable.

use std::sync::{Arc, OnceLock};

use speed_core::{DedupMode, DedupRuntime, FuncDesc, TrustedLibrary};
use speed_enclave::{CostModel, Platform};
use speed_matcher::RuleSet;
use speed_store::{ResultStore, StoreConfig};
use speed_wire::SessionAuthority;
use speed_workloads::{images, packets, pages, rules, text};

/// Which of the paper's four use cases an experiment runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// Use case 1: SIFT feature extraction via `libsiftpp`.
    Sift,
    /// Use case 2: data compression via `zlib`.
    Deflate,
    /// Use case 3: pattern matching via `libpcre` + Snort rules.
    Match,
    /// Use case 4: BoW computation via `mapreduce`.
    Bow,
}

impl App {
    /// All four applications, in the paper's Fig. 5 order.
    pub const ALL: [App; 4] = [App::Sift, App::Deflate, App::Match, App::Bow];

    /// Display name matching the paper's figure captions.
    pub fn name(&self) -> &'static str {
        match self {
            App::Sift => "feature extraction (libsiftpp)",
            App::Deflate => "data compression (zlib)",
            App::Match => "pattern matching (libpcre)",
            App::Bow => "BoW computation (mapreduce)",
        }
    }

    /// The paper's Fig. 4 function description for this app.
    pub fn desc(&self) -> FuncDesc {
        match self {
            App::Sift => FuncDesc::new("libsiftpp", "0.8.1", "Keypoints sift(Image)"),
            App::Deflate => FuncDesc::new("zlib", "1.2.11", "int deflate(...)"),
            App::Match => {
                FuncDesc::new("libpcre", "8.40", "int pcre_exec(rules-v3700, ...)")
            }
            App::Bow => FuncDesc::new("mapreduce", "1.0", "Counts bow_mapper(Pages)"),
        }
    }

    /// Human-readable label for an input of `size` "units" (bytes, pixels,
    /// packets, or pages depending on the app).
    pub fn size_label(&self, size: usize) -> String {
        match self {
            App::Sift => format!("{size}px"),
            App::Deflate => crate::harness::fmt_bytes(size),
            App::Match => format!("{size}pkt"),
            App::Bow => format!("{size}pg"),
        }
    }

    /// The input-size sweep used for Fig. 5 (kept laptop-friendly; the
    /// paper sweeps analogous ranges on server hardware).
    pub fn fig5_sizes(&self) -> Vec<usize> {
        match self {
            App::Sift => vec![96, 128, 192, 256],
            App::Deflate => vec![64 << 10, 256 << 10, 1 << 20, 4 << 20],
            App::Match => vec![50, 150, 450, 1350],
            App::Bow => vec![75, 225, 675, 2025],
        }
    }

    /// Generates one serialized input of `size` units.
    pub fn generate_input(&self, size: usize, seed: u64) -> Vec<u8> {
        match self {
            App::Sift => images::image_to_bytes(&images::synthetic_image(size, seed)),
            App::Deflate => text::synthetic_text(size, seed).into_bytes(),
            App::Match => {
                let sigs = rules::signatures(&match_rule_corpus());
                let trace = packets::packet_trace(
                    &packets::TraceConfig {
                        count: size,
                        malicious_ratio: 0.05,
                        signatures: sigs,
                        ..packets::TraceConfig::default()
                    },
                    seed,
                );
                packets::batch_payload(&trace)
            }
            App::Bow => {
                let corpus = pages::page_corpus(size, 200, seed);
                let mut out = Vec::new();
                out.extend_from_slice(&(corpus.len() as u32).to_le_bytes());
                for page in corpus {
                    out.extend_from_slice(&(page.len() as u32).to_le_bytes());
                    out.extend_from_slice(page.as_bytes());
                }
                out
            }
        }
    }

    /// The raw computation, `input bytes → result bytes`. Deterministic —
    /// the contract SPEED requires of marked functions.
    pub fn compute(&self, input: &[u8]) -> Vec<u8> {
        match self {
            App::Sift => {
                let image = images::image_from_bytes(input).expect("valid image input");
                let features =
                    speed_sift::sift(&image, &speed_sift::SiftParams::default());
                speed_sift::features_to_bytes(&features)
            }
            App::Deflate => speed_deflate::compress(input, speed_deflate::Level::Default),
            App::Match => {
                let ruleset = match_ruleset();
                let mut matches_out = Vec::new();
                let mut count = 0u32;
                let mut pos = 0usize;
                let mut packet_idx = 0u32;
                while pos + 4 <= input.len() {
                    let len = u32::from_le_bytes(
                        input[pos..pos + 4].try_into().expect("sized"),
                    ) as usize;
                    pos += 4;
                    let end = (pos + len).min(input.len());
                    for m in ruleset.scan(&input[pos..end]) {
                        matches_out.extend_from_slice(&packet_idx.to_le_bytes());
                        matches_out.extend_from_slice(&m.rule_id.to_le_bytes());
                        count += 1;
                    }
                    pos = end;
                    packet_idx += 1;
                }
                let mut out = count.to_le_bytes().to_vec();
                out.extend_from_slice(&matches_out);
                out
            }
            App::Bow => {
                let mut docs = Vec::new();
                if input.len() >= 4 {
                    let count = u32::from_le_bytes(input[..4].try_into().expect("sized"))
                        as usize;
                    let mut pos = 4usize;
                    for _ in 0..count {
                        if pos + 4 > input.len() {
                            break;
                        }
                        let len = u32::from_le_bytes(
                            input[pos..pos + 4].try_into().expect("sized"),
                        ) as usize;
                        pos += 4;
                        let end = (pos + len).min(input.len());
                        docs.push(String::from_utf8_lossy(&input[pos..end]).into_owned());
                        pos = end;
                    }
                }
                let counts = speed_mapreduce::bag_of_words(
                    &docs,
                    &speed_mapreduce::BowConfig::default(),
                );
                speed_mapreduce::counts_to_bytes(&counts)
            }
        }
    }
}

/// Rule corpus shared by every pattern-matching experiment: 3,500 literal +
/// 200 regex rules — the paper's ">3,700 patterns from Snort rules".
pub fn match_rule_corpus() -> Vec<speed_matcher::Rule> {
    rules::rule_corpus(3500, 200, 0xC0DE)
}

fn match_ruleset() -> &'static RuleSet {
    static RULESET: OnceLock<RuleSet> = OnceLock::new();
    RULESET.get_or_init(|| {
        RuleSet::compile(match_rule_corpus()).expect("generated rules compile")
    })
}

/// A complete deduplication environment: platform, store, authority, and a
/// trusted-library registry covering all four applications.
pub struct DedupEnv {
    /// The (co-located) platform.
    pub platform: Arc<Platform>,
    /// The shared encrypted result store.
    pub store: Arc<ResultStore>,
    /// The attestation/session authority.
    pub authority: Arc<SessionAuthority>,
}

impl DedupEnv {
    /// Creates an environment with the given SGX cost model.
    pub fn new(model: CostModel) -> DedupEnv {
        DedupEnv::with_store_config(model, StoreConfig::default())
    }

    /// Creates an environment with a custom store configuration.
    pub fn with_store_config(model: CostModel, config: StoreConfig) -> DedupEnv {
        let platform = Platform::new(model);
        let store =
            Arc::new(ResultStore::new(&platform, config).expect("store fits in epc"));
        let authority = Arc::new(SessionAuthority::new());
        DedupEnv { platform, store, authority }
    }

    /// The trusted library set covering all four use cases.
    pub fn trusted_libraries() -> Vec<TrustedLibrary> {
        let mut sift = TrustedLibrary::new("libsiftpp", "0.8.1");
        sift.register("Keypoints sift(Image)", b"speed-sift pipeline v1");
        let mut zlib = TrustedLibrary::new("zlib", "1.2.11");
        zlib.register("int deflate(...)", b"speed-deflate lz77+huffman v1");
        let mut pcre = TrustedLibrary::new("libpcre", "8.40");
        pcre.register(
            "int pcre_exec(rules-v3700, ...)",
            b"speed-matcher aho-corasick+regex v1 rules seed 0xC0DE 3500+200",
        );
        let mut mapreduce = TrustedLibrary::new("mapreduce", "1.0");
        mapreduce.register("Counts bow_mapper(Pages)", b"speed-mapreduce bow v1");
        vec![sift, zlib, pcre, mapreduce]
    }

    /// Builds an application runtime connected to this environment's store.
    pub fn runtime(&self, app_code: &[u8]) -> Arc<DedupRuntime> {
        self.runtime_with(app_code, DedupMode::CrossApp)
    }

    /// Builds a runtime with an explicit result-protection mode.
    pub fn runtime_with(&self, app_code: &[u8], mode: DedupMode) -> Arc<DedupRuntime> {
        let mut builder = DedupRuntime::builder(Arc::clone(&self.platform), app_code)
            .in_process_store(Arc::clone(&self.store), Arc::clone(&self.authority))
            .mode(mode);
        for library in DedupEnv::trusted_libraries() {
            builder = builder.trusted_library(library);
        }
        builder.build().expect("runtime construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speed_core::DedupOutcome;

    #[test]
    fn all_apps_compute_deterministically() {
        for app in App::ALL {
            let size = app.fig5_sizes()[0];
            let input = app.generate_input(size, 1);
            assert_eq!(app.compute(&input), app.compute(&input), "{app:?}");
            // Result should be nonempty for every app on these inputs.
            assert!(!app.compute(&input).is_empty(), "{app:?}");
        }
    }

    #[test]
    fn all_apps_dedup_end_to_end() {
        let env = DedupEnv::new(CostModel::default_sgx());
        for app in App::ALL {
            let runtime = env.runtime(format!("test-{app:?}").as_bytes());
            let identity = runtime.resolve(&app.desc()).expect("registered");
            let input = app.generate_input(app.fig5_sizes()[0], 2);

            let (result1, outcome1) = runtime
                .execute_raw(&identity, &input, |bytes| app.compute(bytes))
                .unwrap();
            assert_eq!(outcome1, DedupOutcome::Miss, "{app:?}");

            let (result2, outcome2) =
                runtime.execute_raw(&identity, &input, |_| panic!("must dedup")).unwrap();
            assert_eq!(outcome2, DedupOutcome::Hit, "{app:?}");
            assert_eq!(result1, result2, "{app:?}");
        }
    }

    #[test]
    fn match_app_finds_planted_signatures() {
        let app = App::Match;
        let input = app.generate_input(200, 3);
        let result = app.compute(&input);
        let count = u32::from_le_bytes(result[..4].try_into().unwrap());
        assert!(count > 0, "no signatures detected in 200 packets");
    }

    #[test]
    fn input_sizes_scale_results() {
        let app = App::Deflate;
        let small = app.generate_input(64 << 10, 4);
        let large = app.generate_input(1 << 20, 4);
        assert!(large.len() > small.len() * 10);
    }
}
