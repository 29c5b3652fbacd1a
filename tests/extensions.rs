//! Integration tests for the extension features beyond the paper's
//! prototype: durable store persistence and controlled deduplication
//! (§III-D authorization).

use std::sync::Arc;

use speed_core::{DedupOutcome, DedupRuntime, FuncDesc, TrustedLibrary};
use speed_enclave::{CostModel, Platform};
use speed_store::{AccessControl, LogBackend, LogConfig, ResultStore, StoreConfig};
use speed_wire::SessionAuthority;

fn library() -> TrustedLibrary {
    let mut lib = TrustedLibrary::new("zlib", "1.2.11");
    lib.register("int deflate(...)", b"deflate code");
    lib
}

fn desc() -> FuncDesc {
    FuncDesc::new("zlib", "1.2.11", "int deflate(...)")
}

#[test]
fn store_survives_restart_via_log_backend() {
    let platform = Platform::new(CostModel::default_sgx());
    let authority = Arc::new(SessionAuthority::new());
    let input = b"document to survive a restart".to_vec();
    let dir =
        std::env::temp_dir().join(format!("speed-ext-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let backend = Arc::new(LogBackend::new(LogConfig::new(&dir)));
        Arc::new(ResultStore::open(&platform, StoreConfig::default(), backend).unwrap().0)
    };

    // Day 1: compute and publish, then "shut down".
    {
        let store = open();
        let rt = DedupRuntime::builder(Arc::clone(&platform), b"persist-app")
            .in_process_store(Arc::clone(&store), Arc::clone(&authority))
            .trusted_library(library())
            .build()
            .unwrap();
        let identity = rt.resolve(&desc()).unwrap();
        rt.execute_raw(&identity, &input, |d| {
            speed_deflate::compress(d, speed_deflate::Level::Default)
        })
        .unwrap();
    }

    // Day 2: reopen the store from its directory and reuse the result —
    // without ever recomputing.
    let restored = open();
    let rt = DedupRuntime::builder(Arc::clone(&platform), b"persist-app-reborn")
        .in_process_store(Arc::clone(&restored), Arc::clone(&authority))
        .trusted_library(library())
        .build()
        .unwrap();
    let identity = rt.resolve(&desc()).unwrap();
    let (result, outcome) = rt
        .execute_raw(&identity, &input, |_| panic!("must reuse restored result"))
        .unwrap();
    assert_eq!(outcome, DedupOutcome::Hit);
    assert_eq!(speed_deflate::decompress(&result).unwrap(), input);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unauthorized_app_cannot_even_query() {
    let platform = Platform::new(CostModel::default_sgx());
    let authority = Arc::new(SessionAuthority::new());
    let config = StoreConfig {
        access: AccessControl::Allowlist([100u64].into_iter().collect()),
        ..StoreConfig::default()
    };
    let store = Arc::new(ResultStore::new(&platform, config).unwrap());

    // Authorized application (explicit app id 100) works end to end.
    let authorized = DedupRuntime::builder(Arc::clone(&platform), b"authorized")
        .in_process_store(Arc::clone(&store), Arc::clone(&authority))
        .trusted_library(library())
        .app_id(100)
        .build()
        .unwrap();
    let identity = authorized.resolve(&desc()).unwrap();
    let (_, outcome) =
        authorized.execute_raw(&identity, b"data", |d| d.to_vec()).unwrap();
    assert_eq!(outcome, DedupOutcome::Miss);

    // Unauthorized application: the store refuses its GET, which surfaces
    // as an error — no information about stored computations leaks.
    let unauthorized = DedupRuntime::builder(Arc::clone(&platform), b"unauthorized")
        .in_process_store(Arc::clone(&store), Arc::clone(&authority))
        .trusted_library(library())
        .app_id(999)
        .build()
        .unwrap();
    let identity = unauthorized.resolve(&desc()).unwrap();
    let result = unauthorized.execute_raw(&identity, b"data", |d| d.to_vec());
    assert!(result.is_err());
}
