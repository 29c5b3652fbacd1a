//! Distributed deployments: TCP store servers shared by applications on
//! several machines, and concurrent applications.

use std::sync::Arc;

use speed_core::{DedupOutcome, DedupRuntime, FuncDesc, TrustedLibrary};
use speed_enclave::{CostModel, Platform};
use speed_store::server::StoreServer;
use speed_store::{ResultStore, StoreConfig};
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
fn dedup_over_tcp_store() {
    let platform = Platform::new(CostModel::default_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::new());
    let server = StoreServer::spawn(
        Arc::clone(&store),
        Arc::clone(&platform),
        Arc::clone(&authority),
        "127.0.0.1:0",
    )
    .unwrap();

    let make_runtime = |code: &[u8]| {
        DedupRuntime::builder(Arc::clone(&platform), code)
            .tcp_store(server.addr(), Arc::clone(&authority))
            .trusted_library(library())
            .build()
            .unwrap()
    };

    let rt_a = make_runtime(b"tcp-app-a");
    let rt_b = make_runtime(b"tcp-app-b");
    let input = b"document shipped over tcp".to_vec();

    let identity_a = rt_a.resolve(&desc()).unwrap();
    let (result_a, outcome_a) =
        rt_a.execute_raw(&identity_a, &input, |d| d.to_vec()).unwrap();
    assert_eq!(outcome_a, DedupOutcome::Miss);

    // A different process's runtime, over its own TCP connection, reuses.
    let identity_b = rt_b.resolve(&desc()).unwrap();
    let (result_b, outcome_b) =
        rt_b.execute_raw(&identity_b, &input, |_| panic!("must reuse over tcp")).unwrap();
    assert_eq!(outcome_b, DedupOutcome::Hit);
    assert_eq!(result_a, result_b);

    server.shutdown();
}

#[test]
fn two_machine_deployment_over_tcp() {
    // The paper's §V-A setup: applications on one SGX machine, the store
    // on another, connected over the network with mutual attestation.
    let app_machine = Platform::new(CostModel::default_sgx());
    let store_machine = Platform::new(CostModel::default_sgx());
    let store =
        Arc::new(ResultStore::new(&store_machine, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::new());
    let server = StoreServer::spawn(
        Arc::clone(&store),
        Arc::clone(&store_machine),
        Arc::clone(&authority),
        "127.0.0.1:0",
    )
    .unwrap();

    let rt = DedupRuntime::builder(Arc::clone(&app_machine), b"remote-app")
        .tcp_store(server.addr(), Arc::clone(&authority))
        .trusted_library(library())
        .build()
        .unwrap();
    let identity = rt.resolve(&desc()).unwrap();
    let (result, outcome) =
        rt.execute_raw(&identity, b"cross-machine input", |d| d.to_vec()).unwrap();
    assert_eq!(outcome, DedupOutcome::Miss);
    assert_eq!(result, b"cross-machine input");

    // Subsequent computation from a different app on the app machine.
    let rt2 = DedupRuntime::builder(Arc::clone(&app_machine), b"remote-app-2")
        .tcp_store(server.addr(), Arc::clone(&authority))
        .trusted_library(library())
        .build()
        .unwrap();
    let identity2 = rt2.resolve(&desc()).unwrap();
    let (_, outcome) = rt2
        .execute_raw(&identity2, b"cross-machine input", |_| panic!("must reuse"))
        .unwrap();
    assert_eq!(outcome, DedupOutcome::Hit);
    // The app machine's enclaves did the crypto; the store machine's
    // enclave served the dictionary.
    assert!(store.enclave().stats().ecalls >= 2);
    server.shutdown();
}

#[test]
fn runtimes_on_two_machines_share_one_tcp_store() {
    // Applications on two SGX machines use one store machine. Tags and
    // result keys derive from the computation alone, never from the
    // machine, so the second machine reuses the first one's result.
    let machine_1 = Platform::new(CostModel::default_sgx());
    let machine_2 = Platform::new(CostModel::default_sgx());
    let store_machine = Platform::new(CostModel::default_sgx());
    let store =
        Arc::new(ResultStore::new(&store_machine, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::new());
    let server = StoreServer::spawn(
        Arc::clone(&store),
        Arc::clone(&store_machine),
        Arc::clone(&authority),
        "127.0.0.1:0",
    )
    .unwrap();
    let runtime = |machine: &Arc<Platform>, code: &[u8]| {
        DedupRuntime::builder(Arc::clone(machine), code)
            .tcp_store(server.addr(), Arc::clone(&authority))
            .trusted_library(library())
            .build()
            .unwrap()
    };

    let rt1 = runtime(&machine_1, b"app-m1");
    let identity_1 = rt1.resolve(&desc()).unwrap();
    let (_, outcome) =
        rt1.execute_raw(&identity_1, b"shared input", |d| d.to_vec()).unwrap();
    assert_eq!(outcome, DedupOutcome::Miss);

    let rt2 = runtime(&machine_2, b"app-m2");
    let identity_2 = rt2.resolve(&desc()).unwrap();
    let (result, outcome) = rt2
        .execute_raw(&identity_2, b"shared input", |_| {
            panic!("must reuse machine 1's result")
        })
        .unwrap();
    assert_eq!(outcome, DedupOutcome::Hit);
    assert_eq!(result, b"shared input");
    assert_eq!(store.stats().entries, 1);
    server.shutdown();
}

#[test]
fn concurrent_applications_share_one_store() {
    let platform = Platform::new(CostModel::default_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::new());

    let mut handles = Vec::new();
    for worker in 0..4u64 {
        let platform = Arc::clone(&platform);
        let store = Arc::clone(&store);
        let authority = Arc::clone(&authority);
        handles.push(std::thread::spawn(move || {
            let rt =
                DedupRuntime::builder(platform, format!("worker-{worker}").as_bytes())
                    .in_process_store(store, authority)
                    .trusted_library(library())
                    .build()
                    .unwrap();
            let identity = rt.resolve(&desc()).unwrap();
            let mut hits = 0u32;
            // All workers compute the same 20 inputs.
            for round in 0..3 {
                for i in 0..20u8 {
                    let (result, outcome) = rt
                        .execute_raw(&identity, &[i], |d| {
                            d.iter().map(|b| b.wrapping_add(1)).collect()
                        })
                        .unwrap();
                    assert_eq!(result, vec![i.wrapping_add(1)]);
                    if outcome == DedupOutcome::Hit {
                        hits += 1;
                    }
                    let _ = round;
                }
            }
            hits
        }));
    }
    let total_hits: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    // 4 workers × 3 rounds × 20 inputs = 240 calls over 20 distinct
    // computations: at least the 2nd and 3rd rounds of every worker hit.
    assert!(total_hits >= 160, "only {total_hits} hits");
    assert_eq!(store.stats().entries, 20);
}
