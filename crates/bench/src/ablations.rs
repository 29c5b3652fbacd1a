//! Ablation experiments for the design choices DESIGN.md calls out.
//!
//! 1. **RCE vs single key** (§III-B vs §III-C): what does keyless
//!    cross-application sharing cost per call?
//! 2. **World-switch cost sensitivity**: how does store latency scale as
//!    ECALL/OCALL costs grow (the HotCalls/Eleos motivation)?
//! 3. **In-process vs TCP transport**: what does the dedicated-server
//!    deployment cost per GET?

use std::sync::Arc;

use speed_core::{DedupMode, DedupOutcome};
use speed_crypto::Key128;
use speed_enclave::{CostModel, Platform};
use speed_store::server::{StoreServer, TcpStoreClient};
use speed_store::{ResultStore, StoreConfig};
use speed_wire::{AppId, BatchItem, BatchStatus, CompTag, Record, SessionAuthority};

use crate::apps::{App, DedupEnv};
use crate::harness::{measure, render_timings, Timing};
use crate::report::{one, status};

/// Result of the protection-scheme ablation.
#[derive(Clone, Debug)]
pub struct RceAblation {
    /// Mean initial-computation time under cross-app RCE.
    pub rce_initial: Timing,
    /// Mean subsequent-computation time under cross-app RCE.
    pub rce_subsequent: Timing,
    /// Mean initial-computation time under the single-key scheme.
    pub single_initial: Timing,
    /// Mean subsequent-computation time under the single-key scheme.
    pub single_subsequent: Timing,
    /// Mean initial-computation time under deterministic convergent
    /// encryption.
    pub convergent_initial: Timing,
    /// Mean subsequent-computation time under convergent encryption.
    pub convergent_subsequent: Timing,
}

/// Measures RCE vs single-key per-call cost on the compression app.
pub fn rce_vs_single_key(trials: usize) -> RceAblation {
    let app = App::Deflate;
    let size = 256 << 10;

    let run_mode = |mode: DedupMode| -> (Timing, Timing) {
        let env = DedupEnv::new(CostModel::default_sgx());
        let runtime = env.runtime_with(b"ablation-rce", mode);
        let identity = runtime.resolve(&app.desc()).expect("registered");
        let mut initial = Timing::default();
        let mut subsequent = Timing::default();
        for t in 0..trials {
            let input = app.generate_input(size, 0xAB << 8 | t as u64);
            let (_, init_elapsed) = measure(&env.platform, || {
                runtime
                    .execute_raw(&identity, &input, |bytes| app.compute(bytes))
                    .expect("store reachable")
            });
            initial += init_elapsed;
            let (outcome, subsq_elapsed) = measure(&env.platform, || {
                runtime
                    .execute_raw(&identity, &input, |_| panic!("must hit"))
                    .expect("store reachable")
                    .1
            });
            assert_eq!(outcome, DedupOutcome::Hit);
            subsequent += subsq_elapsed;
        }
        (initial / trials as u32, subsequent / trials as u32)
    };

    let (rce_initial, rce_subsequent) = run_mode(DedupMode::CrossApp);
    let (single_initial, single_subsequent) =
        run_mode(DedupMode::SingleKey(Key128::from_bytes([9u8; 16])));
    let (convergent_initial, convergent_subsequent) = run_mode(DedupMode::Convergent);
    RceAblation {
        rce_initial,
        rce_subsequent,
        single_initial,
        single_subsequent,
        convergent_initial,
        convergent_subsequent,
    }
}

/// Renders the RCE ablation.
pub fn render_rce(result: &RceAblation) -> String {
    let schemes = [
        ("cross-app RCE", result.rce_initial, result.rce_subsequent),
        ("convergent (CE)", result.convergent_initial, result.convergent_subsequent),
        ("single key", result.single_initial, result.single_subsequent),
    ];
    let mut rows = Vec::new();
    for (scheme, initial, subsequent) in schemes {
        for (case, timing) in [("Init. Comp.", initial), ("Subsq. Comp.", subsequent)] {
            rows.push((vec![scheme.to_string(), case.to_string()], timing, Vec::new()));
        }
    }
    format!(
        "Ablation — result protection scheme (compression, 256KB)\n{}",
        render_timings(&["scheme", "case"], &[], rows)
    )
}

/// One point of the switch-cost sensitivity sweep.
#[derive(Clone, Debug)]
pub struct SwitchPoint {
    /// Multiplier applied to the default ECALL/OCALL costs.
    pub multiplier: u64,
    /// Time for 100 1 KB GETs at that cost.
    pub get_time: Timing,
}

/// Sweeps ECALL/OCALL cost multipliers (0, 1, 4, 16×) and measures 1 KB
/// GET batches.
pub fn switch_cost_sensitivity() -> Vec<SwitchPoint> {
    [0u64, 1, 4, 16]
        .iter()
        .map(|&multiplier| {
            let base = CostModel::default_sgx();
            let model = CostModel {
                ecall_ns: base.ecall_ns * multiplier,
                ocall_ns: base.ocall_ns * multiplier,
                ..base
            };
            let env = DedupEnv::with_store_config(model, StoreConfig::default());
            for i in 0..100usize {
                let mut tag = [1u8; 32];
                tag[..8].copy_from_slice(&(i as u64).to_le_bytes());
                let record = Record {
                    challenge: vec![0; 32],
                    wrapped_key: [0; 16],
                    nonce: [0; 12],
                    boxed_result: vec![7; 1 << 10],
                };
                let put = BatchItem::Put { tag: CompTag::from_bytes(tag), record };
                env.store.handle(one(AppId(1), put));
            }
            let (_, get_time) = measure(&env.platform, || {
                for i in 0..100usize {
                    let mut tag = [1u8; 32];
                    tag[..8].copy_from_slice(&(i as u64).to_le_bytes());
                    let get = BatchItem::Get { tag: CompTag::from_bytes(tag) };
                    env.store.handle(one(AppId(2), get));
                }
            });
            SwitchPoint { multiplier, get_time }
        })
        .collect()
}

/// Renders the switch-cost sweep.
pub fn render_switch(points: &[SwitchPoint]) -> String {
    let rows = points
        .iter()
        .map(|p| (vec![format!("{}x", p.multiplier)], p.get_time, Vec::new()))
        .collect();
    format!(
        "Ablation — world-switch cost sensitivity (time per 100 GETs, 1KB)\n{}",
        render_timings(&["ECALL/OCALL cost"], &[], rows)
    )
}

/// Result of the transport ablation.
#[derive(Clone, Debug)]
pub struct TransportAblation {
    /// Mean per-GET latency through the in-process secure channel.
    pub in_process: Timing,
    /// Mean per-GET latency over loopback TCP (attested handshake, sealed
    /// frames).
    pub tcp: Timing,
}

/// Measures in-process vs TCP GET latency (1 KB records, 100 ops each).
pub fn transport_comparison() -> TransportAblation {
    let ops = 100usize;
    let record = Record {
        challenge: vec![0; 32],
        wrapped_key: [0; 16],
        nonce: [0; 12],
        boxed_result: vec![3; 1 << 10],
    };

    // Shared store, populated once.
    let platform = Platform::new(CostModel::default_sgx());
    let store = Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
    let authority = Arc::new(SessionAuthority::new());
    for i in 0..ops {
        let mut tag = [2u8; 32];
        tag[..8].copy_from_slice(&(i as u64).to_le_bytes());
        let put =
            BatchItem::Put { tag: CompTag::from_bytes(tag), record: record.clone() };
        store.handle(one(AppId(1), put));
    }

    // In-process client.
    let app_enclave = platform.create_enclave(b"transport-inproc").unwrap();
    let mut in_proc_client = speed_core::InProcessClient::connect(
        Arc::clone(&store),
        &authority,
        &platform,
        &app_enclave,
    )
    .unwrap();
    use speed_core::StoreClient;
    let (_, in_proc_total) = measure(&platform, || {
        for i in 0..ops {
            let mut tag = [2u8; 32];
            tag[..8].copy_from_slice(&(i as u64).to_le_bytes());
            let get = BatchItem::Get { tag: CompTag::from_bytes(tag) };
            let response = in_proc_client
                .roundtrip(&one(AppId(3), get))
                .expect("in-process roundtrip");
            assert_eq!(status(&response), Some(BatchStatus::Found));
        }
    });

    // TCP client over loopback.
    let server = StoreServer::spawn(
        Arc::clone(&store),
        Arc::clone(&platform),
        Arc::clone(&authority),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let tcp_enclave = platform.create_enclave(b"transport-tcp").unwrap();
    let mut tcp_client =
        TcpStoreClient::connect(server.addr(), &platform, &tcp_enclave, &authority)
            .expect("connect");
    let (_, tcp_total) = measure(&platform, || {
        for i in 0..ops {
            let mut tag = [2u8; 32];
            tag[..8].copy_from_slice(&(i as u64).to_le_bytes());
            let get = BatchItem::Get { tag: CompTag::from_bytes(tag) };
            let response =
                tcp_client.roundtrip(&one(AppId(4), get)).expect("tcp roundtrip");
            assert_eq!(status(&response), Some(BatchStatus::Found));
        }
    });
    server.shutdown();

    TransportAblation {
        in_process: in_proc_total / ops as u32,
        tcp: tcp_total / ops as u32,
    }
}

/// Renders the transport ablation.
pub fn render_transport(result: &TransportAblation) -> String {
    let rows = vec![
        (vec!["in-process".to_string()], result.in_process, Vec::new()),
        (vec!["TCP loopback".to_string()], result.tcp, Vec::new()),
    ];
    format!(
        "Ablation — store transport (latency per 1KB GET)\n{}",
        render_timings(&["transport"], &[], rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn switch_cost_is_monotonic() {
        let points = switch_cost_sensitivity();
        assert_eq!(points.len(), 4);
        // 16x switches must cost more than 0x.
        assert!(points[3].get_time.sgx_estimate() > points[0].get_time.sgx_estimate());
    }

    #[test]
    fn transport_comparison_runs() {
        let result = transport_comparison();
        assert!(result.tcp.sgx_estimate() > Duration::ZERO);
        assert!(result.in_process.sgx_estimate() > Duration::ZERO);
    }
}
