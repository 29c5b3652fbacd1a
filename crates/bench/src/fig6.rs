//! Fig. 6 — throughput of the encrypted `ResultStore`'s two operations
//! (GET and PUT), with and without SGX, for result sizes 1 KB–1 MB.
//!
//! "Fig. 6 shows the time cost of processing 100 times of each operation
//! at ResultStore, where the incoming data are all different. […] the
//! speed of each operation with SGX is much slower when facing a small
//! sized result […] and the gap is getting smaller with the growth of
//! result size."

use speed_enclave::CostModel;
use speed_store::StoreConfig;
use speed_wire::{AppId, BatchItem, BatchStatus, CompTag, Record};

use crate::apps::DedupEnv;
use crate::harness::{fmt_bytes, fmt_duration, measure, render_timings, Timing};
use crate::report::{one, status};

/// The paper's result sizes.
pub const SIZES: [usize; 4] = [1 << 10, 10 << 10, 100 << 10, 1 << 20];

/// Operations per measured batch (the paper uses 100).
pub const OPS: usize = 100;

/// One measured point.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Result size in bytes.
    pub size: usize,
    /// Time for 100 PUTs with SGX.
    pub put_sgx: Timing,
    /// Time for 100 GETs with SGX.
    pub get_sgx: Timing,
    /// Time for 100 PUTs without SGX.
    pub put_plain: Timing,
    /// Time for 100 GETs without SGX.
    pub get_plain: Timing,
}

/// How many times slower the SGX run is, by SGX estimates.
fn overhead(sgx: Timing, plain: Timing) -> f64 {
    sgx.sgx_estimate().as_secs_f64() / plain.sgx_estimate().as_secs_f64().max(1e-12)
}

fn record_of(size: usize, fill: u8) -> Record {
    Record {
        challenge: vec![fill; 32],
        wrapped_key: [fill; 16],
        nonce: [fill; 12],
        boxed_result: vec![fill; size],
    }
}

fn tag_of(i: usize, round: u8) -> CompTag {
    let mut bytes = [round; 32];
    bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
    CompTag::from_bytes(bytes)
}

fn run_one(model: CostModel, size: usize) -> (Timing, Timing) {
    let env = DedupEnv::with_store_config(model, StoreConfig::default());
    let store = &env.store;

    // 100 PUTs of all-different records, each a batch of one.
    let (_, put_time) = measure(&env.platform, || {
        for i in 0..OPS {
            let put = BatchItem::Put {
                tag: tag_of(i, 1),
                record: record_of(size, (i % 251) as u8),
            };
            let response = store.handle(one(AppId(1), put));
            assert_eq!(status(&response), Some(BatchStatus::Accepted));
        }
    });

    // 100 GETs of those records.
    let (_, get_time) = measure(&env.platform, || {
        for i in 0..OPS {
            let response =
                store.handle(one(AppId(2), BatchItem::Get { tag: tag_of(i, 1) }));
            assert_eq!(status(&response), Some(BatchStatus::Found));
        }
    });
    (put_time, get_time)
}

/// Runs the full Fig. 6 sweep.
pub fn run() -> Vec<Fig6Row> {
    SIZES
        .iter()
        .map(|&size| {
            let (put_sgx, get_sgx) = run_one(CostModel::default_sgx(), size);
            let (put_plain, get_plain) = run_one(CostModel::no_sgx(), size);
            Fig6Row { size, put_sgx, get_sgx, put_plain, get_plain }
        })
        .collect()
}

/// Renders the figure data (time per 100 operations): one row per size and
/// operation, with the SGX run's wall, modeled and SGX-estimate times, the
/// run without SGX (which accrues no modeled time), and the overhead.
pub fn render(rows: &[Fig6Row]) -> String {
    let mut table_rows = Vec::new();
    for row in rows {
        for (op, sgx, plain) in
            [("PUT", row.put_sgx, row.put_plain), ("GET", row.get_sgx, row.get_plain)]
        {
            let extra = vec![
                fmt_duration(plain.sgx_estimate()),
                format!("{:.2}x", overhead(sgx, plain)),
            ];
            table_rows.push((vec![fmt_bytes(row.size), op.to_string()], sgx, extra));
        }
    }
    format!(
        "Fig. 6 — ResultStore: time per {OPS} operations (SGX run: wall, modeled, SGX est.)\n{}",
        render_timings(&["size", "op"], &["no SGX", "overhead"], table_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sgx_is_slower_and_gap_narrows() {
        let small = {
            let (put_sgx, get_sgx) = run_one(CostModel::default_sgx(), 1 << 10);
            let (put_plain, get_plain) = run_one(CostModel::no_sgx(), 1 << 10);
            Fig6Row { size: 1 << 10, put_sgx, get_sgx, put_plain, get_plain }
        };
        // With SGX both ops carry world-switch cost.
        assert!(small.put_sgx.sgx_estimate() > small.put_plain.sgx_estimate());
        assert!(small.get_sgx.sgx_estimate() > small.get_plain.sgx_estimate());

        let large = {
            let (put_sgx, get_sgx) = run_one(CostModel::default_sgx(), 1 << 20);
            let (put_plain, get_plain) = run_one(CostModel::no_sgx(), 1 << 20);
            Fig6Row { size: 1 << 20, put_sgx, get_sgx, put_plain, get_plain }
        };
        // Relative gap narrows as the result grows (paper's observation).
        let rel = |row: &Fig6Row| overhead(row.get_sgx, row.get_plain);
        assert!(
            rel(&large) < rel(&small),
            "gap did not narrow: small {:.2} large {:.2}",
            rel(&small),
            rel(&large)
        );
    }

    #[test]
    fn render_mentions_all_sizes() {
        let wall =
            |us| Timing { wall: Duration::from_micros(us), modeled: Duration::ZERO };
        let rows = vec![Fig6Row {
            size: 1 << 10,
            put_sgx: Timing {
                wall: Duration::from_micros(1500),
                modeled: Duration::from_micros(500),
            },
            get_sgx: wall(1000),
            put_plain: wall(500),
            get_plain: wall(300),
        }];
        let text = render(&rows);
        assert!(text.contains("1KB"));
        assert!(text.contains("PUT"));
        assert!(text.contains("4.00x"));
    }
}
