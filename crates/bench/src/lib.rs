//! Experiment harness regenerating every table and figure of the SPEED
//! paper's evaluation (§V).
//!
//! | Paper artefact | Module | Regeneration |
//! |---|---|---|
//! | Fig. 5a–d (relative runtime of 4 apps) | [`fig5`] | `cargo run --release -p speed-bench --bin repro -- fig5a` … `fig5d` |
//! | Table I (crypto op latency) | [`table1`] | `… -- table1` |
//! | Fig. 6 (store throughput, SGX vs no SGX) | [`fig6`] | `… -- fig6` |
//! | Ablations (RCE vs single key, switch cost, transport) | [`ablations`] | `… -- ablation-…` |
//! | Shard scaling, `BENCH_shard.json` | [`shard`] | `… -- shard [--smoke]` |
//! | Durability cost and recovery, `BENCH_persist.json` | [`persist`] | `… -- persist [--smoke]` |
//! | Switchless calls and connection scaling, `BENCH_switchless.json` | [`switchless`] | `… -- switchless [--smoke]` |
//!
//! Timing model: real computation runs natively; SGX-specific overheads
//! (world switches, boundary copies, paging) accrue on the platform's
//! simulated clock. Every measurement in Fig. 5, Fig. 6 and the ablations
//! reports its wall-clock time and that modeled time side by side, next to
//! their sum, the SGX estimate ([`harness::Timing`]). Ratios compare SGX
//! estimates, so the *shape* of the paper's results (who wins, by what
//! factor, where the crossover sits) reproduces even though absolute
//! numbers come from different hardware.
//!
//! The three benches write their `BENCH_*.json` through one record
//! ([`report`]): a host block, the smoke flag, and each timed point's wall
//! and modeled time as separate fields.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod apps;
pub mod fig5;
pub mod fig6;
pub mod harness;
pub mod persist;
pub mod report;
pub mod shard;
pub mod switchless;
pub mod table1;
