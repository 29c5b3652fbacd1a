//! Fig. 5 — relative running time of the four applications in three cases:
//! baseline (no SPEED), initial computation (miss + publish), and
//! subsequent computation (dedup hit).

use speed_enclave::CostModel;

use crate::apps::{App, DedupEnv};
use crate::harness::{measure, render_timings, Timing};

/// One measured point of a Fig. 5 sub-figure. The relative times compare
/// SGX estimates (wall + modeled).
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Input size label (px / bytes / packets / pages).
    pub size: String,
    /// Running time without SPEED.
    pub baseline: Timing,
    /// Running time of the initial computation with SPEED.
    pub initial: Timing,
    /// Running time of the subsequent computation with SPEED.
    pub subsequent: Timing,
}

impl Fig5Row {
    /// Initial computation relative to baseline (1.0 = same, >1 = slower),
    /// i.e. the paper's "Init. Comp." bar height.
    pub fn initial_relative(&self) -> f64 {
        relative(self.initial, self.baseline)
    }

    /// Subsequent computation relative to baseline — the "Subsq. Comp."
    /// bar height.
    pub fn subsequent_relative(&self) -> f64 {
        relative(self.subsequent, self.baseline)
    }

    /// The dedup speedup (baseline / subsequent) the paper headlines.
    pub fn speedup(&self) -> f64 {
        relative(self.baseline, self.subsequent)
    }
}

fn relative(a: Timing, b: Timing) -> f64 {
    a.sgx_estimate().as_secs_f64() / b.sgx_estimate().as_secs_f64()
}

/// Runs one Fig. 5 sub-figure for `app`, averaging `trials` runs per point.
pub fn run(app: App, trials: usize) -> Vec<Fig5Row> {
    let env = DedupEnv::new(CostModel::default_sgx());
    let runtime = env.runtime(b"fig5-application");
    let identity = runtime.resolve(&app.desc()).expect("app registered");
    let baseline_enclave =
        env.platform.create_enclave(b"fig5-baseline-application").expect("epc space");

    let mut rows = Vec::new();
    for size in app.fig5_sizes() {
        // Distinct input per trial; a trial's input is reused across the
        // three cases so they compute the same thing.
        let inputs: Vec<Vec<u8>> = (0..trials)
            .map(|t| app.generate_input(size, (size as u64) << 8 | t as u64))
            .collect();

        // Baseline: the ported application without SPEED — the function
        // simply runs inside its enclave.
        let mut baseline = Timing::default();
        for input in &inputs {
            let (_, elapsed) = measure(&env.platform, || {
                baseline_enclave.ecall("app_main", || app.compute(input))
            });
            baseline += elapsed;
        }

        // Initial computation: first time each input is seen (miss +
        // encrypt + synchronous PUT, like the paper's prototype default).
        let mut initial = Timing::default();
        for input in &inputs {
            let (_, elapsed) = measure(&env.platform, || {
                runtime
                    .execute_raw(&identity, input, |bytes| app.compute(bytes))
                    .expect("store reachable")
            });
            initial += elapsed;
        }

        // Subsequent computation: the same inputs again — every call is a
        // verified dedup hit.
        let mut subsequent = Timing::default();
        for input in &inputs {
            let (result, elapsed) = measure(&env.platform, || {
                runtime
                    .execute_raw(&identity, input, |_| {
                        panic!("subsequent computation must not execute")
                    })
                    .expect("store reachable")
            });
            assert_eq!(result.1, speed_core::DedupOutcome::Hit);
            subsequent += elapsed;
        }

        rows.push(Fig5Row {
            size: app.size_label(size),
            baseline: baseline / trials as u32,
            initial: initial / trials as u32,
            subsequent: subsequent / trials as u32,
        });
    }
    rows
}

/// Renders a sub-figure in the paper's terms (percent of baseline), with
/// the bar chart the figure shows: full scale is the 100% baseline line.
/// Each case gets one row with its wall, modeled and SGX-estimate times.
pub fn render(app: App, rows: &[Fig5Row]) -> String {
    let mut table_rows = Vec::new();
    for row in rows {
        let cases = [
            ("baseline", row.baseline, "100%".to_string(), "-".to_string()),
            (
                "Init. Comp.",
                row.initial,
                format!("{:.1}%", row.initial_relative() * 100.0),
                "-".to_string(),
            ),
            (
                "Subsq. Comp.",
                row.subsequent,
                format!("{:.2}%", row.subsequent_relative() * 100.0),
                format!("{:.0}x", row.speedup()),
            ),
        ];
        for (case, timing, relative, speedup) in cases {
            let labels = vec![row.size.clone(), case.to_string()];
            table_rows.push((labels, timing, vec![relative, speedup]));
        }
    }
    let mut bars = Vec::new();
    for row in rows {
        bars.push((format!("{} init ", row.size), row.initial_relative()));
        bars.push((format!("{} subsq", row.size), row.subsequent_relative()));
    }
    format!(
        "Fig. 5 — {}\n(baseline = 100% of its SGX estimate)\n{}\n{}(bar full scale = baseline; `>` = exceeds baseline)",
        app.name(),
        render_timings(&["input", "case"], &["vs baseline", "speedup"], table_rows),
        crate::harness::render_bars(&bars, 1.0, 40),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sift_dedup_wins_big() {
        // One small point, one trial: the shape must already show.
        let rows = run(App::Sift, 1);
        let first = &rows[0];
        assert!(first.speedup() > 5.0, "sift speedup only {:.1}x", first.speedup());
        // Initial computation overhead is small for slow functions.
        assert!(first.initial_relative() < 1.5);
    }

    #[test]
    fn render_contains_all_rows() {
        let wall =
            |ms| Timing { wall: Duration::from_millis(ms), modeled: Duration::ZERO };
        let rows = vec![Fig5Row {
            size: "64px".into(),
            baseline: wall(100),
            initial: wall(102),
            subsequent: Timing {
                wall: Duration::from_millis(1),
                modeled: Duration::from_millis(1),
            },
        }];
        let text = render(App::Sift, &rows);
        assert!(text.contains("64px"));
        assert!(text.contains("50x"));
        assert!(text.contains("102.0%"));
        assert!(text.contains("SGX est."));
    }
}
