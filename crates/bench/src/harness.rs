//! Timing utilities shared by all experiments.

use std::ops::{AddAssign, Div};
use std::time::{Duration, Instant};

use speed_enclave::Platform;

/// The two parts of one measurement, kept apart: real wall-clock time, and
/// the simulated SGX overhead (world switches, boundary copies, paging)
/// that the platform clock accrued meanwhile.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Real elapsed time.
    pub wall: Duration,
    /// Simulated SGX overhead charged to the platform clock.
    pub modeled: Duration,
}

impl Timing {
    /// The SGX estimate, `wall + modeled`: what the measured work would
    /// cost on SGX hardware.
    pub fn sgx_estimate(&self) -> Duration {
        self.wall + self.modeled
    }
}

impl AddAssign for Timing {
    fn add_assign(&mut self, other: Timing) {
        self.wall += other.wall;
        self.modeled += other.modeled;
    }
}

impl Div<u32> for Timing {
    type Output = Timing;

    fn div(self, n: u32) -> Timing {
        Timing { wall: self.wall / n, modeled: self.modeled / n }
    }
}

/// Measures `f`, returning its output, its wall-clock time and the
/// simulated SGX overhead it accrued on `platform`'s clock.
pub fn measure<R>(platform: &Platform, f: impl FnOnce() -> R) -> (R, Timing) {
    let sim_before = platform.clock().total_ns();
    let start = Instant::now();
    let result = f();
    let wall = start.elapsed();
    let modeled = Duration::from_nanos(platform.clock().total_ns() - sim_before);
    (result, Timing { wall, modeled })
}

/// Pretty-prints a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// Formats a byte count like the paper's axes (1KB … 1MB).
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1024 * 1024 {
        format!("{}MB", bytes / (1024 * 1024))
    } else if bytes >= 1024 {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

/// Renders an aligned text table: header row plus data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    let divider: usize = widths.iter().sum::<usize>() + 2 * (columns - 1);
    out.push_str(&"-".repeat(divider));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out
}

/// One row of [`render_timings`]: leading label cells, a timing, and
/// trailing cells.
pub type TimingRow = (Vec<String>, Timing, Vec<String>);

/// Renders a table whose `labels` columns are followed by each row's wall,
/// modeled and SGX-estimate times, then the `extra` columns.
pub fn render_timings(labels: &[&str], extra: &[&str], rows: Vec<TimingRow>) -> String {
    let mut header = labels.to_vec();
    header.extend(["wall", "modeled", "SGX est."]);
    header.extend(extra);
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|(mut cells, timing, extra)| {
            cells.push(fmt_duration(timing.wall));
            cells.push(fmt_duration(timing.modeled));
            cells.push(fmt_duration(timing.sgx_estimate()));
            cells.extend(extra);
            cells
        })
        .collect();
    render_table(&header, &rows)
}

/// Renders horizontal ASCII bars: one row per `(label, value)`, scaled so
/// `full_scale` occupies `width` characters. Values beyond full scale are
/// clipped with a `>` marker.
pub fn render_bars(rows: &[(String, f64)], full_scale: f64, width: usize) -> String {
    let label_width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let fraction = (value / full_scale).max(0.0);
        let clipped = fraction.min(1.0);
        let filled = (clipped * width as f64).round() as usize;
        out.push_str(&format!(
            "{label:>label_width$} |{}{}{}\n",
            "█".repeat(filled),
            " ".repeat(width - filled),
            if fraction > 1.0 { ">" } else { "|" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use speed_enclave::CostModel;

    #[test]
    fn measure_includes_simulated_time() {
        let platform = Platform::new(CostModel::default_sgx());
        let enclave = platform.create_enclave(b"t").unwrap();
        let (_, timing) = measure(&platform, || {
            enclave.ecall("x", || {});
        });
        assert!(
            timing.modeled >= Duration::from_nanos(CostModel::default_sgx().ecall_ns)
        );
    }

    #[test]
    fn formatting_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_bytes(1024), "1KB");
        assert_eq!(fmt_bytes(2 * 1024 * 1024), "2MB");
        assert_eq!(fmt_bytes(100), "100B");
    }

    #[test]
    fn bars_scale_and_clip() {
        let rows = vec![
            ("half".to_string(), 0.5),
            ("full".to_string(), 1.0),
            ("over".to_string(), 1.5),
        ];
        let chart = render_bars(&rows, 1.0, 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(&"█".repeat(5)));
        assert!(lines[1].contains(&"█".repeat(10)));
        assert!(lines[2].ends_with('>'));
    }

    #[test]
    fn table_rendering_aligns() {
        let table = render_table(
            &["col", "value"],
            &[vec!["a".into(), "1".into()], vec!["long".into(), "22".into()]],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("col"));
        assert!(lines[1].starts_with('-'));
    }
}
