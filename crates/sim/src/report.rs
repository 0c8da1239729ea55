//! Reporting helpers: normalization, geometric means, and the TSV tables
//! the figure harnesses print (the moral equivalent of the artifact's
//! plot scripts).

use crate::runner::RunTiming;
use crate::SimResult;
use scc_isa::json::escape;

/// Geometric mean of a sequence of positive ratios.
///
/// Returns 1.0 for an empty input (the identity of normalization).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "geomean requires positive values, got {v}");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// `new / base` as a ratio (normalized execution time, energy, …).
pub fn normalized(base: f64, new: f64) -> f64 {
    assert!(base > 0.0, "normalization base must be positive");
    new / base
}

/// Speedup of `new` over `base` in percent (positive = faster).
pub fn speedup_pct(base_cycles: u64, new_cycles: u64) -> f64 {
    100.0 * (base_cycles as f64 / new_cycles as f64 - 1.0)
}

/// Micro-op count reduction in percent (positive = fewer micro-ops).
pub fn reduction_pct(base: u64, new: u64) -> f64 {
    100.0 * (1.0 - new as f64 / base as f64)
}

/// A simple aligned table writer for figure output.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Version of the `BENCH_throughput.json` document layout. Bump when a
/// field changes meaning or moves, so trajectory tooling comparing
/// snapshots across commits can refuse apples-to-oranges diffs. Version
/// history: 1 = untagged (no meta object), 2 = adds `schema_version` and
/// `git_rev`.
pub const THROUGHPUT_SCHEMA_VERSION: u32 = 2;

/// Renders per-run, per-workload, and aggregate simulation throughput
/// (simulated micro-ops per host second) as a JSON document — the payload
/// of `results/BENCH_throughput.json`.
///
/// The header tags the snapshot with [`THROUGHPUT_SCHEMA_VERSION`] and
/// `git_rev` (the source revision the binary was built from, or
/// `"unknown"`), so sequences of committed snapshots are comparable.
/// Cache hits are listed per run but excluded from the throughput rates,
/// since they cost no simulation time.
pub fn throughput_json(timings: &[RunTiming], git_rev: &str) -> String {
    let mut out = format!(
        "{{\n  \"schema_version\": {THROUGHPUT_SCHEMA_VERSION},\n  \"git_rev\": \"{}\",\n  \
         \"runs\": [\n",
        escape(git_rev),
    );
    for (i, t) in timings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"level\": \"{}\", \"wall_secs\": {:.6}, \
             \"uops\": {}, \"uops_per_sec\": {:.1}, \"cached\": {}}}{}\n",
            escape(&t.workload),
            escape(t.level),
            t.wall_secs(),
            t.uops,
            t.uops_per_sec(),
            t.cached,
            if i + 1 < timings.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"per_workload\": [\n");
    // Group fresh runs by workload, preserving first-seen order.
    let mut names: Vec<&str> = Vec::new();
    for t in timings {
        if !names.contains(&t.workload.as_str()) {
            names.push(&t.workload);
        }
    }
    for (i, name) in names.iter().enumerate() {
        let fresh: Vec<&RunTiming> =
            timings.iter().filter(|t| t.workload == *name && !t.cached).collect();
        let secs: f64 = fresh.iter().map(|t| t.wall_secs()).sum();
        let uops: u64 = fresh.iter().map(|t| t.uops).sum();
        let rate = if secs > 0.0 { uops as f64 / secs } else { 0.0 };
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"runs\": {}, \"wall_secs\": {:.6}, \
             \"uops\": {}, \"uops_per_sec\": {:.1}}}{}\n",
            escape(name),
            fresh.len(),
            secs,
            uops,
            rate,
            if i + 1 < names.len() { "," } else { "" },
        ));
    }
    let fresh: Vec<&RunTiming> = timings.iter().filter(|t| !t.cached).collect();
    let secs: f64 = fresh.iter().map(|t| t.wall_secs()).sum();
    let uops: u64 = fresh.iter().map(|t| t.uops).sum();
    let rate = if secs > 0.0 { uops as f64 / secs } else { 0.0 };
    out.push_str(&format!(
        "  ],\n  \"aggregate\": {{\"runs\": {}, \"cached_hits\": {}, \"wall_secs\": {:.6}, \
         \"uops\": {}, \"uops_per_sec\": {:.1}}}\n}}\n",
        fresh.len(),
        timings.len() - fresh.len(),
        secs,
        uops,
        rate,
    ));
    out
}

/// Summarizes a set of per-workload results against their baselines,
/// returning `(mean speedup %, max speedup %, mean uop reduction %)`.
pub fn summarize(pairs: &[(&SimResult, &SimResult)]) -> (f64, f64, f64) {
    let speedups: Vec<f64> =
        pairs.iter().map(|(b, n)| b.cycles() as f64 / n.cycles() as f64).collect();
    let mean = (geomean(speedups.iter().copied()) - 1.0) * 100.0;
    let max = pairs
        .iter()
        .map(|(b, n)| speedup_pct(b.cycles(), n.cycles()))
        .fold(f64::MIN, f64::max);
    let red = pairs
        .iter()
        .map(|(b, n)| reduction_pct(b.uops(), n.uops()))
        .sum::<f64>()
        / pairs.len().max(1) as f64;
    (mean, max, red)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean([1.0, 0.0]);
    }

    #[test]
    fn ratios() {
        assert!((normalized(200.0, 150.0) - 0.75).abs() < 1e-12);
        assert!((speedup_pct(120, 100) - 20.0).abs() < 1e-12);
        assert!((reduction_pct(100, 92) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["bench", "speedup"]);
        t.row(&["xalancbmk".into(), "1.18".into()]);
        t.row(&["gcc".into(), "1.04".into()]);
        let s = t.render();
        assert!(s.starts_with("bench"));
        assert!(s.contains("xalancbmk  1.18"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_validates_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    /// A log entry spanning `wall_us` microseconds on worker 0.
    fn timing(workload: &str, level: &'static str, wall_us: u64, uops: u64) -> RunTiming {
        RunTiming {
            workload: workload.into(),
            level,
            uops,
            cached: wall_us == 0,
            worker: 0,
            start_us: 5,
            end_us: 5 + wall_us,
            request: None,
        }
    }

    #[test]
    fn throughput_json_aggregates_fresh_runs_only() {
        let timings = vec![
            timing("gcc", "baseline", 2_000_000, 1_000_000),
            timing("gcc", "full-scc", 0, 900_000),
            timing("mcf", "baseline", 2_000_000, 3_000_000),
        ];
        let j = throughput_json(&timings, "abc123def456");
        assert!(j.starts_with(&format!(
            "{{\n  \"schema_version\": {THROUGHPUT_SCHEMA_VERSION},\n  \"git_rev\": \"abc123def456\","
        )));
        assert!(j.contains("\"aggregate\": {\"runs\": 2, \"cached_hits\": 1"));
        // 4M uops over 4 seconds of fresh simulation.
        assert!(j.contains("\"wall_secs\": 4.000000, \"uops\": 4000000, \"uops_per_sec\": 1000000.0"));
        assert!(j.contains("\"workload\": \"gcc\", \"runs\": 1"));
    }

    #[test]
    fn run_timing_rate() {
        let t = timing("x", "baseline", 2_000_000, 10);
        assert_eq!(t.wall_secs(), 2.0);
        assert_eq!(t.uops_per_sec(), 5.0);
        let hit = timing("x", "baseline", 0, 10);
        assert_eq!((hit.wall_secs(), hit.uops_per_sec()), (0.0, 0.0));
    }
}
