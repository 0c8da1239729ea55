//! Figure- and table-regeneration harness.
//!
//! One function per table/figure of the paper's evaluation; the `src/bin`
//! binaries print them, and `tests/` sanity-checks their shape (who wins,
//! roughly by how much — not absolute numbers, per DESIGN.md §4).
//!
//! Workload dynamic length is controlled by the `SCC_ITERS` environment
//! variable (default 6000 base loop iterations ≈ 0.5–2M micro-ops per
//! benchmark); simulation parallelism by `SCC_JOBS` (default: available
//! cores). Every harness takes the [`Runner`] to simulate on: harnesses
//! sharing one runner share its result cache, so runs common to several
//! figures (e.g. the 19 baselines) are simulated once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;

use scc_energy::AreaModel;
use scc_sim::report::{geomean, reduction_pct, speedup_pct, Table};
use scc_sim::runner::{Job, Runner};
use scc_sim::{OptLevel, SimOptions, SimResult};
use scc_predictors::ValuePredictorKind;
use scc_workloads::{all_workloads, Scale, Suite, Workload};
use std::sync::Arc;

/// The harness knobs that used to be ambient environment reads, as an
/// explicit config. The `SCC_ITERS` / `SCC_JOBS` environment variables
/// are consulted exactly once, by [`BenchConfig::from_env`] at each
/// binary's edge — library code (and any embedder) works only with the
/// explicit fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchConfig {
    /// Workload scale in base loop iterations (`SCC_ITERS`).
    pub scale: Scale,
    /// Worker-pool size (`SCC_JOBS`).
    pub jobs: usize,
}

impl BenchConfig {
    /// Default workload scale (≈ 0.5–2M micro-ops per benchmark).
    pub const DEFAULT_ITERS: i64 = 6000;

    /// An explicit configuration (no environment involved).
    pub fn new(scale: Scale, jobs: usize) -> BenchConfig {
        BenchConfig { scale, jobs: jobs.max(1) }
    }

    /// Resolves `SCC_ITERS` (default [`Self::DEFAULT_ITERS`]) and
    /// `SCC_JOBS` (default: available cores) — the binaries' single
    /// environment read.
    pub fn from_env() -> BenchConfig {
        let iters = std::env::var("SCC_ITERS")
            .ok()
            .and_then(|v| v.parse::<i64>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(Self::DEFAULT_ITERS);
        BenchConfig { scale: Scale::custom(iters), jobs: scc_sim::scc_jobs() }
    }

    /// A new runner sized to this config.
    pub fn runner(&self) -> Runner {
        Runner::with_jobs(self.jobs)
    }
}

/// Writes `runner`'s simulation-throughput log to
/// `results/BENCH_throughput.json` (the figure binaries call this after
/// printing their report).
pub fn emit_throughput(runner: &Runner) {
    match runner.write_throughput_json("results/BENCH_throughput.json") {
        Ok(_) => eprintln!("wrote results/BENCH_throughput.json"),
        Err(e) => eprintln!("could not write results/BENCH_throughput.json: {e}"),
    }
}

/// Runs every workload at the given levels; results indexed
/// `[workload][level]`.
pub fn run_levels(
    runner: &Runner,
    scale: Scale,
    levels: &[OptLevel],
) -> Vec<(Workload, Vec<Arc<SimResult>>)> {
    let workloads = all_workloads(scale);
    let jobs: Vec<Job> = workloads
        .iter()
        .flat_map(|w| levels.iter().map(move |&level| Job::new(w, &SimOptions::new(level))))
        .collect();
    let results = runner.run(&jobs);
    workloads
        .into_iter()
        .zip(results.chunks(levels.len()))
        .map(|(w, chunk)| (w, chunk.to_vec()))
        .collect()
}

fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

fn mean_label(suite: Option<Suite>) -> &'static str {
    match suite {
        None => "GEOMEAN(all)",
        Some(Suite::Parsec) => "GEOMEAN(parsec)",
        Some(Suite::Guest) => "GEOMEAN(guest)",
        _ => "GEOMEAN(spec)",
    }
}

fn suite_filter(w: &Workload, suite: Option<Suite>) -> bool {
    match suite {
        None => true,
        Some(Suite::Parsec) => w.suite == Suite::Parsec,
        Some(Suite::Guest) => w.suite == Suite::Guest,
        _ => w.suite.is_spec(),
    }
}

/// Figure 6 (top, middle, bottom): committed micro-op reduction,
/// normalized execution time, and squash overhead for each optimization
/// level relative to the baseline.
pub fn fig6_report(runner: &Runner, scale: Scale) -> String {
    let levels = OptLevel::all();
    let data = run_levels(runner, scale, &levels);
    let mut out = String::new();

    out.push_str("== Figure 6 (top): committed micro-op reduction vs baseline ==\n");
    let mut t = Table::new(&[
        "benchmark", "partitioned", "move-elim", "fold+prop", "branch-fold", "full-scc",
    ]);
    for (w, rs) in &data {
        let base = rs[0].uops();
        let cells: Vec<String> = (1..6)
            .map(|i| pct(reduction_pct(base, rs[i].uops())))
            .collect();
        let mut row = vec![w.name.to_string()];
        row.extend(cells);
        t.row(&row);
    }
    for suite in [Some(Suite::SpecInt), Some(Suite::Parsec), Some(Suite::Guest)] {
        let mut row = vec![mean_label(suite).to_string()];
        for i in 1..6 {
            let vals: Vec<f64> = data
                .iter()
                .filter(|(w, _)| suite_filter(w, suite))
                .map(|(_, rs)| rs[i].uops() as f64 / rs[0].uops() as f64)
                .collect();
            row.push(pct((1.0 - geomean(vals)) * 100.0));
        }
        t.row(&row);
    }
    out.push_str(&t.render());

    out.push_str("\n== Figure 6 (middle): normalized execution time (lower is better) ==\n");
    let mut t = Table::new(&[
        "benchmark", "partitioned", "move-elim", "fold+prop", "branch-fold", "full-scc",
    ]);
    for (w, rs) in &data {
        let base = rs[0].cycles() as f64;
        let mut row = vec![w.name.to_string()];
        for r in &rs[1..6] {
            row.push(format!("{:.3}", r.cycles() as f64 / base));
        }
        t.row(&row);
    }
    for suite in [Some(Suite::SpecInt), Some(Suite::Parsec), Some(Suite::Guest)] {
        let mut row = vec![mean_label(suite).to_string()];
        for i in 1..6 {
            let vals: Vec<f64> = data
                .iter()
                .filter(|(w, _)| suite_filter(w, suite))
                .map(|(_, rs)| rs[i].cycles() as f64 / rs[0].cycles() as f64)
                .collect();
            row.push(format!("{:.3}", geomean(vals)));
        }
        t.row(&row);
    }
    out.push_str(&t.render());

    out.push_str("\n== Figure 6 (bottom): squash overhead (squashed / fetched uops) ==\n");
    let mut t = Table::new(&["benchmark", "baseline", "full-scc", "scc-data", "scc-ctrl"]);
    for (w, rs) in &data {
        t.row(&[
            w.name.to_string(),
            format!("{:.3}", rs[0].stats.squash_overhead()),
            format!("{:.3}", rs[5].stats.squash_overhead()),
            format!("{}", rs[5].stats.scc_data_squashes),
            format!("{}", rs[5].stats.scc_control_squashes),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 7: micro-ops delivered by each front-end source, baseline vs
/// full SCC.
pub fn fig7_report(runner: &Runner, scale: Scale) -> String {
    let data = run_levels(runner, scale, &[OptLevel::Baseline, OptLevel::Full]);
    let mut out = String::new();
    out.push_str("== Figure 7: uops by fetch source (baseline | SCC) ==\n");
    let mut t = Table::new(&[
        "benchmark", "b.icache", "b.unopt", "s.icache", "s.unopt", "s.opt", "opt-share",
    ]);
    for (w, rs) in &data {
        let (b, s) = (&rs[0].stats, &rs[1].stats);
        let total = (s.uops_from_icache + s.uops_from_unopt + s.uops_from_opt).max(1);
        t.row(&[
            w.name.to_string(),
            b.uops_from_icache.to_string(),
            b.uops_from_unopt.to_string(),
            s.uops_from_icache.to_string(),
            s.uops_from_unopt.to_string(),
            s.uops_from_opt.to_string(),
            format!("{:.0}%", 100.0 * s.uops_from_opt as f64 / total as f64),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 8: normalized energy, baseline vs full SCC.
pub fn fig8_report(runner: &Runner, scale: Scale) -> String {
    let data = run_levels(runner, scale, &[OptLevel::Baseline, OptLevel::Full]);
    let mut out = String::new();
    out.push_str("== Figure 8: normalized energy (SCC / baseline, lower is better) ==\n");
    let mut t = Table::new(&["benchmark", "baseline mJ", "scc mJ", "normalized", "savings"]);
    for (w, rs) in &data {
        let (b, s) = (rs[0].energy_pj(), rs[1].energy_pj());
        t.row(&[
            w.name.to_string(),
            format!("{:.3}", b / 1e9),
            format!("{:.3}", s / 1e9),
            format!("{:.3}", s / b),
            pct((1.0 - s / b) * 100.0),
        ]);
    }
    for suite in [Some(Suite::SpecInt), Some(Suite::Parsec), Some(Suite::Guest), None] {
        let vals: Vec<f64> = data
            .iter()
            .filter(|(w, _)| suite_filter(w, suite))
            .map(|(_, rs)| rs[1].energy_pj() / rs[0].energy_pj())
            .collect();
        t.row(&[
            mean_label(suite).to_string(),
            "-".into(),
            "-".into(),
            format!("{:.3}", geomean(vals.iter().copied())),
            pct((1.0 - geomean(vals)) * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 9: H3VP vs EVES under full SCC — speedup over baseline,
/// invariant validation failures, squash overhead.
pub fn fig9_report(runner: &Runner, scale: Scale) -> String {
    let workloads = all_workloads(scale);
    let mut out = String::new();
    out.push_str("== Figure 9: value predictor sensitivity (full SCC) ==\n");
    let mut t = Table::new(&[
        "benchmark", "eves-speedup", "h3vp-speedup", "eves-vpfail", "h3vp-vpfail",
        "eves-squash", "h3vp-squash",
    ]);
    let mut eves = SimOptions::new(OptLevel::Full);
    eves.value_predictor = ValuePredictorKind::Eves;
    let mut h3vp = SimOptions::new(OptLevel::Full);
    h3vp.value_predictor = ValuePredictorKind::H3vp;
    let jobs: Vec<Job> = workloads
        .iter()
        .flat_map(|w| {
            [
                Job::new(w, &SimOptions::new(OptLevel::Baseline)),
                Job::new(w, &eves),
                Job::new(w, &h3vp),
            ]
        })
        .collect();
    let results = runner.run(&jobs);
    for (w, rs) in workloads.iter().zip(results.chunks(3)) {
        let (base, re, rh) = (&rs[0], &rs[1], &rs[2]);
        t.row(&[
            w.name.to_string(),
            pct(speedup_pct(base.cycles(), re.cycles())),
            pct(speedup_pct(base.cycles(), rh.cycles())),
            re.stats.invariants_failed.to_string(),
            rh.stats.invariants_failed.to_string(),
            format!("{:.3}", re.stats.squash_overhead()),
            format!("{:.3}", rh.stats.squash_overhead()),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 10: optimized-partition size sensitivity (12/24/36 of 48 sets).
pub fn fig10_report(runner: &Runner, scale: Scale) -> String {
    let workloads = all_workloads(scale);
    let splits = [12usize, 24, 36];
    let mut out = String::new();
    out.push_str("== Figure 10: optimized-partition size (normalized time vs baseline) ==\n");
    let mut t = Table::new(&["benchmark", "opt=12", "opt=24", "opt=36"]);
    let mut sums = vec![Vec::new(); splits.len()];
    let jobs: Vec<Job> = workloads
        .iter()
        .flat_map(|w| {
            std::iter::once(Job::new(w, &SimOptions::new(OptLevel::Baseline))).chain(
                splits.iter().map(move |&sets| {
                    let mut o = SimOptions::new(OptLevel::Full);
                    o.opt_partition_sets = sets;
                    Job::new(w, &o)
                }),
            )
        })
        .collect();
    let results = runner.run(&jobs);
    for (w, rs) in workloads.iter().zip(results.chunks(1 + splits.len())) {
        let base = &rs[0];
        let mut row = vec![w.name.to_string()];
        for (i, r) in rs[1..].iter().enumerate() {
            let norm = r.cycles() as f64 / base.cycles() as f64;
            sums[i].push(norm);
            row.push(format!("{norm:.3}"));
        }
        t.row(&row);
    }
    let mut row = vec![mean_label(None).to_string()];
    for vals in &sums {
        row.push(format!("{:.3}", geomean(vals.iter().copied())));
    }
    t.row(&row);
    out.push_str(&t.render());
    out
}

/// Figure 11: constant-width restriction sensitivity (8/16/32 bits vs
/// unrestricted): micro-op reduction and normalized time, plus live-out
/// carry rates (§VII-C).
pub fn fig11_report(runner: &Runner, scale: Scale) -> String {
    let workloads = all_workloads(scale);
    let widths: [Option<u32>; 4] = [Some(8), Some(16), Some(32), None];
    let mut out = String::new();
    out.push_str("== Figure 11: constant width restriction (full SCC) ==\n");
    let mut t = Table::new(&[
        "benchmark", "red.w8", "red.w16", "red.w32", "red.unres", "time.w8", "time.w16",
        "time.w32", "time.unres", "liveout%",
    ]);
    let mut norm_time = vec![Vec::new(); widths.len()];
    let mut reductions = vec![Vec::new(); widths.len()];
    let jobs: Vec<Job> = workloads
        .iter()
        .flat_map(|w| {
            std::iter::once(Job::new(w, &SimOptions::new(OptLevel::Baseline))).chain(
                widths.iter().map(move |&width| {
                    let mut o = SimOptions::new(OptLevel::Full);
                    o.max_constant_width = width;
                    Job::new(w, &o)
                }),
            )
        })
        .collect();
    let results = runner.run(&jobs);
    for (w, rs) in workloads.iter().zip(results.chunks(1 + widths.len())) {
        let base = &rs[0];
        let mut row = vec![w.name.to_string()];
        let mut times = Vec::new();
        let mut liveout_pct = 0.0;
        for (i, (&width, r)) in widths.iter().zip(&rs[1..]).enumerate() {
            let red = reduction_pct(base.uops(), r.uops());
            reductions[i].push(r.uops() as f64 / base.uops() as f64);
            row.push(pct(red));
            let nt = r.cycles() as f64 / base.cycles() as f64;
            norm_time[i].push(nt);
            times.push(format!("{nt:.3}"));
            if width.is_none() {
                liveout_pct = 100.0 * r.stats.committed_ghosts as f64
                    / r.stats.committed_uops.max(1) as f64;
            }
        }
        row.extend(times);
        row.push(format!("{liveout_pct:.2}%"));
        t.row(&row);
    }
    let mut row = vec![mean_label(None).to_string()];
    for vals in &reductions {
        row.push(pct((1.0 - geomean(vals.iter().copied())) * 100.0));
    }
    for vals in &norm_time {
        row.push(format!("{:.3}", geomean(vals.iter().copied())));
    }
    row.push("-".into());
    t.row(&row);
    out.push_str(&t.render());
    out
}

/// §VII-B: SCC area and peak-power overheads.
pub fn area_power_report() -> String {
    let a = AreaModel::icelake();
    let mut out = String::new();
    out.push_str("== SCC area and peak power overheads (per core) ==\n");
    let mut t = Table::new(&["structure", "area (mm^2)"]);
    t.row(&["SCC front-end ALU".into(), format!("{:.3}", a.scc_alu_mm2)]);
    t.row(&["register context table".into(), format!("{:.3}", a.scc_rct_mm2)]);
    t.row(&["doubled predictor ports".into(), format!("{:.3}", a.pred_ports_mm2)]);
    t.row(&["extended tag arrays".into(), format!("{:.3}", a.tag_ext_mm2)]);
    t.row(&["request queue + write buffer".into(), format!("{:.3}", a.buffers_mm2)]);
    t.row(&["SCC total".into(), format!("{:.3}", a.scc_mm2())]);
    t.row(&["baseline core".into(), format!("{:.3}", a.core_mm2)]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\narea overhead: {:.2}%  (paper: 1.5%)\npeak power overhead: {:.2}%  (paper: 0.62%)\n",
        100.0 * a.area_overhead(),
        100.0 * a.peak_power_overhead()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_power_matches_paper() {
        let r = area_power_report();
        assert!(r.contains("area overhead: 1.4") || r.contains("area overhead: 1.5"));
        assert!(r.contains("peak power overhead: 0.6"));
    }

    #[test]
    fn bench_config_resolves_env_once_with_sane_defaults() {
        // Not set in tests: defaults apply.
        let cfg = BenchConfig::from_env();
        assert!(cfg.scale.iters >= 1);
        assert!(cfg.jobs >= 1);
        assert_eq!(cfg.runner().jobs(), cfg.jobs);
        // Explicit construction never touches the environment.
        let explicit = BenchConfig::new(Scale::custom(123), 0);
        assert_eq!(explicit.scale.iters, 123);
        assert_eq!(explicit.jobs, 1, "worker count is clamped to at least 1");
    }
}
