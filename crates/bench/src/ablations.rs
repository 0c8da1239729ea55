//! Ablation studies for the design choices DESIGN.md §6 calls out:
//! confidence threshold, compaction-unit resources (request queue, write
//! buffer), hotness decay, and classic value-prediction forwarding.
//!
//! Run on a representative subset (two big winners, one mixed, one
//! memory-bound, one FP) to keep each sweep minutes, not hours. Every
//! sweep takes the runner to simulate on, so sweeps sharing one runner
//! simulate the per-workload baselines once (and share them with any
//! figure rendered on that runner).

use scc_core::SccConfig;
use scc_pipeline::{FrontendMode, PipelineConfig};
use scc_sim::report::{geomean, Table};
use scc_sim::runner::{resolve_workload, Job, Runner};
use scc_sim::OptLevel;
use scc_uopcache::UopCacheConfig;
use scc_workloads::{Scale, Workload};

const SUBSET: [&str; 5] = ["perlbench", "freqmine", "gcc", "mcf", "lbm"];

fn subset(scale: Scale) -> Vec<Workload> {
    SUBSET
        .iter()
        .map(|n| resolve_workload(n, scale).unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

fn scc_cfg(mutate: impl Fn(&mut SccConfig)) -> PipelineConfig {
    let mut scc = SccConfig::full();
    mutate(&mut scc);
    PipelineConfig { frontend: FrontendMode::scc(scc), ..PipelineConfig::baseline() }
}

/// Runs `variants(w)` plus the plain baseline for every subset workload
/// as one batch, then renders the usual normalized-time table (one
/// column per variant, GEOMEAN row at the bottom).
fn normalized_sweep(
    runner: &Runner,
    scale: Scale,
    title: &str,
    header: &[&str],
    variants: &dyn Fn(&Workload) -> Vec<PipelineConfig>,
) -> String {
    let ws = subset(scale);
    let nvar = header.len() - 1;
    let mut jobs: Vec<Job> = Vec::new();
    for w in &ws {
        jobs.push(Job::from_config(w, PipelineConfig::baseline(), OptLevel::Baseline));
        let cfgs = variants(w);
        assert_eq!(cfgs.len(), nvar, "one config per variant column");
        for cfg in cfgs {
            let level =
                if cfg.frontend.has_scc() { OptLevel::Full } else { OptLevel::Baseline };
            jobs.push(Job::from_config(w, cfg, level));
        }
    }
    let results = runner.run(&jobs);

    let mut out = String::new();
    out.push_str(title);
    let mut t = Table::new(header);
    let mut cols = vec![Vec::new(); nvar];
    for (w, rs) in ws.iter().zip(results.chunks(1 + nvar)) {
        let base = rs[0].cycles();
        let mut row = vec![w.name.to_string()];
        for (i, r) in rs[1..].iter().enumerate() {
            let norm = r.cycles() as f64 / base as f64;
            cols[i].push(norm);
            row.push(format!("{norm:.3}"));
        }
        t.row(&row);
    }
    let mut row = vec!["GEOMEAN".to_string()];
    for c in &cols {
        row.push(format!("{:.3}", geomean(c.iter().copied())));
    }
    t.row(&row);
    out.push_str(&t.render());
    out
}

/// Sweeps the SCC probe confidence threshold. The paper runs SCC at 5 —
/// far more aggressive than the 15 used for plain value forwarding — and
/// reports "the best performance benefits are derived through aggressive
/// speculation".
pub fn ablate_confidence_threshold(runner: &Runner, scale: Scale) -> String {
    let thresholds = [3u8, 5, 9, 15];
    normalized_sweep(
        runner,
        scale,
        "== Ablation: SCC confidence threshold (normalized time vs baseline) ==\n",
        &["benchmark", "t=3", "t=5 (paper)", "t=9", "t=15"],
        &|_| {
            thresholds
                .iter()
                .map(|&th| scc_cfg(|s| s.confidence_threshold = th))
                .collect()
        },
    )
}

/// Sweeps the compaction request queue depth. The paper: "even a request
/// queue with as low as 6 entries is capable of identifying several hot
/// code regions".
pub fn ablate_request_queue(runner: &Runner, scale: Scale) -> String {
    let depths = [1usize, 2, 6, 16];
    normalized_sweep(
        runner,
        scale,
        "== Ablation: request queue depth (normalized time vs baseline) ==\n",
        &["benchmark", "q=1", "q=2", "q=6 (paper)", "q=16"],
        &|_| depths.iter().map(|&q| scc_cfg(|s| s.request_queue_len = q)).collect(),
    )
}

/// Sweeps the write-buffer (maximum stream length) size; the paper sizes
/// it at 18 micro-ops, the 3-way region capacity.
pub fn ablate_write_buffer(runner: &Runner, scale: Scale) -> String {
    let sizes = [6usize, 12, 18, 30];
    normalized_sweep(
        runner,
        scale,
        "== Ablation: write buffer size (normalized time vs baseline) ==\n",
        &["benchmark", "wb=6", "wb=12", "wb=18 (paper)", "wb=30"],
        &|_| sizes.iter().map(|&n| scc_cfg(|s| s.write_buffer_uops = n)).collect(),
    )
}

/// Sweeps the optimized partition's hotness decay period (paper: tuned
/// to 3 cycles for optimized lines, 28 for unoptimized).
pub fn ablate_hotness_decay(runner: &Runner, scale: Scale) -> String {
    let periods = [1u64, 3, 9, 28];
    normalized_sweep(
        runner,
        scale,
        "== Ablation: optimized-partition hotness decay (normalized time) ==\n",
        &["benchmark", "d=1", "d=3 (paper)", "d=9", "d=28"],
        &|_| {
            periods
                .iter()
                .map(|&d| PipelineConfig {
                    frontend: FrontendMode::Scc {
                        unopt: UopCacheConfig::unopt_partition(24),
                        opt: UopCacheConfig {
                            decay_period: d,
                            ..UopCacheConfig::opt_partition(24)
                        },
                        scc: SccConfig::full(),
                    },
                    ..PipelineConfig::baseline()
                })
                .collect()
        },
    )
}

/// Classic value-prediction forwarding (the paper's baseline feature) vs
/// the plain baseline vs SCC — quantifies how much of SCC's win plain
/// forwarding could claim.
pub fn ablate_vp_forwarding(runner: &Runner, scale: Scale) -> String {
    normalized_sweep(
        runner,
        scale,
        "== Ablation: classic VP forwarding vs SCC (normalized time) ==\n",
        &["benchmark", "baseline+vpfwd", "full-scc", "scc+vpfwd"],
        &|_| {
            vec![
                PipelineConfig::baseline_with_vp_forwarding(),
                PipelineConfig::scc_full(),
                PipelineConfig { vp_forwarding: Some(15), ..PipelineConfig::scc_full() },
            ]
        },
    )
}

/// The paper's future-work extension: folding complex integer operations
/// (`mul`/`div`/`rem`) in the front-end ALU.
pub fn ablate_future_work(runner: &Runner, scale: Scale) -> String {
    use scc_core::OptFlags;
    normalized_sweep(
        runner,
        scale,
        "== Ablation: future-work complex-ALU folding (normalized time) ==\n",
        &["benchmark", "full-scc (paper)", "+complex-alu"],
        &|_| vec![scc_cfg(|_| {}), scc_cfg(|s| s.opts = OptFlags::future_work())],
    )
}

/// Micro-fusion on/off (the artifact's `--enable-micro-fusion`), for the
/// baseline and for full SCC.
pub fn ablate_micro_fusion(runner: &Runner, scale: Scale) -> String {
    normalized_sweep(
        runner,
        scale,
        "== Ablation: micro-fusion (normalized time vs fused baseline) ==\n",
        &["benchmark", "base-nofuse", "scc-fused", "scc-nofuse"],
        &|_| {
            let mut base_nf = PipelineConfig::baseline();
            base_nf.core.micro_fusion = false;
            let mut scc_nf = PipelineConfig::scc_full();
            scc_nf.core.micro_fusion = false;
            vec![base_nf, PipelineConfig::scc_full(), scc_nf]
        },
    )
}

/// All ablations, concatenated.
pub fn full_report(runner: &Runner, scale: Scale) -> String {
    [
        ablate_confidence_threshold(runner, scale),
        ablate_request_queue(runner, scale),
        ablate_write_buffer(runner, scale),
        ablate_hotness_decay(runner, scale),
        ablate_vp_forwarding(runner, scale),
        ablate_future_work(runner, scale),
        ablate_micro_fusion(runner, scale),
    ]
    .join("\n")
}
