//! Top-level simulator API: Ice Lake-like configuration (Table I), the
//! appendix's six optimization levels, and the experiment runner used by
//! the examples and the figure-regeneration benches.
//!
//! # Example
//!
//! ```
//! use scc_sim::{run_workload, OptLevel, SimOptions};
//! use scc_workloads::{workload, Scale};
//!
//! let w = workload("freqmine", Scale::custom(800)).expect("known workload");
//! let base = run_workload(&w, &SimOptions::new(OptLevel::Baseline));
//! let scc = run_workload(&w, &SimOptions::new(OptLevel::Full));
//! assert!(scc.stats.committed_uops < base.stats.committed_uops);
//! assert_eq!(scc.snapshot, base.snapshot, "SCC is architecturally invisible");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod cli;
pub mod persist;
pub mod report;
pub mod runner;
pub mod simpoint;
pub mod trace_export;

use scc_core::{OptFlags, SccConfig};
use scc_energy::{EnergyBreakdown, EnergyEvents, EnergyModel};
use scc_isa::trace::SharedSink;
use scc_isa::ArchSnapshot;
use scc_pipeline::{FrontendMode, Pipeline, PipelineConfig, PipelineStats, RunOutcome};
use scc_predictors::{BranchPredictorKind, ValuePredictorKind};
use scc_uopcache::UopCacheConfig;
use scc_workloads::Workload;

pub use build::{ConfigError, Sim, SimBuilder, SimError};
pub use runner::{
    default_jobs, parallel_map, parallel_map_indexed, resolve_workload, scc_jobs, CacheStats, Job,
    JobError, RunOne, RunTiming, Runner, StoreTier, DEFAULT_CACHE_CAPACITY, LOG_CAP,
};

/// The appendix's six experiment levels, cumulative.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// (1) Baseline: unpartitioned 48-set micro-op cache, no SCC.
    Baseline,
    /// (2) Partitioned baseline: the SCC cache split, all optimizations
    /// off.
    PartitionedBaseline,
    /// (3) SCC with simple move elimination.
    MoveElim,
    /// (4) + constant propagation, constant folding, data invariants.
    FoldProp,
    /// (5) + branch folding.
    BranchFold,
    /// (6) Full speculative code compaction.
    Full,
}

impl OptLevel {
    /// All six levels in the appendix's order.
    pub fn all() -> [OptLevel; 6] {
        [
            OptLevel::Baseline,
            OptLevel::PartitionedBaseline,
            OptLevel::MoveElim,
            OptLevel::FoldProp,
            OptLevel::BranchFold,
            OptLevel::Full,
        ]
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Baseline => "baseline",
            OptLevel::PartitionedBaseline => "partitioned",
            OptLevel::MoveElim => "move-elim",
            OptLevel::FoldProp => "fold+prop",
            OptLevel::BranchFold => "branch-fold",
            OptLevel::Full => "full-scc",
        }
    }

    /// The SCC optimization flags at this level (`None` for the
    /// unpartitioned baseline).
    pub fn flags(self) -> Option<OptFlags> {
        match self {
            OptLevel::Baseline => None,
            OptLevel::PartitionedBaseline => Some(OptFlags::none()),
            OptLevel::MoveElim => Some(OptFlags::move_elim_only()),
            OptLevel::FoldProp => Some(OptFlags::fold_prop()),
            OptLevel::BranchFold => Some(OptFlags::branch_fold()),
            OptLevel::Full => Some(OptFlags::full()),
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// All knobs of one experiment.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Optimization level.
    pub level: OptLevel,
    /// Value predictor (`--lvpredType`; Figure 9's axis).
    pub value_predictor: ValuePredictorKind,
    /// Branch direction predictor.
    pub branch_predictor: BranchPredictorKind,
    /// Sets given to the optimized partition out of the baseline's 48
    /// (Figure 10 sweeps 12/24/36; the appendix default is 24).
    pub opt_partition_sets: usize,
    /// Constant-width cap in bits (Figure 11 sweeps 8/16/32; `None` =
    /// unrestricted).
    pub max_constant_width: Option<u32>,
    /// Classic value-prediction forwarding threshold (the paper's
    /// baseline uses 15; `None` disables — see the `ablations` bench for
    /// its measured effect).
    pub vp_forwarding: Option<u8>,
    /// Simulation cycle budget (safety net; workloads halt well before).
    pub max_cycles: u64,
    /// Event-driven stall fast-forward (host-speed knob only — simulated
    /// behavior and all observable output are byte-identical either way;
    /// see [`PipelineConfig::fast_forward`]). The `full+percycle` fuzz
    /// ablation and the `fast_forward_identity` tests run with it off.
    pub fast_forward: bool,
}

impl SimOptions {
    /// Paper-default options at the given level: EVES, TAGE-lite, 24/24
    /// partition split, unrestricted constants.
    pub fn new(level: OptLevel) -> SimOptions {
        SimOptions {
            level,
            value_predictor: ValuePredictorKind::Eves,
            branch_predictor: BranchPredictorKind::TageLite,
            opt_partition_sets: 24,
            max_constant_width: None,
            vp_forwarding: None,
            max_cycles: build::DEFAULT_MAX_CYCLES,
            fast_forward: true,
        }
    }

    /// The pipeline configuration these options describe.
    pub fn to_pipeline_config(&self) -> PipelineConfig {
        let frontend = match self.level.flags() {
            None => FrontendMode::baseline(),
            Some(flags) => {
                let mut scc = SccConfig::with_opts(flags);
                scc.max_constant_width = self.max_constant_width;
                let opt_sets = self.opt_partition_sets.clamp(4, 44);
                FrontendMode::Scc {
                    unopt: UopCacheConfig::unopt_partition(48 - opt_sets),
                    opt: UopCacheConfig::opt_partition(opt_sets),
                    scc,
                }
            }
        };
        PipelineConfig {
            frontend,
            branch_predictor: self.branch_predictor,
            value_predictor: self.value_predictor,
            vp_forwarding: self.vp_forwarding,
            fast_forward: self.fast_forward,
            ..PipelineConfig::baseline()
        }
    }
}

/// One experiment's results.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// Level the run used.
    pub level: OptLevel,
    /// Raw pipeline counters.
    pub stats: PipelineStats,
    /// Energy breakdown from the analytical model.
    pub energy: EnergyBreakdown,
    /// Final architectural state.
    pub snapshot: ArchSnapshot,
    /// True if the run completed (hit `halt`).
    pub halted: bool,
}

impl SimResult {
    /// Execution time in cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Committed micro-ops.
    pub fn uops(&self) -> u64 {
        self.stats.committed_uops
    }

    /// Total energy in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.energy.frontend_pj + self.energy.backend_pj + self.energy.memory_pj
            + self.energy.static_pj
    }
}

/// A 64-bit FNV-1a digest of a result's final architectural state: the
/// 32 registers as little-endian `u64`s, then the condition codes as
/// one bitfield (`zf | sf<<1 | of<<2 | cf<<3`), then every `(addr,
/// value)` memory pair in snapshot order. Two runs with equal digests
/// reached the same registers, flags and memory — the wire report's
/// cheap stand-in for shipping the whole snapshot.
///
/// The cost is linear in the memory image (milliseconds for a
/// 100K-word one), so the runner computes it at most once per resident
/// result and hands it out with every hit ([`RunOne::digest`]).
pub fn arch_digest(res: &SimResult) -> u64 {
    let mut h = scc_isa::Fnv1a::new();
    for r in &res.snapshot.regs {
        h.write_u64(*r as u64);
    }
    let cc = &res.snapshot.cc;
    h.write_u64(
        u64::from(cc.zf) | u64::from(cc.sf) << 1 | u64::from(cc.of) << 2 | u64::from(cc.cf) << 3,
    );
    for (addr, val) in &res.snapshot.mem {
        h.write_u64(*addr);
        h.write_u64(*val as u64);
    }
    h.finish()
}

/// Maps pipeline counters onto the energy model's event vector.
pub fn energy_events(stats: &PipelineStats) -> EnergyEvents {
    EnergyEvents {
        cycles: stats.cycles,
        icache_accesses: stats.hierarchy.l1i.accesses(),
        uopcache_accesses: stats.uopcache_lookups,
        decoded_macros: stats.decoded_macros,
        bp_lookups: stats.bp_lookups,
        vp_accesses: stats.vp_probes + stats.vp_trains,
        renamed_uops: stats.renamed_uops,
        ghost_installs: stats.committed_ghosts,
        alu_ops: stats.exec_alu,
        muldiv_ops: stats.exec_muldiv,
        fp_ops: stats.exec_fp,
        l1d_accesses: stats.hierarchy.l1d.accesses(),
        l2_accesses: stats.hierarchy.l2.accesses(),
        l3_accesses: stats.hierarchy.l3.accesses(),
        dram_accesses: stats.hierarchy.dram,
        committed_uops: stats.committed_uops,
        scc_alu_ops: stats.scc_alu_ops,
        scc_busy_cycles: stats.scc_busy_cycles,
    }
}

/// Runs one workload under one configuration.
///
/// # Panics
///
/// Panics if the workload exhausts the cycle budget without halting —
/// that is a harness bug, not a measurement.
pub fn run_workload(w: &Workload, opts: &SimOptions) -> SimResult {
    run_workload_inner(w, opts, None)
}

/// [`run_workload`] with a structured observability sink attached to the
/// pipeline (see [`scc_pipeline::Pipeline::attach_sink`]); the sink sees
/// every fetch-mix interval, compaction pass, stream/cache lifecycle
/// event, squash window, and assumption outcome of the run.
///
/// # Panics
///
/// Panics if the workload exhausts the cycle budget without halting.
pub fn run_workload_observed(w: &Workload, opts: &SimOptions, sink: SharedSink) -> SimResult {
    run_workload_inner(w, opts, Some(sink))
}

fn run_workload_inner(w: &Workload, opts: &SimOptions, sink: Option<SharedSink>) -> SimResult {
    let cfg = opts.to_pipeline_config();
    let mut pipe = Pipeline::new(&w.program, cfg);
    if let Some(sink) = sink {
        pipe.attach_sink(sink);
    }
    let res = pipe.run(opts.max_cycles);
    assert_eq!(
        res.outcome,
        RunOutcome::Halted,
        "{} did not halt within {} cycles at {}",
        w.name,
        opts.max_cycles,
        opts.level
    );
    let energy = EnergyModel::icelake().energy(&energy_events(&res.stats));
    SimResult {
        workload: w.name.to_string(),
        level: opts.level,
        stats: res.stats,
        energy,
        snapshot: res.snapshot,
        halted: true,
    }
}

/// Renders Table I (the microarchitectural configuration).
pub fn table1() -> String {
    let core = scc_pipeline::CoreParams::default();
    let hier = scc_memsys::HierarchyConfig::icelake();
    let uc = UopCacheConfig::baseline();
    let mut out = String::new();
    let mut row = |k: &str, v: String| out.push_str(&format!("{k:<28} {v}\n"));
    row("Frequency", "2.4 GHz (modeled)".into());
    row("Fetch width", format!("{} fused uops", core.fetch_width));
    row("Decode width", format!("{}", core.decode_width));
    row("uop cache", format!(
        "{} uops, {}-way, {} sets x {} uops/line",
        uc.capacity_uops(), uc.ways, uc.sets, uc.uops_per_line
    ));
    row("Branch predictor", "TAGE-lite (LTAGE-class) + BTB + RAS + indirect".into());
    row("Value predictor", "EVES (default) / H3VP".into());
    row("IDQ", format!("{} entries", core.idq_entries));
    row("ROB", format!("{} entries", core.rob_entries));
    row("Scheduler", format!("{} entries", core.sched_entries));
    row("Ports", format!(
        "{} ALU, {} load, {} store, {} FP",
        core.alu_ports, core.load_ports, core.store_ports, core.fp_ports
    ));
    row("L1I", format!("{} KB, {}-way, LRU", hier.l1i.size_bytes / 1024, hier.l1i.ways));
    row("L1D", format!("{} KB, {}-way, LRU", hier.l1d.size_bytes / 1024, hier.l1d.ways));
    row("L2", format!("{} KB, {}-way, LRU", hier.l2.size_bytes / 1024, hier.l2.ways));
    row("L3", format!(
        "{} MB, {}-way, random repl.",
        hier.l3.size_bytes / (1024 * 1024),
        hier.l3.ways
    ));
    row("Memory", format!("DDR4-2400-class, {} cycles", hier.dram_latency));
    row("SCC unit", "1 uop/cycle, 18-uop write buffer, 6-entry request queue".into());
    row("SCC confidence threshold", "5 of 15 (baseline VP forwarding: 15)".into());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_workloads::{workload, Scale};

    #[test]
    fn levels_roundtrip() {
        assert_eq!(OptLevel::all().len(), 6);
        assert!(OptLevel::Baseline.flags().is_none());
        assert!(OptLevel::Full.flags().unwrap().control_invariants);
        assert_eq!(OptLevel::Full.to_string(), "full-scc");
    }

    #[test]
    fn options_build_configs() {
        let o = SimOptions::new(OptLevel::Baseline);
        assert!(!o.to_pipeline_config().frontend.has_scc());
        let mut o = SimOptions::new(OptLevel::Full);
        o.opt_partition_sets = 12;
        let cfg = o.to_pipeline_config();
        if let FrontendMode::Scc { unopt, opt, .. } = cfg.frontend {
            assert_eq!(opt.sets, 12);
            assert_eq!(unopt.sets, 36);
        } else {
            panic!("expected SCC frontend");
        }
    }

    #[test]
    fn run_is_deterministic_and_correct() {
        let w = workload("exchange", Scale::custom(500)).unwrap();
        let a = run_workload(&w, &SimOptions::new(OptLevel::Full));
        let b = run_workload(&w, &SimOptions::new(OptLevel::Full));
        assert_eq!(a.stats, b.stats, "simulation must be deterministic");
        assert_eq!(a.snapshot, b.snapshot);
        let base = run_workload(&w, &SimOptions::new(OptLevel::Baseline));
        assert_eq!(base.snapshot, a.snapshot, "levels agree architecturally");
    }

    #[test]
    fn full_scc_reduces_uops_on_predictable_workload() {
        let w = workload("freqmine", Scale::custom(800)).unwrap();
        let base = run_workload(&w, &SimOptions::new(OptLevel::Baseline));
        let full = run_workload(&w, &SimOptions::new(OptLevel::Full));
        assert!(full.uops() < base.uops());
        assert!(full.energy_pj() < base.energy_pj(), "energy should drop too");
    }

    #[test]
    fn table1_mentions_key_structures() {
        let t = table1();
        for needle in ["2304 uops", "352 entries", "8 MB", "TAGE", "EVES", "DDR4"] {
            assert!(t.contains(needle), "Table I missing {needle}:\n{t}");
        }
    }

    #[test]
    fn energy_event_mapping_is_complete() {
        let stats = PipelineStats {
            cycles: 10,
            committed_uops: 5,
            exec_alu: 3,
            ..PipelineStats::default()
        };
        let ev = energy_events(&stats);
        assert_eq!(ev.cycles, 10);
        assert_eq!(ev.committed_uops, 5);
        assert_eq!(ev.alu_ops, 3);
    }
}
