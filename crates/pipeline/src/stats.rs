//! Pipeline statistics: every event the figures and the energy model
//! need, plus the typed metrics registry ([`PipelineStats::metrics`])
//! that exposes each of them as a `(name, value)` pair.

use crate::rob::FetchSource;
use scc_memsys::HierarchyStats;
use scc_uopcache::{OptPartitionStats, UnoptPartitionStats};

/// One registered metric value: a monotonic event count or a derived
/// ratio.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Derived floating-point gauge (rates, ratios).
    Gauge(f64),
}

/// One named metric, as iterated by [`PipelineStats::metrics`].
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dotted metric name (e.g. `opt.inserts`, `l1i.hits`, `ipc`).
    pub name: String,
    /// The value.
    pub value: MetricValue,
}

/// Aggregate event counts from one simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineStats {
    /// Cycles simulated. Under event-driven fast-forward the pipeline
    /// credits stalled spans in bulk (one jump instead of N no-op steps),
    /// but the final count is identical to per-cycle stepping — nothing
    /// else in the struct records whether a cycle was stepped or skipped.
    pub cycles: u64,
    /// Committed micro-ops (excluding live-out ghosts) — Figure 6 top's
    /// metric.
    pub committed_uops: u64,
    /// Program-distance metric: committed micro-ops *plus* the micro-ops
    /// SCC eliminated from committed streams. Invariant across
    /// optimization levels, so interval-based sampling (SimPoint) paces
    /// all configurations identically.
    pub program_uops: u64,
    /// Committed live-out ghost installs (§VII-C: ~0.78% of instructions
    /// carry live-outs).
    pub committed_ghosts: u64,
    /// Committed live-out register writes.
    pub live_out_writes: u64,
    /// Micro-ops fetched from the legacy decode path (instruction cache).
    pub uops_from_icache: u64,
    /// Micro-ops fetched from the unoptimized partition.
    pub uops_from_unopt: u64,
    /// Micro-ops fetched from the optimized partition.
    pub uops_from_opt: u64,
    /// Micro-ops squashed (fetched+renamed but thrown away).
    pub squashed_uops: u64,
    /// Squash events.
    pub squashes: u64,
    /// Squashes caused by SCC data-invariant validation failures.
    pub scc_data_squashes: u64,
    /// Squashes caused by SCC control-invariant failures.
    pub scc_control_squashes: u64,
    /// Ordinary branch-misprediction squashes.
    pub branch_squashes: u64,
    /// Conditional branches resolved.
    pub branches_resolved: u64,
    /// Conditional branches mispredicted.
    pub branches_mispredicted: u64,
    /// Value-predictor training events.
    pub vp_trains: u64,
    /// Classic VP-forwarding installs at rename (baseline feature).
    pub vp_forwards: u64,
    /// VP-forwarding validation failures (squashes).
    pub vp_forward_fails: u64,
    /// Value-predictor probes (SCC + profitability re-checks).
    pub vp_probes: u64,
    /// Data invariants validated successfully.
    pub invariants_validated: u64,
    /// Data invariants that failed validation.
    pub invariants_failed: u64,
    /// Compaction passes run.
    pub compactions: u64,
    /// Compacted streams committed to the optimized partition.
    pub streams_committed: u64,
    /// Compactions discarded below the threshold.
    pub compactions_discarded: u64,
    /// Compactions aborted (self-loop / SMC).
    pub compactions_aborted: u64,
    /// Cycles the SCC unit was busy.
    pub scc_busy_cycles: u64,
    /// SCC front-end ALU operations (energy).
    pub scc_alu_ops: u64,
    /// Renamed micro-ops (energy: rename + ROB write).
    pub renamed_uops: u64,
    /// Executed ALU ops (energy).
    pub exec_alu: u64,
    /// Executed mul/div ops (energy).
    pub exec_muldiv: u64,
    /// Executed FP/SIMD ops (energy).
    pub exec_fp: u64,
    /// Executed loads (energy).
    pub exec_loads: u64,
    /// Committed stores (energy).
    pub exec_stores: u64,
    /// Branch predictor lookups (energy; doubled-port probes included).
    pub bp_lookups: u64,
    /// Micro-op cache lookups, both partitions (energy).
    pub uopcache_lookups: u64,
    /// Legacy decode events (energy).
    pub decoded_macros: u64,
    /// Memory hierarchy counters.
    pub hierarchy: HierarchyStats,
    /// Unoptimized partition counters.
    pub unopt: UnoptPartitionStats,
    /// Optimized partition counters.
    pub opt: OptPartitionStats,
}

impl PipelineStats {
    /// Instructions (micro-ops) per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_uops as f64 / self.cycles as f64
        }
    }

    /// Fraction of fetched micro-ops that were squashed — the paper's
    /// Figure 6 (bottom) squash-overhead metric.
    pub fn squash_overhead(&self) -> f64 {
        let fetched = self.committed_uops + self.squashed_uops;
        if fetched == 0 {
            0.0
        } else {
            self.squashed_uops as f64 / fetched as f64
        }
    }

    /// Branch misprediction rate.
    pub fn branch_mpki(&self) -> f64 {
        if self.committed_uops == 0 {
            0.0
        } else {
            1000.0 * self.branches_mispredicted as f64 / self.committed_uops as f64
        }
    }

    /// Total micro-ops delivered by the front-end, by source.
    pub fn fetched_by(&self, src: FetchSource) -> u64 {
        match src {
            FetchSource::Icache => self.uops_from_icache,
            FetchSource::Unopt => self.uops_from_unopt,
            FetchSource::Opt => self.uops_from_opt,
        }
    }

    /// Every counter of the run (including the nested hierarchy and
    /// partition counters, with dotted prefixes) plus the derived gauges,
    /// as a flat list of named metrics — [`PipelineStats::visit_metrics`]
    /// collected into owned names.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::with_capacity(96);
        self.visit_metrics(|prefix, name, value| {
            let name = if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}.{name}")
            };
            out.push(Metric { name, value });
        });
        out
    }

    /// Calls `f(prefix, name, value)` for every metric, in registry
    /// order, without allocating. The dotted metric name is
    /// `prefix.name`, or plain `name` when `prefix` is empty (e.g.
    /// `("", "cycles")`, `("l1i", "hits")`, `("unopt", "fills")`).
    ///
    /// The exhaustive destructuring below is the registry's single source
    /// of truth: adding a stats field without listing it here fails to
    /// compile, so serialized metrics can never silently lag the struct.
    pub fn visit_metrics(&self, mut f: impl FnMut(&'static str, &'static str, MetricValue)) {
        let PipelineStats {
            cycles,
            committed_uops,
            program_uops,
            committed_ghosts,
            live_out_writes,
            uops_from_icache,
            uops_from_unopt,
            uops_from_opt,
            squashed_uops,
            squashes,
            scc_data_squashes,
            scc_control_squashes,
            branch_squashes,
            branches_resolved,
            branches_mispredicted,
            vp_trains,
            vp_forwards,
            vp_forward_fails,
            vp_probes,
            invariants_validated,
            invariants_failed,
            compactions,
            streams_committed,
            compactions_discarded,
            compactions_aborted,
            scc_busy_cycles,
            scc_alu_ops,
            renamed_uops,
            exec_alu,
            exec_muldiv,
            exec_fp,
            exec_loads,
            exec_stores,
            bp_lookups,
            uopcache_lookups,
            decoded_macros,
            hierarchy,
            unopt,
            opt,
        } = self;
        let counter = MetricValue::Counter;
        for (name, value) in [
            ("cycles", *cycles),
            ("committed_uops", *committed_uops),
            ("program_uops", *program_uops),
            ("committed_ghosts", *committed_ghosts),
            ("live_out_writes", *live_out_writes),
            ("uops_from_icache", *uops_from_icache),
            ("uops_from_unopt", *uops_from_unopt),
            ("uops_from_opt", *uops_from_opt),
            ("squashed_uops", *squashed_uops),
            ("squashes", *squashes),
            ("scc_data_squashes", *scc_data_squashes),
            ("scc_control_squashes", *scc_control_squashes),
            ("branch_squashes", *branch_squashes),
            ("branches_resolved", *branches_resolved),
            ("branches_mispredicted", *branches_mispredicted),
            ("vp_trains", *vp_trains),
            ("vp_forwards", *vp_forwards),
            ("vp_forward_fails", *vp_forward_fails),
            ("vp_probes", *vp_probes),
            ("invariants_validated", *invariants_validated),
            ("invariants_failed", *invariants_failed),
            ("compactions", *compactions),
            ("streams_committed", *streams_committed),
            ("compactions_discarded", *compactions_discarded),
            ("compactions_aborted", *compactions_aborted),
            ("scc_busy_cycles", *scc_busy_cycles),
            ("scc_alu_ops", *scc_alu_ops),
            ("renamed_uops", *renamed_uops),
            ("exec_alu", *exec_alu),
            ("exec_muldiv", *exec_muldiv),
            ("exec_fp", *exec_fp),
            ("exec_loads", *exec_loads),
            ("exec_stores", *exec_stores),
            ("bp_lookups", *bp_lookups),
            ("uopcache_lookups", *uopcache_lookups),
            ("decoded_macros", *decoded_macros),
        ] {
            f("", name, counter(value));
        }
        for (level, name, value) in hierarchy.counters() {
            f(level, name, counter(value));
        }
        for (name, value) in unopt.counters() {
            f("unopt", name, counter(value));
        }
        for (name, value) in opt.counters() {
            f("opt", name, counter(value));
        }
        f("", "ipc", MetricValue::Gauge(self.ipc()));
        f("", "squash_overhead", MetricValue::Gauge(self.squash_overhead()));
        f("", "branch_mpki", MetricValue::Gauge(self.branch_mpki()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = PipelineStats {
            cycles: 100,
            committed_uops: 250,
            squashed_uops: 50,
            branches_mispredicted: 5,
            ..PipelineStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.squash_overhead() - 50.0 / 300.0).abs() < 1e-12);
        assert!((s.branch_mpki() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = PipelineStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.squash_overhead(), 0.0);
        assert_eq!(s.branch_mpki(), 0.0);
    }

    #[test]
    fn metrics_cover_every_counter_once() {
        let s = PipelineStats {
            cycles: 100,
            committed_uops: 250,
            invariants_validated: 7,
            ..PipelineStats::default()
        };
        let metrics = s.metrics();
        // Unique names.
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
        // Spot-check values land under the right names.
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("cycles"), MetricValue::Counter(100));
        assert_eq!(get("invariants_validated"), MetricValue::Counter(7));
        assert_eq!(get("ipc"), MetricValue::Gauge(2.5));
        // Nested registries are included with dotted prefixes.
        assert!(metrics.iter().any(|m| m.name == "l1i.hits"));
        assert!(metrics.iter().any(|m| m.name == "unopt.fills"));
        assert!(metrics.iter().any(|m| m.name == "opt.inserts"));
        assert!(metrics.iter().any(|m| m.name == "dram.accesses"));
    }

    #[test]
    fn fetched_by_source() {
        let s = PipelineStats {
            uops_from_icache: 1,
            uops_from_unopt: 2,
            uops_from_opt: 3,
            ..PipelineStats::default()
        };
        assert_eq!(s.fetched_by(FetchSource::Icache), 1);
        assert_eq!(s.fetched_by(FetchSource::Unopt), 2);
        assert_eq!(s.fetched_by(FetchSource::Opt), 3);
    }
}
