//! `scc-perf`: the repository's benchmark. Four seeded closed-loop
//! workloads measure simulator host speed (`sim-memstall`,
//! `sim-compact`) and serving latency (`serve-hot`, `serve-churn`) from
//! outside the code, through public functions and the wire protocol
//! only. A traced run records spans around every call into a layer and
//! reports per-layer metrics. See `README.md` for the metric glossary.

#![forbid(unsafe_code)]

pub mod gen;
pub mod layers;
pub mod serve;
pub mod sim;
pub mod span;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use stats::Summary;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `run_workload` at baseline on memory-stall programs.
    SimMemstall,
    /// `run_workload` at full-scc on the most-compacted programs.
    SimCompact,
    /// Warm hits on one `scc-serve`, large and small results mixed.
    ServeHot,
    /// Misses, evictions and store read-through behind `scc-route`.
    ServeChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SimMemstall,
        Workload::SimCompact,
        Workload::ServeHot,
        Workload::ServeChurn,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimMemstall => "sim-memstall",
            Workload::SimCompact => "sim-compact",
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How long the timed phase runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Length {
    /// Wall-clock budget of the timed phase, in seconds.
    pub seconds: f64,
    /// Stop after this many timed reps (sim workloads), if set.
    pub max_reps: Option<usize>,
    /// Base scale of the sim workloads' programs.
    pub sim_iters: i64,
}

impl Length {
    /// A timed phase of `seconds` at the benchmark's own scale.
    pub fn seconds(seconds: f64) -> Length {
        Length {
            seconds,
            max_reps: None,
            sim_iters: gen::SIM_ITERS,
        }
    }
}

/// One run of the benchmark.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub length: Length,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Scratch directory for sockets, stores and the trace file.
    pub work_dir: PathBuf,
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A reported metric: name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}
use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// `BENCHMARK.json` must list exactly these (a test checks it).
pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "1/s", Higher),
    m("p50_ms", "ms", Lower),
    m("p99_ms", "ms", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("setup_s", "s", Lower),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.build_ms", "ms", Lower),
    m("pipeline.new_ms", "ms", Lower),
    m("pipeline.run_ns_per_uop", "ns", Lower),
    m("pipeline.run_ns_per_cycle", "ns", Lower),
    m("pipeline.ff_jumps_per_kcycle", "1/kcycle", Higher),
    m("pipeline.cycles", "count", Lower),
    m("pipeline.committed_uops", "count", Lower),
    m("pipeline.ipc", "uops/cycle", Higher),
    m("pipeline.squash_overhead", "fraction", Lower),
    m("core.compactions", "count", Higher),
    m("core.stream_commit_ratio", "fraction", Higher),
    m("core.opt_fetch_share", "fraction", Higher),
    m("core.invariant_fail_ratio", "fraction", Lower),
    m("memsys.l1d_miss_ratio", "fraction", Lower),
    m("memsys.dram_accesses", "count", Lower),
    m("protocol.parse_us", "us", Lower),
    m("protocol.key_us", "us", Lower),
    m("protocol.report_us", "us", Lower),
    m("protocol.digest_us", "us", Lower),
    m("protocol.digest_large_us", "us", Lower),
    m("protocol.digest_small_us", "us", Lower),
    m("runner.try_cached_us", "us", Lower),
    m("runner.cache.hit_ratio", "fraction", Higher),
    m("runner.cache.evictions", "count", Lower),
    m("runner.store.hits", "count", Higher),
    m("runner.store.writes", "count", Lower),
    m("persist.encode_us", "us", Lower),
    m("persist.decode_us", "us", Lower),
    m("persist.bytes", "bytes", Lower),
    m("store.put_us", "us", Lower),
    m("store.get_us", "us", Lower),
    m("client.hit_p50_ms", "ms", Lower),
    m("client.hit_p99_ms", "ms", Lower),
    m("client.miss_p50_ms", "ms", Lower),
    m("serve.jobs.rejected", "count", Lower),
    m("serve.rss_growth_kb_per_kreq", "KB", Lower),
    m("route.hop_ms", "ms", Lower),
    m("route.forwarded", "count", Lower),
    m("route.upstream.failures", "count", Lower),
    m("trace.overhead_pct", "%", Lower),
    m("trace.span_coverage", "fraction", Higher),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked (simulations, requests).
    pub attempted: u64,
    /// Checked operations that failed or returned a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Median, quartiles and sample count behind timing metrics.
    pub samples: BTreeMap<&'static str, Summary>,
    /// Free-form findings printed with the samples (e.g. samples beyond
    /// the reported tail).
    pub notes: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Sets metric `name` to the median of `values` and keeps their
    /// summary.
    pub fn set_median(&mut self, name: &'static str, values: &[f64]) {
        if let Some(s) = Summary::of(values) {
            self.samples.insert(name, s);
            self.metrics.insert(name, s.median);
        }
    }

    /// Sets metric `name` to the best of `values` (the largest or the
    /// smallest, as `better` says) and keeps their summary.
    pub fn set_best(&mut self, name: &'static str, values: &[f64], better: Better) {
        if let Some(s) = Summary::of(values) {
            self.samples.insert(name, s);
            let best = match better {
                Better::Higher => values.iter().copied().fold(f64::MIN, f64::max),
                Better::Lower => values.iter().copied().fold(f64::MAX, f64::min),
            };
            self.metrics.insert(name, best);
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// True when every checked output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The detail line printed before the result: every summary and note.
    pub fn detail_line(&self, cfg: &Config) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"samples\":{{",
            cfg.workload.name(),
            cfg.seed,
            cfg.trace
        );
        for (i, (name, s)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n
            );
        }
        out.push_str("},\"notes\":{");
        for (i, (name, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{}", num(*v));
        }
        out.push_str("}}");
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// registry metric of the mode (end-to-end, or per-layer when
    /// `trace`) with its unit.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing: every workload must
    /// measure all of them.
    pub fn result_line(&self, trace: bool) -> String {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let value = match self.metrics.get(d.name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {} was not measured", d.name),
            };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                num(value),
                d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values (a metric with an empty base) render as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs one workload: set-up, timed phase, output checks and (when
/// `cfg.trace`) the per-layer replay. Writes the Chrome trace to
/// `cfg.work_dir/trace-<workload>.json` when tracing.
///
/// # Errors
///
/// Fails when the serving processes cannot be spawned or reached, or
/// the work directory cannot be written.
pub fn run(cfg: &Config) -> io::Result<Outcome> {
    std::fs::create_dir_all(&cfg.work_dir)?;
    match cfg.workload {
        Workload::SimMemstall => sim::run(cfg, &gen::MEMSTALL, scc_sim::OptLevel::Baseline),
        Workload::SimCompact => sim::run(cfg, &gen::COMPACT, scc_sim::OptLevel::Full),
        Workload::ServeHot => serve::run_hot(cfg),
        Workload::ServeChurn => serve::run_churn(cfg),
    }
}

/// Where a traced run writes its Chrome trace.
pub fn trace_path(cfg: &Config) -> PathBuf {
    cfg.work_dir
        .join(format!("trace-{}.json", cfg.workload.name()))
}

/// Reads a `kB` field (e.g. `VmHWM`, `VmRSS`) of `/proc/<pid>/status`;
/// 0 where `/proc` is unavailable.
pub fn proc_status_kb(pid: &str, field: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .strip_prefix(':')?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// This run's own scratch directory under the work directory; the run
/// removes it when it ends.
pub(crate) fn run_dir(cfg: &Config) -> PathBuf {
    cfg.work_dir.join(format!("run-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_fit_the_registry_rules() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("sim"), None);
        assert!(proc_status_kb("self", "VmHWM") > 0);
        assert_eq!(proc_status_kb("self", "NoSuchField"), 0);
    }

    #[test]
    fn result_line_fills_unexercised_layers_with_zero() {
        let mut o = Outcome::default();
        o.check(true);
        o.set("protocol.parse_us", 1.25);
        let line = o.result_line(true);
        let doc = scc_serve::json::Json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        let v = |n: &str| {
            metrics
                .get(n)
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
        };
        assert_eq!(v("protocol.parse_us"), Some(1.25));
        assert_eq!(v("route.hop_ms"), Some(0.0));
        assert_eq!(doc.get("correct").and_then(|c| c.as_bool()), Some(true));
    }

    #[test]
    #[should_panic(expected = "end-to-end metric")]
    fn result_line_refuses_a_missing_end_to_end_metric() {
        Outcome::default().result_line(false);
    }
}
