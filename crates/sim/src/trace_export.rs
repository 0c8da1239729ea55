//! Structured-event export: Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) and the flat metrics JSON.
//!
//! The exporter renders each [`Event`] eagerly into its final JSON
//! object, so memory scales with the number of *rendered* events (the
//! high-volume per-uop `Decision` and per-commit `AssumptionValidated`
//! events are deliberately left to the audit log, which aggregates
//! them).
//!
//! Track layout: one process, "pipeline", with deterministic,
//! cycle-clocked tracks (1 cycle rendered as 1 µs): `fetch mix`,
//! `scc unit`, `streams`, `uop cache`, `squash windows`.

use scc_isa::json::escape;
use scc_isa::trace::{Event, Sink};
use scc_isa::Addr;
use scc_pipeline::{MetricValue, PipelineStats};
use std::path::Path;

const PID_PIPELINE: u32 = 1;
const TID_FETCH: u32 = 1;
const TID_SCC: u32 = 2;
const TID_STREAMS: u32 = 3;
const TID_CACHE: u32 = 4;
const TID_SQUASH: u32 = 5;

/// The pipeline-process track names, in tid order — the contract the CI
/// trace smoke test greps for.
pub const TRACK_NAMES: [&str; 5] =
    ["fetch mix", "scc unit", "streams", "uop cache", "squash windows"];

fn hex(a: Addr) -> String {
    format!("\"{a:#x}\"")
}

fn opt_id(id: Option<u64>) -> String {
    match id {
        Some(id) => id.to_string(),
        None => "null".to_string(),
    }
}

/// A [`Sink`] that renders events into Chrome trace-event JSON.
#[derive(Default)]
pub struct ChromeTraceSink {
    events: Vec<String>,
}

impl ChromeTraceSink {
    /// An empty trace with the process/thread name metadata pre-emitted.
    pub fn new() -> ChromeTraceSink {
        let mut s = ChromeTraceSink { events: Vec::new() };
        s.meta(0, "process_name", "pipeline");
        for (i, name) in TRACK_NAMES.iter().enumerate() {
            s.meta(i as u32 + 1, "thread_name", name);
        }
        s
    }

    fn meta(&mut self, tid: u32, key: &str, value: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{PID_PIPELINE},\"tid\":{tid},\"name\":\"{key}\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(value)
        ));
    }

    /// An `"X"` complete span on a pipeline track (cycles as µs,
    /// zero-length spans widened to 1 so they stay visible).
    fn span(&mut self, tid: u32, name: &str, ts: u64, dur: u64, args: String) {
        let dur = dur.max(1);
        self.events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{PID_PIPELINE},\"tid\":{tid},\"name\":\"{}\",\
             \"ts\":{ts},\"dur\":{dur},\"args\":{{{args}}}}}",
            escape(name)
        ));
    }

    /// An `"i"` instant on a pipeline track.
    fn instant(&mut self, tid: u32, name: &str, ts: u64, args: String) {
        self.events.push(format!(
            "{{\"ph\":\"i\",\"pid\":{PID_PIPELINE},\"tid\":{tid},\"name\":\"{}\",\
             \"ts\":{ts},\"s\":\"t\",\"args\":{{{args}}}}}",
            escape(name)
        ));
    }

    /// Number of rendered trace events (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when only metadata has been rendered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The complete trace as a Chrome trace-event JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            if i + 1 != self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Writes the trace to `path`, creating parent directories. Returns
    /// the rendered JSON.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<String> {
        let json = self.to_json();
        write_creating_dirs(path.as_ref(), &json)?;
        Ok(json)
    }
}

impl Sink for ChromeTraceSink {
    fn record(&mut self, event: &Event) {
        match event {
            Event::FetchInterval { start_cycle, end_cycle, icache, unopt, opt } => {
                self.span(
                    TID_FETCH,
                    "fetch",
                    *start_cycle,
                    end_cycle - start_cycle,
                    format!("\"icache\":{icache},\"unopt\":{unopt},\"opt\":{opt}"),
                );
                // A stacked counter track of the same mix.
                self.events.push(format!(
                    "{{\"ph\":\"C\",\"pid\":{PID_PIPELINE},\"tid\":{TID_FETCH},\
                     \"name\":\"uops by source\",\"ts\":{start_cycle},\
                     \"args\":{{\"icache\":{icache},\"unopt\":{unopt},\"opt\":{opt}}}}}"
                ));
            }
            Event::CompactionPass { start_cycle, end_cycle, region, entry, outcome, shrinkage, stream_id } => {
                self.span(
                    TID_SCC,
                    outcome,
                    *start_cycle,
                    end_cycle.saturating_sub(*start_cycle),
                    format!(
                        "\"region\":{},\"entry\":{},\"shrinkage\":{shrinkage},\"stream\":{}",
                        hex(*region),
                        hex(*entry),
                        opt_id(*stream_id)
                    ),
                );
            }
            // High-volume audit-grade events: the audit log, not the
            // trace, is their serialized form.
            Event::Decision { .. } | Event::AssumptionValidated { .. } => {}
            Event::StreamActivated { cycle, stream_id, pc, len } => {
                self.instant(
                    TID_STREAMS,
                    "activate",
                    *cycle,
                    format!("\"stream\":{stream_id},\"pc\":{},\"len\":{len}", hex(*pc)),
                );
            }
            Event::StreamInserted { cycle, stream_id, region, shrinkage, invariants } => {
                self.instant(
                    TID_STREAMS,
                    "insert",
                    *cycle,
                    format!(
                        "\"stream\":{stream_id},\"region\":{},\"shrinkage\":{shrinkage},\
                         \"invariants\":{invariants}",
                        hex(*region)
                    ),
                );
            }
            Event::StreamEvicted { cycle, stream_id, region, reason } => {
                self.instant(
                    TID_STREAMS,
                    "evict",
                    *cycle,
                    format!(
                        "\"stream\":{stream_id},\"region\":{},\"reason\":\"{reason}\"",
                        hex(*region)
                    ),
                );
            }
            Event::RegionFilled { cycle, region, uops } => {
                self.instant(
                    TID_CACHE,
                    "fill",
                    *cycle,
                    format!("\"region\":{},\"uops\":{uops}", hex(*region)),
                );
            }
            Event::RegionEvicted { cycle, region } => {
                self.instant(TID_CACHE, "evict", *cycle, format!("\"region\":{}", hex(*region)));
            }
            Event::SquashWindow { cycle, resume_cycle, cause, new_pc, flushed, stream_id } => {
                self.span(
                    TID_SQUASH,
                    cause,
                    *cycle,
                    resume_cycle.saturating_sub(*cycle),
                    format!(
                        "\"new_pc\":{},\"flushed\":{flushed},\"stream\":{}",
                        hex(*new_pc),
                        opt_id(*stream_id)
                    ),
                );
            }
            Event::AssumptionFailed { cycle, stream_id, invariant, kind, pc } => {
                self.instant(
                    TID_SQUASH,
                    "assumption-failed",
                    *cycle,
                    format!(
                        "\"kind\":\"{kind}\",\"stream\":{stream_id},\
                         \"invariant\":{invariant},\"pc\":{}",
                        hex(*pc)
                    ),
                );
            }
        }
    }
}

/// Renders the full metrics registry of one run as a JSON document:
/// `{"workload": .., "level": .., "metrics": {name: value, ..}}`.
///
/// Counters serialize as integers, gauges as decimal floats (non-finite
/// values, which the registry never produces from a real run, clamp to
/// 0 so the document always parses).
pub fn metrics_json(workload: &str, level: &str, stats: &PipelineStats) -> String {
    let metrics = stats.metrics();
    let mut out = String::with_capacity(metrics.len() * 32);
    out.push_str("{\n");
    out.push_str(&format!("  \"workload\": \"{}\",\n", escape(workload)));
    out.push_str(&format!("  \"level\": \"{}\",\n", escape(level)));
    out.push_str("  \"metrics\": {\n");
    for (i, m) in metrics.iter().enumerate() {
        let value = match m.value {
            MetricValue::Counter(c) => c.to_string(),
            MetricValue::Gauge(g) if g.is_finite() => format!("{g:.6}"),
            MetricValue::Gauge(_) => "0".to_string(),
        };
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("    \"{}\": {value}{sep}\n", escape(&m.name)));
    }
    out.push_str("  }\n}\n");
    out
}

/// Writes [`metrics_json`] to `path`, creating parent directories.
/// Returns the rendered JSON.
pub fn write_metrics_json(
    path: impl AsRef<Path>,
    workload: &str,
    level: &str,
    stats: &PipelineStats,
) -> std::io::Result<String> {
    let json = metrics_json(workload, level, stats);
    write_creating_dirs(path.as_ref(), &json)?;
    Ok(json)
}

fn write_creating_dirs(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_isa::json::Json;

    #[test]
    fn trace_renders_valid_json_with_all_tracks() {
        let mut sink = ChromeTraceSink::new();
        sink.record(&Event::FetchInterval {
            start_cycle: 0,
            end_cycle: 4096,
            icache: 10,
            unopt: 200,
            opt: 300,
        });
        sink.record(&Event::CompactionPass {
            start_cycle: 50,
            end_cycle: 80,
            region: 0x1000,
            entry: 0x1004,
            outcome: "committed",
            shrinkage: 7,
            stream_id: Some(1),
        });
        sink.record(&Event::StreamActivated { cycle: 90, stream_id: 1, pc: 0x1004, len: 12 });
        sink.record(&Event::StreamInserted {
            cycle: 80,
            stream_id: 1,
            region: 0x1000,
            shrinkage: 7,
            invariants: 2,
        });
        sink.record(&Event::RegionFilled { cycle: 10, region: 0x1000, uops: 9 });
        sink.record(&Event::SquashWindow {
            cycle: 120,
            resume_cycle: 134,
            cause: "scc-data",
            new_pc: 0x1008,
            flushed: 44,
            stream_id: Some(1),
        });
        sink.record(&Event::AssumptionFailed {
            cycle: 120,
            stream_id: 1,
            invariant: 0,
            kind: "data",
            pc: 0x1004,
        });
        let json = sink.to_json();
        Json::parse(&json).expect("trace must be valid JSON");
        for name in TRACK_NAMES {
            assert!(json.contains(name), "missing track {name}:\n{json}");
        }
        assert_eq!(json.matches("\"process_name\"").count(), 1, "one process: the pipeline");
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn audit_volume_events_are_not_rendered() {
        let mut sink = ChromeTraceSink::new();
        let before = sink.len();
        sink.record(&Event::AssumptionValidated {
            cycle: 1,
            stream_id: 0,
            invariant: 0,
            kind: "data",
        });
        sink.record(&Event::Decision {
            region: 0x1000,
            stream_id: None,
            decision: scc_isa::trace::UopDecision {
                pc: 0x1000,
                slot: 0,
                op: "add".into(),
                action: scc_isa::trace::Transformation::Kept,
            },
        });
        assert_eq!(sink.len(), before, "per-uop events belong to the audit log");
    }

    #[test]
    fn metrics_json_is_valid_and_complete() {
        let stats = PipelineStats { cycles: 100, committed_uops: 250, ..Default::default() };
        let json = metrics_json("freqmine", "baseline", &stats);
        Json::parse(&json).expect("metrics must be valid JSON");
        for needle in
            ["\"workload\": \"freqmine\"", "\"cycles\": 100", "\"ipc\": 2.5", "l1i.hits", "opt.inserts"]
        {
            assert!(json.contains(needle), "missing {needle}:\n{json}");
        }
        // Every registry entry appears exactly once.
        for m in stats.metrics() {
            assert_eq!(json.matches(&format!("\"{}\":", m.name)).count(), 1, "{}", m.name);
        }
    }
}
