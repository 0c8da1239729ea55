//! Structured-event export: Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`), the flat metrics JSON, and a tiny
//! dependency-free JSON validator used by the smoke tests.
//!
//! The exporter renders each [`Event`] eagerly into its final JSON
//! object, so memory scales with the number of *rendered* events (the
//! high-volume per-uop `Decision` and per-commit `AssumptionValidated`
//! events are deliberately left to the audit log, which aggregates
//! them).
//!
//! Track layout:
//!
//! * process 1 "pipeline" — deterministic, cycle-clocked tracks
//!   (1 cycle rendered as 1 µs): `fetch mix`, `scc unit`, `streams`,
//!   `uop cache`, `squash windows`;
//! * process 2 "runner" — wall-clock job-scheduling spans, one thread
//!   per worker slot (inherently nondeterministic; excluded from the
//!   byte-identity determinism tests).

use crate::runner::RunTiming;
use scc_isa::json::escape;
use scc_isa::trace::{Event, Sink};
use scc_isa::Addr;
use scc_pipeline::{MetricValue, PipelineStats};
use std::collections::BTreeSet;
use std::path::Path;

const PID_PIPELINE: u32 = 1;
const PID_RUNNER: u32 = 2;
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
    named_workers: BTreeSet<usize>,
    named_store: bool,
}

impl ChromeTraceSink {
    /// An empty trace with the process/thread name metadata pre-emitted.
    pub fn new() -> ChromeTraceSink {
        let mut s = ChromeTraceSink {
            events: Vec::new(),
            named_workers: BTreeSet::new(),
            named_store: false,
        };
        s.meta(PID_PIPELINE, 0, "process_name", "pipeline");
        s.meta(PID_RUNNER, 0, "process_name", "runner");
        for (i, name) in TRACK_NAMES.iter().enumerate() {
            s.meta(PID_PIPELINE, i as u32 + 1, "thread_name", name);
        }
        s
    }

    fn meta(&mut self, pid: u32, tid: u32, key: &str, value: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{key}\",\
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

    fn worker_track(&mut self, worker: usize) -> u32 {
        let tid = worker as u32 + 1;
        if self.named_workers.insert(worker) {
            self.meta(PID_RUNNER, tid, "thread_name", &format!("worker {worker}"));
        }
        tid
    }

    /// The runner process's store-tier track, named lazily so traces
    /// without store activity keep their existing layout.
    fn store_track(&mut self) -> u32 {
        const TID_STORE: u32 = 999;
        if !self.named_store {
            self.named_store = true;
            self.meta(PID_RUNNER, TID_STORE, "thread_name", "store tier");
        }
        TID_STORE
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
            Event::JobStarted { worker, ts_us, workload, level } => {
                let tid = self.worker_track(*worker);
                self.events.push(format!(
                    "{{\"ph\":\"B\",\"pid\":{PID_RUNNER},\"tid\":{tid},\"name\":\"{}\",\
                     \"ts\":{ts_us},\"args\":{{\"level\":\"{level}\"}}}}",
                    escape(workload)
                ));
            }
            Event::JobFinished { worker, ts_us, workload, level, cached } => {
                let tid = self.worker_track(*worker);
                self.events.push(format!(
                    "{{\"ph\":\"E\",\"pid\":{PID_RUNNER},\"tid\":{tid},\"name\":\"{}\",\
                     \"ts\":{ts_us},\"args\":{{\"level\":\"{level}\",\"cached\":{cached}}}}}",
                    escape(workload)
                ));
            }
            Event::StoreOp { ts_us, op, detail, count } => {
                let tid = self.store_track();
                self.events.push(format!(
                    "{{\"ph\":\"i\",\"pid\":{PID_RUNNER},\"tid\":{tid},\"name\":\"{}\",\
                     \"ts\":{ts_us},\"s\":\"t\",\"args\":{{\"detail\":\"{}\",\"count\":{count}}}}}",
                    escape(op),
                    escape(detail)
                ));
            }
        }
    }
}

/// Replays a runner's log (see [`crate::Runner::timings`]) into a sink
/// as `JobStarted`/`JobFinished` pairs — how the runner's worker tracks
/// land in an exported trace.
pub fn replay_schedule(sink: &mut dyn Sink, schedule: &[RunTiming]) {
    for t in schedule {
        // Service jobs carry their request ID into the runner track's
        // span name, so a request is findable in the exported trace.
        let name = match &t.request {
            Some(req) => format!("{} [{req}]", t.workload),
            None => t.workload.clone(),
        };
        sink.record(&Event::JobStarted {
            worker: t.worker,
            ts_us: t.start_us,
            workload: name.clone(),
            level: t.level,
        });
        sink.record(&Event::JobFinished {
            worker: t.worker,
            ts_us: t.end_us.max(t.start_us),
            workload: name,
            level: t.level,
            cached: t.cached,
        });
    }
}

/// Replays the store tier's recorded operation log (see
/// [`crate::runner::StoreTier::trace_events`]) into a sink — how
/// persistent-tier activity (recovery, warm hits, write-through) lands
/// on the exported trace's `store tier` track next to the runner's
/// worker tracks.
pub fn replay_store_ops(sink: &mut dyn Sink, ops: &[Event]) {
    for e in ops {
        sink.record(e);
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

/// Validates that `s` is one well-formed JSON document (objects, arrays,
/// strings, numbers, booleans, null — no extensions). Returns the byte
/// offset of the first problem on failure. Dependency-free, used by the
/// export tests and the `scc-check` harness to keep the emitted
/// documents honest without a JSON crate.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
    if *i < b.len() && b[*i] == c {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, i))
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                string(b, i)?;
                skip_ws(b, i);
                expect(b, i, b':')?;
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {i}")),
                }
            }
        }
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        _ => Err(format!("expected a value at byte {i}")),
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, b'"')?;
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => *i += 2,
            c if c < 0x20 => return Err(format!("raw control byte in string at {i}")),
            _ => *i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        *i > s
    };
    if !digits(b, i) {
        return Err(format!("malformed number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("malformed number at byte {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e') | Some(b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+') | Some(b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("malformed number at byte {start}"));
        }
    }
    Ok(())
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() - *i >= lit.len() && &b[*i..*i + lit.len()] == lit {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("malformed literal at byte {i}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e3",
            "{\"a\": [1, 2, {\"b\": \"x\\\"y\"}], \"c\": true}",
            " {\"traceEvents\":[]} ",
        ] {
            assert!(validate_json(good).is_ok(), "{good}");
        }
        for bad in ["", "{", "[1,]", "{\"a\":}", "01x", "{} {}", "\"unterminated"] {
            assert!(validate_json(bad).is_err(), "{bad:?} should fail");
        }
    }

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
        sink.record(&Event::JobStarted {
            worker: 0,
            ts_us: 5,
            workload: "freqmine".into(),
            level: "full-scc",
        });
        sink.record(&Event::JobFinished {
            worker: 0,
            ts_us: 900,
            workload: "freqmine".into(),
            level: "full-scc",
            cached: false,
        });
        let json = sink.to_json();
        validate_json(&json).expect("trace must be valid JSON");
        for name in TRACK_NAMES {
            assert!(json.contains(name), "missing track {name}:\n{json}");
        }
        assert!(json.contains("worker 0"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"B\""));
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
        validate_json(&json).expect("metrics must be valid JSON");
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

    #[test]
    fn store_ops_render_on_their_own_runner_track() {
        let mut sink = ChromeTraceSink::new();
        let ops = vec![
            Event::StoreOp {
                ts_us: 1,
                op: "recover",
                detail: "/tmp/store".into(),
                count: 12,
            },
            Event::StoreOp {
                ts_us: 2,
                op: "hit",
                detail: "freqmine|full-scc".into(),
                count: 1,
            },
        ];
        replay_store_ops(&mut sink, &ops);
        let json = sink.to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("store tier"), "store track named:\n{json}");
        assert!(json.contains("\"name\":\"recover\""));
        assert!(json.contains("\"count\":12"));
        assert_eq!(json.matches("store tier").count(), 1, "track named once");
    }

    #[test]
    fn schedule_replay_produces_balanced_spans() {
        let mut sink = ChromeTraceSink::new();
        let schedule = vec![
            RunTiming {
                workload: "leela".into(),
                level: "baseline",
                uops: 900,
                cached: false,
                worker: 2,
                start_us: 10,
                end_us: 40,
                request: None,
            },
            RunTiming {
                workload: "leela".into(),
                level: "baseline",
                uops: 900,
                cached: true,
                worker: 0,
                start_us: 12,
                end_us: 12,
                request: Some("req-42".into()),
            },
        ];
        replay_schedule(&mut sink, &schedule);
        let json = sink.to_json();
        validate_json(&json).unwrap();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert!(json.contains("worker 2"));
        assert!(json.contains("\"cached\":true"));
        assert!(json.contains("leela [req-42]"), "request ID lands in the span name");
    }
}
