//! The SCC decision audit log.
//!
//! Flückiger et al. ("Correctness of Speculative Optimizations with
//! Dynamic Deoptimization") model every speculative optimization as an
//! assumption/deoptimization pair. [`AuditLog`] materializes that view of
//! an SCC run: it records, per scanned micro-op, which transformation the
//! engine chose and the predictor confidence that justified it, and, per
//! squash, which recorded assumption failed. It is a [`Sink`], so it
//! attaches anywhere the trace layer does.
//!
//! The log serializes to JSON Lines (one type-tagged object per line, in
//! arrival order), and keeps running totals that must reconcile with the
//! pipeline's own counters: `validated()` equals
//! `PipelineStats::invariants_validated`, `failed_data()` equals
//! `invariants_failed`, and `failed_control()` equals
//! `scc_control_squashes`.

use scc_isa::json::escape;
use scc_isa::trace::{Event, Sink, Transformation};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Per-stream assumption outcome counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssumptionCounts {
    /// Invariants that held at commit.
    pub validated: u64,
    /// Data invariants that failed (value mismatch at execute).
    pub failed_data: u64,
    /// Control invariants that failed (branch resolved off-stream).
    pub failed_control: u64,
}

/// Collects SCC decisions and assumption outcomes from the event stream.
#[derive(Clone, Debug, Default)]
pub struct AuditLog {
    lines: Vec<String>,
    decision_counts: [u64; Transformation::LABELS.len()],
    decisions: u64,
    per_stream: BTreeMap<u64, AssumptionCounts>,
    validated: u64,
    failed_data: u64,
    failed_control: u64,
}

fn opt_id(id: Option<u64>) -> String {
    match id {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Total decision records.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decision counts per transformation, in
    /// [`Transformation::LABELS`] order.
    pub fn decision_histogram(&self) -> Vec<(&'static str, u64)> {
        Transformation::LABELS.iter().copied().zip(self.decision_counts).collect()
    }

    /// Per-stream assumption outcomes, keyed by stream id.
    pub fn per_stream(&self) -> &BTreeMap<u64, AssumptionCounts> {
        &self.per_stream
    }

    /// Assumptions that held at commit (equals the pipeline's
    /// `invariants_validated`).
    pub fn validated(&self) -> u64 {
        self.validated
    }

    /// Data assumptions that failed (equals `invariants_failed`).
    pub fn failed_data(&self) -> u64 {
        self.failed_data
    }

    /// Control assumptions that failed (equals `scc_control_squashes`).
    pub fn failed_control(&self) -> u64 {
        self.failed_control
    }

    /// The log as JSON Lines, one event per line in arrival order.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Writes the JSON Lines log to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

impl Sink for AuditLog {
    fn record(&mut self, event: &Event) {
        match event {
            Event::CompactionPass {
                start_cycle,
                end_cycle,
                region,
                entry,
                outcome,
                shrinkage,
                stream_id,
            } => {
                self.lines.push(format!(
                    "{{\"type\":\"pass\",\"cycle\":{start_cycle},\"end_cycle\":{end_cycle},\
                     \"region\":{region},\"entry\":{entry},\"outcome\":\"{outcome}\",\
                     \"shrinkage\":{shrinkage},\"stream_id\":{}}}",
                    opt_id(*stream_id)
                ));
            }
            Event::Decision { region, stream_id, decision } => {
                self.decisions += 1;
                let idx = Transformation::LABELS
                    .iter()
                    .position(|l| *l == decision.action.label())
                    .expect("label in canonical set");
                self.decision_counts[idx] += 1;
                let conf = match decision.action.confidence() {
                    Some(c) => c.to_string(),
                    None => "null".to_string(),
                };
                self.lines.push(format!(
                    "{{\"type\":\"decision\",\"region\":{region},\"stream_id\":{},\
                     \"pc\":{},\"slot\":{},\"op\":\"{}\",\"action\":\"{}\",\
                     \"confidence\":{conf}}}",
                    opt_id(*stream_id),
                    decision.pc,
                    decision.slot,
                    escape(&decision.op),
                    decision.action.label(),
                ));
            }
            Event::AssumptionValidated { cycle, stream_id, invariant, kind } => {
                self.validated += 1;
                self.per_stream.entry(*stream_id).or_default().validated += 1;
                self.lines.push(format!(
                    "{{\"type\":\"validated\",\"cycle\":{cycle},\"stream_id\":{stream_id},\
                     \"invariant\":{invariant},\"kind\":\"{kind}\"}}"
                ));
            }
            Event::AssumptionFailed { cycle, stream_id, invariant, kind, pc } => {
                let counts = self.per_stream.entry(*stream_id).or_default();
                if *kind == "control" {
                    self.failed_control += 1;
                    counts.failed_control += 1;
                } else {
                    self.failed_data += 1;
                    counts.failed_data += 1;
                }
                self.lines.push(format!(
                    "{{\"type\":\"failed\",\"cycle\":{cycle},\"stream_id\":{stream_id},\
                     \"invariant\":{invariant},\"kind\":\"{kind}\",\"pc\":{pc}}}"
                ));
            }
            // Fetch mix, cache lifecycle, squash windows, and runner
            // scheduling belong to the trace exporter, not the audit log.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_isa::trace::UopDecision;

    fn decision(action: Transformation) -> Event {
        Event::Decision {
            region: 0x40,
            stream_id: Some(3),
            decision: UopDecision { pc: 0x44, slot: 0, op: "add".into(), action },
        }
    }

    #[test]
    fn histogram_counts_by_label() {
        let mut log = AuditLog::new();
        log.record(&decision(Transformation::Fold));
        log.record(&decision(Transformation::Fold));
        log.record(&decision(Transformation::DataInvariantSource { confidence: 9 }));
        assert_eq!(log.decisions(), 3);
        let hist: BTreeMap<_, _> = log.decision_histogram().into_iter().collect();
        assert_eq!(hist["fold"], 2);
        assert_eq!(hist["data-invariant-source"], 1);
        assert_eq!(hist["kept"], 0);
    }

    #[test]
    fn assumption_totals_and_per_stream() {
        let mut log = AuditLog::new();
        log.record(&Event::AssumptionValidated {
            cycle: 10,
            stream_id: 1,
            invariant: 0,
            kind: "data",
        });
        log.record(&Event::AssumptionFailed {
            cycle: 20,
            stream_id: 1,
            invariant: 0,
            kind: "data",
            pc: 0x44,
        });
        log.record(&Event::AssumptionFailed {
            cycle: 30,
            stream_id: 2,
            invariant: 1,
            kind: "control",
            pc: 0x48,
        });
        assert_eq!(log.validated(), 1);
        assert_eq!(log.failed_data(), 1);
        assert_eq!(log.failed_control(), 1);
        assert_eq!(log.per_stream()[&1].validated, 1);
        assert_eq!(log.per_stream()[&1].failed_data, 1);
        assert_eq!(log.per_stream()[&2].failed_control, 1);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut log = AuditLog::new();
        log.record(&decision(Transformation::Propagate));
        log.record(&Event::CompactionPass {
            start_cycle: 5,
            end_cycle: 12,
            region: 0x40,
            entry: 0x40,
            outcome: "committed",
            shrinkage: 4,
            stream_id: Some(3),
        });
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
        }
        assert!(text.contains("\"action\":\"propagate\""));
        assert!(text.contains("\"outcome\":\"committed\""));
        assert!(text.contains("\"confidence\":null"));
    }

    #[test]
    fn non_audit_events_are_ignored() {
        let mut log = AuditLog::new();
        log.record(&Event::RegionFilled { cycle: 1, region: 0x40, uops: 6 });
        log.record(&Event::SquashWindow {
            cycle: 2,
            resume_cycle: 12,
            cause: "branch",
            new_pc: 0x80,
            flushed: 3,
            stream_id: None,
        });
        assert!(log.to_jsonl().is_empty());
        assert_eq!(log.decisions(), 0);
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }
}
