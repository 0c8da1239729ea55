//! Shared observability vocabulary for the SCC reproduction.
//!
//! Every layer of the simulator — the compaction engine, the micro-op
//! cache partitions, and the cycle-level pipeline — reports what it did
//! through the same narrow interface: a [`Sink`] that receives structured
//! [`Event`]s. Consumers (the Chrome trace exporter, the SCC decision
//! audit log, test collectors) implement `Sink` once and can be attached
//! anywhere in the stack.
//!
//! The contract for producers is that observability must be free when it
//! is off: every emission site guards on [`SinkHandle::is_enabled`] (a
//! single `Option` discriminant check) before constructing an event, so a
//! simulation run with no sink attached pays one predictable branch per
//! site and allocates nothing.
//!
//! Every event is clocked in simulated cycles, so traces are
//! byte-for-byte deterministic for a given seed and configuration.

use crate::Addr;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The transformation the SCC engine applied to one scanned micro-op.
///
/// This is the paper's taxonomy of speculative rewrites (Table 2 of
/// MICRO 2022), plus the two bookkeeping outcomes (`Propagate` for a
/// kept-but-rewritten micro-op and `Kept` for an untouched one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transformation {
    /// Kept as the source of a *data* invariant: the value predictor was
    /// confident enough that downstream uses were folded against the
    /// predicted value. Carries the saturating-counter confidence
    /// (0..=15) that justified the speculation.
    DataInvariantSource {
        /// Predictor confidence at decision time (0..=15).
        confidence: u8,
    },
    /// Kept as the source of a *control* invariant: the branch predictor
    /// asserted a stable direction/target, letting compaction continue
    /// past the branch. Carries the branch-stability confidence.
    ControlInvariantSource {
        /// Predictor confidence at decision time (0..=15).
        confidence: u8,
    },
    /// Eliminated by move elimination (register-to-register copy
    /// absorbed into the rename context).
    MoveElim,
    /// Eliminated by constant folding (all inputs known; result computed
    /// at compaction time).
    Fold,
    /// Branch eliminated outright because its direction and target were
    /// known constants.
    BranchFold,
    /// Branch kept, but with a known target the compaction walk pivoted
    /// through it into the successor region.
    ControlPivot,
    /// Kept, with at least one source operand rewritten to an immediate
    /// by constant propagation.
    Propagate,
    /// Kept untouched.
    Kept,
}

impl Transformation {
    /// All transformation labels in canonical (histogram) order.
    pub const LABELS: [&'static str; 8] = [
        "data-invariant-source",
        "control-invariant-source",
        "move-elim",
        "fold",
        "branch-fold",
        "control-pivot",
        "propagate",
        "kept",
    ];

    /// Stable lowercase label for serialization.
    pub fn label(self) -> &'static str {
        match self {
            Transformation::DataInvariantSource { .. } => Self::LABELS[0],
            Transformation::ControlInvariantSource { .. } => Self::LABELS[1],
            Transformation::MoveElim => Self::LABELS[2],
            Transformation::Fold => Self::LABELS[3],
            Transformation::BranchFold => Self::LABELS[4],
            Transformation::ControlPivot => Self::LABELS[5],
            Transformation::Propagate => Self::LABELS[6],
            Transformation::Kept => Self::LABELS[7],
        }
    }

    /// The predictor confidence that justified the decision, if the
    /// transformation was speculative.
    pub fn confidence(self) -> Option<u8> {
        match self {
            Transformation::DataInvariantSource { confidence }
            | Transformation::ControlInvariantSource { confidence } => Some(confidence),
            _ => None,
        }
    }
}

/// The audit record for one micro-op scanned by a compaction pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UopDecision {
    /// Macro-instruction address of the scanned micro-op.
    pub pc: Addr,
    /// Micro-op slot within the macro-instruction.
    pub slot: u8,
    /// Disassembled opcode mnemonic.
    pub op: String,
    /// The transformation the engine chose.
    pub action: Transformation,
}

/// One structured observability event.
///
/// Cycle-stamped variants are deterministic for a fixed seed and
/// configuration; the `Job*` variants use host wall-clock microseconds.
#[derive(Clone, Debug)]
pub enum Event {
    /// Aggregated fetch-source mix over `[start_cycle, end_cycle)`:
    /// how many micro-ops the front end delivered from the legacy
    /// decode path, the unoptimized partition, and the optimized
    /// (compacted-stream) partition.
    FetchInterval {
        /// First cycle of the interval (inclusive).
        start_cycle: u64,
        /// Last cycle of the interval (exclusive).
        end_cycle: u64,
        /// Micro-ops delivered by the legacy decode path.
        icache: u64,
        /// Micro-ops delivered from the unoptimized partition.
        unopt: u64,
        /// Micro-ops delivered from the optimized partition.
        opt: u64,
    },
    /// One compaction pass through the SCC unit.
    CompactionPass {
        /// Cycle the pass started.
        start_cycle: u64,
        /// Cycle the SCC unit becomes free again.
        end_cycle: u64,
        /// 32-byte home region of the pass.
        region: Addr,
        /// Entry address the walk started from.
        entry: Addr,
        /// `"committed"`, `"discarded"`, or `"aborted"`.
        outcome: &'static str,
        /// Micro-ops removed relative to the original stream.
        shrinkage: u32,
        /// Stream id if the pass committed a stream.
        stream_id: Option<u64>,
    },
    /// Per-micro-op decision taken during the most recent compaction
    /// pass (only emitted when audit recording is on).
    Decision {
        /// Home region of the compaction pass.
        region: Addr,
        /// Stream id if the pass committed; `None` for discarded or
        /// aborted passes.
        stream_id: Option<u64>,
        /// The decision record itself.
        decision: UopDecision,
    },
    /// The front end switched fetch onto a compacted stream.
    StreamActivated {
        /// Cycle of activation.
        cycle: u64,
        /// Stream id.
        stream_id: u64,
        /// Entry address of the stream.
        pc: Addr,
        /// Micro-ops in the compacted stream.
        len: usize,
    },
    /// A compacted stream was inserted into the optimized partition.
    StreamInserted {
        /// Insertion cycle.
        cycle: u64,
        /// Stream id.
        stream_id: u64,
        /// Home region of the stream.
        region: Addr,
        /// Micro-ops removed by compaction.
        shrinkage: u32,
        /// Number of recorded invariants guarding the stream.
        invariants: usize,
    },
    /// A compacted stream left the optimized partition.
    StreamEvicted {
        /// Eviction cycle.
        cycle: u64,
        /// Stream id.
        stream_id: u64,
        /// Home region of the stream.
        region: Addr,
        /// `"capacity"`, `"replaced"`, `"phase-out"`, or `"invalidated"`.
        reason: &'static str,
    },
    /// A decoded region was filled into the unoptimized partition.
    RegionFilled {
        /// Fill cycle.
        cycle: u64,
        /// 32-byte region base.
        region: Addr,
        /// Micro-ops in the region's line.
        uops: usize,
    },
    /// A region was evicted from the unoptimized partition.
    RegionEvicted {
        /// Eviction cycle.
        cycle: u64,
        /// 32-byte region base.
        region: Addr,
    },
    /// A pipeline squash: from the triggering cycle until
    /// `resume_cycle` the front end is stalled redirecting fetch.
    SquashWindow {
        /// Cycle the squash was triggered.
        cycle: u64,
        /// Cycle fetch resumes at `new_pc`.
        resume_cycle: u64,
        /// `"scc-data"`, `"scc-control"`, `"branch"`, or `"vp-forward"`.
        cause: &'static str,
        /// Address fetch restarts from.
        new_pc: Addr,
        /// In-flight micro-ops flushed.
        flushed: u64,
        /// Offending stream id for SCC-caused squashes.
        stream_id: Option<u64>,
    },
    /// A recorded SCC assumption was checked at commit and held.
    AssumptionValidated {
        /// Commit cycle.
        cycle: u64,
        /// Stream whose invariant was validated.
        stream_id: u64,
        /// Index of the invariant within the stream.
        invariant: usize,
        /// `"data"` or `"control"`.
        kind: &'static str,
    },
    /// A recorded SCC assumption failed, squashing the pipeline.
    AssumptionFailed {
        /// Cycle the failure was detected.
        cycle: u64,
        /// Stream whose invariant failed.
        stream_id: u64,
        /// Index of the invariant within the stream.
        invariant: usize,
        /// `"data"` or `"control"`.
        kind: &'static str,
        /// Macro-instruction address of the invariant source.
        pc: Addr,
    },
}

/// A consumer of observability [`Event`]s.
///
/// Implementors should be cheap per call; producers only invoke the sink
/// when one is attached, so the disabled path never reaches this trait.
pub trait Sink {
    /// Receive one event.
    fn record(&mut self, event: &Event);
}

/// A shared, dynamically-dispatched sink handle.
///
/// The pipeline is single-threaded, so `Rc<RefCell<..>>` suffices; each
/// runner worker builds its own pipeline (and sink) on its own thread.
pub type SharedSink = Rc<RefCell<dyn Sink>>;

/// Wraps a concrete sink into a [`SharedSink`]-compatible handle while
/// keeping a typed `Rc` so the caller can read results back out later.
pub fn shared<S: Sink + 'static>(sink: S) -> Rc<RefCell<S>> {
    Rc::new(RefCell::new(sink))
}

/// A cloneable handle that is either attached to a [`SharedSink`] or
/// disabled.
///
/// This is the type threaded through simulator structs: it derives
/// `Clone`, prints opaquely under `Debug` (so stats-bearing structs keep
/// their derives), defaults to disabled, and makes the hot-path guard a
/// single `Option` discriminant check.
#[derive(Clone, Default)]
pub struct SinkHandle(Option<SharedSink>);

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "SinkHandle(enabled)"
        } else {
            "SinkHandle(disabled)"
        })
    }
}

impl SinkHandle {
    /// A disabled handle; every [`SinkHandle::emit`] is a no-op.
    pub fn disabled() -> SinkHandle {
        SinkHandle(None)
    }

    /// A handle attached to `sink`.
    pub fn attached(sink: SharedSink) -> SinkHandle {
        SinkHandle(Some(sink))
    }

    /// True when a sink is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emit an event. The closure runs — and the event is constructed —
    /// only when a sink is attached.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(sink) = &self.0 {
            let event = make();
            sink.borrow_mut().record(&event);
        }
    }
}

/// Fans every event out to several sinks (e.g. a Chrome trace exporter
/// plus an audit log on the same run).
#[derive(Default)]
pub struct Tee {
    sinks: Vec<SharedSink>,
}

impl Tee {
    /// An empty tee.
    pub fn new() -> Tee {
        Tee::default()
    }

    /// Add a downstream sink.
    pub fn push(&mut self, sink: SharedSink) {
        self.sinks.push(sink);
    }

    /// Number of downstream sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Sink for Tee {
    fn record(&mut self, event: &Event) {
        for sink in &self.sinks {
            sink.borrow_mut().record(event);
        }
    }
}

/// A test sink that keeps every event it receives.
#[derive(Default)]
pub struct CollectSink {
    /// Events in arrival order.
    pub events: Vec<Event>,
}

impl Sink for CollectSink {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_builds_events() {
        let handle = SinkHandle::disabled();
        assert!(!handle.is_enabled());
        let mut built = false;
        handle.emit(|| {
            built = true;
            Event::RegionEvicted { cycle: 0, region: 0 }
        });
        assert!(!built);
    }

    #[test]
    fn attached_handle_delivers_events() {
        let collect = shared(CollectSink::default());
        let handle = SinkHandle::attached(collect.clone());
        assert!(handle.is_enabled());
        handle.emit(|| Event::RegionFilled { cycle: 7, region: 0x1000, uops: 5 });
        let events = &collect.borrow().events;
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::RegionFilled { cycle, region, uops } => {
                assert_eq!((*cycle, *region, *uops), (7, 0x1000, 5));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn tee_fans_out_to_every_sink() {
        let a = shared(CollectSink::default());
        let b = shared(CollectSink::default());
        let mut tee = Tee::new();
        tee.push(a.clone());
        tee.push(b.clone());
        assert_eq!(tee.len(), 2);
        tee.record(&Event::RegionEvicted { cycle: 1, region: 32 });
        assert_eq!(a.borrow().events.len(), 1);
        assert_eq!(b.borrow().events.len(), 1);
    }

    #[test]
    fn transformation_labels_and_confidence() {
        assert_eq!(Transformation::Fold.label(), "fold");
        assert_eq!(Transformation::Fold.confidence(), None);
        let src = Transformation::DataInvariantSource { confidence: 12 };
        assert_eq!(src.label(), "data-invariant-source");
        assert_eq!(src.confidence(), Some(12));
        // Every variant maps onto a distinct canonical label.
        let all = [
            Transformation::DataInvariantSource { confidence: 0 },
            Transformation::ControlInvariantSource { confidence: 0 },
            Transformation::MoveElim,
            Transformation::Fold,
            Transformation::BranchFold,
            Transformation::ControlPivot,
            Transformation::Propagate,
            Transformation::Kept,
        ];
        for (i, t) in all.iter().enumerate() {
            assert_eq!(t.label(), Transformation::LABELS[i]);
        }
    }
}
