//! Compacted micro-op streams and their predicted invariants — the
//! exchange type between the SCC engine, the optimized partition, and the
//! fetch engine.

use scc_isa::{Addr, CcFlags, Reg, Uop};
use scc_predictors::SatCounter;

/// A predicted program invariant a compacted stream depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// A speculative *data* invariant: the micro-op at `pc` (slot
    /// `slot` of its macro) is predicted to produce `value`.
    Data {
        /// Macro address of the prediction-source micro-op.
        pc: Addr,
        /// Micro-op slot within the macro.
        slot: u8,
        /// Predicted result value.
        value: i64,
    },
    /// A speculative *control* invariant: the branch at `pc` is predicted
    /// to go `taken` toward `target`.
    Control {
        /// Macro address of the branch.
        pc: Addr,
        /// Predicted direction.
        taken: bool,
        /// Predicted next PC.
        target: Addr,
    },
}

impl Invariant {
    /// The PC this invariant is anchored to.
    pub fn pc(&self) -> Addr {
        match self {
            Invariant::Data { pc, .. } | Invariant::Control { pc, .. } => *pc,
        }
    }

    /// True for data invariants.
    pub fn is_data(&self) -> bool {
        matches!(self, Invariant::Data { .. })
    }
}

/// An invariant plus its 4-bit confidence counter, stored in the optimized
/// partition's extended tag array (paper §III: "compacted streams … are
/// tagged by a set of saturating counters to track confidence for each of
/// the predicted invariants").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaggedInvariant {
    /// The predicted invariant.
    pub invariant: Invariant,
    /// 4-bit saturating confidence, updated on validation/squash.
    pub confidence: SatCounter,
}

impl TaggedInvariant {
    /// Tags an invariant with an initial confidence seeded from the
    /// predictor's confidence at compaction time (rescaled 0–15).
    pub fn new(invariant: Invariant, initial_confidence: u8) -> TaggedInvariant {
        TaggedInvariant {
            invariant,
            confidence: SatCounter::with_value(initial_confidence.min(15), 15),
        }
    }
}

/// One element of a compacted stream: a surviving (possibly rewritten)
/// micro-op plus its speculative metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamUop {
    /// The micro-op to dispatch (operands may have been rewritten to
    /// immediates by speculative constant propagation).
    pub uop: Uop,
    /// If this micro-op is a *prediction source*, the index of the
    /// invariant it validates in [`CompactedStream::invariants`].
    pub pred_source: Option<usize>,
    /// Live-out register values to be inlined at rename *with* this
    /// micro-op (visible even if this micro-op itself mispredicts — they
    /// derive only from strictly older invariants; paper §IV "Inlining
    /// Live Outs").
    pub live_outs: Vec<(Reg, i64)>,
    /// Live-out condition codes, when the flags' last writer was
    /// eliminated (the SCC register file tracks "live integer and
    /// condition-code registers", paper §III).
    pub live_out_cc: Option<CcFlags>,
    /// For kept branches: the *architectural* next PC the compaction
    /// followed (pivot target or predicted target). The fetch engine
    /// validates the resolved branch against this — not against the next
    /// surviving micro-op's address, which skips folded code.
    pub branch_next: Option<Addr>,
    /// Micro-ops the engine eliminated between the previous surviving
    /// element and this one, in scan order. Program-distance accounting
    /// credits eliminated work to the *oldest* surviving micro-op at or
    /// after it, so a stream squashed mid-flight still counts exactly
    /// the eliminated micro-ops its committed prefix covers (the
    /// resumed unoptimized fetch re-executes — and re-counts — the
    /// rest). Eliminations after the last surviving element are the
    /// stream's tail: `shrinkage() - Σ elided_before`, credited at the
    /// final element.
    pub elided_before: u32,
}

impl StreamUop {
    /// A plain pass-through stream element.
    pub fn plain(uop: Uop) -> StreamUop {
        StreamUop {
            uop,
            pred_source: None,
            live_outs: Vec::new(),
            live_out_cc: None,
            branch_next: None,
            elided_before: 0,
        }
    }
}

/// Which optimizations contributed to a stream, and how many micro-ops
/// each eliminated or rewrote — feeds Figure 6's per-optimization
/// breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ElimBreakdown {
    /// Register-immediate moves eliminated (speculative move elimination).
    pub move_elim: u32,
    /// Micro-ops eliminated by speculative constant folding.
    pub fold: u32,
    /// Micro-ops rewritten reg→imm by speculative constant propagation
    /// (not eliminated, but cheaper downstream).
    pub propagated: u32,
    /// Branches eliminated by speculative branch folding.
    pub branch_fold: u32,
    /// Micro-ops eliminated past a predicted (unfolded) branch — the
    /// cross-basic-block share.
    pub cross_block: u32,
}

impl ElimBreakdown {
    /// Total micro-ops removed from the stream.
    pub fn eliminated(&self) -> u32 {
        self.move_elim + self.fold + self.branch_fold + self.cross_block
    }
}

/// A speculatively compacted micro-op stream for one 32-byte code region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactedStream {
    /// Home region (index/tag in the optimized partition).
    pub region: Addr,
    /// Address of the first macro-instruction covered: fetch matches this
    /// against the fetch PC.
    pub entry: Addr,
    /// The surviving micro-ops in stream order.
    pub uops: Vec<StreamUop>,
    /// Live-outs inlined when the last micro-op of the stream issues
    /// (paper: "live outs are also inlined at the end of every compacted
    /// instruction stream").
    pub final_live_outs: Vec<(Reg, i64)>,
    /// Condition-code live-out inlined at stream end, when the flags'
    /// last writer was eliminated.
    pub final_live_out_cc: Option<CcFlags>,
    /// Predicted invariants with confidence tags.
    pub invariants: Vec<TaggedInvariant>,
    /// Where fetch resumes after the stream.
    pub exit: Addr,
    /// Number of micro-ops in the unoptimized original.
    pub orig_len: u32,
    /// Per-optimization elimination counts.
    pub breakdown: ElimBreakdown,
    /// Unique id assigned by the compaction engine.
    pub stream_id: u64,
}

impl CompactedStream {
    /// Micro-ops eliminated relative to the original (the paper's
    /// "compaction potential … measured as the shrinkage in the number of
    /// instructions").
    pub fn shrinkage(&self) -> u32 {
        self.orig_len.saturating_sub(self.uops.len() as u32)
    }

    /// Eliminated micro-ops credited to surviving elements via
    /// [`StreamUop::elided_before`]; never exceeds
    /// [`shrinkage`](Self::shrinkage), and the difference is the tail
    /// credited at the stream's final element.
    pub fn credited_elided(&self) -> u32 {
        self.uops.iter().map(|su| su.elided_before).sum()
    }

    /// Sum of all invariant confidence counters — one half of the
    /// profitability score.
    pub fn confidence_sum(&self) -> u32 {
        self.invariants.iter().map(|t| t.confidence.get() as u32).sum()
    }

    /// Lowest confidence across invariants (15 when there are none).
    pub fn min_confidence(&self) -> u8 {
        self.invariants.iter().map(|t| t.confidence.get()).min().unwrap_or(15)
    }

    /// The paper's profitability score: confidence sum plus compaction
    /// potential.
    pub fn profitability_score(&self) -> u32 {
        self.confidence_sum() + self.shrinkage()
    }

    /// Number of data invariants.
    pub fn data_invariants(&self) -> usize {
        self.invariants.iter().filter(|t| t.invariant.is_data()).count()
    }

    /// Number of control invariants.
    pub fn control_invariants(&self) -> usize {
        self.invariants.len() - self.data_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_isa::Op;

    fn stream_with(shrink: u32, confs: &[u8]) -> CompactedStream {
        CompactedStream {
            region: 0x100,
            entry: 0x100,
            uops: vec![StreamUop::plain(Uop::new(Op::Nop)); 3],
            final_live_outs: vec![],
            final_live_out_cc: None,
            invariants: confs
                .iter()
                .map(|&c| {
                    TaggedInvariant::new(Invariant::Data { pc: 0x100, slot: 0, value: 1 }, c)
                })
                .collect(),
            exit: 0x120,
            orig_len: 3 + shrink,
            breakdown: ElimBreakdown::default(),
            stream_id: 1,
        }
    }

    #[test]
    fn shrinkage_and_score() {
        let s = stream_with(5, &[10, 3]);
        assert_eq!(s.shrinkage(), 5);
        assert_eq!(s.confidence_sum(), 13);
        assert_eq!(s.profitability_score(), 18);
        assert_eq!(s.min_confidence(), 3);
    }

    #[test]
    fn empty_invariants_are_fully_confident() {
        let s = stream_with(2, &[]);
        assert_eq!(s.min_confidence(), 15);
        assert_eq!(s.confidence_sum(), 0);
    }

    #[test]
    fn invariant_kinds() {
        let d = Invariant::Data { pc: 4, slot: 0, value: 9 };
        let c = Invariant::Control { pc: 8, taken: true, target: 16 };
        assert!(d.is_data());
        assert!(!c.is_data());
        assert_eq!(d.pc(), 4);
        assert_eq!(c.pc(), 8);
    }

    #[test]
    fn tagged_invariant_clamps_confidence() {
        let t = TaggedInvariant::new(Invariant::Data { pc: 0, slot: 0, value: 0 }, 200);
        assert_eq!(t.confidence.get(), 15);
    }

    #[test]
    fn breakdown_totals() {
        let b = ElimBreakdown { move_elim: 1, fold: 2, propagated: 9, branch_fold: 3, cross_block: 4 };
        assert_eq!(b.eliminated(), 10, "propagated uops are rewritten, not eliminated");
    }

    #[test]
    fn invariant_counts() {
        let mut s = stream_with(0, &[5]);
        s.invariants.push(TaggedInvariant::new(
            Invariant::Control { pc: 1, taken: false, target: 2 },
            7,
        ));
        assert_eq!(s.data_invariants(), 1);
        assert_eq!(s.control_invariants(), 1);
    }
}
