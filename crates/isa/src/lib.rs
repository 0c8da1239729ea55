//! Micro-op ISA, programs, decoder, and reference interpreter for the
//! Speculative Code Compaction (SCC) reproduction.
//!
//! The paper (Moody et al., MICRO 2022) operates on decoded x86 micro-ops
//! resident in a micro-op cache. This crate provides the equivalent
//! substrate: a RISC-like micro-op ISA in which *macro-instructions* carry
//! byte addresses and lengths (so that the paper's 32-byte code regions,
//! macro-fusion, and self-looping string instructions are meaningful), a
//! program builder ("assembler"), and a deterministic in-order reference
//! interpreter that serves as the correctness oracle for the out-of-order
//! pipeline and for SCC itself.
//!
//! # Example
//!
//! ```
//! use scc_isa::{ProgramBuilder, Reg, Cond, Machine};
//!
//! let mut b = ProgramBuilder::new(0x1000);
//! let (r0, r1) = (Reg::int(0), Reg::int(1));
//! b.mov_imm(r0, 0); // sum
//! b.mov_imm(r1, 10); // counter
//! let top = b.here();
//! b.add(r0, r0, r1);
//! b.sub_imm(r1, r1, 1);
//! b.cmp_br_imm(Cond::Ne, r1, 0, top);
//! b.halt();
//! let program = b.build();
//!
//! let mut m = Machine::new(&program);
//! let result = m.run(10_000).unwrap();
//! assert_eq!(m.reg(r0), 55);
//! assert!(result.halted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
pub mod crc;
pub mod disasm;
pub mod fnv;
pub mod fusion;
pub mod fxhash;
mod interp;
pub mod json;
mod macroop;
mod program;
pub mod rand_prog;
mod reg;
mod semantics;
pub mod trace;
mod uop;

pub use asm::{Label, ProgramBuilder};
pub use crc::crc32c;
pub use fnv::{fnv1a, Fnv1a};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use interp::{ArchSnapshot, Machine, Memory, RunError, RunResult, StepInfo};
pub use macroop::{MacroInst, MacroKind};
pub use program::{Program, ProgramError};
pub use reg::{CcFlags, Reg, NUM_INT_REGS, NUM_REGS};
pub use semantics::{
    branch_of, eval_alu, eval_complex, eval_cond, eval_fp, is_branch, is_foldable_int, AluResult,
    BranchOutcome,
};
pub use trace::{Event, Sink, SinkHandle, Transformation, UopDecision};
pub use uop::{Addr, Cond, Op, Operand, Uop};

/// Size in bytes of the native code regions SCC optimizes over.
///
/// The paper optimizes "roughly 18 fused micro-ops or a 32-byte native x86
/// code region" at a time; micro-op cache lines are indexed by these
/// regions.
pub const REGION_BYTES: u64 = 32;

/// Returns the 32-byte region base address that `addr` falls into.
///
/// ```
/// assert_eq!(scc_isa::region(0x1037), 0x1020);
/// ```
pub fn region(addr: Addr) -> Addr {
    addr & !(REGION_BYTES - 1)
}

/// Returns true if two addresses fall in the same 32-byte code region.
pub fn same_region(a: Addr, b: Addr) -> bool {
    region(a) == region(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_masks_low_bits() {
        assert_eq!(region(0), 0);
        assert_eq!(region(31), 0);
        assert_eq!(region(32), 32);
        assert_eq!(region(0xFFFF_FFFF), 0xFFFF_FFE0);
    }

    #[test]
    fn same_region_boundaries() {
        assert!(same_region(0x1000, 0x101F));
        assert!(!same_region(0x101F, 0x1020));
    }
}
