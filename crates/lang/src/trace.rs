//! The versioned `SCCTRACE1` interchange format for compiled programs.
//!
//! A `.scctrace` file carries one complete macro-op program — code,
//! entry point, and initial memory image — so external programs
//! (compiled by `scc-lang` or produced by any other frontend) can be
//! shipped to a running `scc-serve` instance and flow through the
//! runner/cache/store/router stack like any built-in workload.
//!
//! ```text
//! trace    := magic format schema rev_len rev body_len body_crc body
//! magic    := "SCCTRACE"            ; 8 bytes
//! format   := u32 le                ; byte-layout version (1)
//! schema   := u32 le                ; op/operand coding version (1)
//! rev_len  := u16 le                ; engine revision stamp length
//! rev      := rev_len utf-8 bytes   ; informational, never rejected on
//! body_len := u32 le
//! body_crc := u32 le                ; CRC-32C of body
//! body     := entry n_data (addr value)* n_inst inst*
//! inst     := addr len kind n_uops uop*
//! uop      := op cond dst src1 src2 offset target flags
//! operand  := 0 | 1 reg | 2 imm     ; tag byte then payload
//! ```
//!
//! The header mirrors `scc-store`'s segment header discipline:
//! `format` guards the byte layout, `schema` guards the meaning of the
//! encoded ops, and the engine revision is carried for diagnostics but —
//! unlike the store, which must refuse foreign *results* — is
//! deliberately **not** grounds for rejection, because a trace is
//! re-executed, not trusted. Every decode error is a typed
//! [`TraceError`]; malformed input can never panic the decoder.
//!
//! [`program_digest`] hashes the canonical *body* only, so the identity
//! of a trace job is independent of which engine build stamped the file.

use scc_isa::{
    crc32c, fnv1a, Cond, MacroInst, MacroKind, Op, Operand, Program, ProgramError, Reg, Uop,
};
use std::fmt;

/// Leading magic of every `.scctrace` file.
pub const TRACE_MAGIC: [u8; 8] = *b"SCCTRACE";

/// Byte-layout version we read and write.
pub const FORMAT_VERSION: u32 = 1;

/// Op/operand coding version we read and write.
pub const SCHEMA_VERSION: u32 = 1;

/// Upper bound on an encoded body; larger claims are corruption.
pub const MAX_BODY_BYTES: u32 = 16 * 1024 * 1024;

/// Why a `.scctrace` input was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The input does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The byte-layout version is not one we decode.
    UnsupportedFormat(u32),
    /// The op-coding schema version is not one we decode.
    SchemaMismatch(u32),
    /// The input ended before the declared structure did.
    Truncated,
    /// The body checksum did not match.
    CrcMismatch,
    /// A structurally framed field held an invalid value.
    Malformed(String),
    /// The decoded instructions do not assemble into a valid program.
    BadProgram(ProgramError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => f.write_str("not an SCCTRACE file (bad magic)"),
            TraceError::UnsupportedFormat(v) => {
                write!(f, "unsupported trace format version {v} (expected {FORMAT_VERSION})")
            }
            TraceError::SchemaMismatch(v) => {
                write!(f, "unsupported trace schema version {v} (expected {SCHEMA_VERSION})")
            }
            TraceError::Truncated => f.write_str("trace truncated"),
            TraceError::CrcMismatch => f.write_str("trace body checksum mismatch"),
            TraceError::Malformed(msg) => write!(f, "malformed trace: {msg}"),
            TraceError::BadProgram(e) => write!(f, "trace decodes to an invalid program: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A decoded trace: the program plus its informational header stamps.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The reassembled program.
    pub program: Program,
    /// Engine revision stamped by the producer (informational).
    pub engine_rev: String,
    /// Digest of the canonical body (see [`program_digest`]).
    pub digest: u64,
}

/// Serializes a program to `SCCTRACE1` bytes.
pub fn encode(program: &Program, engine_rev: &str) -> Vec<u8> {
    let body = encode_body(program);
    let rev = engine_rev.as_bytes();
    let rev_len = rev.len().min(u16::MAX as usize);
    let mut out = Vec::with_capacity(8 + 4 + 4 + 2 + rev_len + 4 + 4 + body.len());
    out.extend_from_slice(&TRACE_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&(rev_len as u16).to_le_bytes());
    out.extend_from_slice(&rev[..rev_len]);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32c(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Parses and verifies `SCCTRACE1` bytes.
///
/// # Errors
///
/// Returns a [`TraceError`] naming the first defect found; decoding
/// never panics on arbitrary input.
pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
    let mut c = Cursor { data: bytes, at: 0 };
    if bytes.len() < 8 {
        return Err(if bytes.is_empty() || TRACE_MAGIC.starts_with(bytes) {
            TraceError::Truncated
        } else {
            TraceError::BadMagic
        });
    }
    if c.take(8)? != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let format = c.u32()?;
    if format != FORMAT_VERSION {
        return Err(TraceError::UnsupportedFormat(format));
    }
    let schema = c.u32()?;
    if schema != SCHEMA_VERSION {
        return Err(TraceError::SchemaMismatch(schema));
    }
    let rev_len = c.u16()? as usize;
    let engine_rev = String::from_utf8(c.take(rev_len)?.to_vec())
        .map_err(|_| TraceError::Malformed("engine revision is not utf-8".into()))?;
    let body_len = c.u32()?;
    if body_len > MAX_BODY_BYTES {
        return Err(TraceError::Malformed(format!("body length {body_len} exceeds cap")));
    }
    let expected_crc = c.u32()?;
    let body = c.take(body_len as usize)?;
    if c.at != bytes.len() {
        return Err(TraceError::Malformed(format!(
            "{} trailing bytes after body",
            bytes.len() - c.at
        )));
    }
    if crc32c(body) != expected_crc {
        return Err(TraceError::CrcMismatch);
    }
    let digest = fnv1a(body);
    let program = decode_body(body)?;
    Ok(Trace { program, engine_rev, digest })
}

/// Digest identifying a program independent of header stamps: FNV-1a-64
/// over the canonical encoded body.
pub fn program_digest(program: &Program) -> u64 {
    fnv1a(&encode_body(program))
}

/// Formats a digest as the fixed-width 16-hex-digit string used in
/// `trace:<digest>` workload names and job keys.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

// ---------------------------------------------------------------- body

fn encode_body(program: &Program) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&program.entry().to_le_bytes());
    b.extend_from_slice(&(program.init_data().len() as u32).to_le_bytes());
    for &(addr, value) in program.init_data() {
        b.extend_from_slice(&addr.to_le_bytes());
        b.extend_from_slice(&value.to_le_bytes());
    }
    b.extend_from_slice(&(program.insts().len() as u32).to_le_bytes());
    for m in program.insts() {
        b.extend_from_slice(&m.addr.to_le_bytes());
        b.push(m.len);
        b.push(kind_code(m.kind));
        b.push(m.uops.len() as u8);
        for u in &m.uops {
            encode_uop(&mut b, u);
        }
    }
    b
}

fn decode_body(body: &[u8]) -> Result<Program, TraceError> {
    let mut c = Cursor { data: body, at: 0 };
    let entry = c.u64()?;
    let n_data = c.u32()? as usize;
    let mut init_data = Vec::new();
    for _ in 0..n_data {
        let addr = c.u64()?;
        let value = c.u64()? as i64;
        init_data.push((addr, value));
    }
    let n_inst = c.u32()? as usize;
    let mut insts = Vec::new();
    for _ in 0..n_inst {
        let addr = c.u64()?;
        let len = c.u8()?;
        if !(1..=15).contains(&len) {
            return Err(TraceError::Malformed(format!("instruction length {len}")));
        }
        let kind = kind_from(c.u8()?)?;
        let n_uops = c.u8()? as usize;
        if n_uops == 0 {
            return Err(TraceError::Malformed("empty micro-op expansion".into()));
        }
        let mut uops = Vec::with_capacity(n_uops);
        for _ in 0..n_uops {
            uops.push(decode_uop(&mut c)?);
        }
        insts.push(MacroInst::new(addr, len, kind, uops));
    }
    if c.at != body.len() {
        return Err(TraceError::Malformed("trailing bytes in body".into()));
    }
    Program::new(insts, entry, init_data).map_err(TraceError::BadProgram)
}

fn encode_uop(b: &mut Vec<u8>, u: &Uop) {
    b.push(op_code(u.op));
    b.push(u.cond.map_or(0xFF, cond_code));
    b.push(u.dst.map_or(0xFF, |r| r.index() as u8));
    encode_operand(b, u.src1);
    encode_operand(b, u.src2);
    b.extend_from_slice(&u.offset.to_le_bytes());
    match u.target {
        Some(t) => {
            b.push(1);
            b.extend_from_slice(&t.to_le_bytes());
        }
        None => b.push(0),
    }
    b.push(u.fused_with_next as u8);
}

fn decode_uop(c: &mut Cursor<'_>) -> Result<Uop, TraceError> {
    // Uop::new derives writes_cc from the op, and MacroInst::new stamps
    // macro_addr/len/slot and self-loop marking, so only the explicit
    // fields travel on the wire.
    let mut u = Uop::new(op_from(c.u8()?)?);
    u.cond = match c.u8()? {
        0xFF => None,
        v => Some(cond_from(v)?),
    };
    u.dst = match c.u8()? {
        0xFF => None,
        v => Some(reg_from(v)?),
    };
    u.src1 = decode_operand(c)?;
    u.src2 = decode_operand(c)?;
    u.offset = c.u64()? as i64;
    u.target = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        v => return Err(TraceError::Malformed(format!("target tag {v}"))),
    };
    u.fused_with_next = match c.u8()? {
        0 => false,
        1 => true,
        v => return Err(TraceError::Malformed(format!("fuse flag {v}"))),
    };
    Ok(u)
}

fn encode_operand(b: &mut Vec<u8>, o: Operand) {
    match o {
        Operand::None => b.push(0),
        Operand::Reg(r) => {
            b.push(1);
            b.push(r.index() as u8);
        }
        Operand::Imm(v) => {
            b.push(2);
            b.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn decode_operand(c: &mut Cursor<'_>) -> Result<Operand, TraceError> {
    match c.u8()? {
        0 => Ok(Operand::None),
        1 => Ok(Operand::Reg(reg_from(c.u8()?)?)),
        2 => Ok(Operand::Imm(c.u64()? as i64)),
        v => Err(TraceError::Malformed(format!("operand tag {v}"))),
    }
}

fn reg_from(idx: u8) -> Result<Reg, TraceError> {
    if idx < 16 {
        Ok(Reg::int(idx))
    } else if idx < 32 {
        Ok(Reg::fp(idx - 16))
    } else {
        Err(TraceError::Malformed(format!("register index {idx}")))
    }
}

fn kind_code(k: MacroKind) -> u8 {
    match k {
        MacroKind::Simple => 0,
        MacroKind::Fused => 1,
        MacroKind::StringOp => 2,
    }
}

fn kind_from(v: u8) -> Result<MacroKind, TraceError> {
    match v {
        0 => Ok(MacroKind::Simple),
        1 => Ok(MacroKind::Fused),
        2 => Ok(MacroKind::StringOp),
        _ => Err(TraceError::Malformed(format!("macro kind {v}"))),
    }
}

/// Stable wire codes for [`Op`], in the enum's declared order. Appending
/// a new op is schema-compatible; renumbering requires a schema bump.
const OP_TABLE: [Op; 34] = [
    Op::Nop,
    Op::Halt,
    Op::MovImm,
    Op::Mov,
    Op::Add,
    Op::Sub,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Shl,
    Op::Shr,
    Op::Sar,
    Op::Not,
    Op::Neg,
    Op::Mul,
    Op::Div,
    Op::Rem,
    Op::Cmp,
    Op::Test,
    Op::SetCc,
    Op::Load,
    Op::Store,
    Op::FpAdd,
    Op::FpSub,
    Op::FpMul,
    Op::FpDiv,
    Op::FpMov,
    Op::Simd,
    Op::Jmp,
    Op::JmpInd,
    Op::BrCc,
    Op::CmpBr,
    Op::Call,
    Op::Ret,
];

fn op_code(op: Op) -> u8 {
    OP_TABLE.iter().position(|&o| o == op).expect("op in table") as u8
}

fn op_from(v: u8) -> Result<Op, TraceError> {
    OP_TABLE
        .get(v as usize)
        .copied()
        .ok_or_else(|| TraceError::Malformed(format!("op code {v}")))
}

fn cond_code(c: Cond) -> u8 {
    Cond::all().iter().position(|&x| x == c).expect("cond in table") as u8
}

fn cond_from(v: u8) -> Result<Cond, TraceError> {
    Cond::all()
        .get(v as usize)
        .copied()
        .ok_or_else(|| TraceError::Malformed(format!("cond code {v}")))
}

// ------------------------------------------------------------- cursor

struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.at.checked_add(n).ok_or(TraceError::Truncated)?;
        if end > self.data.len() {
            return Err(TraceError::Truncated);
        }
        let s = &self.data[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

// ------------------------------------------------------------- base64

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 with padding, for carrying trace bytes inside the
/// JSON serve protocol.
pub fn to_base64(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [chunk[0], *chunk.get(1).unwrap_or(&0), *chunk.get(2).unwrap_or(&0)];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let chars = [
            B64[(n >> 18) as usize & 63],
            B64[(n >> 12) as usize & 63],
            B64[(n >> 6) as usize & 63],
            B64[n as usize & 63],
        ];
        let keep = chunk.len() + 1;
        for (i, ch) in chars.iter().enumerate() {
            out.push(if i < keep { char::from(*ch) } else { '=' });
        }
    }
    out
}

/// Inverse of [`to_base64`]; `None` on any malformed input.
pub fn from_base64(s: &str) -> Option<Vec<u8>> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (ci, chunk) in bytes.chunks(4).enumerate() {
        let last = ci + 1 == bytes.len() / 4;
        let mut n = 0u32;
        let mut pad = 0;
        for (i, &c) in chunk.iter().enumerate() {
            let v = if c == b'=' {
                // Padding only in the last chunk's tail positions.
                if !last || i < 2 || chunk[i..].iter().any(|&x| x != b'=') {
                    return None;
                }
                pad += 1;
                0
            } else {
                B64.iter().position(|&x| x == c)? as u32
            };
            n = (n << 6) | v;
        }
        let b = [(n >> 16) as u8, (n >> 8) as u8, n as u8];
        out.extend_from_slice(&b[..3 - pad]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_program, Options};

    const SRC: &str = "
        let i = 0;
        let acc = 0;
        array t[4] = { 3, 1, 4, 1 };
        while (i < 4) {
            acc = acc + t[i];
            i = i + 1;
        }
    ";

    fn sample() -> Program {
        compile_program(SRC, &Options::default()).unwrap()
    }

    #[test]
    fn round_trip_preserves_execution() {
        let p = sample();
        let bytes = encode(&p, "rev-under-test");
        let t = decode(&bytes).unwrap();
        assert_eq!(t.engine_rev, "rev-under-test");
        assert_eq!(t.program.insts(), p.insts());
        assert_eq!(t.program.entry(), p.entry());
        assert_eq!(t.program.init_data(), p.init_data());

        let mut m1 = scc_isa::Machine::new(&p);
        let mut m2 = scc_isa::Machine::new(&t.program);
        m1.run(1_000_000).unwrap();
        m2.run(1_000_000).unwrap();
        assert_eq!(m1.snapshot(), m2.snapshot());
    }

    #[test]
    fn digest_is_stamp_independent() {
        let p = sample();
        let a = decode(&encode(&p, "rev-a")).unwrap();
        let b = decode(&encode(&p, "rev-b")).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, program_digest(&p));
        assert_eq!(digest_hex(a.digest).len(), 16);
    }

    #[test]
    fn truncation_at_every_length_is_typed() {
        let bytes = encode(&sample(), "rev");
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(
                    TraceError::Truncated | TraceError::BadMagic | TraceError::Malformed(_),
                ) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = encode(&sample(), "rev");
        // Flip one bit in every body byte; the CRC must catch each.
        let body_at = 8 + 4 + 4 + 2 + "rev".len() + 4 + 4;
        for i in body_at..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert_eq!(decode(&bad).unwrap_err(), TraceError::CrcMismatch, "byte {i}");
        }
    }

    #[test]
    fn version_mismatches_are_typed() {
        let mut bytes = encode(&sample(), "rev");
        bytes[8] = 9; // format version
        assert_eq!(decode(&bytes).unwrap_err(), TraceError::UnsupportedFormat(9));
        let mut bytes = encode(&sample(), "rev");
        bytes[12] = 9; // schema version
        assert_eq!(decode(&bytes).unwrap_err(), TraceError::SchemaMismatch(9));
        let mut bytes = encode(&sample(), "rev");
        bytes[0] = b'X';
        assert_eq!(decode(&bytes).unwrap_err(), TraceError::BadMagic);
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        // A deterministic xorshift fuzz over small random buffers.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let len = (next() % 200) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = decode(&buf); // must return, never panic
        }
        // And over valid traces with a corrupted interior that still
        // passes framing (patch the CRC to match the mutated body).
        let bytes = encode(&sample(), "rev");
        let body_start = {
            let rev_len = u16::from_le_bytes([bytes[16], bytes[17]]) as usize;
            8 + 4 + 4 + 2 + rev_len + 4 + 4
        };
        for _ in 0..300 {
            let mut bad = bytes.clone();
            let i = body_start + (next() as usize % (bad.len() - body_start));
            bad[i] = next() as u8;
            let crc = crc32c(&bad[body_start..]);
            let at = body_start - 4;
            bad[at..at + 4].copy_from_slice(&crc.to_le_bytes());
            let _ = decode(&bad); // typed error or success, never panic
        }
    }

    #[test]
    fn op_and_cond_codes_are_pinned() {
        // Wire compatibility: these codes must never change meaning
        // without a schema bump.
        assert_eq!(op_code(Op::Nop), 0);
        assert_eq!(op_code(Op::MovImm), 2);
        assert_eq!(op_code(Op::Load), 20);
        assert_eq!(op_code(Op::CmpBr), 31);
        assert_eq!(op_code(Op::Ret), 33);
        for (i, &op) in OP_TABLE.iter().enumerate() {
            assert_eq!(op_from(i as u8).unwrap(), op);
        }
        assert!(op_from(34).is_err());
        assert_eq!(cond_code(Cond::Eq), 0);
        assert_eq!(cond_code(Cond::Ae), 7);
    }

    #[test]
    fn base64_round_trips() {
        for len in 0..40usize {
            let data: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37)).collect();
            let s = to_base64(&data);
            assert_eq!(from_base64(&s).unwrap(), data, "len {len}");
        }
        assert_eq!(to_base64(b"foob"), "Zm9vYg==");
        assert!(from_base64("Zm9vYg=").is_none(), "bad length");
        assert!(from_base64("Zm9=Yg==").is_none(), "interior padding");
        assert!(from_base64("Zm9v!g==").is_none(), "bad alphabet");
    }
}
