//! Segment files: header format, defensive full-file scan, and the
//! checksummed sparse-index sidecar for sorted (compacted) segments.
//!
//! A segment file is a versioned header followed by zero or more
//! records (see [`crate::record`]):
//!
//! ```text
//! segment  := header record*
//! header   := magic body_len body_crc body
//! magic    := "SCCSTOR1"                ; 8 bytes
//! body_len := u32 le                    ; bytes of body
//! body_crc := u32 le                    ; CRC-32C of body
//! body     := format_version schema_version seg_id sorted rev_len rev
//! ```
//!
//! `format_version` guards the byte layout itself; `schema_version` and
//! `rev` (the engine git revision) guard the *meaning* of the stored
//! values — a segment written by a different engine build is refused
//! wholesale at recovery rather than risking silently-stale results.
//!
//! Sorted segments written by compaction carry a `.idx` sidecar holding
//! every Nth record's `(key_hash, offset)` anchor. The sidecar is an
//! optimisation only: it is CRC-checked on load and rebuilt from the
//! data scan if missing or corrupt, so a flipped bit in the index can
//! never redirect a lookup.

use crate::record::{self, OwnedRecord, Parse};
use scc_isa::crc32c;

/// Leading magic of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"SCCSTOR1";

/// Leading magic of every sparse-index sidecar.
pub const INDEX_MAGIC: [u8; 8] = *b"SCCSIDX1";

/// Byte-layout version of segments and records. Bump only when the
/// physical encoding changes.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed bytes before a header body: magic + body_len + body_crc.
pub const HEADER_PREFIX_BYTES: usize = 8 + 4 + 4;

/// Upper bound on a header body; larger lengths are corruption.
const MAX_HEADER_BODY_BYTES: u32 = 4096;

/// Decoded segment header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Byte-layout version ([`FORMAT_VERSION`] for segments we write).
    pub format_version: u32,
    /// Version of the serialized value schema (the `SimResult` codec).
    pub schema_version: u32,
    /// Segment id; also encoded in the file name.
    pub seg_id: u64,
    /// True for compaction output sorted by `(key_hash, key)`.
    pub sorted: bool,
    /// Engine git revision that produced the stored values.
    pub engine_rev: String,
}

impl SegmentHeader {
    /// Serializes the header, checksum included.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.engine_rev.len() <= u16::MAX as usize);
        let mut body = Vec::with_capacity(32 + self.engine_rev.len());
        body.extend_from_slice(&self.format_version.to_le_bytes());
        body.extend_from_slice(&self.schema_version.to_le_bytes());
        body.extend_from_slice(&self.seg_id.to_le_bytes());
        body.push(self.sorted as u8);
        body.extend_from_slice(&(self.engine_rev.len() as u16).to_le_bytes());
        body.extend_from_slice(self.engine_rev.as_bytes());

        let mut out = Vec::with_capacity(HEADER_PREFIX_BYTES + body.len());
        out.extend_from_slice(&SEGMENT_MAGIC);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32c(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parses and verifies a header at the start of `data`, returning
    /// the header and its total encoded length. `None` means the file
    /// cannot be trusted at all (recovery deletes it).
    pub fn parse(data: &[u8]) -> Option<(SegmentHeader, usize)> {
        if data.len() < HEADER_PREFIX_BYTES || data[..8] != SEGMENT_MAGIC {
            return None;
        }
        let body_len = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if body_len > MAX_HEADER_BODY_BYTES {
            return None;
        }
        let total = HEADER_PREFIX_BYTES + body_len as usize;
        if data.len() < total {
            return None;
        }
        let expected_crc = u32::from_le_bytes(data[12..16].try_into().unwrap());
        let body = &data[HEADER_PREFIX_BYTES..total];
        if crc32c(body) != expected_crc {
            return None;
        }
        // Checksum verified; structural reads are still bounds-checked
        // because a future format may shrink the body.
        if body.len() < 19 {
            return None;
        }
        let format_version = u32::from_le_bytes(body[0..4].try_into().unwrap());
        let schema_version = u32::from_le_bytes(body[4..8].try_into().unwrap());
        let seg_id = u64::from_le_bytes(body[8..16].try_into().unwrap());
        let sorted = body[16] != 0;
        let rev_len = u16::from_le_bytes(body[17..19].try_into().unwrap()) as usize;
        if 19 + rev_len != body.len() {
            return None;
        }
        let engine_rev = std::str::from_utf8(&body[19..]).ok()?.to_string();
        Some((
            SegmentHeader { format_version, schema_version, seg_id, sorted, engine_rev },
            total,
        ))
    }
}

/// A record located inside a scanned segment.
#[derive(Clone, Debug)]
pub struct RecordAt {
    /// Byte offset of the record's magic within the file.
    pub offset: u64,
    /// Encoded length including the record header.
    pub len: u32,
    /// The decoded record.
    pub record: OwnedRecord,
}

/// Result of defensively scanning a segment's record region.
#[derive(Clone, Debug, Default)]
pub struct Scan {
    /// Every record that checksum-verified, in file order.
    pub records: Vec<RecordAt>,
    /// File length up to which bytes are valid (header + intact
    /// records, including skipped-but-framed corrupt ones). Anything
    /// beyond is a torn tail to truncate.
    pub valid_len: u64,
    /// Framed records whose checksum failed; skipped in place.
    pub corrupt_skipped: u64,
    /// True when the scan ended before end-of-data (torn or unframed
    /// bytes); `valid_len` is then shorter than the file.
    pub truncate_tail: bool,
}

/// Scans `data[start..]` record by record. Never panics; classifies
/// every anomaly per the [`crate::record`] parser contract.
pub fn scan_records(data: &[u8], start: usize) -> Scan {
    let mut scan = Scan { valid_len: start as u64, ..Scan::default() };
    let mut at = start;
    loop {
        match record::parse(&data[at..]) {
            Parse::Record { record, total } => {
                scan.records.push(RecordAt { offset: at as u64, len: total as u32, record });
                at += total;
                scan.valid_len = at as u64;
            }
            Parse::Corrupt { skip } => {
                // Keep the bytes (so offsets of later records stay
                // stable) but surface nothing from them.
                scan.corrupt_skipped += 1;
                at += skip;
                scan.valid_len = at as u64;
            }
            Parse::Torn | Parse::Unframed => {
                scan.truncate_tail = true;
                return scan;
            }
            Parse::End => return scan,
        }
    }
}

/// Sparse index for a sorted segment: every Nth record's
/// `(key_hash, file_offset)`, ascending by hash.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseIndex {
    /// `(key_hash, offset)` anchors in ascending hash order.
    pub anchors: Vec<(u64, u64)>,
}

impl SparseIndex {
    /// Builds the index from a scan of a sorted segment, anchoring
    /// every `every`-th record (and always the first).
    pub fn build(records: &[RecordAt], every: usize) -> SparseIndex {
        let every = every.max(1);
        let anchors = records
            .iter()
            .enumerate()
            .filter(|(i, _)| i % every == 0)
            .map(|(_, r)| (record::key_hash(&r.record.key), r.offset))
            .collect();
        SparseIndex { anchors }
    }

    /// File offset to start a bounded forward scan for `hash`, or
    /// `None` when the hash precedes every anchor (definite miss for
    /// the first-record-always-anchored indexes we build).
    pub fn seek(&self, hash: u64) -> Option<u64> {
        let i = self.anchors.partition_point(|&(h, _)| h <= hash);
        if i == 0 {
            return None;
        }
        Some(self.anchors[i - 1].1)
    }

    /// Serializes the sidecar file: magic, count, crc, entries.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.anchors.len() * 16);
        for &(hash, offset) in &self.anchors {
            body.extend_from_slice(&hash.to_le_bytes());
            body.extend_from_slice(&offset.to_le_bytes());
        }
        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(&INDEX_MAGIC);
        out.extend_from_slice(&(self.anchors.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32c(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parses and verifies a sidecar; `None` (missing/corrupt) means
    /// the caller rebuilds from the data scan.
    pub fn parse(data: &[u8]) -> Option<SparseIndex> {
        if data.len() < 16 || data[..8] != INDEX_MAGIC {
            return None;
        }
        let count = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
        let expected_crc = u32::from_le_bytes(data[12..16].try_into().unwrap());
        let body = &data[16..];
        if body.len() != count * 16 || crc32c(body) != expected_crc {
            return None;
        }
        let mut anchors = Vec::with_capacity(count);
        for chunk in body.chunks_exact(16) {
            anchors.push((
                u64::from_le_bytes(chunk[0..8].try_into().unwrap()),
                u64::from_le_bytes(chunk[8..16].try_into().unwrap()),
            ));
        }
        // Anchors must ascend or binary search would lie.
        if anchors.windows(2).any(|w| w[0].0 > w[1].0) {
            return None;
        }
        Some(SparseIndex { anchors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode;

    fn header() -> SegmentHeader {
        SegmentHeader {
            format_version: FORMAT_VERSION,
            schema_version: 3,
            seg_id: 17,
            sorted: true,
            engine_rev: "abc123def456".into(),
        }
    }

    #[test]
    fn header_round_trips() {
        let bytes = header().encode();
        let (parsed, total) = SegmentHeader::parse(&bytes).unwrap();
        assert_eq!(parsed, header());
        assert_eq!(total, bytes.len());
    }

    #[test]
    fn header_bit_flips_are_rejected() {
        let bytes = header().encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bent = bytes.clone();
                bent[byte] ^= 1 << bit;
                assert!(
                    SegmentHeader::parse(&bent).is_none(),
                    "flip at byte {byte} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn header_truncation_is_rejected() {
        let bytes = header().encode();
        for cut in 0..bytes.len() {
            assert!(SegmentHeader::parse(&bytes[..cut]).is_none(), "cut at {cut} accepted");
        }
    }

    fn segment_with(keys: &[&str]) -> (Vec<u8>, usize) {
        let mut data = header().encode();
        let header_len = data.len();
        for (i, k) in keys.iter().enumerate() {
            encode(&mut data, i as u64 + 1, k, Some(format!("value-{k}").as_bytes()));
        }
        (data, header_len)
    }

    #[test]
    fn scan_reads_all_records() {
        let (data, start) = segment_with(&["a", "b", "c"]);
        let scan = scan_records(&data, start);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.valid_len, data.len() as u64);
        assert_eq!(scan.corrupt_skipped, 0);
        assert!(!scan.truncate_tail);
        assert_eq!(scan.records[1].record.key, "b");
    }

    #[test]
    fn scan_skips_framed_corruption_and_truncates_torn_tail() {
        let (mut data, start) = segment_with(&["a", "b", "c"]);
        // Corrupt a payload byte of record "b" (keep framing intact).
        let b_off = scan_records(&data, start).records[1].offset as usize;
        data[b_off + 15] ^= 0x01;
        // Tear the tail mid-record "c".
        let c_off = scan_records(&data, start).records.last().unwrap().offset as usize;
        // After the corruption of "b", "c" is still the last valid record.
        let torn = &data[..c_off + 5];
        let scan = scan_records(torn, start);
        let keys: Vec<_> = scan.records.iter().map(|r| r.record.key.as_str()).collect();
        assert_eq!(keys, ["a"]);
        assert_eq!(scan.corrupt_skipped, 1);
        assert!(scan.truncate_tail);
        assert_eq!(scan.valid_len, c_off as u64);
    }

    #[test]
    fn sparse_index_round_trips_and_rejects_flips() {
        let idx = SparseIndex { anchors: vec![(10, 100), (20, 200), (30, 300)] };
        let bytes = idx.encode();
        assert_eq!(SparseIndex::parse(&bytes).unwrap(), idx);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bent = bytes.clone();
                bent[byte] ^= 1 << bit;
                assert!(SparseIndex::parse(&bent).is_none(), "flip at {byte}:{bit} accepted");
            }
        }
    }

    #[test]
    fn sparse_index_seek_bounds() {
        let idx = SparseIndex { anchors: vec![(10, 100), (20, 200), (30, 300)] };
        assert_eq!(idx.seek(5), None);
        assert_eq!(idx.seek(10), Some(100));
        assert_eq!(idx.seek(19), Some(100));
        assert_eq!(idx.seek(20), Some(200));
        assert_eq!(idx.seek(u64::MAX), Some(300));
        assert_eq!(SparseIndex::default().seek(0), None);
    }

    #[test]
    fn sparse_index_build_anchors_every_nth() {
        let (data, start) = segment_with(&["a", "b", "c", "d", "e"]);
        let scan = scan_records(&data, start);
        let idx = SparseIndex::build(&scan.records, 2);
        assert_eq!(idx.anchors.len(), 3); // records 0, 2, 4
        assert_eq!(idx.anchors[0].1, scan.records[0].offset);
        assert_eq!(idx.anchors[1].1, scan.records[2].offset);
    }
}
