//! The on-disk record format and its defensive parser.
//!
//! # Grammar
//!
//! Every record in a segment file is:
//!
//! ```text
//! record  := magic len crc payload
//! magic   := 0xC5                       ; one byte, resync sentinel
//! len     := u32 le                     ; payload length in bytes
//! crc     := u32 le                     ; CRC-32C of payload
//! payload := seq flags key_len key value
//! seq     := u64 le                     ; global write sequence (newest wins)
//! flags   := u8                         ; bit 0 = tombstone
//! key_len := u16 le
//! key     := key_len bytes of UTF-8
//! value   := (len - 11 - key_len) bytes
//! ```
//!
//! The parser never panics on hostile input: every read is
//! bounds-checked, the CRC is verified before any payload byte is
//! believed, and ill-framed bytes are classified as *torn* (a partial
//! tail write — truncate and keep everything before it) or *corrupt*
//! (framing survived but the checksum did not — skip exactly this
//! record and keep scanning). That classification is what the recovery
//! torture suite exercises at every byte offset and bit position.

use scc_isa::crc32c;

/// First byte of every record; a cheap resync check when skipping a
/// corrupt record (if the bytes after the skip don't start with the
/// magic, framing itself is untrustworthy and the scan stops).
pub const RECORD_MAGIC: u8 = 0xC5;

/// Fixed bytes before the payload: magic + len + crc.
pub const RECORD_HEADER_BYTES: usize = 1 + 4 + 4;

/// Payload bytes before the key: seq + flags + key_len.
pub const PAYLOAD_PREFIX_BYTES: usize = 8 + 1 + 2;

/// Hard cap on one record's payload. Anything larger in a `len` field
/// is treated as corruption, which bounds how far a flipped length bit
/// can send the scanner.
pub const MAX_PAYLOAD_BYTES: u32 = 64 * 1024 * 1024;

/// Flag bit marking a deletion.
pub const FLAG_TOMBSTONE: u8 = 1 << 0;

/// One fully-decoded record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedRecord {
    /// Global write sequence number; the newest sequence for a key wins.
    pub seq: u64,
    /// Content key.
    pub key: String,
    /// Payload bytes; `None` for a tombstone.
    pub value: Option<Vec<u8>>,
}

impl OwnedRecord {
    /// True when this record deletes its key.
    pub fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }
}

/// Serializes one record into `buf`, returning the encoded length.
pub fn encode(buf: &mut Vec<u8>, seq: u64, key: &str, value: Option<&[u8]>) -> usize {
    assert!(key.len() <= u16::MAX as usize, "key longer than 64 KiB");
    let value_bytes = value.unwrap_or(&[]);
    let payload_len = PAYLOAD_PREFIX_BYTES + key.len() + value_bytes.len();
    assert!(payload_len as u64 <= MAX_PAYLOAD_BYTES as u64, "record payload too large");

    let start = buf.len();
    buf.push(RECORD_MAGIC);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&[0; 4]); // crc patched below
    let payload_at = buf.len();
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(if value.is_none() { FLAG_TOMBSTONE } else { 0 });
    buf.extend_from_slice(&(key.len() as u16).to_le_bytes());
    buf.extend_from_slice(key.as_bytes());
    buf.extend_from_slice(value_bytes);
    let crc = crc32c(&buf[payload_at..]);
    buf[start + 5..start + 9].copy_from_slice(&crc.to_le_bytes());
    buf.len() - start
}

/// Outcome of parsing the bytes at one offset of a segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Parse {
    /// A valid record occupying `total` bytes.
    Record {
        /// The decoded record.
        record: OwnedRecord,
        /// Encoded size including the header.
        total: usize,
    },
    /// Framing is intact (magic + plausible length) but the checksum —
    /// or the payload structure the checksum vouched against — does not
    /// verify. Skip exactly `skip` bytes and keep scanning.
    Corrupt {
        /// Bytes to skip to reach the next record boundary.
        skip: usize,
    },
    /// The bytes end mid-record: a torn tail write. Everything from
    /// this offset on is unusable; truncate here.
    Torn,
    /// The bytes cannot be framed at all (bad magic or absurd length):
    /// nothing after this offset can be trusted.
    Unframed,
    /// Clean end of data.
    End,
}

/// Parses the record starting at `data[0]`, defensively.
pub fn parse(data: &[u8]) -> Parse {
    if data.is_empty() {
        return Parse::End;
    }
    if data[0] != RECORD_MAGIC {
        return Parse::Unframed;
    }
    if data.len() < RECORD_HEADER_BYTES {
        return Parse::Torn;
    }
    let len = u32::from_le_bytes(data[1..5].try_into().unwrap());
    if len > MAX_PAYLOAD_BYTES || (len as usize) < PAYLOAD_PREFIX_BYTES {
        // The length itself is implausible: a flipped bit here destroys
        // framing, so the caller must not believe any later offset
        // either. (If this is really a partial header at the tail, the
        // effect — stop here — is the same.)
        return Parse::Unframed;
    }
    let total = RECORD_HEADER_BYTES + len as usize;
    if data.len() < total {
        return Parse::Torn;
    }
    let expected_crc = u32::from_le_bytes(data[5..9].try_into().unwrap());
    let payload = &data[RECORD_HEADER_BYTES..total];
    if crc32c(payload) != expected_crc {
        return Parse::Corrupt { skip: total };
    }
    // The checksum verified, so structural reads below cannot fail
    // unless the writer was buggy — but stay defensive anyway.
    let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let flags = payload[8];
    let key_len = u16::from_le_bytes(payload[9..11].try_into().unwrap()) as usize;
    if PAYLOAD_PREFIX_BYTES + key_len > payload.len() {
        return Parse::Corrupt { skip: total };
    }
    let key = match std::str::from_utf8(&payload[PAYLOAD_PREFIX_BYTES..PAYLOAD_PREFIX_BYTES + key_len]) {
        Ok(k) => k.to_string(),
        Err(_) => return Parse::Corrupt { skip: total },
    };
    let value = if flags & FLAG_TOMBSTONE != 0 {
        None
    } else {
        Some(payload[PAYLOAD_PREFIX_BYTES + key_len..].to_vec())
    };
    Parse::Record { record: OwnedRecord { seq, key, value }, total }
}

/// Stable 64-bit FNV-1a hash of a key — the sort and probe order of
/// compacted segments' sparse indexes. Must never change across
/// versions that share a segment format.
pub fn key_hash(key: &str) -> u64 {
    scc_isa::fnv1a(key.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(seq: u64, key: &str, value: Option<&[u8]>) -> (Vec<u8>, OwnedRecord) {
        let mut buf = Vec::new();
        let n = encode(&mut buf, seq, key, value);
        assert_eq!(n, buf.len());
        match parse(&buf) {
            Parse::Record { record, total } => {
                assert_eq!(total, buf.len());
                (buf, record)
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn records_round_trip() {
        let (_, r) = roundtrip(7, "job|key|1", Some(b"payload bytes"));
        assert_eq!(r.seq, 7);
        assert_eq!(r.key, "job|key|1");
        assert_eq!(r.value.as_deref(), Some(&b"payload bytes"[..]));
        let (_, t) = roundtrip(8, "gone", None);
        assert!(t.is_tombstone());
    }

    #[test]
    fn empty_values_and_keys_survive() {
        let (_, r) = roundtrip(1, "", Some(b""));
        assert_eq!(r.key, "");
        assert_eq!(r.value.as_deref(), Some(&b""[..]));
    }

    #[test]
    fn every_single_bit_flip_is_rejected_or_reframed_but_never_garbage() {
        let mut buf = Vec::new();
        encode(&mut buf, 42, "the-key", Some(b"the value of the record"));
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bent = buf.clone();
                bent[byte] ^= 1 << bit;
                match parse(&bent) {
                    // A flip may relocate framing fields; whatever
                    // parses must still checksum-verify, which a single
                    // flip cannot fake.
                    Parse::Record { record, .. } => {
                        panic!("flip at byte {byte} bit {bit} yielded {record:?}")
                    }
                    Parse::Corrupt { .. } | Parse::Torn | Parse::Unframed => {}
                    Parse::End => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_offset_is_torn_or_unframed() {
        let mut buf = Vec::new();
        encode(&mut buf, 9, "key", Some(&[0xAB; 100]));
        for cut in 1..buf.len() {
            match parse(&buf[..cut]) {
                Parse::Torn | Parse::Unframed => {}
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }
        assert_eq!(parse(&[]), Parse::End);
    }

    #[test]
    fn corrupt_records_skip_exactly_their_framing() {
        let mut buf = Vec::new();
        encode(&mut buf, 1, "a", Some(b"first"));
        let first_len = buf.len();
        encode(&mut buf, 2, "b", Some(b"second"));
        // Flip a payload byte of the first record (well past its header).
        buf[RECORD_HEADER_BYTES + 12] ^= 0x40;
        match parse(&buf) {
            Parse::Corrupt { skip } => assert_eq!(skip, first_len),
            other => panic!("{other:?}"),
        }
        match parse(&buf[first_len..]) {
            Parse::Record { record, .. } => assert_eq!(record.key, "b"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn key_hash_is_stable() {
        // Pinned values: changing the hash silently breaks every
        // compacted segment on disk.
        assert_eq!(key_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(key_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(key_hash("ab"), key_hash("ba"));
    }
}
