//! CRC-32C (Castagnoli): the workspace's one checksum, guarding every
//! `scc-store` record, segment header and index sidecar, and the body of
//! every `SCCTRACE1` trace.
//!
//! Table-driven, generated at compile time from the reflected
//! polynomial `0x82F63B78` — the same CRC family SSTable formats use
//! for block trailers. Like [`crate::fnv1a`], its values are persisted,
//! so the function must never change. A store must not trust *any*
//! bytes it reads back from disk until this digest verifies; the
//! recovery torture suite flips single bits at arbitrary offsets and
//! relies on the checksum to reject every one of them.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// One 256-entry lookup table, built in a `const` context so the crate
/// stays dependency-free without paying a runtime init.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32C digest of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 §B.4 test vectors for CRC-32C.
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn single_bit_flip_changes_the_digest() {
        let base = b"the store must reject torn and flipped bytes".to_vec();
        let crc = crc32c(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), crc, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }
}
