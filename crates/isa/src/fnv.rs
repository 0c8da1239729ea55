//! 64-bit FNV-1a: the workspace's one stable byte-string digest.
//!
//! Unlike [`crate::fxhash`], which only has to be fast and identical
//! within a build, FNV-1a values are persisted and compared across
//! processes and versions — store index order, trace content digests,
//! shard placement, and the wire report's `arch_digest` — so the
//! function must never change. It is byte-wise and dependency-free.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a hasher: feeding the bytes of a message in any
/// split yields the same digest as [`fnv1a`] over the whole message.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a {
    hash: u64,
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV offset basis (the digest of no bytes).
    pub const fn new() -> Fnv1a {
        Fnv1a { hash: OFFSET }
    }

    /// Feeds `bytes`, one at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(PRIME);
        }
    }

    /// Feeds the little-endian bytes of `v`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let msg: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 7, 8, 500, 1000] {
            let mut h = Fnv1a::new();
            h.write(&msg[..split]);
            h.write(&msg[split..]);
            assert_eq!(h.finish(), fnv1a(&msg), "split at {split}");
        }
        let mut h = Fnv1a::default();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
