//! The consistent-hash ring `scc-route` places jobs with.
//!
//! Each shard contributes [`VNODES`] virtual points to a 64-bit hash
//! circle; a job's canonical key (see [`scc_sim::runner::job_key`])
//! hashes to a point and is owned by the first shard point at or after
//! it, wrapping at the top. Two properties matter:
//!
//! - **Stability**: a key's owner is a pure function of the key and the
//!   shard count, so every router instance — and every restart — agrees
//!   on placement, which is what makes each shard's result cache and
//!   persistent store accumulate *its* keys and stay hot.
//! - **Minimal disruption**: changing the shard count remaps only the
//!   keys whose arc changed hands (~1/N of the space per shard added or
//!   removed), not the whole keyspace — the reason this is a ring and
//!   not `hash % N`.
//!
//! The hash is [`scc_isa::fnv1a`], the workspace's one stable digest
//! (it also keys the store index and the wire report's `arch_digest`).

pub use scc_isa::fnv1a;

/// Virtual points per shard. 64 points keeps the expected per-shard
/// share of the keyspace within a few percent of uniform for the shard
/// counts this service targets (single digits), at negligible memory.
pub const VNODES: usize = 64;

/// Avalanche finalizer (splitmix64's) applied on top of FNV-1a before a
/// value lands on the circle. Raw FNV over short, near-identical
/// strings — `shard-3-vnode-17` vs `shard-3-vnode-18` — leaves the low
/// and high bits correlated, which clusters a shard's points on one arc
/// and skews ownership several-fold. The finalizer spreads them.
fn point(bytes: &[u8]) -> u64 {
    let mut h = fnv1a(bytes);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A consistent-hash ring over `shards` backends, identified `0..N`.
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// Builds the ring for `shards` backends.
    ///
    /// Virtual points are derived from the shard *index*, not its
    /// address: placement must survive a shard moving to a new socket
    /// (its store directory travels with its index, not its port).
    pub fn new(shards: usize) -> Ring {
        assert!(shards > 0, "a ring needs at least one shard");
        let mut points = Vec::with_capacity(shards * VNODES);
        for shard in 0..shards {
            for v in 0..VNODES {
                points.push((point(format!("shard-{shard}-vnode-{v}").as_bytes()), shard));
            }
        }
        points.sort_unstable();
        Ring { points, shards }
    }

    /// How many shards the ring covers.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the first point clockwise from the
    /// key's hash (wrapping at the top of the circle).
    pub fn shard_for(&self, key: &str) -> usize {
        let h = point(key.as_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        // Shaped like real job keys, varied in the fields that vary.
        (0..n)
            .map(|i| format!("wl-{}|iters={}|full-scc|max=400000000|cfg", i % 23, 100 + i))
            .collect()
    }

    #[test]
    fn placement_is_stable_across_ring_instances() {
        let a = Ring::new(4);
        let b = Ring::new(4);
        for k in keys(500) {
            assert_eq!(a.shard_for(&k), b.shard_for(&k));
        }
    }

    #[test]
    fn distribution_is_roughly_even() {
        for shards in [2usize, 3, 4, 8] {
            let ring = Ring::new(shards);
            let mut counts = vec![0usize; shards];
            let n = 8000;
            for k in keys(n) {
                counts[ring.shard_for(&k)] += 1;
            }
            let ideal = n / shards;
            for (s, &c) in counts.iter().enumerate() {
                // 64 vnodes keeps every shard within 2x of ideal with
                // lots of margin; catastrophic skew (a shard owning
                // almost nothing or almost everything) is the failure
                // this guards against.
                assert!(
                    c > ideal / 2 && c < ideal * 2,
                    "shard {s}/{shards} got {c} of {n} (ideal {ideal})"
                );
            }
        }
    }

    #[test]
    fn growing_the_ring_only_remaps_a_fraction() {
        let four = Ring::new(4);
        let five = Ring::new(5);
        let ks = keys(4000);
        let moved = ks.iter().filter(|k| four.shard_for(k) != five.shard_for(k)).count();
        // Ideal is 1/5 of keys moving to the new shard; assert well
        // under the 4/5 a naive `hash % N` would reshuffle.
        assert!(
            moved < ks.len() * 2 / 5,
            "{moved}/{} keys moved going 4 -> 5 shards",
            ks.len()
        );
        // And every moved key landed on some shard that exists.
        for k in &ks {
            assert!(five.shard_for(k) < 5);
        }
    }

    #[test]
    fn single_shard_ring_owns_everything() {
        let ring = Ring::new(1);
        for k in keys(64) {
            assert_eq!(ring.shard_for(&k), 0);
        }
    }
}
