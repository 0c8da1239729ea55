//! Seeded input generators. The seed shapes only the inputs: program
//! scales and orders for the sim workloads, the key set and request
//! stream for the serve workloads. The same seed always yields the same
//! inputs.

use scc_isa::rand_prog::SplitMix64;
use scc_serve::protocol::{run_key, RunRequest};
use scc_serve::ring::{fnv1a, Ring};
use scc_sim::build::DEFAULT_MAX_CYCLES;
use scc_sim::OptLevel;
use scc_workloads::{Scale, Workload};

/// sim-memstall programs: memory-stall bound, no SCC unit at baseline.
pub const MEMSTALL: [&str; 3] = ["mcf", "canneal", "xz"];
/// sim-compact programs: the most compaction passes and the slowest
/// host rates at full-scc.
pub const COMPACT: [&str; 5] = ["g_cksum", "g_interp", "g_sort", "gcc", "deepsjeng"];
/// Base scale of the sim programs; each gets a seeded ±10 % of it.
pub const SIM_ITERS: i64 = 4000;

/// serve-hot programs whose results carry a memory image ≥ 50K words.
pub const HOT_LARGE: [&str; 2] = ["mcf", "canneal"];
/// serve-hot programs whose results carry a memory image < 1K words.
pub const HOT_SMALL: [&str; 6] = [
    "perlbench",
    "deepsjeng",
    "g_cksum",
    "g_interp",
    "exchange",
    "vips",
];
/// Levels every serve key set is drawn over.
pub const SERVE_LEVELS: [OptLevel; 2] = [OptLevel::Baseline, OptLevel::Full];
/// Distinct scales per (program, level) in the serve-hot key set.
const HOT_SCALES: usize = 4;

/// serve-churn programs: small footprint, 5–25 ms per fresh simulation
/// at the churn scales.
pub const CHURN_PROGRAMS: [&str; 8] = [
    "perlbench",
    "deepsjeng",
    "g_interp",
    "exchange",
    "vips",
    "freqmine",
    "leela",
    "xalancbmk",
];
/// Scales of serve-churn's timed keys: 8 programs × 2 levels × 192
/// scales = 3,072 keys.
pub const CHURN_ITERS: (i64, i64) = (100, 291);
/// Scales of the keys that fill each shard's LRU in set-up: tiny, so a
/// fill costs ~1–5 ms of simulation per key; all six levels.
pub const PREFILL_ITERS: (i64, i64) = (1, 56);
/// Shards behind the serve-churn router.
pub const SHARDS: usize = 2;
/// Entries of each shard's result LRU.
pub const LRU_ENTRIES: usize = scc_sim::DEFAULT_CACHE_CAPACITY;
/// Share of serve-churn requests, in percent, that ask for a key never
/// requested before.
pub const FIRST_SEEN_PCT: u64 = 15;

/// An independent generator for one purpose of a run: purposes drawn
/// from the same seed do not share a sequence.
pub fn rng(seed: u64, purpose: &str) -> SplitMix64 {
    SplitMix64::new(fnv1a(purpose.as_bytes()) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Uniform integer in `lo..=hi`.
fn uniform(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
    lo + rng.below((hi - lo + 1) as u64) as i64
}

/// Uniform float in `[0, 1)`.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// One simulation job: a registry program at a level and scale. It names
/// one serve request and one content key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Key {
    /// Registry workload name.
    pub program: &'static str,
    /// Optimization level.
    pub level: OptLevel,
    /// Workload scale.
    pub iters: i64,
}

impl Key {
    /// The parsed form of this key's `run` request.
    pub fn run_request(&self) -> RunRequest {
        RunRequest {
            id: None,
            workload: self.program.to_string(),
            iters: self.iters,
            level: self.level,
            max_cycles: None,
            deadline_ms: None,
            audit: false,
        }
    }

    /// The canonical content key the cache, the store and the router
    /// use for this job.
    pub fn canonical(&self) -> String {
        run_key(&self.run_request(), DEFAULT_MAX_CYCLES)
    }

    /// The v2 `run` request frame (without the newline).
    pub fn request_line(&self, id: u64) -> String {
        format!(
            "{{\"proto\":2,\"verb\":\"run\",\"id\":\"{id}\",\"workload\":\"{}\",\"iters\":{},\"level\":\"{}\"}}",
            self.program,
            self.iters,
            self.level.label()
        )
    }

    /// Builds the program.
    pub fn build(&self) -> Workload {
        scc_workloads::workload(self.program, Scale::custom(self.iters))
            .expect("generated keys name registry workloads")
    }
}

/// The sim workloads' jobs: each program at `base_iters` ± a seeded 10 %.
pub fn sim_keys(
    programs: &[&'static str],
    level: OptLevel,
    base_iters: i64,
    seed: u64,
) -> Vec<Key> {
    let mut r = rng(seed, "sim-scales");
    let d = base_iters / 10;
    programs
        .iter()
        .map(|&program| Key {
            program,
            level,
            iters: (base_iters + uniform(&mut r, -d, d)).max(1),
        })
        .collect()
}

/// serve-hot's 64 keys: 16 large-footprint (mcf/canneal) and 48 small,
/// `HOT_SCALES` distinct seeded scales per (program, level).
pub fn hot_keys(seed: u64) -> Vec<Key> {
    let mut r = rng(seed, "hot-keys");
    let mut keys = Vec::with_capacity(64);
    for (programs, hi) in [(&HOT_LARGE[..], 400), (&HOT_SMALL[..], 300)] {
        for &program in programs {
            for level in SERVE_LEVELS {
                let mut scales: Vec<i64> = Vec::with_capacity(HOT_SCALES);
                while scales.len() < HOT_SCALES {
                    let iters = uniform(&mut r, 100, hi);
                    if !scales.contains(&iters) {
                        scales.push(iters);
                    }
                }
                keys.extend(scales.into_iter().map(|iters| Key {
                    program,
                    level,
                    iters,
                }));
            }
        }
    }
    keys
}

fn key_space(levels: &[OptLevel], (lo, hi): (i64, i64)) -> Vec<Key> {
    let mut keys = Vec::new();
    for program in CHURN_PROGRAMS {
        for &level in levels {
            keys.extend((lo..=hi).map(|iters| Key {
                program,
                level,
                iters,
            }));
        }
    }
    keys
}

/// The keys serve-churn's set-up sends to each shard, per shard in
/// ring order: exactly [`LRU_ENTRIES`] tiny keys that the ring places on
/// it, so every shard starts the timed phase with a full LRU.
pub fn prefill_keys(seed: u64) -> Vec<Vec<Key>> {
    let mut space = key_space(&OptLevel::all(), PREFILL_ITERS);
    shuffle(&mut space, &mut rng(seed, "prefill"));
    let ring = Ring::new(SHARDS);
    let mut per_shard = vec![Vec::new(); SHARDS];
    for key in space {
        let s = &mut per_shard[ring.shard_for(&key.canonical())];
        if s.len() < LRU_ENTRIES {
            s.push(key);
        }
    }
    assert!(
        per_shard.iter().all(|s| s.len() == LRU_ENTRIES),
        "prefill key space too small to fill every shard's LRU"
    );
    per_shard
}

/// One serve-churn request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnRequest {
    /// The job requested.
    pub key: Key,
    /// True if no earlier request (set-up included) asked for this key.
    pub first_seen: bool,
}

/// serve-churn's endless request stream. About [`FIRST_SEEN_PCT`] % of
/// requests ask for a fresh key from a seeded order of the 3,072 churn
/// keys; the rest re-request a key seen before (prefill keys included),
/// four in five weighted toward recent keys (log-uniform distance back)
/// and one in five uniform over everything seen, which reaches back past
/// every shard's LRU.
pub struct ChurnStream {
    rng: SplitMix64,
    fresh: Vec<Key>,
    next_fresh: usize,
    seen: Vec<Key>,
}

impl ChurnStream {
    /// The stream for `seed`, after set-up sent `prefill` (in order).
    pub fn new(seed: u64, prefill: &[Key]) -> ChurnStream {
        let mut fresh = key_space(&SERVE_LEVELS, CHURN_ITERS);
        let mut rng = rng(seed, "churn-stream");
        shuffle(&mut fresh, &mut rng);
        ChurnStream {
            rng,
            fresh,
            next_fresh: 0,
            seen: prefill.to_vec(),
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> ChurnRequest {
        let want_fresh = self.seen.is_empty() || self.rng.below(100) < FIRST_SEEN_PCT;
        if want_fresh && self.next_fresh < self.fresh.len() {
            let key = self.fresh[self.next_fresh];
            self.next_fresh += 1;
            self.seen.push(key);
            return ChurnRequest {
                key,
                first_seen: true,
            };
        }
        let n = self.seen.len();
        let back = if self.rng.below(5) == 0 {
            1 + self.rng.below(n as u64) as usize
        } else {
            ((n as f64 + 1.0).ln() * unit(&mut self.rng)).exp() as usize
        };
        ChurnRequest {
            key: self.seen[n - back.clamp(1, n)],
            first_seen: false,
        }
    }

    /// The fresh keys handed out so far, in stream order: a seeded
    /// sample of the churn key space.
    pub fn first_seen(&self) -> &[Key] {
        &self.fresh[..self.next_fresh]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn churn(seed: u64, n: usize) -> (Vec<Vec<Key>>, Vec<ChurnRequest>) {
        let prefill = prefill_keys(seed);
        let order: Vec<Key> = prefill.iter().flatten().copied().collect();
        let mut s = ChurnStream::new(seed, &order);
        (prefill, (0..n).map(|_| s.next_request()).collect())
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(
            sim_keys(&MEMSTALL, OptLevel::Baseline, SIM_ITERS, 1),
            sim_keys(&MEMSTALL, OptLevel::Baseline, SIM_ITERS, 1)
        );
        assert_ne!(
            sim_keys(&COMPACT, OptLevel::Full, SIM_ITERS, 1),
            sim_keys(&COMPACT, OptLevel::Full, SIM_ITERS, 2)
        );
        let mut a: Vec<usize> = (0..5).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut rng(3, "order"));
        shuffle(&mut b, &mut rng(3, "order"));
        assert_eq!(a, b);
        assert_eq!(hot_keys(9), hot_keys(9));
        assert_ne!(hot_keys(9), hot_keys(10));
        assert_eq!(churn(5, 500), churn(5, 500));
        assert_ne!(churn(5, 500).1, churn(6, 500).1);
    }

    #[test]
    fn sim_scales_stay_within_ten_percent() {
        for seed in 0..20 {
            for k in sim_keys(&COMPACT, OptLevel::Full, SIM_ITERS, seed) {
                assert!((3600..=4400).contains(&k.iters), "{k:?}");
                assert_eq!(k.level, OptLevel::Full);
            }
        }
    }

    #[test]
    fn hot_keys_are_distinct_and_split_into_pools() {
        let keys = hot_keys(1);
        assert_eq!(keys.len(), 64);
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), 64);
        assert_eq!(
            keys.iter()
                .filter(|k| HOT_LARGE.contains(&k.program))
                .count(),
            16
        );
        assert_eq!(
            keys.iter()
                .filter(|k| HOT_SMALL.contains(&k.program))
                .count(),
            48
        );
    }

    #[test]
    fn churn_stream_overflows_every_shard_lru_and_rerequests_evicted_keys() {
        const N: usize = 6000;
        let (prefill, stream) = churn(1, N);
        let ring = Ring::new(SHARDS);
        let fresh = stream.iter().filter(|r| r.first_seen).count() as f64 / N as f64;
        let want = FIRST_SEEN_PCT as f64 / 100.0;
        assert!((fresh - want).abs() < 0.03, "first-seen share {fresh}");

        // Replay prefill and stream through one LRU per shard, as the
        // shards would see them.
        let mut lru: Vec<HashMap<Key, usize>> = vec![HashMap::new(); SHARDS];
        let mut distinct: Vec<HashSet<Key>> = vec![HashSet::new(); SHARDS];
        let mut tick = 0usize;
        let mut evicted_rerequests = 0usize;
        let mut touch = |key: Key, lru: &mut Vec<HashMap<Key, usize>>| {
            let s = ring.shard_for(&key.canonical());
            tick += 1;
            let hit = lru[s].insert(key, tick).is_some();
            if lru[s].len() > LRU_ENTRIES {
                let oldest = *lru[s].iter().min_by_key(|(_, t)| **t).unwrap().0;
                lru[s].remove(&oldest);
            }
            distinct[s].insert(key);
            hit
        };
        for (s, keys) in prefill.iter().enumerate() {
            for &k in keys {
                assert_eq!(ring.shard_for(&k.canonical()), s);
                assert!(!touch(k, &mut lru), "prefill keys are distinct");
            }
        }
        for r in &stream {
            let hit = touch(r.key, &mut lru);
            if r.first_seen {
                assert!(!hit, "a first-seen key was resident");
            } else if !hit {
                evicted_rerequests += 1;
            }
        }
        for (s, d) in distinct.iter().enumerate() {
            assert!(
                d.len() > LRU_ENTRIES + 300,
                "shard {s} saw only {} keys",
                d.len()
            );
        }
        assert!(
            evicted_rerequests > N / 50,
            "only {evicted_rerequests} re-requests of evicted keys"
        );
    }

    #[test]
    fn every_generated_program_halts() {
        let mut programs: Vec<(&str, i64)> = Vec::new();
        for p in CHURN_PROGRAMS {
            for iters in [
                PREFILL_ITERS.0,
                PREFILL_ITERS.1,
                CHURN_ITERS.0,
                CHURN_ITERS.1,
            ] {
                programs.push((p, iters));
            }
        }
        for p in HOT_LARGE.iter().chain(&HOT_SMALL) {
            programs.push((p, 100));
        }
        for (program, iters) in programs {
            let w = Key {
                program,
                level: OptLevel::Baseline,
                iters,
            }
            .build();
            let r = scc_isa::Machine::new(&w.program).run(50_000_000).unwrap();
            assert!(r.halted, "{program} at iters {iters} did not halt");
        }
    }
}
