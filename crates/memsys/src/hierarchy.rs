//! The composed L1I/L1D → L2 → L3 → DRAM hierarchy.

use crate::cache::{Cache, CacheConfig, CacheStats, ReplacementPolicy};

/// A level of the hierarchy, reported on each access for energy
/// accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Level {
    /// L1 instruction cache.
    L1I,
    /// L1 data cache.
    L1D,
    /// Unified L2.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory.
    Dram,
}

/// Configuration of the whole hierarchy (latencies in cycles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// L3 geometry.
    pub l3: CacheConfig,
    /// L1 hit latency.
    pub l1_latency: u64,
    /// L2 hit latency (total, from access start).
    pub l2_latency: u64,
    /// L3 hit latency (total).
    pub l3_latency: u64,
    /// DRAM latency (total).
    pub dram_latency: u64,
}

impl HierarchyConfig {
    /// Table I's Ice Lake-like configuration: L1I 32 KB/8-way, L1D
    /// 48 KB/12-way, L2 512 KB/8-way LRU, L3 8 MB/16-way random, with
    /// latencies typical of the part (5/14/42/200 cycles at 2.4 GHz with
    /// DDR4-2400).
    pub fn icelake() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                replacement: ReplacementPolicy::Lru,
            },
            l1d: CacheConfig {
                size_bytes: 48 * 1024,
                ways: 12,
                line_bytes: 64,
                replacement: ReplacementPolicy::Lru,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                ways: 8,
                line_bytes: 64,
                replacement: ReplacementPolicy::Lru,
            },
            l3: CacheConfig {
                size_bytes: 8 * 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                replacement: ReplacementPolicy::Random,
            },
            l1_latency: 5,
            l2_latency: 14,
            l3_latency: 42,
            dram_latency: 200,
        }
    }
}

/// The levels one access touched, outermost last — an inline array
/// (at most L1 → L2 → L3 → DRAM) so the per-access hot path never
/// heap-allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TouchedLevels {
    levels: [Level; 4],
    len: u8,
}

impl TouchedLevels {
    fn new() -> TouchedLevels {
        // Placeholder slots beyond `len` are never exposed.
        TouchedLevels { levels: [Level::L1I; 4], len: 0 }
    }

    fn push(&mut self, level: Level) {
        self.levels[self.len as usize] = level;
        self.len += 1;
    }

    /// The touched levels, outermost last.
    pub fn as_slice(&self) -> &[Level] {
        &self.levels[..self.len as usize]
    }
}

impl std::ops::Deref for TouchedLevels {
    type Target = [Level];

    fn deref(&self) -> &[Level] {
        self.as_slice()
    }
}

/// The outcome of one hierarchy access. Returned by value with no heap
/// payload — the pipeline calls this once per load on its hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles.
    pub latency: u64,
    /// Levels touched, outermost last (for per-access energy charging).
    pub touched: TouchedLevels,
    /// The level that supplied the data.
    pub supplied_by: Level,
}

impl AccessResult {
    /// The absolute cycle this access completes when it starts at `now` —
    /// the earliest-completion event the pipeline's event-driven
    /// fast-forward jumps to (every access occupies at least one cycle).
    pub fn completes_at(&self, now: u64) -> u64 {
        now + self.latency.max(1)
    }
}

/// Aggregate per-level access counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1I hit/miss counters.
    pub l1i: CacheStats,
    /// L1D hit/miss counters.
    pub l1d: CacheStats,
    /// L2 hit/miss counters.
    pub l2: CacheStats,
    /// L3 hit/miss counters.
    pub l3: CacheStats,
    /// DRAM accesses.
    pub dram: u64,
}

impl HierarchyStats {
    /// Every counter as a `(level, name, value)` triple, in declaration
    /// order; the dotted metric name is `level.name` (e.g. `l1i.hits`).
    /// The exhaustive destructuring makes this the single source of
    /// truth: a new field fails to compile until listed.
    pub fn counters(&self) -> [(&'static str, &'static str, u64); 9] {
        let HierarchyStats { l1i, l1d, l2, l3, dram } = self;
        // The cache levels overwrite slots 0..8; slot 8 stays DRAM.
        let mut out = [("dram", "accesses", *dram); 9];
        for (i, (level, stats)) in
            [("l1i", l1i), ("l1d", l1d), ("l2", l2), ("l3", l3)].into_iter().enumerate()
        {
            for (j, (name, value)) in stats.counters().into_iter().enumerate() {
                out[2 * i + j] = (level, name, value);
            }
        }
        out
    }
}

/// The composed memory hierarchy.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    dram_accesses: u64,
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: &HierarchyConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            config: *config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            dram_accesses: 0,
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    fn walk(&mut self, addr: u64, instr: bool) -> AccessResult {
        let mut touched = TouchedLevels::new();
        let l1 = if instr { &mut self.l1i } else { &mut self.l1d };
        touched.push(if instr { Level::L1I } else { Level::L1D });
        if l1.access(addr) {
            return AccessResult {
                latency: self.config.l1_latency,
                touched,
                supplied_by: if instr { Level::L1I } else { Level::L1D },
            };
        }
        touched.push(Level::L2);
        if self.l2.access(addr) {
            return AccessResult {
                latency: self.config.l2_latency,
                touched,
                supplied_by: Level::L2,
            };
        }
        touched.push(Level::L3);
        if self.l3.access(addr) {
            return AccessResult {
                latency: self.config.l3_latency,
                touched,
                supplied_by: Level::L3,
            };
        }
        touched.push(Level::Dram);
        self.dram_accesses += 1;
        AccessResult { latency: self.config.dram_latency, touched, supplied_by: Level::Dram }
    }

    /// Fetches instruction bytes at `addr` (fills on the instruction side).
    pub fn instr_access(&mut self, addr: u64) -> AccessResult {
        self.walk(addr, true)
    }

    /// Accesses data at `addr`. `write` is accounted identically — caches
    /// are write-allocate, and write latency is hidden by the store buffer
    /// in the pipeline model, which uses this only for line residency.
    pub fn data_access(&mut self, addr: u64, write: bool) -> AccessResult {
        let _ = write;
        self.walk(addr, false)
    }

    /// True if `addr` hits in L1D without state updates.
    pub fn probe_l1d(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
            dram: self.dram_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inclusive_fill_path() {
        let mut m = MemoryHierarchy::new(&HierarchyConfig::icelake());
        let r = m.data_access(0x4000, false);
        assert_eq!(r.supplied_by, Level::Dram);
        assert_eq!(r.latency, 200);
        assert_eq!(r.touched.as_slice(), [Level::L1D, Level::L2, Level::L3, Level::Dram]);
        // Now everything on the path holds the line.
        let r = m.data_access(0x4000, false);
        assert_eq!(r.supplied_by, Level::L1D);
        assert_eq!(r.latency, 5);
    }

    #[test]
    fn instruction_and_data_sides_are_separate() {
        let mut m = MemoryHierarchy::new(&HierarchyConfig::icelake());
        m.instr_access(0x8000);
        // Data access to the same address misses L1D but hits L2.
        let r = m.data_access(0x8000, false);
        assert_eq!(r.supplied_by, Level::L2);
        assert_eq!(r.latency, 14);
    }

    #[test]
    fn l1i_capacity_causes_misses() {
        let mut m = MemoryHierarchy::new(&HierarchyConfig::icelake());
        // Touch 2x the L1I capacity in distinct lines, twice.
        let lines = 2 * 32 * 1024 / 64;
        for round in 0..2 {
            for i in 0..lines {
                m.instr_access((i * 64) as u64);
            }
            let s = m.stats();
            if round == 1 {
                // Second round: L1I thrashes (LRU + working set 2x capacity
                // means everything missed), but L2 covers it.
                assert!(s.l1i.misses > lines as u64, "L1I should thrash");
                assert!(s.l2.hits > 0, "L2 should absorb L1I misses");
            }
        }
        assert_eq!(m.stats().dram, 1024, "each distinct line reads DRAM once");
    }

    #[test]
    fn stats_accumulate() {
        let mut m = MemoryHierarchy::new(&HierarchyConfig::icelake());
        for _ in 0..10 {
            m.data_access(0x100, false);
        }
        let s = m.stats();
        assert_eq!(s.l1d.accesses(), 10);
        assert_eq!(s.l1d.hits, 9);
        assert_eq!(s.dram, 1);
    }

    #[test]
    fn completes_at_is_absolute_and_nonzero() {
        let mut m = MemoryHierarchy::new(&HierarchyConfig::icelake());
        let cold = m.data_access(0x9000, false);
        assert_eq!(cold.completes_at(1_000), 1_200);
        let warm = m.data_access(0x9000, false);
        assert_eq!(warm.completes_at(1_000), 1_005);
        // Even a hypothetical zero-latency result occupies one cycle.
        let instant = AccessResult { latency: 0, ..warm };
        assert_eq!(instant.completes_at(7), 8);
    }

    #[test]
    fn probe_l1d_nonmutating() {
        let mut m = MemoryHierarchy::new(&HierarchyConfig::icelake());
        assert!(!m.probe_l1d(0x40));
        m.data_access(0x40, true);
        assert!(m.probe_l1d(0x40));
        assert_eq!(m.stats().l1d.accesses(), 1);
    }
}
