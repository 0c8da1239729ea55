//! The unoptimized micro-op cache partition.
//!
//! Holds decoded micro-ops per 32-byte region (a region may occupy up to
//! three ways ≈ 18 fused micro-ops). The extended tag array carries a
//! *lock bit* per region under compaction — locked regions are never
//! evicted (paper §III) — and a hotness counter driving both replacement
//! (Ren et al.) and compaction triggering.

use crate::config::UopCacheConfig;
use scc_isa::trace::{Event, SinkHandle};
use scc_isa::{Addr, Uop};
use std::sync::Arc;

#[derive(Clone, Debug)]
struct RegionEntry {
    region: Addr,
    uops: Arc<[Uop]>,
    ways: usize,
    hotness: u32,
    locked: bool,
    last_touch: u64,
}

/// Result of a successful unoptimized-partition lookup.
#[derive(Debug)]
pub struct UnoptLookup {
    /// All cached micro-ops of the region, in program order. Shared with
    /// the cache line itself (`Arc`), so the fetch engine can keep
    /// delivering from it without copying the micro-ops out per fetch.
    pub uops: Arc<[Uop]>,
    /// Hotness after this access.
    pub hotness: u32,
    /// True exactly when this access pushed the line across the hotness
    /// threshold — the fetch engine turns this into a compaction request.
    pub became_hot: bool,
}

/// Counters for the unoptimized partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnoptPartitionStats {
    /// Lookups that found the region (all ways present).
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Regions filled.
    pub fills: u64,
    /// Regions evicted to make room.
    pub evictions: u64,
    /// Fill attempts rejected (region too large or set full of locked
    /// lines).
    pub fill_rejects: u64,
}

impl UnoptPartitionStats {
    /// Every counter as a `(name, value)` pair, in declaration order.
    ///
    /// The exhaustive destructuring makes this the single source of truth:
    /// adding a field without listing it here fails to compile.
    pub fn counters(&self) -> [(&'static str, u64); 5] {
        let UnoptPartitionStats { hits, misses, fills, evictions, fill_rejects } = *self;
        [
            ("hits", hits),
            ("misses", misses),
            ("fills", fills),
            ("evictions", evictions),
            ("fill_rejects", fill_rejects),
        ]
    }
}

/// The unoptimized micro-op cache partition.
#[derive(Clone, Debug)]
pub struct UnoptPartition {
    config: UopCacheConfig,
    sets: Vec<Vec<RegionEntry>>,
    stats: UnoptPartitionStats,
    last_decay: u64,
    sink: SinkHandle,
}

impl UnoptPartition {
    /// Creates an empty partition.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`UopCacheConfig::validate`]).
    pub fn new(config: UopCacheConfig) -> UnoptPartition {
        config.validate();
        UnoptPartition {
            sets: vec![Vec::new(); config.sets],
            config,
            stats: UnoptPartitionStats::default(),
            last_decay: 0,
            sink: SinkHandle::disabled(),
        }
    }

    /// The partition's configuration.
    pub fn config(&self) -> &UopCacheConfig {
        &self.config
    }

    /// Attaches an observability sink; fill and eviction events are
    /// emitted through it (see `scc_isa::trace`).
    pub fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    fn ways_needed(&self, uops: &[Uop]) -> usize {
        // Micro-fused pairs occupy one slot (Table I counts fused µops).
        scc_isa::fusion::slot_count(uops).div_ceil(self.config.uops_per_line).max(1)
    }

    fn ways_used(&self, set: usize) -> usize {
        self.sets[set].iter().map(|e| e.ways).sum()
    }

    /// Looks up `region`; on a hit, bumps hotness and reports whether the
    /// hotness threshold was just crossed.
    pub fn lookup(&mut self, region: Addr, now: u64) -> Option<UnoptLookup> {
        let set = self.config.set_of(region);
        let threshold = self.config.hotness_threshold;
        match self.sets[set].iter_mut().find(|e| e.region == region) {
            Some(e) => {
                let was_hot = e.hotness >= threshold;
                e.hotness = e.hotness.saturating_add(1);
                e.last_touch = now;
                let became_hot = !was_hot && e.hotness >= threshold;
                self.stats.hits += 1;
                Some(UnoptLookup { uops: Arc::clone(&e.uops), hotness: e.hotness, became_hot })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peeks at the region's cached micro-ops without touching hotness or
    /// stats (used by the SCC unit while compacting).
    pub fn peek(&self, region: Addr) -> Option<&[Uop]> {
        let set = self.config.set_of(region);
        self.sets[set].iter().find(|e| e.region == region).map(|e| &e.uops[..])
    }

    /// True if the region is fully resident.
    pub fn contains(&self, region: Addr) -> bool {
        self.peek(region).is_some()
    }

    /// Current hotness of the region (0 if absent).
    pub fn hotness(&self, region: Addr) -> u32 {
        let set = self.config.set_of(region);
        self.sets[set].iter().find(|e| e.region == region).map_or(0, |e| e.hotness)
    }

    /// Installs the decoded micro-ops of `region`. Returns false (and
    /// counts a reject) if the region exceeds three ways or the set cannot
    /// make room without evicting a locked line.
    pub fn fill(&mut self, region: Addr, uops: Vec<Uop>, now: u64) -> bool {
        if uops.is_empty()
            || scc_isa::fusion::slot_count(&uops) > self.config.region_capacity_uops()
        {
            self.stats.fill_rejects += 1;
            return false;
        }
        if self.contains(region) {
            return true;
        }
        let needed = self.ways_needed(&uops);
        let set = self.config.set_of(region);
        while self.ways_used(set) + needed > self.config.ways {
            // Evict the coldest unlocked region (ties: least recently
            // touched).
            let victim = self.sets[set]
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.locked)
                .min_by_key(|(_, e)| (e.hotness, e.last_touch))
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let evicted = self.sets[set].remove(i);
                    self.stats.evictions += 1;
                    self.sink
                        .emit(|| Event::RegionEvicted { cycle: now, region: evicted.region });
                }
                None => {
                    self.stats.fill_rejects += 1;
                    return false;
                }
            }
        }
        let len = uops.len();
        self.sets[set].push(RegionEntry {
            region,
            uops: uops.into(),
            ways: needed,
            hotness: 1,
            locked: false,
            last_touch: now,
        });
        self.stats.fills += 1;
        self.sink.emit(|| Event::RegionFilled { cycle: now, region, uops: len });
        true
    }

    /// Sets the lock bit on `region` (under compaction). Returns false if
    /// absent.
    pub fn lock(&mut self, region: Addr) -> bool {
        self.set_lock(region, true)
    }

    /// Clears the lock bit on `region`.
    pub fn unlock(&mut self, region: Addr) -> bool {
        self.set_lock(region, false)
    }

    fn set_lock(&mut self, region: Addr, value: bool) -> bool {
        let set = self.config.set_of(region);
        match self.sets[set].iter_mut().find(|e| e.region == region) {
            Some(e) => {
                e.locked = value;
                true
            }
            None => false,
        }
    }

    /// Resets the region's hotness to zero — used after a discarded
    /// compaction so the region re-heats and retries once the predictors
    /// have trained further.
    pub fn reset_hotness(&mut self, region: Addr) {
        let set = self.config.set_of(region);
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.region == region) {
            e.hotness = 0;
        }
    }

    /// Drops the region (self-modifying-code invalidation).
    pub fn invalidate(&mut self, region: Addr) {
        let set = self.config.set_of(region);
        self.sets[set].retain(|e| e.region != region);
    }

    /// Advances time; decays all hotness counters by 1 per elapsed
    /// [`UopCacheConfig::decay_period`].
    pub fn tick(&mut self, now: u64) {
        let periods = (now.saturating_sub(self.last_decay)) / self.config.decay_period;
        if periods == 0 {
            return;
        }
        self.last_decay += periods * self.config.decay_period;
        let dec = periods.min(u32::MAX as u64) as u32;
        for set in &mut self.sets {
            for e in set {
                e.hotness = e.hotness.saturating_sub(dec);
            }
        }
    }

    /// Counters.
    pub fn stats(&self) -> UnoptPartitionStats {
        self.stats
    }

    /// Number of resident regions (for tests and reports).
    pub fn resident_regions(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_isa::{Op, Uop};

    fn uops(n: usize) -> Vec<Uop> {
        (0..n)
            .map(|i| {
                let mut u = Uop::new(Op::Nop);
                u.macro_addr = i as u64;
                u.macro_len = 1;
                u
            })
            .collect()
    }

    fn part() -> UnoptPartition {
        UnoptPartition::new(UopCacheConfig {
            sets: 4,
            ways: 8,
            uops_per_line: 6,
            max_ways_per_region: 3,
            hotness_threshold: 3,
            decay_period: 28,
        })
    }

    #[test]
    fn fill_then_lookup() {
        let mut p = part();
        assert!(p.lookup(0x40, 0).is_none());
        assert!(p.fill(0x40, uops(7), 0));
        let l = p.lookup(0x40, 1).unwrap();
        assert_eq!(l.uops.len(), 7);
        assert_eq!(l.hotness, 2);
        assert!(!l.became_hot);
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn hotness_threshold_fires_once() {
        let mut p = part();
        p.fill(0x40, uops(3), 0);
        assert!(!p.lookup(0x40, 1).unwrap().became_hot); // 2
        assert!(p.lookup(0x40, 2).unwrap().became_hot); // 3: crossed
        assert!(!p.lookup(0x40, 3).unwrap().became_hot); // already hot
    }

    #[test]
    fn region_too_large_rejected() {
        let mut p = part();
        assert!(!p.fill(0x40, uops(19), 0));
        assert_eq!(p.stats().fill_rejects, 1);
        assert!(p.fill(0x40, uops(18), 0), "exactly 18 fits (3 ways)");
    }

    #[test]
    fn eviction_prefers_cold_unlocked() {
        let mut p = part();
        // Fill the set at region stride 4*32 so all map to set 1.
        let r = |i: u64| 0x20 + i * 4 * 32;
        p.fill(r(0), uops(12), 0); // 2 ways
        p.fill(r(1), uops(12), 0); // 2 ways
        p.fill(r(2), uops(12), 0); // 2 ways
        p.fill(r(3), uops(12), 0); // 2 ways -> set full (8 ways)
        // Heat up r(0); r(1) stays cold.
        for t in 0..5 {
            p.lookup(r(0), t);
        }
        assert!(p.fill(r(4), uops(6), 10));
        assert!(p.contains(r(0)), "hot region survives");
        assert!(!p.contains(r(1)), "coldest region evicted");
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn locked_regions_never_evicted() {
        let mut p = part();
        let r = |i: u64| 0x20 + i * 4 * 32;
        for i in 0..4 {
            p.fill(r(i), uops(12), 0);
        }
        for i in 0..4 {
            assert!(p.lock(r(i)));
        }
        assert!(!p.fill(r(4), uops(6), 1), "set of locked lines rejects fills");
        p.unlock(r(2));
        assert!(p.fill(r(4), uops(6), 2));
        assert!(!p.contains(r(2)));
    }

    #[test]
    fn decay_reduces_hotness() {
        let mut p = part();
        p.fill(0x40, uops(3), 0);
        for t in 1..=5 {
            p.lookup(0x40, t);
        }
        assert_eq!(p.hotness(0x40), 6);
        p.tick(28);
        assert_eq!(p.hotness(0x40), 5);
        p.tick(28 * 10);
        assert_eq!(p.hotness(0x40), 0);
    }

    #[test]
    fn invalidate_removes() {
        let mut p = part();
        p.fill(0x40, uops(3), 0);
        p.invalidate(0x40);
        assert!(!p.contains(0x40));
        assert_eq!(p.resident_regions(), 0);
    }

    #[test]
    fn peek_is_silent() {
        let mut p = part();
        p.fill(0x40, uops(3), 0);
        let s = p.stats();
        let h = p.hotness(0x40);
        assert!(p.peek(0x40).is_some());
        assert_eq!(p.stats(), s);
        assert_eq!(p.hotness(0x40), h);
    }

    #[test]
    fn sink_sees_fills_and_evictions() {
        use scc_isa::trace::{shared, CollectSink, SinkHandle};
        let mut p = part();
        let collect = shared(CollectSink::default());
        p.attach_sink(SinkHandle::attached(collect.clone()));
        let r = |i: u64| 0x20 + i * 4 * 32;
        for i in 0..4 {
            p.fill(r(i), uops(12), i);
        }
        p.fill(r(4), uops(6), 10); // evicts one cold region
        let events = &collect.borrow().events;
        let fills = events.iter().filter(|e| matches!(e, Event::RegionFilled { .. })).count();
        let evictions =
            events.iter().filter(|e| matches!(e, Event::RegionEvicted { .. })).count();
        assert_eq!(fills as u64, p.stats().fills);
        assert_eq!(evictions as u64, p.stats().evictions);
    }

    #[test]
    fn double_fill_is_idempotent() {
        let mut p = part();
        assert!(p.fill(0x40, uops(3), 0));
        assert!(p.fill(0x40, uops(3), 1));
        assert_eq!(p.stats().fills, 1);
        assert_eq!(p.resident_regions(), 1);
    }
}
