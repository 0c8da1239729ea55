//! The optimized micro-op cache partition.
//!
//! Co-hosts one or more speculatively compacted versions of each code
//! region ("multiple optimized versions of a given code region may be
//! found in the micro-op cache", paper §III). The extended tag array holds
//! a 4-bit confidence counter per predicted invariant; the fetch engine's
//! line-selection logic filters candidates by confidence and ranks them by
//! profitability score (confidence sum + shrinkage).

use crate::config::UopCacheConfig;
use crate::stream::CompactedStream;
use scc_isa::trace::{Event, SinkHandle};
use scc_isa::Addr;

#[derive(Clone, Debug)]
struct OptEntry {
    stream: CompactedStream,
    ways: usize,
    hotness: u32,
    last_touch: u64,
}

/// Counters for the optimized partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptPartitionStats {
    /// Lookups with at least one candidate stream.
    pub hits: u64,
    /// Lookups with no candidate.
    pub misses: u64,
    /// Streams committed.
    pub inserts: u64,
    /// Streams evicted for capacity.
    pub evictions: u64,
    /// Streams dropped by explicit phase-out (stale invariants).
    pub phased_out: u64,
    /// Insert attempts rejected (stream too large or set full of
    /// higher-value streams).
    pub insert_rejects: u64,
}

impl OptPartitionStats {
    /// Every counter as a `(name, value)` pair, in declaration order.
    ///
    /// The exhaustive destructuring makes this the single source of truth:
    /// adding a field without listing it here fails to compile.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        let OptPartitionStats { hits, misses, inserts, evictions, phased_out, insert_rejects } =
            *self;
        [
            ("hits", hits),
            ("misses", misses),
            ("inserts", inserts),
            ("evictions", evictions),
            ("phased_out", phased_out),
            ("insert_rejects", insert_rejects),
        ]
    }
}

/// The optimized micro-op cache partition.
#[derive(Clone, Debug)]
pub struct OptPartition {
    config: UopCacheConfig,
    sets: Vec<Vec<OptEntry>>,
    stats: OptPartitionStats,
    last_decay: u64,
    sink: SinkHandle,
}

impl OptPartition {
    /// Creates an empty partition.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`UopCacheConfig::validate`]).
    pub fn new(config: UopCacheConfig) -> OptPartition {
        config.validate();
        OptPartition {
            sets: vec![Vec::new(); config.sets],
            config,
            stats: OptPartitionStats::default(),
            last_decay: 0,
            sink: SinkHandle::disabled(),
        }
    }

    /// The partition's configuration.
    pub fn config(&self) -> &UopCacheConfig {
        &self.config
    }

    /// Attaches an observability sink; stream insert/evict/phase-out
    /// events are emitted through it (see `scc_isa::trace`).
    pub fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    fn ways_needed(&self, s: &CompactedStream) -> usize {
        let uops: Vec<_> = s.uops.iter().map(|su| su.uop.clone()).collect();
        scc_isa::fusion::slot_count(&uops).div_ceil(self.config.uops_per_line).max(1)
    }

    fn ways_used(&self, set: usize) -> usize {
        self.sets[set].iter().map(|e| e.ways).sum()
    }

    /// All candidate streams whose entry point is `pc`, bumping hotness on
    /// each (they were all read out and tag-compared).
    pub fn lookup(&mut self, pc: Addr, now: u64) -> Vec<&CompactedStream> {
        let region = scc_isa::region(pc);
        let set = self.config.set_of(region);
        let mut any = false;
        for e in &mut self.sets[set] {
            if e.stream.region == region && e.stream.entry == pc {
                e.hotness = e.hotness.saturating_add(1);
                e.last_touch = now;
                any = true;
            }
        }
        if any {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        self.sets[set]
            .iter()
            .filter(|e| e.stream.region == region && e.stream.entry == pc)
            .map(|e| &e.stream)
            .collect()
    }

    /// Records one fetch lookup at `pc` — hit/miss stats plus a hotness
    /// bump on every matching candidate, exactly as [`lookup`](Self::lookup)
    /// does — but without materializing the candidate list. Returns the
    /// candidate count; pair with [`candidates`](Self::candidates) for an
    /// allocation-free fetch path.
    pub fn touch(&mut self, pc: Addr, now: u64) -> usize {
        let region = scc_isa::region(pc);
        let set = self.config.set_of(region);
        let mut n = 0usize;
        for e in &mut self.sets[set] {
            if e.stream.region == region && e.stream.entry == pc {
                e.hotness = e.hotness.saturating_add(1);
                e.last_touch = now;
                n += 1;
            }
        }
        if n > 0 {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        n
    }

    /// Iterates the candidate streams whose entry point is `pc`, each with
    /// its current hotness counter, without touching stats, hotness, or the
    /// heap. A set holds at most `ways` streams, so the scan is a few tag
    /// compares.
    pub fn candidates(&self, pc: Addr) -> impl Iterator<Item = (&CompactedStream, u32)> {
        let region = scc_isa::region(pc);
        let set = self.config.set_of(region);
        self.sets[set]
            .iter()
            .filter(move |e| e.stream.region == region && e.stream.entry == pc)
            .map(|e| (&e.stream, e.hotness))
    }

    /// Non-mutating candidate scan (profitability re-checks, tests).
    pub fn peek(&self, pc: Addr) -> Vec<&CompactedStream> {
        let region = scc_isa::region(pc);
        let set = self.config.set_of(region);
        self.sets[set]
            .iter()
            .filter(|e| e.stream.region == region && e.stream.entry == pc)
            .map(|e| &e.stream)
            .collect()
    }

    /// Hotness of the stream with `stream_id` (0 if absent).
    pub fn hotness(&self, stream_id: u64) -> u32 {
        self.sets
            .iter()
            .flatten()
            .find(|e| e.stream.stream_id == stream_id)
            .map_or(0, |e| e.hotness)
    }

    /// Commits a compacted stream. The victim, when space is needed, is
    /// the lowest (hotness, profitability score) unlocked entry; the
    /// insert is rejected instead if every resident stream outranks the
    /// newcomer.
    pub fn insert(&mut self, stream: CompactedStream, now: u64) -> bool {
        let needed = self.ways_needed(&stream);
        if needed > self.config.max_ways_per_region || stream.uops.is_empty() {
            self.stats.insert_rejects += 1;
            return false;
        }
        let set = self.config.set_of(stream.region);
        // Replace an identical prior version (same region/entry and equal
        // or worse score) rather than co-hosting endless duplicates.
        if let Some(i) = self.sets[set].iter().position(|e| {
            e.stream.region == stream.region
                && e.stream.entry == stream.entry
                && e.stream.uops == stream.uops
        }) {
            self.sets[set][i].stream = stream;
            self.sets[set][i].last_touch = now;
            return true;
        }
        while self.ways_used(set) + needed > self.config.ways {
            let newcomer_rank = stream.profitability_score();
            let victim = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.hotness, e.stream.profitability_score(), e.last_touch))
                .map(|(i, _)| i);
            match victim {
                Some(i)
                    if self.sets[set][i].hotness == 0
                        || self.sets[set][i].stream.profitability_score() <= newcomer_rank =>
                {
                    let evicted = self.sets[set].remove(i);
                    self.stats.evictions += 1;
                    self.sink.emit(|| Event::StreamEvicted {
                        cycle: now,
                        stream_id: evicted.stream.stream_id,
                        region: evicted.stream.region,
                        reason: "capacity",
                    });
                }
                _ => {
                    self.stats.insert_rejects += 1;
                    return false;
                }
            }
        }
        if self.sink.is_enabled() {
            self.sink.emit(|| Event::StreamInserted {
                cycle: now,
                stream_id: stream.stream_id,
                region: stream.region,
                shrinkage: stream.shrinkage(),
                invariants: stream.invariants.len(),
            });
        }
        self.sets[set].push(OptEntry { stream, ways: needed, hotness: 1, last_touch: now });
        self.stats.inserts += 1;
        true
    }

    /// Rewards a stream whose invariant validated: bumps that invariant's
    /// confidence counter (paper §III: counters are "updated during
    /// instruction execution whenever a prediction is validated").
    pub fn reward(&mut self, stream_id: u64, invariant_idx: usize) {
        if let Some(e) = self.entry_mut(stream_id) {
            if let Some(t) = e.stream.invariants.get_mut(invariant_idx) {
                t.confidence.inc();
            }
        }
    }

    /// Penalizes a stream whose invariant mispredicted. The penalty is
    /// steep (−4) so stale streams fall below the streaming threshold
    /// quickly and get phased out.
    pub fn penalize(&mut self, stream_id: u64, invariant_idx: usize) {
        if let Some(e) = self.entry_mut(stream_id) {
            if let Some(t) = e.stream.invariants.get_mut(invariant_idx) {
                t.confidence.dec_by(4);
            }
        }
    }

    /// Drops streams for `region` whose minimum invariant confidence fell
    /// below `min_confidence` — the paper's gradual phase-out of stale
    /// streams. Returns how many were dropped.
    pub fn phase_out(&mut self, region: Addr, min_confidence: u8) -> usize {
        let set = self.config.set_of(region);
        let before = self.sets[set].len();
        if self.sink.is_enabled() {
            for e in &self.sets[set] {
                if e.stream.region == region && e.stream.min_confidence() < min_confidence {
                    self.sink.emit(|| Event::StreamEvicted {
                        cycle: self.last_decay,
                        stream_id: e.stream.stream_id,
                        region,
                        reason: "phase-out",
                    });
                }
            }
        }
        self.sets[set].retain(|e| {
            e.stream.region != region || e.stream.min_confidence() >= min_confidence
        });
        let dropped = before - self.sets[set].len();
        self.stats.phased_out += dropped as u64;
        dropped
    }

    /// Drops every stream belonging to `region` (self-modifying code).
    pub fn invalidate(&mut self, region: Addr) {
        let set = self.config.set_of(region);
        if self.sink.is_enabled() {
            for e in &self.sets[set] {
                if e.stream.region == region {
                    self.sink.emit(|| Event::StreamEvicted {
                        cycle: self.last_decay,
                        stream_id: e.stream.stream_id,
                        region,
                        reason: "invalidated",
                    });
                }
            }
        }
        self.sets[set].retain(|e| e.stream.region != region);
    }

    /// Advances time, decaying hotness per the (fast, 3-cycle) optimized
    /// decay period.
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
    pub fn stats(&self) -> OptPartitionStats {
        self.stats
    }

    /// Number of resident streams.
    pub fn resident_streams(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    fn entry_mut(&mut self, stream_id: u64) -> Option<&mut OptEntry> {
        self.sets.iter_mut().flatten().find(|e| e.stream.stream_id == stream_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Invariant, StreamUop, TaggedInvariant};
    use scc_isa::{Op, Uop};

    fn cfg() -> UopCacheConfig {
        UopCacheConfig::opt_partition(4)
    }

    fn stream(region: Addr, entry: Addr, id: u64, uops: usize, conf: u8) -> CompactedStream {
        CompactedStream {
            region,
            entry,
            uops: vec![StreamUop::plain(Uop::new(Op::Nop)); uops],
            final_live_outs: vec![],
            final_live_out_cc: None,
            invariants: vec![TaggedInvariant::new(
                Invariant::Data { pc: entry, slot: 0, value: 7 },
                conf,
            )],
            exit: region + 32,
            orig_len: uops as u32 + 4,
            breakdown: Default::default(),
            stream_id: id,
        }
    }

    #[test]
    fn insert_and_lookup_by_entry_pc() {
        let mut p = OptPartition::new(cfg());
        assert!(p.insert(stream(0x40, 0x44, 1, 3, 8), 0));
        assert!(p.lookup(0x40, 1).is_empty(), "entry pc must match exactly");
        let c = p.lookup(0x44, 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].stream_id, 1);
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn cohosts_multiple_versions() {
        let mut p = OptPartition::new(cfg());
        assert!(p.insert(stream(0x40, 0x40, 1, 3, 8), 0));
        let mut v2 = stream(0x40, 0x40, 2, 2, 12);
        v2.invariants[0].invariant = Invariant::Data { pc: 0x48, slot: 0, value: 9 };
        assert!(p.insert(v2, 1));
        assert_eq!(p.lookup(0x40, 2).len(), 2);
    }

    #[test]
    fn identical_version_replaces_not_duplicates() {
        let mut p = OptPartition::new(cfg());
        assert!(p.insert(stream(0x40, 0x40, 1, 3, 8), 0));
        assert!(p.insert(stream(0x40, 0x40, 2, 3, 10), 1));
        assert_eq!(p.resident_streams(), 1);
        assert_eq!(p.peek(0x40)[0].stream_id, 2);
    }

    #[test]
    fn reward_and_penalize_move_confidence() {
        let mut p = OptPartition::new(cfg());
        p.insert(stream(0x40, 0x40, 1, 3, 8), 0);
        p.reward(1, 0);
        assert_eq!(p.peek(0x40)[0].invariants[0].confidence.get(), 9);
        p.penalize(1, 0);
        assert_eq!(p.peek(0x40)[0].invariants[0].confidence.get(), 5);
        // Unknown ids / indices are ignored.
        p.reward(99, 0);
        p.penalize(1, 7);
    }

    #[test]
    fn phase_out_drops_stale_streams() {
        let mut p = OptPartition::new(cfg());
        p.insert(stream(0x40, 0x40, 1, 3, 2), 0);
        p.insert(stream(0x40, 0x48, 2, 3, 14), 0);
        assert_eq!(p.phase_out(0x40, 5), 1);
        assert_eq!(p.resident_streams(), 1);
        assert_eq!(p.peek(0x48)[0].stream_id, 2);
        assert_eq!(p.stats().phased_out, 1);
    }

    #[test]
    fn eviction_respects_value() {
        let mut p = OptPartition::new(cfg()); // 4 ways per set
        let r = |i: u64| 0x20 + i * 4 * 32; // same set
        // Two 2-way streams fill the set.
        p.insert(stream(r(0), r(0), 1, 12, 14), 0);
        p.insert(stream(r(1), r(1), 2, 12, 2), 0);
        // Heat stream 1.
        for t in 0..5 {
            p.lookup(r(0), t);
        }
        // Newcomer with a middling score evicts the cold, low-conf stream 2.
        assert!(p.insert(stream(r(2), r(2), 3, 12, 8), 10));
        assert!(p.peek(r(0)).len() == 1, "hot stream survives");
        assert!(p.peek(r(1)).is_empty(), "cold stream evicted");
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn oversized_stream_rejected() {
        let mut p = OptPartition::new(cfg());
        assert!(!p.insert(stream(0x40, 0x40, 1, 19, 8), 0));
        assert_eq!(p.stats().insert_rejects, 1);
    }

    #[test]
    fn decay_is_fast() {
        let mut p = OptPartition::new(cfg());
        p.insert(stream(0x40, 0x40, 1, 3, 8), 0);
        for t in 0..6 {
            p.lookup(0x40, t);
        }
        let h = p.hotness(1);
        p.tick(9); // 3 decay periods of 3 cycles
        assert_eq!(p.hotness(1), h.saturating_sub(3));
    }

    #[test]
    fn sink_sees_stream_lifecycle() {
        use scc_isa::trace::{shared, CollectSink, Event, SinkHandle};
        let mut p = OptPartition::new(cfg());
        let collect = shared(CollectSink::default());
        p.attach_sink(SinkHandle::attached(collect.clone()));
        let r = |i: u64| 0x20 + i * 4 * 32;
        p.insert(stream(r(0), r(0), 1, 12, 14), 0);
        p.insert(stream(r(1), r(1), 2, 12, 2), 0);
        for t in 0..5 {
            p.lookup(r(0), t);
        }
        p.insert(stream(r(2), r(2), 3, 12, 8), 10); // evicts stream 2
        p.insert(stream(0x40, 0x40, 4, 3, 1), 11);
        p.phase_out(0x40, 5); // drops stream 4
        let events = collect.borrow().events.clone();
        let inserts =
            events.iter().filter(|e| matches!(e, Event::StreamInserted { .. })).count();
        assert_eq!(inserts as u64, p.stats().inserts);
        let capacity = events
            .iter()
            .filter(|e| matches!(e, Event::StreamEvicted { reason: "capacity", .. }))
            .count();
        let phased = events
            .iter()
            .filter(|e| matches!(e, Event::StreamEvicted { reason: "phase-out", .. }))
            .count();
        assert_eq!(capacity as u64, p.stats().evictions);
        assert_eq!(phased as u64, p.stats().phased_out);
    }

    #[test]
    fn invalidate_region() {
        let mut p = OptPartition::new(cfg());
        p.insert(stream(0x40, 0x40, 1, 3, 8), 0);
        p.insert(stream(0x40, 0x48, 2, 3, 8), 0);
        p.invalidate(0x40);
        assert_eq!(p.resident_streams(), 0);
    }
}
