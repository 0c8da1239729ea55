//! Loop-exit predictor: the "L" in L-TAGE.
//!
//! Learns the trip count of regular loops and predicts the final,
//! not-taken execution of the loop-ending branch — the one case TAGE's
//! bounded history cannot see for long loops. Iteration counts advance
//! *speculatively* at prediction time (fetch runs ahead of resolution)
//! and are repaired to the committed count on a squash.

use scc_isa::{Addr, FxHashMap};

#[derive(Clone, Copy, Debug, Default)]
struct LoopEntry {
    /// Learned trip count hypothesis (taken executions before the exit).
    trip: u32,
    /// Confidence that `trip` repeats (0–3).
    confidence: u8,
    /// Taken executions observed since the last exit (committed).
    committed_count: u32,
    /// Taken executions fetch has speculatively predicted this pass.
    spec_count: u32,
}

/// The loop-exit predictor.
#[derive(Clone, Debug)]
pub struct LoopExitPredictor {
    table: FxHashMap<Addr, LoopEntry>,
    capacity: usize,
    overrides: u64,
}

impl LoopExitPredictor {
    /// Creates a predictor tracking up to `capacity` loop branches.
    pub fn new(capacity: usize) -> LoopExitPredictor {
        LoopExitPredictor { table: FxHashMap::default(), capacity: capacity.max(4), overrides: 0 }
    }

    /// Default sizing (64 loops, like LTAGE's loop table).
    pub fn default_size() -> LoopExitPredictor {
        LoopExitPredictor::new(64)
    }

    /// Consulted at fetch for the conditional branch at `pc`. Returns
    /// `Some(false)` when this execution is confidently the loop exit
    /// (predict not-taken), `Some(true)` when confidently another
    /// iteration, and `None` when the predictor has no opinion. Advances
    /// the speculative iteration count.
    pub fn predict(&mut self, pc: Addr) -> Option<bool> {
        let e = self.table.get_mut(&pc)?;
        if e.confidence < 3 || e.trip == 0 {
            return None;
        }
        if e.spec_count + 1 >= e.trip {
            // This instance should fall through; the speculative pass
            // restarts afterwards.
            e.spec_count = 0;
            self.overrides += 1;
            Some(false)
        } else {
            e.spec_count += 1;
            Some(true)
        }
    }

    /// Trains with the resolved direction of the branch at `pc`.
    pub fn update(&mut self, pc: Addr, taken: bool) {
        if self.table.len() >= self.capacity && !self.table.contains_key(&pc) {
            if !taken {
                return; // don't allocate on a one-off not-taken
            }
            if let Some(&k) = self.table.keys().next() {
                self.table.remove(&k);
            }
        }
        let e = self.table.entry(pc).or_default();
        if taken {
            e.committed_count = e.committed_count.saturating_add(1);
        } else {
            // Loop exit: compare the observed trip count.
            let observed = e.committed_count;
            if observed > 0 && observed == e.trip {
                e.confidence = (e.confidence + 1).min(3);
            } else if observed > 0 {
                e.trip = observed;
                e.confidence = 0;
            }
            e.committed_count = 0;
            e.spec_count = 0;
        }
    }

    /// Repairs speculative counts after a squash: fetch restarts from the
    /// committed picture.
    pub fn on_squash(&mut self) {
        for e in self.table.values_mut() {
            e.spec_count = e.committed_count % e.trip.max(1);
        }
    }

    /// How many times the predictor overrode with an exit prediction.
    pub fn overrides(&self) -> u64 {
        self.overrides
    }

    /// The learned trip count for `pc`, if confident (tests/reports).
    pub fn trip_count(&self, pc: Addr) -> Option<u32> {
        self.table.get(&pc).filter(|e| e.confidence >= 3).map(|e| e.trip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_loop(p: &mut LoopExitPredictor, pc: Addr, trips: u32, passes: u32) {
        for _ in 0..passes {
            for _ in 0..trips {
                p.update(pc, true);
            }
            p.update(pc, false);
        }
    }

    #[test]
    fn learns_fixed_trip_counts() {
        let mut p = LoopExitPredictor::default_size();
        assert_eq!(p.trip_count(0x40), None);
        train_loop(&mut p, 0x40, 10, 5);
        assert_eq!(p.trip_count(0x40), Some(10));
    }

    #[test]
    fn predicts_the_exit_exactly() {
        let mut p = LoopExitPredictor::default_size();
        train_loop(&mut p, 0x40, 7, 5);
        // A fresh speculative pass: 6 taken predictions then the exit.
        for i in 0..6 {
            assert_eq!(p.predict(0x40), Some(true), "iteration {i}");
        }
        assert_eq!(p.predict(0x40), Some(false), "the 7th execution exits");
        // And the next pass repeats.
        for _ in 0..6 {
            assert_eq!(p.predict(0x40), Some(true));
        }
        assert_eq!(p.predict(0x40), Some(false));
        assert_eq!(p.overrides(), 2);
    }

    #[test]
    fn irregular_loops_give_no_opinion() {
        let mut p = LoopExitPredictor::default_size();
        // Trip counts 3, 5, 4, 7: never confident.
        for trips in [3u32, 5, 4, 7] {
            for _ in 0..trips {
                p.update(0x80, true);
            }
            p.update(0x80, false);
        }
        assert_eq!(p.predict(0x80), None);
        assert_eq!(p.trip_count(0x80), None);
    }

    #[test]
    fn squash_repairs_speculative_counts() {
        let mut p = LoopExitPredictor::default_size();
        train_loop(&mut p, 0x40, 10, 5);
        // Fetch ran ahead 4 iterations, then squashed with 1 committed.
        for _ in 0..4 {
            let _ = p.predict(0x40);
        }
        p.update(0x40, true); // one iteration committed
        p.on_squash();
        // After repair, 8 more taken predictions before the exit.
        let mut taken = 0;
        while p.predict(0x40) == Some(true) {
            taken += 1;
            assert!(taken < 20, "must terminate");
        }
        assert_eq!(taken, 8, "9 committed-equivalent iterations remain after 1 commit");
    }

    #[test]
    fn trip_count_changes_relearn() {
        let mut p = LoopExitPredictor::default_size();
        train_loop(&mut p, 0x40, 10, 5);
        assert_eq!(p.trip_count(0x40), Some(10));
        train_loop(&mut p, 0x40, 3, 1);
        assert_eq!(p.trip_count(0x40), None, "confidence resets on a new trip count");
        train_loop(&mut p, 0x40, 3, 4);
        assert_eq!(p.trip_count(0x40), Some(3));
    }

    #[test]
    fn capacity_is_bounded() {
        let mut p = LoopExitPredictor::new(8);
        for pc in 0..100u64 {
            p.update(pc, true);
            p.update(pc, false);
        }
        assert!(p.table.len() <= 8);
    }
}
