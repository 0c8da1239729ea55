//! H3VP: a 3-period value predictor, after the CVP-2019 entry.
//!
//! The paper describes H3VP as "a 3-period predictor that captures
//! oscillating patterns" and finds it outperforms EVES on xalancbmk, where
//! aggressive speculation pays off. H3VP tracks, per PC, whether the value
//! stream repeats with period 1, 2, or 3 — optionally with a per-phase
//! stride — and predicts from the best-confirmed period. Compared with
//! EVES it builds confidence faster and loses it more slowly, which is
//! exactly the aggressive/conservative contrast Figure 9 sweeps.

use crate::value::{ValuePrediction, ValuePredictor};
use scc_isa::{Addr, FxHashMap};

const MAX_PERIOD: usize = 3;

#[derive(Clone, Debug)]
struct H3Entry {
    /// Last `2 * MAX_PERIOD` values, most recent first.
    history: [i64; 2 * MAX_PERIOD],
    filled: u8,
    /// Per-period confidence that `v[t] == v[t-p] + stride[p]`.
    confidence: [u8; MAX_PERIOD],
    /// Per-period stride (0 captures pure oscillation).
    stride: [i64; MAX_PERIOD],
}

impl H3Entry {
    fn new() -> H3Entry {
        H3Entry {
            history: [0; 2 * MAX_PERIOD],
            filled: 0,
            confidence: [0; MAX_PERIOD],
            stride: [0; MAX_PERIOD],
        }
    }

    fn push(&mut self, v: i64) {
        self.history.rotate_right(1);
        self.history[0] = v;
        self.filled = (self.filled + 1).min(2 * MAX_PERIOD as u8);
    }

    fn best_period(&self) -> Option<usize> {
        (0..MAX_PERIOD)
            .filter(|&p| self.filled as usize > p)
            .max_by_key(|&p| (self.confidence[p], std::cmp::Reverse(p)))
            .filter(|&p| self.confidence[p] > 0)
    }
}

/// The H3VP value predictor.
#[derive(Clone, Debug)]
pub struct H3vp {
    table: FxHashMap<Addr, H3Entry>,
    capacity: usize,
}

impl H3vp {
    /// Creates an H3VP bounded to roughly `capacity` tracked PCs.
    pub fn new(capacity: usize) -> H3vp {
        H3vp { table: FxHashMap::default(), capacity: capacity.max(16) }
    }

    /// Default sizing comparable to the CVP-2019 budget class.
    pub fn default_size() -> H3vp {
        H3vp::new(8192)
    }
}

impl ValuePredictor for H3vp {
    fn predict(&self, pc: Addr) -> Option<ValuePrediction> {
        let e = self.table.get(&pc)?;
        let p = e.best_period()?;
        // Next value repeats (with stride) what happened `p` steps ago:
        // v[t+1] = v[t+1-p] + stride = history[p-1] + stride[p].
        Some(ValuePrediction {
            value: e.history[p].wrapping_add(e.stride[p]),
            confidence: e.confidence[p],
            // A recurring (zero-stride) period means the value is an
            // oscillating invariant; a strided period is a sequence.
            stable: e.stride[p] == 0,
        })
    }

    fn predict_nth(&self, pc: Addr, n: u64) -> Option<ValuePrediction> {
        if n <= 1 {
            return self.predict(pc);
        }
        let e = self.table.get(&pc)?;
        let p = e.best_period()?;
        let period = (p + 1) as u64;
        if e.stride[p] != 0 {
            // Strided periods would need a multiple-of-stride adjustment;
            // they are never adopted as invariants anyway.
            return None;
        }
        // v[t+n] = v[t+n-m*period] for the smallest m with t+n-m*period <= t:
        // index (period - (n % period)) % period into the history.
        let idx = ((period - (n % period)) % period) as usize;
        Some(ValuePrediction { value: e.history[idx], confidence: e.confidence[p], stable: true })
    }

    fn train(&mut self, pc: Addr, actual: i64) {
        if self.table.len() >= self.capacity && !self.table.contains_key(&pc) {
            if let Some(&k) = self.table.keys().next() {
                self.table.remove(&k);
            }
        }
        let e = self.table.entry(pc).or_insert_with(H3Entry::new);
        for p in 0..MAX_PERIOD {
            if (e.filled as usize) < p + 1 {
                continue;
            }
            let base = e.history[p]; // value p+1 steps back after push? see below
            let observed = actual.wrapping_sub(base);
            if observed == e.stride[p] {
                // H3VP is aggressive: +2 per hit, slow decay on miss.
                e.confidence[p] = (e.confidence[p] + 2).min(crate::MAX_CONFIDENCE);
            } else if e.confidence[p] <= 2 {
                // Low confidence: adapt the stride hypothesis immediately.
                e.stride[p] = observed;
                e.confidence[p] = 0;
            } else {
                // Penalty balances the +2 hit reward so patterns that only
                // mostly repeat (e.g. period-4 seen through a period-1
                // lens) cannot ratchet up to full confidence.
                e.confidence[p] = e.confidence[p].saturating_sub(6);
            }
        }
        e.push(actual);
    }

    fn name(&self) -> &'static str {
        "h3vp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_seq(p: &mut H3vp, pc: Addr, seq: &[i64], reps: usize) {
        for _ in 0..reps {
            for &v in seq {
                p.train(pc, v);
            }
        }
    }

    fn accuracy(p: &mut H3vp, pc: Addr, seq: &[i64], probes: usize) -> f64 {
        let mut correct = 0;
        for i in 0..probes {
            let expect = seq[i % seq.len()];
            if let Some(pr) = p.predict(pc) {
                if pr.value == expect {
                    correct += 1;
                }
            }
            p.train(pc, expect);
        }
        correct as f64 / probes as f64
    }

    #[test]
    fn period_1_constant() {
        let mut p = H3vp::default_size();
        train_seq(&mut p, 1, &[42], 10);
        let pr = p.predict(1).unwrap();
        assert_eq!(pr.value, 42);
        assert!(pr.confidence >= 10);
    }

    #[test]
    fn period_2_oscillation() {
        let mut p = H3vp::default_size();
        train_seq(&mut p, 2, &[10, 20], 12);
        let acc = accuracy(&mut p, 2, &[10, 20], 20);
        assert!(acc >= 0.95, "period-2 oscillation accuracy {acc}");
    }

    #[test]
    fn period_3_oscillation() {
        let mut p = H3vp::default_size();
        train_seq(&mut p, 3, &[7, -3, 100], 12);
        let acc = accuracy(&mut p, 3, &[7, -3, 100], 30);
        assert!(acc >= 0.95, "period-3 oscillation accuracy {acc}");
    }

    #[test]
    fn strided_period_1_sequence() {
        let mut p = H3vp::default_size();
        for i in 0..20 {
            p.train(4, i * 8);
        }
        let pr = p.predict(4).unwrap();
        assert_eq!(pr.value, 160);
    }

    #[test]
    fn aggressive_confidence_builds_faster_than_eves() {
        let mut h = H3vp::default_size();
        let mut e = crate::Eves::default_size();
        for _ in 0..4 {
            h.train(9, 5);
            e.train(9, 5);
        }
        let hc = h.predict(9).unwrap().confidence;
        let ec = e.predict(9).map(|p| p.confidence).unwrap_or(0);
        assert!(hc > ec, "h3vp {hc} should out-confidence eves {ec} early");
    }

    #[test]
    fn period_4_is_beyond_reach() {
        // H3VP only tracks periods 1-3; a pure period-4 oscillation with
        // distinct values should not reach high confidence.
        let mut p = H3vp::default_size();
        train_seq(&mut p, 5, &[1, 2, 3, 4], 20);
        if let Some(pr) = p.predict(5) {
            assert!(pr.confidence < 10, "period-4 should stay low-confidence");
        }
    }

    #[test]
    fn capacity_bounded() {
        let mut p = H3vp::new(16);
        for pc in 0..500u64 {
            p.train(pc, 1);
        }
        assert!(p.table.len() <= 16);
    }
}
