//! Predictor replacement must be a pure function of the training
//! sequence: two instances fed identical input agree on every
//! prediction, also after their tables fill and start evicting.

use scc_predictors::{Eves, H3vp, LoopExitPredictor, ValuePredictor};

/// Steps of the seeded overflow sequence: enough to cycle every table
/// well past its capacity many times.
const STEPS: usize = 20_000;

/// A seeded stream of `(pc_index, value)` pairs: 40 PCs (more than the
/// value predictors' 16-entry floor) with values drawn from a small
/// range, so per-PC histories repeat often enough to fill EVES's
/// 64-entry pattern tables too.
fn value_stream() -> impl Iterator<Item = (u64, i64)> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..STEPS).map(move |_| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((x >> 58) % 40, ((x >> 20) % 12) as i64)
    })
}

fn assert_value_predictors_agree(mut a: impl ValuePredictor, mut b: impl ValuePredictor) {
    for (step, (i, v)) in value_stream().enumerate() {
        let pc = 0x4000 + 8 * i;
        assert_eq!(a.predict(pc), b.predict(pc), "{} diverged at step {step}", a.name());
        a.train(pc, v);
        b.train(pc, v);
    }
}

#[test]
fn eves_instances_agree_after_overflow() {
    assert_value_predictors_agree(Eves::new(16), Eves::new(16));
}

#[test]
fn h3vp_instances_agree_after_overflow() {
    assert_value_predictors_agree(H3vp::new(16), H3vp::new(16));
}

#[test]
fn loop_exit_instances_agree_after_overflow() {
    // 12 loop branches against 4 table entries; each visit runs the
    // chosen loop three times, so an entry that survives eviction
    // reaches full confidence and starts predicting exits.
    let mut a = LoopExitPredictor::new(4);
    let mut b = LoopExitPredictor::new(4);
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut step = 0usize;
    while step < STEPS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let loop_ix = (x >> 59) % 12;
        let pc = 0x8000 + 16 * loop_ix;
        let trip = 3 + loop_ix % 5;
        for _ in 0..3 {
            for i in 0..=trip {
                assert_eq!(a.predict(pc), b.predict(pc), "loop-exit diverged at step {step}");
                let taken = i < trip;
                a.update(pc, taken);
                b.update(pc, taken);
                step += 1;
            }
        }
    }
    assert_eq!(a.overrides(), b.overrides());
}
