//! Cross-crate integration: the full stack (workloads → sim → pipeline →
//! SCC → energy) wired together, checked against the reference
//! interpreter.

use scc_isa::Machine;
use scc_sim::report::{geomean, Table};
use scc_sim::{energy_events, run_workload, OptLevel, SimOptions};
use scc_workloads::{all_workloads, workload, Scale};

/// Every benchmark, at every optimization level, must end in exactly the
/// architectural state the in-order reference interpreter computes.
#[test]
fn all_workloads_all_levels_match_reference() {
    let scale = Scale::custom(120);
    for w in all_workloads(scale) {
        let mut m = Machine::new(&w.program);
        let r = m.run(200_000_000).expect("reference runs");
        assert!(r.halted, "{} reference did not halt", w.name);
        let want = m.snapshot();
        for level in OptLevel::all() {
            let res = run_workload(&w, &SimOptions::new(level));
            assert_eq!(
                res.snapshot, want,
                "{} diverged from the reference at {level}",
                w.name
            );
        }
    }
}

#[test]
fn scc_reduces_suite_uops_and_never_increases_them_much() {
    let scale = Scale::custom(400);
    let mut ratios = Vec::new();
    for w in all_workloads(scale) {
        let base = run_workload(&w, &SimOptions::new(OptLevel::Baseline));
        let full = run_workload(&w, &SimOptions::new(OptLevel::Full));
        let ratio = full.uops() as f64 / base.uops() as f64;
        assert!(
            ratio <= 1.0 + 1e-9,
            "{}: SCC must never commit more micro-ops than the baseline ({ratio})",
            w.name
        );
        ratios.push(ratio);
    }
    let mean = geomean(ratios);
    assert!(
        mean < 0.97,
        "suite-wide committed-uop reduction should be visible even at small scale: {mean}"
    );
}

#[test]
fn energy_model_integrates_with_pipeline_stats() {
    let w = workload("freqmine", Scale::custom(400)).unwrap();
    let res = run_workload(&w, &SimOptions::new(OptLevel::Full));
    let ev = energy_events(&res.stats);
    assert_eq!(ev.cycles, res.stats.cycles);
    assert!(ev.renamed_uops >= res.stats.committed_uops, "renamed includes squashed work");
    assert!(res.energy_pj() > 0.0);
}

#[test]
fn value_predictor_choice_flows_through_the_stack() {
    use scc_predictors::ValuePredictorKind;
    let w = workload("xalancbmk", Scale::custom(400)).unwrap();
    for vp in [ValuePredictorKind::Eves, ValuePredictorKind::H3vp] {
        let mut o = SimOptions::new(OptLevel::Full);
        o.value_predictor = vp;
        let res = run_workload(&w, &o);
        assert!(res.halted);
        assert!(res.stats.streams_committed > 0, "{vp} should enable compaction");
    }
}

#[test]
fn partition_split_flows_through_the_stack() {
    let w = workload("freqmine", Scale::custom(400)).unwrap();
    for sets in [12, 24, 36] {
        let mut o = SimOptions::new(OptLevel::Full);
        o.opt_partition_sets = sets;
        let res = run_workload(&w, &o);
        assert!(res.halted, "opt={sets}");
    }
}

#[test]
fn report_helpers_render_suite_results() {
    let scale = Scale::custom(150);
    let mut t = Table::new(&["bench", "norm"]);
    for w in all_workloads(scale).into_iter().take(3) {
        let base = run_workload(&w, &SimOptions::new(OptLevel::Baseline));
        let full = run_workload(&w, &SimOptions::new(OptLevel::Full));
        t.row(&[
            w.name.to_string(),
            format!("{:.3}", full.cycles() as f64 / base.cycles() as f64),
        ]);
    }
    let s = t.render();
    assert!(s.contains("perlbench"));
    assert_eq!(s.lines().count(), 5);
}

/// The scale of the saved figures, where g_sort fills its tables.
const SORT_ITERS: i64 = 4000;

#[test]
fn g_sort_full_scc_repeats_identically_in_one_process() {
    // g_sort overflows EVES's per-PC pattern tables, so this pins that
    // predictor replacement depends on the run alone, not on a hasher
    // seed drawn per map.
    let w = workload("g_sort", Scale::custom(SORT_ITERS)).unwrap();
    let opts = SimOptions::new(OptLevel::Full);
    let first = run_workload(&w, &opts);
    let second = run_workload(&w, &opts);
    assert!(first.halted);
    assert_eq!(first.stats, second.stats);
}
