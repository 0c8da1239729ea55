//! Shape checks on the figure reports at tiny scale: every benchmark
//! appears, numbers parse, and the qualitative orderings the paper
//! reports survive even short runs.

use scc_sim::Runner;
use scc_workloads::{all_workloads, Scale};
use std::sync::OnceLock;

fn tiny() -> Scale {
    Scale::custom(400)
}

/// One runner for every test in this file, so the reports share their
/// common runs (fig6's jobs include all of fig7's and fig8's).
fn runner() -> &'static Runner {
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(Runner::new)
}

fn row<'a>(report: &'a str, bench: &str) -> &'a str {
    report
        .lines()
        .find(|l| l.starts_with(bench))
        .unwrap_or_else(|| panic!("{bench} missing from report:\n{report}"))
}

#[test]
fn fig6_report_covers_all_benchmarks_and_levels() {
    let r = scc_bench::fig6_report(runner(), tiny());
    for w in all_workloads(tiny()) {
        assert!(r.contains(w.name.as_ref()), "{} missing", w.name);
    }
    for panel in ["(top)", "(middle)", "(bottom)"] {
        assert!(r.contains(panel), "missing panel {panel}");
    }
    for level in ["partitioned", "move-elim", "fold+prop", "branch-fold", "full-scc"] {
        assert!(r.contains(level), "missing level {level}");
    }
    // The FP benchmark line shows zero reduction at every level.
    let lbm = row(&r, "lbm");
    assert!(lbm.matches("+0.0%").count() >= 5, "lbm should be untouched: {lbm}");
}

#[test]
fn fig7_report_shows_opt_share_column() {
    let r = scc_bench::fig7_report(runner(), tiny());
    assert!(r.contains("opt-share"));
    let lbm = row(&r, "lbm");
    assert!(lbm.trim_end().ends_with("0%"), "lbm streams nothing from opt: {lbm}");
}

#[test]
fn fig8_report_has_geomeans() {
    let r = scc_bench::fig8_report(runner(), tiny());
    assert!(r.contains("GEOMEAN(spec)"));
    assert!(r.contains("GEOMEAN(parsec)"));
    assert!(r.contains("GEOMEAN(all)"));
    // Normalized values parse as positive numbers.
    let mcf = row(&r, "mcf");
    let norm: f64 = mcf.split_whitespace().nth(3).unwrap().parse().unwrap();
    assert!(norm > 0.5 && norm < 1.5, "mcf energy ratio sane: {norm}");
}

#[test]
fn area_power_is_scale_independent() {
    let a = scc_bench::area_power_report();
    let b = scc_bench::area_power_report();
    assert_eq!(a, b);
    assert!(a.contains("1.49%") || a.contains("1.5%"));
}

#[test]
fn ablation_vp_forwarding_report_orders_configs() {
    let r = scc_bench::ablations::ablate_vp_forwarding(runner(), tiny());
    assert!(r.contains("baseline+vpfwd"));
    assert!(r.contains("full-scc"));
    // Parse the geomean row: SCC must beat plain forwarding.
    let g = row(&r, "GEOMEAN");
    let cells: Vec<f64> = g
        .split_whitespace()
        .skip(1)
        .map(|c| c.parse().unwrap())
        .collect();
    assert_eq!(cells.len(), 3);
    let (vpfwd, scc) = (cells[0], cells[1]);
    assert!(scc <= vpfwd, "SCC ({scc}) should beat plain forwarding ({vpfwd})");
}
