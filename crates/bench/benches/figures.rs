//! Benches regenerating (small-scale) figure data — one timing per
//! table/figure so `cargo bench` exercises every experiment path, and
//! prints each report once so the numbers are visible in bench logs.
//!
//! Plain `fn main()` harness (no external bench framework) so the
//! workspace builds with zero registry dependencies.
//!
//! Full-scale reports come from the `fig6`…`fig11`, `table1`, and
//! `area_power` binaries (`cargo run --release -p scc-bench --bin fig6`).

use scc_sim::Runner;
use scc_workloads::Scale;
use std::hint::black_box;
use std::time::Instant;

/// Small but non-trivial scale so `cargo bench` stays minutes, not hours.
fn scale() -> Scale {
    Scale::custom(800)
}

/// Prints every report once, all on one runner, so the baselines the
/// figures have in common are simulated once.
fn print_reports() {
    let (r, s) = (Runner::new(), scale());
    println!("{}", scc_sim::table1());
    println!("{}", scc_bench::fig6_report(&r, s));
    println!("{}", scc_bench::fig7_report(&r, s));
    println!("{}", scc_bench::fig8_report(&r, s));
    println!("{}", scc_bench::fig9_report(&r, s));
    println!("{}", scc_bench::fig10_report(&r, s));
    println!("{}", scc_bench::fig11_report(&r, s));
    println!("{}", scc_bench::area_power_report());
}

/// Times `iters` reps of `report` after one untimed warm-up rep. Each rep
/// gets a new runner, so every rep measures the whole regeneration:
/// simulating each of the figure's jobs from a cold cache, then
/// rendering the report.
fn bench(name: &str, iters: u32, report: impl Fn(&Runner) -> String) {
    let rep = || drop(black_box(report(&Runner::new())));
    rep();
    let start = Instant::now();
    for _ in 0..iters {
        rep();
    }
    let per = start.elapsed() / iters;
    println!("figures/{name:<12} {per:>12.2?}/iter  ({iters} iters)");
}

fn main() {
    print_reports();
    let tiny = Scale::custom(100);
    bench("table1", 3, |_| scc_sim::table1());
    bench("fig6", 3, |r| scc_bench::fig6_report(r, tiny));
    bench("fig7", 3, |r| scc_bench::fig7_report(r, tiny));
    bench("fig8", 3, |r| scc_bench::fig8_report(r, tiny));
    bench("fig9", 3, |r| scc_bench::fig9_report(r, tiny));
    bench("fig10", 3, |r| scc_bench::fig10_report(r, tiny));
    bench("fig11", 3, |r| scc_bench::fig11_report(r, tiny));
    bench("area_power", 3, |_| scc_bench::area_power_report());
}
