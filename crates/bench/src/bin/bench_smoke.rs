//! CI throughput smoke: guards the simulator's host-speed on one
//! memory-bound workload (mcf, serial pointer chase — the event-driven
//! fast-forward's showcase) and one compute-bound one (deepsjeng).
//!
//! Measures simulated micro-ops per host second against the committed
//! snapshot `results/bench_smoke_baseline.json` and fails when a
//! workload regresses by more than the tolerance, so a change that
//! quietly deoptimizes the hot loop (or breaks fast-forward engagement)
//! turns the build red instead of surfacing months later in figure
//! regeneration times.
//!
//! Usage:
//!   bench_smoke                   compare against the committed baseline
//!   bench_smoke --write-baseline  re-measure and overwrite the snapshot
//!
//! `SCC_SMOKE_TOLERANCE` (default 0.20) sets the allowed fractional
//! regression; CI machines of a different class than the one that wrote
//! the baseline can widen it instead of editing the snapshot.

#![forbid(unsafe_code)]

use scc_isa::json::Json;
use scc_sim::{run_workload, OptLevel, SimOptions};
use scc_workloads::workload;
use std::time::Instant;

/// Fixed workload scale, independent of `SCC_ITERS`: the committed
/// baseline is only comparable to runs of the same length.
const SMOKE_ITERS: i64 = 2000;
const WORKLOADS: [&str; 2] = ["mcf", "deepsjeng"];
const BASELINE_PATH: &str = "results/bench_smoke_baseline.json";
/// Keep timing per workload above this, repeating runs as needed, so a
/// single-core CI box still gets a stable rate.
const MIN_MEASURE_SECS: f64 = 0.5;

fn measure(name: &str) -> f64 {
    let w = workload(name, scc_workloads::Scale::custom(SMOKE_ITERS))
        .unwrap_or_else(|| panic!("unknown workload {name}"));
    let opts = SimOptions::new(OptLevel::Baseline);
    // Warm up caches, page tables, and the branch predictor of the host.
    let warm = run_workload(&w, &opts);
    let uops_per_run = warm.stats.committed_uops;
    let start = Instant::now();
    let mut runs = 0u64;
    while runs < 3 || start.elapsed().as_secs_f64() < MIN_MEASURE_SECS {
        let r = run_workload(&w, &opts);
        assert_eq!(r.stats.committed_uops, uops_per_run, "non-deterministic run");
        runs += 1;
    }
    (runs * uops_per_run) as f64 / start.elapsed().as_secs_f64()
}

fn render(rates: &[(String, f64)]) -> String {
    let mut out = format!(
        "{{\n  \"schema_version\": 1,\n  \"iters\": {SMOKE_ITERS},\n  \"workloads\": [\n"
    );
    for (i, (name, rate)) in rates.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"uops_per_sec\": {rate:.1}}}{}\n",
            if i + 1 < rates.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `(name, uops_per_sec)` pairs of a baseline document written by
/// [`render`].
fn baseline_rates(doc: &str) -> Vec<(String, f64)> {
    let doc = Json::parse(doc).unwrap_or_else(|e| panic!("{BASELINE_PATH} is not JSON: {e}"));
    let Some(Json::Arr(entries)) = doc.get("workloads") else {
        panic!("{BASELINE_PATH} has no `workloads` array")
    };
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str);
            let rate = e.get("uops_per_sec").and_then(Json::as_f64);
            match (name, rate) {
                (Some(name), Some(rate)) => (name.to_string(), rate),
                _ => panic!("malformed baseline entry {e:?}"),
            }
        })
        .collect()
}

fn main() {
    let write = std::env::args().any(|a| a == "--write-baseline");
    let tolerance = std::env::var("SCC_SMOKE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| (0.0..1.0).contains(t))
        .unwrap_or(0.20);

    let rates: Vec<(String, f64)> =
        WORKLOADS.iter().map(|&n| (n.to_string(), measure(n))).collect();

    if write {
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write(BASELINE_PATH, render(&rates)).expect("write baseline");
        for (name, rate) in &rates {
            println!("{name:<12} {rate:>12.0} uops/sec  (baseline written)");
        }
        return;
    }

    let doc = std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        panic!("cannot read {BASELINE_PATH} ({e}); run with --write-baseline first")
    });
    let baseline = baseline_rates(&doc);
    let mut failed = false;
    for (name, rate) in &rates {
        let base = baseline
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| *r)
            .unwrap_or_else(|| panic!("{BASELINE_PATH} has no entry for {name}"));
        let delta = rate / base - 1.0;
        let floor = base * (1.0 - tolerance);
        let verdict = if *rate < floor { "REGRESSED" } else { "ok" };
        println!(
            "{name:<12} {rate:>12.0} uops/sec  vs baseline {base:>12.0}  ({:+.1}%)  {verdict}",
            delta * 100.0,
        );
        failed |= *rate < floor;
    }
    if failed {
        eprintln!(
            "bench-smoke: throughput regressed more than {:.0}% on at least one workload",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
}
