//! `scc-perf` — run one benchmark workload and print its metrics.
//!
//! ```text
//! scc-perf --workload NAME --seed N [--seconds S] [--trace 0|1] [--work-dir DIR]
//! ```
//!
//! Prints a detail line (median, quartiles and sample count of every
//! timing) and then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`, which also writes a Chrome trace into
//! the work directory). Exits 1 if any output check failed, 2 on a usage
//! or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use scc_perf::{run, Config, Length, Workload};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("scc-perf: {msg}");
    eprintln!(
        "usage: scc-perf --workload {} --seed N [--seconds S] [--trace 0|1] [--work-dir DIR]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut work_dir = PathBuf::from("scc-perf-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed must be a non-negative integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage("--seconds must be a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace must be 0 or 1"),
            },
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };
    let cfg = Config {
        workload,
        seed,
        length: Length::seconds(seconds),
        trace,
        work_dir,
    };
    match run(&cfg) {
        Ok(outcome) => {
            println!("{}", outcome.detail_line(&cfg));
            println!("{}", outcome.result_line(trace));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "scc-perf: {} of {} output checks failed",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("scc-perf: {}: {e}", workload.name());
            ExitCode::from(2)
        }
    }
}
