//! Both sim workloads through the same library call the binary makes, at
//! a tiny run length: every metric of each mode is present and no output
//! check fails. No timing is asserted.

use scc_perf::{run, Config, Length, Workload, END_TO_END, PER_LAYER};
use scc_serve::json::Json;

fn run_tiny(workload: Workload, trace: bool) -> Json {
    let cfg = Config {
        workload,
        seed: 7,
        length: Length {
            seconds: 600.0,
            max_reps: Some(2),
            sim_iters: 100,
        },
        trace,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}", workload.name())),
    };
    let outcome = run(&cfg).expect("run completes");
    assert_eq!(
        outcome.failed,
        0,
        "{}: an output check failed",
        workload.name()
    );
    assert!(outcome.correct());
    assert_eq!(outcome.notes.get("reps"), Some(&2.0));
    if trace {
        assert!(
            scc_perf::trace_path(&cfg).is_file(),
            "traced run writes its trace"
        );
    }
    Json::parse(&outcome.result_line(trace)).expect("result line is JSON")
}

fn value(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn sim_workloads_report_every_metric_without_errors() {
    for workload in [Workload::SimMemstall, Workload::SimCompact] {
        let doc = run_tiny(workload, false);
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        for m in END_TO_END {
            assert!(
                value(&doc, m.name) > 0.0,
                "{}: {} not measured",
                workload.name(),
                m.name
            );
        }
        let doc = run_tiny(workload, true);
        for m in PER_LAYER {
            value(&doc, m.name);
        }
        for name in [
            "pipeline.run_ns_per_uop",
            "pipeline.cycles",
            "protocol.digest_large_us",
            "trace.span_coverage",
        ] {
            assert!(
                value(&doc, name) > 0.0,
                "{}: {name} not measured",
                workload.name()
            );
        }
    }
}
