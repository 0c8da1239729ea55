//! Tier-1 guarantees of the parallel experiment engine: figure output
//! from a parallel runner, fresh and then cached, is byte-identical to a
//! fresh serial run, cached results equal fresh re-runs field for field, and the
//! observability outputs (Chrome trace, metrics JSON, audit JSONL) are
//! byte-identical regardless of worker count.

use scc_core::AuditLog;
use scc_isa::trace::{shared, Tee};
use scc_sim::runner::Runner;
use scc_sim::trace_export::{metrics_json, ChromeTraceSink};
use scc_sim::{parallel_map, run_workload, run_workload_observed, Job, OptLevel, SimOptions};
use scc_workloads::{workload, Scale};

#[test]
fn fig6_parallel_output_is_byte_identical_to_serial() {
    let scale = Scale::custom(350);
    let serial = scc_bench::fig6_report(&Runner::with_jobs(1), scale);
    let runner = Runner::with_jobs(4);
    let parallel = scc_bench::fig6_report(&runner, scale);
    assert_eq!(serial, parallel, "worker scheduling must not leak into the report");
    // A second pass on the same runner resolves entirely from its result
    // cache and must still render the same bytes.
    let misses = runner.cache_stats().misses;
    let cached = scc_bench::fig6_report(&runner, scale);
    assert_eq!(runner.cache_stats().misses, misses, "the second pass is all hits");
    assert_eq!(serial, cached);
}

#[test]
fn cached_results_equal_fresh_runs() {
    let scale = Scale::custom(360);
    let w = workload("freqmine", scale).unwrap();
    let opts = SimOptions::new(OptLevel::Full);
    let runner = Runner::new();
    let first = runner.run(&[Job::new(&w, &opts)]);
    let second = runner.run(&[Job::new(&w, &opts)]); // cache hit
    let fresh = run_workload(&w, &opts);
    for r in [&first[0], &second[0]] {
        assert_eq!(r.stats, fresh.stats);
        assert_eq!(r.snapshot, fresh.snapshot);
        assert_eq!(r.energy, fresh.energy);
        assert_eq!(r.level, fresh.level);
        assert_eq!(r.workload, fresh.workload);
    }
}

/// Runs freqmine at full SCC with a trace sink and an audit log attached
/// and returns the serialized (trace JSON, metrics JSON, audit JSONL)
/// triple. Sinks are built inside the calling worker thread, so this is
/// safe to run under `parallel_map` despite the `Rc`-based sink handles.
fn traced_run(scale: Scale) -> (String, String, String) {
    let w = workload("freqmine", scale).unwrap();
    let opts = SimOptions::new(OptLevel::Full);
    let trace = shared(ChromeTraceSink::new());
    let audit = shared(AuditLog::new());
    let mut tee = Tee::new();
    tee.push(trace.clone());
    tee.push(audit.clone());
    let res = run_workload_observed(&w, &opts, shared(tee));
    let metrics = metrics_json(&res.workload, res.level.label(), &res.stats);
    let (trace, audit) = (trace.borrow().to_json(), audit.borrow().to_jsonl());
    (trace, metrics, audit)
}

#[test]
fn observability_outputs_are_byte_identical_across_worker_counts() {
    let scale = Scale::custom(370);
    // One run per worker count; the parallel runs race against each
    // other inside the pool, which is exactly the interference the
    // byte-identity contract has to survive.
    let serial = parallel_map(1, &[scale], |&s| traced_run(s));
    let parallel = parallel_map(8, &[scale, scale, scale, scale], |&s| traced_run(s));
    for (i, p) in parallel.iter().enumerate() {
        assert_eq!(serial[0].0, p.0, "trace JSON diverged (parallel run {i})");
        assert_eq!(serial[0].1, p.1, "metrics JSON diverged (parallel run {i})");
        assert_eq!(serial[0].2, p.2, "audit JSONL diverged (parallel run {i})");
    }
}
