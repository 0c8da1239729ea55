//! Runs the ablation sweeps for DESIGN.md §6's design choices
//! (confidence threshold, request queue, write buffer, hotness decay,
//! classic VP forwarding) on a representative workload subset.
fn main() {
    let cfg = scc_bench::BenchConfig::from_env();
    let runner = cfg.runner();
    print!("{}", scc_bench::ablations::full_report(&runner, cfg.scale));
    scc_bench::emit_throughput(&runner);
}
