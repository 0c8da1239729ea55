//! Regenerates the paper's Figure 11 from the synthetic suite.
fn main() {
    let cfg = scc_bench::BenchConfig::from_env();
    let runner = cfg.runner();
    print!("{}", scc_bench::fig11_report(&runner, cfg.scale));
    scc_bench::emit_throughput(&runner);
}
