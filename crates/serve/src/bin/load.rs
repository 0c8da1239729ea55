//! `scc-load` — drive an `scc-serve` instance (or a whole sharded
//! topology) with concurrent connections and summarize
//! throughput/latency/cache behavior.
//!
//! ```text
//! scc-load --connect tcp:HOST:PORT|unix:PATH
//!          [--conns N] [--requests N] [--workload NAME] [--iters N]
//!          [--level LABEL] [--deadline-ms N] [--distinct N]
//!          [--idle-conns N] [--sweep N,N,...]
//!          [--stats-addr ADDR]...
//!          [--out results/BENCH_serve.json]
//!          [--store-out results/BENCH_store.json] [--min-warm-rate R]
//!          [--shutdown]
//!
//! scc-load --shards 1,2,4 [--spawn-dir DIR]
//!          [--serve-bin PATH] [--route-bin PATH]
//!          [--shard-workers N] [--upstream-conns N]
//!          [load flags as above] [--out results/BENCH_serve.json]
//! ```
//!
//! `--idle-conns` is the high-connection mode: that many verified idle
//! connections are held open across the whole run (each is re-checked
//! at the end; a dead one counts as an error). `--sweep 8,64,256` runs
//! one hot phase per count so `results/BENCH_serve.json` records
//! throughput and p50/p95/p99 per connection count.
//!
//! `--shards` is the multi-process scaling mode: for each count, N
//! `scc-serve` shard processes plus one `scc-route` router are spawned
//! over Unix sockets in `--spawn-dir`, the load runs through the
//! router, per-shard throughput is recorded, and the tree is drained
//! with one `shutdown`. The binaries default to siblings of `scc-load`
//! itself. The resulting document is schema v3 with `mode: "scaling"`
//! and one `topologies` entry per shard count.
//!
//! `--stats-addr` points counter reads somewhere other than
//! `--connect` — when driving a router directly, list the shard
//! addresses so cache hit rates come from the shards (the router has
//! no cache of its own). The scaling mode wires this automatically.
//!
//! `--store-out` writes the persistent-store report for a
//! restart-and-replay measurement: run a mix against a `--store-dir`
//! server, restart the server on the same directory, then replay the
//! identical mix with `--store-out` — every LRU miss probes the store,
//! so the report's `warm_hit_rate` measures how much of the prior run
//! survived the restart. `--min-warm-rate R` turns that into a gate:
//! exit non-zero when the measured rate is below `R` (or undefined
//! because the run never probed the store).
//!
//! Exits non-zero if any request ends in a non-retryable error
//! (`queue_full` and `shard_unavailable` rejections are retried after
//! the server's hint and do not fail the run).

use std::process::ExitCode;

use scc_serve::loadgen::{bench_json, run, stats_object, store_bench_json, LoadConfig};
use scc_serve::{Addr, Client};

fn usage() -> ! {
    eprintln!(
        "usage: scc-load --connect ADDR [--conns N] [--requests N] [--workload NAME] \
         [--iters N] [--level LABEL] [--deadline-ms N] [--distinct N] \
         [--idle-conns N] [--sweep N,N,...] [--stats-addr ADDR]... [--out FILE] \
         [--store-out FILE] [--min-warm-rate R] [--shutdown]\n\
       or: scc-load --shards N,N,... [--spawn-dir DIR] [--serve-bin PATH] \
         [--route-bin PATH] [--shard-workers N] [--upstream-conns N] \
         [load flags] [--out FILE]"
    );
    std::process::exit(2);
}

struct Args {
    cfg: LoadConfig,
    out: Option<String>,
    store_out: Option<String>,
    min_warm_rate: Option<f64>,
    shutdown: bool,
    /// Shard counts for the multi-process scaling mode; empty means
    /// the classic single-target mode.
    shards: Vec<usize>,
    spawn_dir: Option<String>,
    serve_bin: Option<String>,
    route_bin: Option<String>,
    shard_workers: usize,
    upstream_conns: usize,
}

fn parse_args() -> Args {
    let mut addr = None;
    let mut cfg = LoadConfig {
        addr: Addr::Tcp(String::new()),
        stats_addrs: Vec::new(),
        conns: 8,
        requests_per_conn: 8,
        workload: "freqmine".to_string(),
        iters: 400,
        level: "full-scc".to_string(),
        deadline_ms: None,
        distinct: 4,
        idle_conns: 0,
        sweep: Vec::new(),
    };
    let mut out = None;
    let mut store_out = None;
    let mut min_warm_rate = None;
    let mut shutdown = false;
    let mut shards = Vec::new();
    let mut spawn_dir = None;
    let mut serve_bin = None;
    let mut route_bin = None;
    let mut shard_workers = 2;
    let mut upstream_conns = 4;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("scc-load: {what} needs a value");
                usage();
            }
        };
        let parse_counts = |what: &str, v: String| -> Vec<usize> {
            let parsed: Result<Vec<usize>, _> = v.split(',').map(|s| s.trim().parse()).collect();
            match parsed {
                Ok(v) if !v.is_empty() && v.iter().all(|&n| n >= 1) => v,
                _ => {
                    eprintln!("scc-load: {what} wants a comma-separated list of counts >= 1");
                    usage();
                }
            }
        };
        match arg.as_str() {
            "--connect" => match Addr::parse(&value("--connect")) {
                Ok(a) => addr = Some(a),
                Err(e) => {
                    eprintln!("scc-load: {e}");
                    usage();
                }
            },
            "--stats-addr" => match Addr::parse(&value("--stats-addr")) {
                Ok(a) => cfg.stats_addrs.push(a),
                Err(e) => {
                    eprintln!("scc-load: {e}");
                    usage();
                }
            },
            "--conns" => match value("--conns").parse() {
                Ok(n) if n >= 1 => cfg.conns = n,
                _ => usage(),
            },
            "--requests" => match value("--requests").parse() {
                Ok(n) if n >= 1 => cfg.requests_per_conn = n,
                _ => usage(),
            },
            "--workload" => cfg.workload = value("--workload"),
            "--iters" => match value("--iters").parse() {
                Ok(n) if n >= 1 => cfg.iters = n,
                _ => usage(),
            },
            "--level" => cfg.level = value("--level"),
            "--deadline-ms" => match value("--deadline-ms").parse() {
                Ok(n) => cfg.deadline_ms = Some(n),
                _ => usage(),
            },
            "--distinct" => match value("--distinct").parse() {
                Ok(n) if n >= 1 => cfg.distinct = n,
                _ => usage(),
            },
            "--idle-conns" => match value("--idle-conns").parse() {
                Ok(n) => cfg.idle_conns = n,
                _ => usage(),
            },
            "--sweep" => cfg.sweep = parse_counts("--sweep", value("--sweep")),
            "--shards" => shards = parse_counts("--shards", value("--shards")),
            "--spawn-dir" => spawn_dir = Some(value("--spawn-dir")),
            "--serve-bin" => serve_bin = Some(value("--serve-bin")),
            "--route-bin" => route_bin = Some(value("--route-bin")),
            "--shard-workers" => match value("--shard-workers").parse() {
                Ok(n) if n >= 1 => shard_workers = n,
                _ => usage(),
            },
            "--upstream-conns" => match value("--upstream-conns").parse() {
                Ok(n) if n >= 1 => upstream_conns = n,
                _ => usage(),
            },
            "--out" => out = Some(value("--out")),
            "--store-out" => store_out = Some(value("--store-out")),
            "--min-warm-rate" => match value("--min-warm-rate").parse::<f64>() {
                Ok(r) if (0.0..=1.0).contains(&r) => min_warm_rate = Some(r),
                _ => usage(),
            },
            "--shutdown" => shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("scc-load: unknown flag `{other}`");
                usage();
            }
        }
    }
    if shards.is_empty() {
        let Some(addr) = addr else {
            eprintln!("scc-load: --connect is required (or --shards for the scaling mode)");
            usage();
        };
        cfg.addr = addr;
    }
    Args {
        cfg,
        out,
        store_out,
        min_warm_rate,
        shutdown,
        shards,
        spawn_dir,
        serve_bin,
        route_bin,
        shard_workers,
        upstream_conns,
    }
}

fn write_doc(path: &str, doc: &str) -> bool {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("scc-load: writing {path}: {e}");
        return false;
    }
    eprintln!("scc-load: wrote {path}");
    true
}

/// The `--shards` scaling mode: spawn each topology, run the load
/// through its router, emit the schema-v3 scaling document.
#[cfg(unix)]
fn run_scaling(args: &Args) -> ExitCode {
    use scc_serve::loadgen::scaling_bench_json;
    use scc_serve::spawn::{run_scaling_sweep, sibling_binary, SpawnConfig};

    let resolve = |explicit: &Option<String>, name: &str| match explicit {
        Some(p) => Ok(std::path::PathBuf::from(p)),
        None => sibling_binary(name),
    };
    let (serve_bin, route_bin) = match (
        resolve(&args.serve_bin, "scc-serve"),
        resolve(&args.route_bin, "scc-route"),
    ) {
        (Ok(s), Ok(r)) => (s, r),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("scc-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = match &args.spawn_dir {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("scc-load-{}", std::process::id())),
    };
    let spawn = SpawnConfig {
        shards: 1,
        dir,
        serve_bin,
        route_bin,
        shard_workers: args.shard_workers,
        upstream_conns: args.upstream_conns,
    };
    let topologies = match run_scaling_sweep(&args.cfg, &spawn, &args.shards) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("scc-load: scaling sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = scaling_bench_json(&topologies);
    print!("{doc}");
    if let Some(path) = &args.out {
        if !write_doc(path, &doc) {
            return ExitCode::FAILURE;
        }
    }
    let errors: u64 = topologies.iter().map(|t| t.report.errors).sum();
    if errors > 0 {
        eprintln!("scc-load: {errors} requests failed across the sweep");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(not(unix))]
fn run_scaling(_args: &Args) -> ExitCode {
    eprintln!("scc-load: --shards needs Unix sockets; unavailable on this platform");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = parse_args();
    if !args.shards.is_empty() {
        return run_scaling(&args);
    }
    let report = match run(&args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scc-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = bench_json(&report);
    print!("{doc}");
    if let Some(path) = &args.out {
        if !write_doc(path, &doc) {
            return ExitCode::FAILURE;
        }
    }
    if args.store_out.is_some() || args.min_warm_rate.is_some() {
        let stats = match stats_object(&args.cfg.addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("scc-load: reading final stats: {e}");
                return ExitCode::FAILURE;
            }
        };
        let store_doc = store_bench_json(&report, &stats);
        print!("{store_doc}");
        if let Some(path) = &args.store_out {
            if !write_doc(path, &store_doc) {
                return ExitCode::FAILURE;
            }
        }
        if let Some(min) = args.min_warm_rate {
            let rate = report.store_warm_hit_rate;
            if rate.is_nan() || rate < min {
                eprintln!(
                    "scc-load: warm-hit rate {rate:.4} below required {min:.4} \
                     ({} hits / {} lookups)",
                    report.store_hits,
                    report.store_hits + report.store_misses
                );
                return ExitCode::FAILURE;
            }
            eprintln!("scc-load: warm-hit rate {rate:.4} >= {min:.4}");
        }
    }
    if args.shutdown {
        match Client::connect(&args.cfg.addr).and_then(|mut c| c.request("{\"proto\":2,\"verb\":\"shutdown\"}"))
        {
            Ok(resp) => eprintln!("scc-load: shutdown → {}", resp.trim()),
            Err(e) => {
                eprintln!("scc-load: shutdown failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.errors > 0 {
        eprintln!("scc-load: {} requests failed", report.errors);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
