//! Multi-process topology management for `scc-load`: launch N
//! `scc-serve` shard processes plus one `scc-route` router over Unix
//! sockets, wait for the ring to report every shard up, drive load
//! through the router, and wind the whole tree down with one `shutdown`
//! frame.
//!
//! Everything runs over Unix sockets in a caller-chosen spawn
//! directory, so concurrent sweeps (or CI jobs) never fight over TCP
//! ports. The router propagates `shutdown` to every reachable shard, so
//! teardown is one verb; children that survive teardown anyway are
//! killed on [`Topology`] drop rather than leaked.

// The topology is Unix sockets end to end (that is the point: no port
// allocation), so the whole module is Unix-only like the poll loop.
#![cfg(unix)]

use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::json::Json;
use crate::loadgen::{
    self, stats_object, tier_counters, LoadConfig, LoadReport, ShardReport, TopologyReport,
};
use crate::net::Addr;

/// How long to wait for a spawned process to answer on its socket, and
/// for children to exit after shutdown. Generous because CI machines
/// stall; readiness normally lands in tens of milliseconds.
const SPAWN_DEADLINE: Duration = Duration::from_secs(30);

/// Parameters for launching one router-plus-shards topology.
#[derive(Clone, Debug)]
pub struct SpawnConfig {
    /// Backend shard count.
    pub shards: usize,
    /// Directory for the Unix sockets (created if absent). Each
    /// topology should get its own — socket paths are fixed names
    /// inside it.
    pub dir: PathBuf,
    /// Path to the `scc-serve` binary.
    pub serve_bin: PathBuf,
    /// Path to the `scc-route` binary.
    pub route_bin: PathBuf,
    /// `--workers` passed to each shard.
    pub shard_workers: usize,
    /// `--upstream-conns` passed to the router.
    pub upstream_conns: usize,
}

/// A running router-plus-shards process tree.
pub struct Topology {
    /// The router's listen address — point clients (and `scc-load`)
    /// here.
    pub router_addr: Addr,
    /// Each shard's direct address, in ring order. Useful for reading
    /// shard-tagged counters; routing still goes through the router.
    pub shard_addrs: Vec<Addr>,
    /// Children in spawn order: shards first, router last.
    children: Vec<(String, Child)>,
}

/// Locates a sibling binary of the current executable (`scc-load` and
/// `scc-serve`/`scc-route` land in the same target directory). Test
/// binaries live one level down in `deps/`, so the parent directory is
/// also probed.
pub fn sibling_binary(name: &str) -> io::Result<PathBuf> {
    let me = std::env::current_exe()?;
    let mut dir = me.parent();
    while let Some(d) = dir {
        let candidate = d.join(name);
        if candidate.is_file() {
            return Ok(candidate);
        }
        dir = d.parent();
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        format!("{name} not found next to {}", me.display()),
    ))
}

/// Polls `probe` until it returns true or the spawn deadline passes.
fn wait_until(what: &str, mut probe: impl FnMut() -> bool) -> io::Result<()> {
    let deadline = Instant::now() + SPAWN_DEADLINE;
    loop {
        if probe() {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, format!("timed out: {what}")));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn healthy(addr: &Addr) -> bool {
    Client::connect_with_timeout(addr, Duration::from_secs(5))
        .and_then(|mut c| c.request_json("{\"proto\":2,\"verb\":\"health\"}"))
        .ok()
        .and_then(|h| h.get("ok").and_then(Json::as_bool))
        == Some(true)
}

/// Reads one counter out of a `stats` response, defaulting to 0.
fn stat_u64(stats: &Json, name: &str) -> u64 {
    stats.get(name).and_then(Json::as_u64).unwrap_or(0)
}

impl Topology {
    /// Spawns `cfg.shards` shard processes and one router, waiting
    /// until every shard answers `health` and the router reports
    /// `route.shards.up` equal to the shard count. On failure every
    /// already-spawned child is killed before returning.
    pub fn launch(cfg: &SpawnConfig) -> io::Result<Topology> {
        if cfg.shards == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "need at least one shard"));
        }
        std::fs::create_dir_all(&cfg.dir)?;
        let sock = |name: &str| cfg.dir.join(name).display().to_string();

        let mut topo = Topology {
            router_addr: Addr::Unix(sock("router.sock").into()),
            shard_addrs: Vec::with_capacity(cfg.shards),
            children: Vec::with_capacity(cfg.shards + 1),
        };
        for i in 0..cfg.shards {
            let path = sock(&format!("shard-{i}.sock"));
            // A stale socket file from a previous run would make bind fail.
            let _ = std::fs::remove_file(&path);
            let child = Command::new(&cfg.serve_bin)
                .arg("--listen")
                .arg(format!("unix:{path}"))
                .arg("--workers")
                .arg(cfg.shard_workers.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| {
                    io::Error::new(e.kind(), format!("spawning {}: {e}", cfg.serve_bin.display()))
                })?;
            topo.children.push((format!("shard {i}"), child));
            topo.shard_addrs.push(Addr::Unix(PathBuf::from(path)));
        }
        for (i, addr) in topo.shard_addrs.clone().iter().enumerate() {
            wait_until(&format!("shard {i} health"), || healthy(addr))?;
        }

        let router_path = sock("router.sock");
        let _ = std::fs::remove_file(&router_path);
        let mut cmd = Command::new(&cfg.route_bin);
        cmd.arg("--listen")
            .arg(format!("unix:{router_path}"))
            .arg("--upstream-conns")
            .arg(cfg.upstream_conns.to_string());
        for addr in &topo.shard_addrs {
            cmd.arg("--shard").arg(addr.to_string());
        }
        let child = cmd.stdin(Stdio::null()).stdout(Stdio::null()).spawn().map_err(|e| {
            io::Error::new(e.kind(), format!("spawning {}: {e}", cfg.route_bin.display()))
        })?;
        topo.children.push(("router".to_string(), child));

        let want = cfg.shards as u64;
        let router = topo.router_addr.clone();
        wait_until("router ring up", || {
            stats_object(&router).map(|s| stat_u64(&s, "route.shards.up") == want).unwrap_or(false)
        })?;
        Ok(topo)
    }

    /// Sends `shutdown` to the router (which drains and propagates it
    /// to every shard) and reaps every child, failing if any exits
    /// non-zero.
    pub fn shutdown(mut self) -> io::Result<()> {
        Client::connect_with_timeout(&self.router_addr, SPAWN_DEADLINE)?
            .request("{\"proto\":2,\"verb\":\"shutdown\"}")?;
        let deadline = Instant::now() + SPAWN_DEADLINE;
        // Reap in reverse spawn order: the router exits first, and its
        // closing upstream connections are what release the shards'
        // own drains. Children stay owned by `self` so any early
        // return (bad exit status, timeout) still kills the rest via
        // Drop instead of leaking servers.
        for (name, child) in self.children.iter_mut().rev() {
            loop {
                match child.try_wait()? {
                    Some(status) if status.success() => break,
                    Some(status) => {
                        return Err(io::Error::other(format!("{name} exited with {status}")));
                    }
                    None if Instant::now() >= deadline => {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("{name} did not exit after shutdown"),
                        ));
                    }
                    None => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        }
        self.children.clear();
        Ok(())
    }
}

impl Drop for Topology {
    fn drop(&mut self) {
        // Reached only on error paths (clean exits drain `children` in
        // `shutdown`); don't leave orphan servers holding sockets.
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs one load pass through a launched topology and breaks the
/// result down per shard: `serve.jobs.ok` deltas read from each shard
/// directly, forwarding counts from the router's `route.shard.{i}.*`
/// metrics.
pub fn run_topology(base: &LoadConfig, topo: &Topology) -> io::Result<TopologyReport> {
    let mut cfg = base.clone();
    cfg.addr = topo.router_addr.clone();
    cfg.stats_addrs = topo.shard_addrs.clone();

    let before: Vec<_> =
        topo.shard_addrs.iter().map(tier_counters).collect::<io::Result<_>>()?;
    let report: LoadReport = loadgen::run(&cfg)?;
    let after: Vec<_> =
        topo.shard_addrs.iter().map(tier_counters).collect::<io::Result<_>>()?;
    let router_stats = stats_object(&topo.router_addr)?;

    let per_shard = before
        .iter()
        .zip(&after)
        .enumerate()
        .map(|(i, (b, a))| {
            let jobs_ok = a.since(b).jobs_ok;
            ShardReport {
                shard: i,
                jobs_ok,
                forwarded: stat_u64(&router_stats, &format!("route.shard.{i}.forwarded")),
                throughput_rps: if report.wall_s > 0.0 {
                    jobs_ok as f64 / report.wall_s
                } else {
                    0.0
                },
            }
        })
        .collect();
    Ok(TopologyReport { shards: topo.shard_addrs.len(), per_shard, report })
}

/// Runs the full shard-scaling sweep: for each count in `shard_counts`,
/// launch a fresh topology under `spawn.dir/s{count}`, run the load
/// through its router, record the per-shard breakdown, and shut the
/// tree down (children must exit 0 — a failed drain fails the sweep).
pub fn run_scaling_sweep(
    base: &LoadConfig,
    spawn: &SpawnConfig,
    shard_counts: &[usize],
) -> io::Result<Vec<TopologyReport>> {
    let mut out = Vec::with_capacity(shard_counts.len());
    for &n in shard_counts {
        let mut cfg = spawn.clone();
        cfg.shards = n;
        cfg.dir = spawn.dir.join(format!("s{n}"));
        eprintln!("scc-load: launching {n}-shard topology in {}", cfg.dir.display());
        let topo = Topology::launch(&cfg)?;
        let report = run_topology(base, &topo)?;
        topo.shutdown()?;
        eprintln!(
            "scc-load: {n}-shard topology: {:.2} rps, p99 {:.3} ms, {} errors",
            report.report.throughput_rps, report.report.p99_ms, report.report.errors
        );
        out.push(report);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sibling_binary_rejects_missing_names() {
        let err = sibling_binary("definitely-not-a-binary-name").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
