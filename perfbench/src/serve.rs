//! The serve workloads: closed-loop clients on [`CONNECTIONS`]
//! connections against real `scc-serve` (and `scc-route`) processes,
//! spawned from the binaries next to this one. Every reply is checked:
//! it must be `ok` once retryable rejections are retried, and its
//! `arch_digest` must match an in-process simulation (serve-hot) or every
//! other reply for the same key (serve-churn, plus a sampled in-process
//! check after the timed phase).

use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scc_serve::client::Client;
use scc_serve::json::Json;
use scc_serve::loadgen::stats_object;
use scc_serve::protocol::{arch_digest, ErrorCode};
use scc_serve::ring::Ring;
use scc_serve::spawn::sibling_binary;
use scc_serve::Addr;
use scc_sim::{run_workload, SimOptions, SimResult};

use crate::gen::{self, ChurnStream, Key, LRU_ENTRIES, SHARDS};
use crate::sim::{pipeline_metrics, simulate_traced, PipeSample, SETUPS};
use crate::span::{Trace, Tracer};
use crate::stats::{beyond, median, percentile};
use crate::{layers, proc_status_kb, run_dir, trace_path, Config, Outcome};

/// Client connections (and threads) generating load.
pub const CONNECTIONS: usize = 2;
/// How long a spawned process may take to answer, and to exit.
const DEADLINE: Duration = Duration::from_secs(30);
/// The traced run alternates traced and untraced windows of this length.
const WINDOW_MS: u64 = 250;
/// Longest wait before retrying a retryable rejection.
const MAX_RETRY_SLEEP_MS: u64 = 100;
/// serve-churn keys checked in-process after the timed phase.
const SAMPLE_KEYS: usize = 32;
/// Requests timed through the router and straight to the shard.
const HOP_REQUESTS: usize = 500;

/// The spawned serving processes. Dropping it kills any that remain.
struct Topology {
    children: Vec<Child>,
    /// Where load goes: the server, or the router.
    entry: Addr,
    /// Every `scc-serve` process, in ring order.
    shards: Vec<Addr>,
    router: Option<Addr>,
}

fn unix(dir: &Path, name: &str) -> (Addr, String) {
    let path = dir.join(name);
    let arg = format!("unix:{}", path.display());
    (Addr::Unix(path), arg)
}

fn healthy(addr: &Addr) -> bool {
    Client::connect_with_timeout(addr, DEADLINE)
        .and_then(|mut c| c.request_json("{\"proto\":2,\"verb\":\"health\"}"))
        .ok()
        .and_then(|h| h.get("ok").and_then(Json::as_bool))
        == Some(true)
}

fn wait_ready(what: &str, mut probe: impl FnMut() -> bool) -> io::Result<()> {
    let deadline = Instant::now() + DEADLINE;
    while !probe() {
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{what} not ready"),
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats.get(name).and_then(Json::as_u64).unwrap_or(0)
}

impl Topology {
    fn spawn(&mut self, bin: &str, args: &[String], log: &Path) -> io::Result<()> {
        let child = Command::new(sibling_binary(bin)?)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(log)?)
            .spawn()?;
        self.children.push(child);
        Ok(())
    }

    /// One `scc-serve --workers 2`.
    fn hot(dir: &Path) -> io::Result<Topology> {
        std::fs::create_dir_all(dir)?;
        let (addr, arg) = unix(dir, "serve.sock");
        let mut t = Topology {
            children: Vec::new(),
            entry: addr.clone(),
            shards: vec![addr.clone()],
            router: None,
        };
        let args = ["--listen".to_string(), arg, "--workers".into(), "2".into()];
        t.spawn("scc-serve", &args, &dir.join("serve.log"))?;
        wait_ready("scc-serve", || healthy(&addr))?;
        Ok(t)
    }

    /// [`SHARDS`] × `scc-serve --workers 1 --store-dir <fresh>` behind
    /// one `scc-route`.
    fn churn(dir: &Path) -> io::Result<Topology> {
        std::fs::create_dir_all(dir)?;
        let (router, router_arg) = unix(dir, "router.sock");
        let mut t = Topology {
            children: Vec::new(),
            entry: router.clone(),
            shards: Vec::new(),
            router: Some(router),
        };
        let mut route_args = vec![
            "--listen".to_string(),
            router_arg,
            "--upstream-conns".into(),
            "2".into(),
        ];
        for i in 0..SHARDS {
            let (addr, arg) = unix(dir, &format!("shard-{i}.sock"));
            let store = dir.join(format!("store-{i}")).display().to_string();
            let args = [
                "--listen".to_string(),
                arg.clone(),
                "--workers".into(),
                "1".into(),
                "--store-dir".into(),
                store,
            ];
            t.spawn("scc-serve", &args, &dir.join(format!("shard-{i}.log")))?;
            route_args.extend(["--shard".to_string(), arg]);
            t.shards.push(addr);
        }
        for addr in &t.shards {
            wait_ready("scc-serve shard", || healthy(addr))?;
        }
        t.spawn("scc-route", &route_args, &dir.join("router.log"))?;
        wait_ready("scc-route", || {
            stats_object(&t.entry).is_ok_and(|s| counter(&s, "route.shards.up") == SHARDS as u64)
        })?;
        Ok(t)
    }

    /// Sum of a `/proc/<pid>/status` field over the server processes
    /// (the router excluded: it holds no results).
    fn servers_kb(&self, field: &str) -> u64 {
        self.children
            .iter()
            .take(self.shards.len())
            .map(|c| proc_status_kb(&c.id().to_string(), field))
            .sum()
    }

    fn shard_stats(&self) -> io::Result<Vec<Json>> {
        self.shards.iter().map(stats_object).collect()
    }

    /// Sends `shutdown` (the router propagates it) and waits for every
    /// process to exit.
    fn shutdown(mut self) -> io::Result<()> {
        Client::connect(&self.entry)?.request("{\"proto\":2,\"verb\":\"shutdown\"}")?;
        let deadline = Instant::now() + DEADLINE;
        for c in &mut self.children {
            while c.try_wait()?.is_none() {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "server did not exit after shutdown",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(())
    }
}

impl Drop for Topology {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// The digest field of a successful `run` reply.
fn reply_digest(reply: &str) -> Option<u64> {
    const FIELD: &str = "\"arch_digest\":\"";
    let at = reply.find(FIELD)? + FIELD.len();
    u64::from_str_radix(reply.get(at..at + 16)?, 16).ok()
}

/// Sends one `run` frame, retrying retryable rejections after the
/// server's hint; the reply's digest, or `None` for any other error.
fn run_request(client: &mut Client, line: &str, rejected: &mut u64) -> io::Result<Option<u64>> {
    loop {
        let reply = client.request(line)?;
        if reply.starts_with("{\"ok\":true") {
            return Ok(reply_digest(&reply));
        }
        let doc = Json::parse(reply.trim_end()).ok();
        let err = doc.as_ref().and_then(|d| d.get("error"));
        let code = err
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .and_then(ErrorCode::parse);
        if !code.is_some_and(ErrorCode::is_retryable) {
            eprintln!("scc-perf: request failed: {}", reply.trim_end());
            return Ok(None);
        }
        *rejected += 1;
        let hint = err
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_u64)
            .unwrap_or(10);
        std::thread::sleep(Duration::from_millis(hint.min(MAX_RETRY_SLEEP_MS)));
    }
}

type Check<'a> = &'a (dyn Fn(&Key, u64) -> bool + Sync);

/// serve-hot's output check: a reply's digest must equal the in-process
/// reference digest of its key.
fn matches_reference(expected: &HashMap<Key, u64>) -> impl Fn(&Key, u64) -> bool + Sync + '_ {
    move |k, d| expected.get(k) == Some(&d)
}

/// Sends every key over one connection in turn, checking each reply;
/// returns (attempted, failed).
fn send_all(addr: &Addr, keys: &[Key], check: Check<'_>) -> io::Result<(u64, u64)> {
    let mut client = Client::connect(addr)?;
    let mut rejected = 0;
    let mut failed = 0;
    for (i, k) in keys.iter().enumerate() {
        if !run_request(&mut client, &k.request_line(i as u64), &mut rejected)?
            .is_some_and(|d| check(k, d))
        {
            failed += 1;
        }
    }
    Ok((keys.len() as u64, failed))
}

/// [`send_all`] on several connections at once.
fn send_parallel(jobs: &[(&Addr, &[Key])], check: Check<'_>, out: &mut Outcome) -> io::Result<()> {
    let results: Vec<io::Result<(u64, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(a, k)| s.spawn(move || send_all(a, k, check)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for r in results {
        let (attempted, failed) = r?;
        out.attempted += attempted;
        out.failed += failed;
    }
    Ok(())
}

/// One request of the timed phase.
#[derive(Clone, Copy, Debug)]
struct Sample {
    /// When it was sent, seconds into the phase.
    start_s: f64,
    /// Client-side latency, retries included.
    ms: f64,
    first_seen: bool,
    ok: bool,
}

impl Sample {
    /// Parity of the window it was sent in (even windows are the traced
    /// ones in a traced run).
    fn window(&self) -> usize {
        ((self.start_s * 1e3) as u64 / WINDOW_MS % 2) as usize
    }
}

/// What the clients of one timed phase saw.
#[derive(Default)]
struct Load {
    samples: Vec<Sample>,
    rejected: u64,
}

impl Load {
    fn merge(&mut self, o: Load) {
        self.samples.extend(o.samples);
        self.rejected += o.rejected;
    }

    fn latencies(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.ms)
            .collect()
    }

    fn ok_in(&self, window: usize) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.ok && s.window() == window)
            .count() as u64
    }
}

/// One closed-loop client: sends the requests `next` yields until the
/// timed phase ends.
fn drive(
    addr: &Addr,
    tid: u32,
    start: Instant,
    cfg: &Config,
    epoch: Instant,
    mut next: impl FnMut() -> (Key, bool),
    check: Check<'_>,
) -> io::Result<(Load, Tracer)> {
    let mut client = Client::connect(addr)?;
    let mut tracer = Tracer::new(false, epoch, tid);
    let mut load = Load::default();
    for n in 0u64.. {
        let start_s = start.elapsed().as_secs_f64();
        if start_s >= cfg.length.seconds {
            break;
        }
        let (key, first_seen) = next();
        let mut s = Sample {
            start_s,
            ms: 0.0,
            first_seen,
            ok: false,
        };
        tracer.set_on(cfg.trace && s.window() == 0);
        let id = (u64::from(tid) << 40) | n;
        let line = key.request_line(id);
        let t0 = Instant::now();
        let digest = tracer.span("client.request", key.program, Some(id), |_| {
            run_request(&mut client, &line, &mut load.rejected)
        })?;
        s.ms = t0.elapsed().as_secs_f64() * 1e3;
        s.ok = digest.is_some_and(|d| check(&key, d));
        load.samples.push(s);
    }
    tracer.set_on(false);
    Ok((load, tracer))
}

/// The timed phase of a serve workload and the servers' state around it.
struct Phase {
    load: Load,
    /// Wall time of the phase, seconds.
    wall: f64,
    /// Every server's `stats` before and after the phase.
    before: Vec<Json>,
    after: Vec<Json>,
    /// Growth of the servers' summed `VmRSS` over the phase, KB.
    rss_growth_kb: f64,
}

/// The timed phase: [`CONNECTIONS`] clients against `topo`, each drawing
/// requests from its own `make_next(thread)`.
fn timed<N: FnMut() -> (Key, bool) + Send>(
    cfg: &Config,
    topo: &Topology,
    epoch: Instant,
    trace: &mut Trace,
    make_next: impl Fn(usize) -> N,
    check: Check<'_>,
) -> io::Result<Phase> {
    let before = topo.shard_stats()?;
    let rss_before = topo.servers_kb("VmRSS");
    let addr = &topo.entry;
    let start = Instant::now();
    let results: Vec<io::Result<(Load, Tracer)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|t| {
                let next = make_next(t);
                s.spawn(move || drive(addr, t as u32 + 1, start, cfg, epoch, next, check))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut load = Load::default();
    for r in results {
        let (l, t) = r?;
        load.merge(l);
        trace.merge(t);
    }
    Ok(Phase {
        load,
        wall,
        before,
        after: topo.shard_stats()?,
        rss_growth_kb: topo.servers_kb("VmRSS") as f64 - rss_before as f64,
    })
}

/// Runs `setup(i)` [`SETUPS`] times, timing each and shutting every
/// topology but the last down before the next set-up starts.
fn set_up(
    tracer: &mut Tracer,
    mut setup: impl FnMut(usize) -> io::Result<Topology>,
) -> io::Result<(Topology, Vec<f64>)> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    loop {
        let t = Instant::now();
        let topo = tracer.span("bench.setup", "", None, |_| setup(setup_s.len()))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() == SETUPS {
            return Ok((topo, setup_s));
        }
        topo.shutdown()?;
    }
}

/// In-process simulations of a workload's keys: the reference results
/// replies are checked against, and (traced) their pipeline samples.
struct Reference {
    results: Vec<(Key, Arc<SimResult>)>,
    samples: Vec<PipeSample>,
}

/// Simulates every key in-process on [`CONNECTIONS`] threads. A traced
/// run goes through [`simulate_traced`], which also yields samples.
fn reference(keys: &[Key], cfg: &Config, epoch: Instant, trace: &mut Trace) -> Reference {
    type Part = (Vec<(usize, Arc<SimResult>)>, Vec<PipeSample>, Tracer);
    let parts: Vec<Part> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|t| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(cfg.trace, epoch, 101 + t as u32);
                    let (mut results, mut samples) = (Vec::new(), Vec::new());
                    for i in (t..keys.len()).step_by(CONNECTIONS) {
                        let k = keys[i];
                        let w = tracer.span("workloads.build", k.program, None, |_| k.build());
                        let opts = SimOptions::new(k.level);
                        let r = if cfg.trace {
                            let (r, sample) = simulate_traced(&w, &opts, k.program, &mut tracer);
                            samples.push(sample);
                            r
                        } else {
                            run_workload(&w, &opts)
                        };
                        results.push((i, Arc::new(r)));
                    }
                    (results, samples, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut results = Vec::with_capacity(keys.len());
    let mut samples = Vec::new();
    for (r, s, t) in parts {
        results.extend(r);
        samples.extend(s);
        trace.merge(t);
    }
    results.sort_by_key(|(i, _)| *i);
    Reference {
        results: results.into_iter().map(|(i, r)| (keys[i], r)).collect(),
        samples,
    }
}

/// Summed counter deltas over the servers.
fn delta(before: &[Json], after: &[Json], name: &str) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| counter(a, name).saturating_sub(counter(b, name)))
        .sum::<u64>() as f64
}

/// Time (s) that windows of `parity` cover in a phase of `wall` seconds.
fn window_secs(wall: f64, parity: usize) -> f64 {
    let w = WINDOW_MS as f64 / 1e3;
    let whole = (wall / w).floor() as usize;
    let of_parity = (whole + 1 - parity) / 2;
    let partial = if whole % 2 == parity {
        wall - whole as f64 * w
    } else {
        0.0
    };
    of_parity as f64 * w + partial
}

/// The end-to-end metrics every serve workload reports.
fn end_to_end(out: &mut Outcome, phase: &Phase, setup_s: &[f64], topo: &Topology) {
    let load = &phase.load;
    for s in &load.samples {
        out.check(s.ok);
    }
    let all = load.latencies(|_| true);
    out.set(
        "ops_per_s",
        (load.ok_in(0) + load.ok_in(1)) as f64 / phase.wall,
    );
    out.set("p50_ms", percentile(&all, 50.0).unwrap_or(0.0));
    out.set("p99_ms", percentile(&all, 99.0).unwrap_or(0.0));
    if let Some(s) = crate::stats::Summary::of(&all) {
        out.samples.insert("latency_ms", s);
    }
    out.set("peak_rss_mb", topo.servers_kb("VmHWM") as f64 / 1024.0);
    out.set_median("setup_s", setup_s);
    out.notes.insert("requests", all.len() as f64);
    out.notes.insert("p99_beyond", beyond(&all, 99.0) as f64);
    out.notes.insert("retried_rejections", load.rejected as f64);
}

/// The per-layer metrics every serve workload reports from its timed
/// phase and its in-process replay; writes the trace file.
fn per_layer(
    cfg: &Config,
    out: &mut Outcome,
    phase: &Phase,
    reference: &Reference,
    mut tracer: Tracer,
    mut trace: Trace,
    dir: &Path,
) -> io::Result<()> {
    let load = &phase.load;
    let hit_ms = load.latencies(|s| !s.first_seen);
    let miss_ms = load.latencies(|s| s.first_seen);
    out.set(
        "client.hit_p50_ms",
        percentile(&hit_ms, 50.0).unwrap_or(0.0),
    );
    out.set(
        "client.hit_p99_ms",
        percentile(&hit_ms, 99.0).unwrap_or(0.0),
    );
    out.set(
        "client.miss_p50_ms",
        percentile(&miss_ms, 50.0).unwrap_or(0.0),
    );
    let (before, after) = (&phase.before, &phase.after);
    let hits = delta(before, after, "runner.cache.hits");
    let probes = hits + delta(before, after, "runner.cache.misses");
    out.set(
        "runner.cache.hit_ratio",
        if probes > 0.0 { hits / probes } else { 0.0 },
    );
    for name in [
        "runner.cache.evictions",
        "runner.store.hits",
        "runner.store.writes",
        "serve.jobs.rejected",
    ] {
        out.set(name, delta(before, after, name));
    }
    let kreqs = load.samples.len().max(1) as f64 / 1e3;
    out.set("serve.rss_growth_kb_per_kreq", phase.rss_growth_kb / kreqs);

    let traced = load.ok_in(0) as f64 / window_secs(phase.wall, 0);
    let untraced = load.ok_in(1) as f64 / window_secs(phase.wall, 1);
    out.set("trace.overhead_pct", 100.0 * (untraced - traced) / untraced);
    let traced_client_s = CONNECTIONS as f64 * window_secs(phase.wall, 0);
    out.set(
        "trace.span_coverage",
        trace.total_ns("client.request") as f64 / 1e9 / traced_client_s,
    );

    pipeline_metrics(&reference.samples, &reference.samples, out);
    layers::replay(&reference.results, dir, &mut tracer, out)?;
    trace.merge(tracer);
    layers::metrics(&trace, out);
    std::fs::write(trace_path(cfg), trace.chrome_json())
}

/// serve-hot: 64 pre-warmed keys on one `scc-serve --workers 2`.
pub fn run_hot(cfg: &Config) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, epoch, 0);
    let mut trace = Trace::default();
    let mut out = Outcome::default();
    let dir = run_dir(cfg);

    let keys = gen::hot_keys(cfg.seed);
    let reference = reference(&keys, cfg, epoch, &mut trace);
    for (k, r) in &reference.results {
        let want = if gen::HOT_LARGE.contains(&k.program) {
            "large"
        } else {
            "small"
        };
        out.check(layers::pool(r) == want);
    }
    let expected: HashMap<Key, u64> = reference
        .results
        .iter()
        .map(|(k, r)| (*k, arch_digest(r)))
        .collect();
    let check = matches_reference(&expected);

    let (even, odd): (Vec<Key>, Vec<Key>) = keys.chunks(2).map(|c| (c[0], c[1])).unzip();
    let (topo, setup_s) = set_up(&mut tracer, |i| {
        let topo = Topology::hot(&dir.join(format!("setup-{i}")))?;
        send_parallel(
            &[(&topo.entry, &even), (&topo.entry, &odd)],
            &check,
            &mut out,
        )?;
        Ok(topo)
    })?;
    let make_next = |t: usize| {
        let mut r = gen::rng(cfg.seed, ["hot-client-0", "hot-client-1"][t]);
        let keys = &keys;
        move || (keys[r.below(keys.len() as u64) as usize], false)
    };
    let phase = timed(cfg, &topo, epoch, &mut trace, make_next, &check)?;
    end_to_end(&mut out, &phase, &setup_s, &topo);
    topo.shutdown()?;

    if cfg.trace {
        per_layer(cfg, &mut out, &phase, &reference, tracer, trace, &dir)?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Median RTT (ms) of seeded hit requests through the router minus the
/// same requests sent straight to the owning shard.
fn route_hop(topo: &Topology, keys: &[Key], seed: u64) -> io::Result<f64> {
    let router = topo.router.as_ref().expect("serve-churn has a router");
    let ring = Ring::new(SHARDS);
    let mut via_router = Client::connect(router)?;
    let mut direct: Vec<Client> = topo
        .shards
        .iter()
        .map(Client::connect)
        .collect::<io::Result<_>>()?;
    let mut rejected = 0;
    let mut r = gen::rng(seed, "route-hop");
    let (mut routed_ms, mut direct_ms) = (Vec::new(), Vec::new());
    for i in 0..HOP_REQUESTS + keys.len() {
        // The first pass over the keys only makes each one resident.
        let warm = i < keys.len();
        let k = if warm {
            keys[i]
        } else {
            keys[r.below(keys.len() as u64) as usize]
        };
        let line = k.request_line(i as u64);
        let shard = &mut direct[ring.shard_for(&k.canonical())];
        let mut rtt = |c: &mut Client| -> io::Result<f64> {
            let t = Instant::now();
            run_request(c, &line, &mut rejected)?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        };
        // Alternate which path goes first.
        let (d, via) = if i % 2 == 0 {
            let d = rtt(shard)?;
            (d, rtt(&mut via_router)?)
        } else {
            let via = rtt(&mut via_router)?;
            (rtt(shard)?, via)
        };
        if !warm {
            direct_ms.push(d);
            routed_ms.push(via);
        }
    }
    Ok(median(&routed_ms) - median(&direct_ms))
}

/// serve-churn: fresh keys, re-requests and LRU overflow through
/// `scc-route` onto [`SHARDS`] single-worker shards with stores.
pub fn run_churn(cfg: &Config) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, epoch, 0);
    let mut trace = Trace::default();
    let mut out = Outcome::default();
    let dir = run_dir(cfg);

    let prefill = gen::prefill_keys(cfg.seed);
    // Every reply for a key must carry the digest of the first reply.
    let digests: Mutex<HashMap<Key, u64>> = Mutex::new(HashMap::new());
    let check = |k: &Key, d: u64| *digests.lock().expect("digest map").entry(*k).or_insert(d) == d;

    let (topo, setup_s) = set_up(&mut tracer, |i| {
        let topo = Topology::churn(&dir.join(format!("setup-{i}")))?;
        let jobs: Vec<(&Addr, &[Key])> = topo
            .shards
            .iter()
            .zip(&prefill)
            .map(|(a, k)| (a, &k[..]))
            .collect();
        send_parallel(&jobs, &check, &mut out)?;
        Ok(topo)
    })?;

    let route_before = stats_object(&topo.entry)?;
    let stream = Mutex::new(ChurnStream::new(cfg.seed, &prefill.concat()));
    let shared = &stream;
    let make_next = move |_| {
        move || {
            let r = shared.lock().expect("request stream").next_request();
            (r.key, r.first_seen)
        }
    };
    let phase = timed(cfg, &topo, epoch, &mut trace, make_next, &check)?;
    let route_after = stats_object(&topo.entry)?;
    end_to_end(&mut out, &phase, &setup_s, &topo);
    let full = phase
        .before
        .iter()
        .all(|s| counter(s, "runner.cache.len") == LRU_ENTRIES as u64);
    out.notes
        .insert("lru_full_at_start", f64::from(u8::from(full)));

    // Untimed: the first fresh keys of the seeded stream, simulated
    // in-process, must match what the shards replied.
    let stream = stream.into_inner().expect("request stream");
    let sample: Vec<Key> = stream
        .first_seen()
        .iter()
        .take(SAMPLE_KEYS)
        .copied()
        .collect();
    let reference = reference(&sample, cfg, epoch, &mut trace);
    {
        let served = digests.lock().expect("digest map");
        for (k, r) in &reference.results {
            out.check(served.get(k) == Some(&arch_digest(r)));
        }
    }

    if cfg.trace {
        out.set("route.hop_ms", route_hop(&topo, &sample, cfg.seed)?);
        for name in ["route.forwarded", "route.upstream.failures"] {
            let d = counter(&route_after, name).saturating_sub(counter(&route_before, name));
            out.set(name, d as f64);
        }
    }
    topo.shutdown()?;
    if cfg.trace {
        per_layer(cfg, &mut out, &phase, &reference, tracer, trace, &dir)?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_read_from_replies() {
        let reply = "{\"ok\":true,\"proto\":2,\"id\":\"1\",\"report\":{\"workload\":\"mcf\",\"arch_digest\":\"00000000000000ff\",\"metrics\":{}}}";
        assert_eq!(reply_digest(reply), Some(255));
        assert_eq!(reply_digest("{\"ok\":true,\"arch_digest\":\"12\"}"), None);
        assert_eq!(reply_digest("{\"ok\":false}"), None);
    }

    #[test]
    fn window_time_splits_the_phase_by_parity() {
        for wall in [0.1, 0.25, 0.6, 15.0, 15.13] {
            let (a, b) = (window_secs(wall, 0), window_secs(wall, 1));
            assert!((a + b - wall).abs() < 1e-9, "{wall}: {a} + {b}");
            assert!(a >= b);
        }
        assert!((window_secs(0.6, 0) - 0.35).abs() < 1e-9);
    }

    #[test]
    fn a_corrupted_reference_digest_fails_the_output_check() {
        let key = Key {
            program: "perlbench",
            level: scc_sim::OptLevel::Baseline,
            iters: 100,
        };
        let result = run_workload(&key.build(), &SimOptions::new(key.level));
        let reply = scc_serve::protocol::run_response(
            scc_serve::protocol::Proto::V2,
            Some("1"),
            &result,
            None,
        );
        let served = reply_digest(&reply).expect("digest in reply");
        let good: HashMap<Key, u64> = [(key, arch_digest(&result))].into();
        let corrupted: HashMap<Key, u64> = [(key, arch_digest(&result) ^ 1)].into();
        assert!(matches_reference(&good)(&key, served));
        assert!(!matches_reference(&corrupted)(&key, served));
    }
}
