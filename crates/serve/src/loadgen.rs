//! The `scc-load` load generator: N concurrent connections issuing
//! `run` requests, honoring `queue_full` / `shard_unavailable` retry
//! hints, and summarizing throughput, latency percentiles, and cache
//! effectiveness.
//!
//! Two connection populations exercise the server's readiness loop the
//! way production traffic would:
//!
//! - **idle connections** (`--idle-conns`): opened first, verified with
//!   one `health` round-trip, then parked for the whole run and
//!   verified again at the end. They cost the single I/O thread one
//!   poll entry each — the point of the high-connection mode is showing
//!   that thousands of them do not perturb the hot path.
//! - **hot phases** (`--sweep`): one phase per requested connection
//!   count, each spawning that many client threads issuing
//!   `requests_per_conn` runs back-to-back with retries on retryable
//!   rejections. Per-phase throughput and p50/p95/p99 go into the
//!   schema-v3 `results/BENCH_serve.json` so tail latency under
//!   overload is recorded per connection count.
//!
//! Cache counters are delta-scoped **per phase**, bracketed by `stats`
//! reads immediately before and after each phase, and each delta is
//! cross-checked against the phase's own completed-request count
//! (`serve.jobs.ok` must have advanced by exactly our `ok` count).
//! When another load process shares the server the check fails, the
//! phase's hit rate is reported as `null` instead of a number polluted
//! by foreign traffic, and `counters_exclusive` records the downgrade.
//! Against a sharded topology, pass the shard addresses as
//! `stats_addrs` so counters are read from the shards themselves — the
//! router has no `runner.cache.*` counters of its own.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::json::Json;
use crate::net::Addr;
use crate::protocol::ErrorCode;
use scc_isa::json::escape;

/// `results/BENCH_serve.json` document schema. v3 added `mode`, the
/// per-phase `cache` object (phase-scoped hit-rate deltas with the
/// foreign-traffic guard), and the `topologies` array with per-shard
/// throughput for routed scaling sweeps. v2 added `phases`,
/// `idle_conns`, `io_model`, and `git_rev`.
pub const BENCH_SERVE_SCHEMA_VERSION: u64 = 3;

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Where the service listens.
    pub addr: Addr,
    /// Where to read `stats` counters from. Empty means `addr` itself
    /// (a direct, unsharded server). Against a router, list the shard
    /// addresses here: per-phase deltas are summed across them, and the
    /// per-shard breakdown in scaling reports reads them individually.
    pub stats_addrs: Vec<Addr>,
    /// Concurrent hot connections (used when `sweep` is empty).
    pub conns: usize,
    /// `run` requests issued per hot connection.
    pub requests_per_conn: usize,
    /// Workload name sent on every request.
    pub workload: String,
    /// Base workload scale.
    pub iters: i64,
    /// Optimization level label (e.g. `full-scc`).
    pub level: String,
    /// Optional per-request deadline.
    pub deadline_ms: Option<u64>,
    /// Number of distinct job shapes cycled across requests (1 makes
    /// every request cache-identical; larger values mix misses in).
    pub distinct: usize,
    /// Idle-mostly connections held open across every phase.
    pub idle_conns: usize,
    /// Hot connection counts to run as successive phases; empty means
    /// one phase at `conns`.
    pub sweep: Vec<usize>,
}

/// A point-in-time read of the cache/store/jobs counters relevant to
/// load-run accounting, summed across one or more `stats` sources.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// `runner.cache.hits`.
    pub cache_hits: u64,
    /// `runner.cache.misses`.
    pub cache_misses: u64,
    /// `runner.store.hits`.
    pub store_hits: u64,
    /// `runner.store.misses`.
    pub store_misses: u64,
    /// `serve.jobs.ok` — the foreign-traffic guard: over an interval in
    /// which only we issued runs, its delta equals our own ok count.
    pub jobs_ok: u64,
}

impl TierCounters {
    /// Element-wise saturating delta `self - earlier`.
    pub fn since(&self, earlier: &TierCounters) -> TierCounters {
        TierCounters {
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            store_hits: self.store_hits.saturating_sub(earlier.store_hits),
            store_misses: self.store_misses.saturating_sub(earlier.store_misses),
            jobs_ok: self.jobs_ok.saturating_sub(earlier.jobs_ok),
        }
    }

    fn add(&mut self, other: &TierCounters) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.jobs_ok += other.jobs_ok;
    }
}

/// One hot phase's aggregated outcome.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Concurrent hot connections in this phase.
    pub conns: usize,
    /// `run` requests that eventually succeeded or hard-failed.
    pub requests: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Retryable rejections observed (`queue_full` or
    /// `shard_unavailable`; each was retried after the server's hint).
    pub rejections: u64,
    /// Requests that ended in a non-retryable error.
    pub errors: u64,
    /// Wall-clock for the phase, seconds.
    pub wall_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median request latency, milliseconds (successful requests).
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// `runner.cache.hits` delta over this phase (all stats sources).
    pub cache_hits: u64,
    /// `runner.cache.misses` delta over this phase.
    pub cache_misses: u64,
    /// Whether the counter deltas are attributable to this phase alone:
    /// the summed `serve.jobs.ok` advance matched our own ok count.
    /// False means another client shared the server mid-phase.
    pub counters_exclusive: bool,
    /// Phase cache hit rate (delta hits / delta lookups). `None` when
    /// the phase performed no lookups or when `counters_exclusive` is
    /// false — a hit rate polluted by foreign traffic is withheld, not
    /// reported as a number.
    pub cache_hit_rate: Option<f64>,
}

/// Aggregated outcome of one load run (all phases).
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// `"direct"` when counters came from the connect address itself,
    /// `"routed"` when `stats_addrs` pointed at backend shards.
    pub mode: &'static str,
    /// Idle connections held open for the whole run.
    pub idle_conns: usize,
    /// Per-phase results, in execution order.
    pub phases: Vec<PhaseReport>,
    /// Largest hot-connection count among the phases.
    pub conns: usize,
    /// Total `run` requests across phases (each counted once, however
    /// many retries it took), plus idle-connection health probes that
    /// failed.
    pub requests: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Retryable rejections observed (each was retried).
    pub rejections: u64,
    /// Requests that ended in a non-retryable error, including any
    /// idle connection that died mid-run.
    pub errors: u64,
    /// Wall-clock covering all phases, seconds.
    pub wall_s: f64,
    /// Completed requests per second across the whole run.
    pub throughput_rps: f64,
    /// Median request latency across phases, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency across phases, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency across phases, milliseconds.
    pub p99_ms: f64,
    /// True when every phase's counter deltas were attributable to this
    /// run alone (see [`PhaseReport::counters_exclusive`]).
    pub counters_exclusive: bool,
    /// Result-cache hit rate over the run, from per-phase
    /// `runner.cache.*` deltas. `None` when the run performed no
    /// lookups or any phase's counters were shared with foreign
    /// traffic.
    pub cache_hit_rate: Option<f64>,
    /// Persistent-store lookups over the run that hit (`runner.store.hits`
    /// delta). Zero when the server has no store attached.
    pub store_hits: u64,
    /// Persistent-store lookups over the run that missed.
    pub store_misses: u64,
    /// Warm-hit rate of the persistent tier over the run: store hits /
    /// store lookups. This is the restart-and-replay headline — against
    /// a freshly restarted server every LRU miss probes the store, so a
    /// fully persisted prior run replays as rate 1.0. `NaN` when the
    /// run performed no store lookups (no store, or everything hit the
    /// LRU).
    pub store_warm_hit_rate: f64,
}

/// One backend shard's share of a routed topology run.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index (ring identity — position on the router command
    /// line).
    pub shard: usize,
    /// `serve.jobs.ok` delta on this shard over the run.
    pub jobs_ok: u64,
    /// `route.shard.{i}.forwarded` on the router after the run: frames
    /// the router sent this shard's way.
    pub forwarded: u64,
    /// This shard's completed jobs per second over the run's wall
    /// clock.
    pub throughput_rps: f64,
}

/// One topology's outcome in a shard-scaling sweep.
#[derive(Clone, Debug)]
pub struct TopologyReport {
    /// Backend shard count for this topology.
    pub shards: usize,
    /// Per-shard breakdown (deltas read from the shards directly,
    /// forwarding counts from the router).
    pub per_shard: Vec<ShardReport>,
    /// The load run's aggregated outcome through the router.
    pub report: LoadReport,
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
pub fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

fn run_request_line(cfg: &LoadConfig, phase: usize, conn: usize, seq: usize) -> String {
    // De-phase the shape cycle by connection: conn c starts at shape c.
    // If every connection walked the shapes in the same order, all
    // conns would request the same shape — and so hammer the same
    // shard — at the same instant, serializing a sharded topology one
    // shard at a time and hiding any scaling.
    let iters = cfg.iters + ((conn + seq) % cfg.distinct.max(1)) as i64;
    let deadline = match cfg.deadline_ms {
        Some(ms) => format!(",\"deadline_ms\":{ms}"),
        None => String::new(),
    };
    format!(
        "{{\"proto\":2,\"verb\":\"run\",\"id\":\"p{phase}-c{conn}-r{seq}\",\"workload\":\"{}\",\"iters\":{iters},\"level\":\"{}\"{deadline}}}",
        escape(&cfg.workload),
        escape(&cfg.level),
    )
}

/// Fetches the server's `stats` object.
pub fn stats_object(addr: &Addr) -> io::Result<Json> {
    let mut c = Client::connect(addr)?;
    let j = c.request_json("{\"proto\":2,\"verb\":\"stats\"}")?;
    j.get("stats")
        .cloned()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "stats missing"))
}

/// Reads one server's [`TierCounters`]; store counters read 0 on a
/// storeless server.
pub fn tier_counters(addr: &Addr) -> io::Result<TierCounters> {
    let stats = stats_object(addr)?;
    let read = |name: &str| stats.get(name).and_then(Json::as_u64).unwrap_or(0);
    Ok(TierCounters {
        cache_hits: read("runner.cache.hits"),
        cache_misses: read("runner.cache.misses"),
        store_hits: read("runner.store.hits"),
        store_misses: read("runner.store.misses"),
        jobs_ok: read("serve.jobs.ok"),
    })
}

/// Sums [`TierCounters`] across every stats source for this config.
fn summed_counters(cfg: &LoadConfig) -> io::Result<TierCounters> {
    let mut total = TierCounters::default();
    if cfg.stats_addrs.is_empty() {
        total.add(&tier_counters(&cfg.addr)?);
    } else {
        for a in &cfg.stats_addrs {
            total.add(&tier_counters(a)?);
        }
    }
    Ok(total)
}

/// Opens one idle connection and proves it is live with a `health`
/// round-trip.
fn open_idle(addr: &Addr) -> io::Result<Client> {
    let mut c = Client::connect_with_timeout(addr, Duration::from_secs(30))?;
    let h = c.request_json("{\"proto\":2,\"verb\":\"health\"}")?;
    if h.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("idle health: {h:?}")));
    }
    Ok(c)
}

/// Error codes the generator retries after the server's
/// `retry_after_ms` hint: queue backpressure and transient shard
/// outages behind a router. Everything else is a hard failure.
fn retryable(code: Option<ErrorCode>) -> bool {
    matches!(code, Some(ErrorCode::QueueFull | ErrorCode::ShardUnavailable))
}

/// Runs one hot phase: `conns` client threads, each issuing
/// `requests_per_conn` run requests back-to-back, retrying retryable
/// rejections after the server's `retry_after_ms` hint. Returns the
/// phase report (cache fields still zeroed — the caller brackets the
/// phase with counter reads) and its sorted latency samples.
fn run_phase(cfg: &LoadConfig, phase: usize, conns: usize) -> io::Result<(PhaseReport, Vec<f64>)> {
    let rejections = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut handles = Vec::new();
    for conn in 0..conns {
        let cfg = cfg.clone();
        let rejections = Arc::clone(&rejections);
        handles.push(thread::spawn(move || -> io::Result<(Vec<f64>, u64, u64)> {
            let mut client = Client::connect(&cfg.addr)?;
            let mut latencies = Vec::with_capacity(cfg.requests_per_conn);
            let (mut ok, mut errors) = (0u64, 0u64);
            for seq in 0..cfg.requests_per_conn {
                let line = run_request_line(&cfg, phase, conn, seq);
                let req_started = Instant::now();
                loop {
                    let resp = client.request_json(&line)?;
                    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                        ok += 1;
                        latencies.push(req_started.elapsed().as_secs_f64() * 1e3);
                        break;
                    }
                    let err = resp.get("error");
                    let code = err
                        .and_then(|e| e.get("code"))
                        .and_then(Json::as_str)
                        .and_then(ErrorCode::parse);
                    if retryable(code) {
                        rejections.fetch_add(1, Ordering::Relaxed);
                        let ms = err
                            .and_then(|e| e.get("retry_after_ms"))
                            .and_then(Json::as_u64)
                            .unwrap_or(25);
                        thread::sleep(Duration::from_millis(ms.min(2_000)));
                        continue;
                    }
                    errors += 1;
                    break;
                }
            }
            Ok((latencies, ok, errors))
        }));
    }

    let mut latencies = Vec::new();
    let (mut ok, mut errors) = (0u64, 0u64);
    for h in handles {
        let (l, o, e) = h
            .join()
            .map_err(|_| io::Error::other("load connection thread panicked"))??;
        latencies.extend(l);
        ok += o;
        errors += e;
    }
    let wall_s = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let report = PhaseReport {
        conns,
        requests: ok + errors,
        ok,
        rejections: rejections.load(Ordering::Relaxed),
        errors,
        wall_s,
        throughput_rps: if wall_s > 0.0 { ok as f64 / wall_s } else { 0.0 },
        p50_ms: percentile(&latencies, 50.0),
        p95_ms: percentile(&latencies, 95.0),
        p99_ms: percentile(&latencies, 99.0),
        cache_hits: 0,
        cache_misses: 0,
        counters_exclusive: true,
        cache_hit_rate: None,
    };
    Ok((report, latencies))
}

/// Runs the load: parks `idle_conns` verified idle connections, then
/// runs each hot phase in turn (bracketed by counter reads so cache
/// deltas are phase-scoped), then re-verifies every idle connection
/// survived.
pub fn run(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let started = Instant::now();

    let mut idle = Vec::with_capacity(cfg.idle_conns);
    for i in 0..cfg.idle_conns {
        idle.push(open_idle(&cfg.addr).map_err(|e| {
            io::Error::new(e.kind(), format!("opening idle connection {i}: {e}"))
        })?);
    }

    let sweep: Vec<usize> =
        if cfg.sweep.is_empty() { vec![cfg.conns] } else { cfg.sweep.clone() };
    let mut phases = Vec::with_capacity(sweep.len());
    let mut all_latencies = Vec::new();
    let mut total_delta = TierCounters::default();
    for (i, &conns) in sweep.iter().enumerate() {
        let before = summed_counters(cfg)?;
        let (mut report, latencies) = run_phase(cfg, i, conns)?;
        let delta = summed_counters(cfg)?.since(&before);
        report.cache_hits = delta.cache_hits;
        report.cache_misses = delta.cache_misses;
        report.counters_exclusive = delta.jobs_ok == report.ok;
        let lookups = delta.cache_hits + delta.cache_misses;
        report.cache_hit_rate = if report.counters_exclusive && lookups > 0 {
            Some(delta.cache_hits as f64 / lookups as f64)
        } else {
            None
        };
        if !report.counters_exclusive {
            eprintln!(
                "scc-load: phase {i}: jobs.ok advanced by {} but we completed {} — \
                 counters shared with another client; hit rate withheld",
                delta.jobs_ok, report.ok
            );
        }
        total_delta.add(&delta);
        phases.push(report);
        all_latencies.extend(latencies);
    }

    // Every idle connection must still answer after the storm — one
    // failure is a protocol error, not a shrug.
    let mut idle_failures = 0u64;
    for c in &mut idle {
        let live = c
            .request_json("{\"proto\":2,\"verb\":\"health\"}")
            .ok()
            .and_then(|h| h.get("ok").and_then(Json::as_bool))
            == Some(true);
        if !live {
            idle_failures += 1;
        }
    }

    let wall_s = started.elapsed().as_secs_f64();
    all_latencies.sort_by(|a, b| a.total_cmp(b));
    let ok: u64 = phases.iter().map(|p| p.ok).sum();
    let errors: u64 = phases.iter().map(|p| p.errors).sum::<u64>() + idle_failures;
    let exclusive = phases.iter().all(|p| p.counters_exclusive);
    let lookups = total_delta.cache_hits + total_delta.cache_misses;
    Ok(LoadReport {
        mode: if cfg.stats_addrs.is_empty() { "direct" } else { "routed" },
        idle_conns: cfg.idle_conns,
        conns: sweep.iter().copied().max().unwrap_or(0),
        requests: ok + errors,
        ok,
        rejections: phases.iter().map(|p| p.rejections).sum(),
        errors,
        wall_s,
        throughput_rps: if wall_s > 0.0 { ok as f64 / wall_s } else { 0.0 },
        p50_ms: percentile(&all_latencies, 50.0),
        p95_ms: percentile(&all_latencies, 95.0),
        p99_ms: percentile(&all_latencies, 99.0),
        counters_exclusive: exclusive,
        cache_hit_rate: if exclusive && lookups > 0 {
            Some(total_delta.cache_hits as f64 / lookups as f64)
        } else {
            None
        },
        store_hits: total_delta.store_hits,
        store_misses: total_delta.store_misses,
        store_warm_hit_rate: total_delta.store_hits as f64
            / (total_delta.store_hits + total_delta.store_misses) as f64,
        phases,
    })
}

fn json_opt_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) if r.is_finite() => format!("{r:.4}"),
        _ => "null".to_string(),
    }
}

fn phase_json(p: &PhaseReport) -> String {
    format!(
        "{{\"conns\": {}, \"requests\": {}, \"ok\": {}, \"rejections\": {}, \"errors\": {}, \
         \"wall_s\": {:.3}, \"throughput_rps\": {:.2}, \
         \"latency_ms\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}}}, \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {}, \"exclusive\": {}}}}}",
        p.conns,
        p.requests,
        p.ok,
        p.rejections,
        p.errors,
        p.wall_s,
        p.throughput_rps,
        p.p50_ms,
        p.p95_ms,
        p.p99_ms,
        p.cache_hits,
        p.cache_misses,
        json_opt_rate(p.cache_hit_rate),
        p.counters_exclusive,
    )
}

/// Renders one load run as a JSON object body (shared between the
/// single-run document and each entry of a scaling sweep's
/// `topologies` array). `indent` prefixes every line.
fn report_body(r: &LoadReport, indent: &str) -> String {
    let phases: Vec<String> =
        r.phases.iter().map(|p| format!("{indent}    {}", phase_json(p))).collect();
    format!(
        "{indent}\"mode\": \"{}\",\n{indent}\"idle_conns\": {},\n{indent}\"conns\": {},\n\
         {indent}\"requests\": {},\n{indent}\"ok\": {},\n{indent}\"rejections\": {},\n\
         {indent}\"errors\": {},\n{indent}\"wall_s\": {:.3},\n\
         {indent}\"throughput_rps\": {:.2},\n\
         {indent}\"latency_ms\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}}},\n\
         {indent}\"phases\": [\n{}\n{indent}],\n\
         {indent}\"counters_exclusive\": {},\n{indent}\"cache_hit_rate\": {}",
        r.mode,
        r.idle_conns,
        r.conns,
        r.requests,
        r.ok,
        r.rejections,
        r.errors,
        r.wall_s,
        r.throughput_rps,
        r.p50_ms,
        r.p95_ms,
        r.p99_ms,
        phases.join(",\n"),
        r.counters_exclusive,
        json_opt_rate(r.cache_hit_rate),
    )
}

/// Renders the report as the `results/BENCH_serve.json` document
/// (schema v3: per-phase tail latency and phase-scoped cache deltas).
pub fn bench_json(r: &LoadReport) -> String {
    format!(
        "{{\n  \"bench\": \"serve\",\n  \"schema_version\": {},\n  \"git_rev\": \"{}\",\n  \
         \"io_model\": \"readiness-poll\",\n{}\n}}\n",
        BENCH_SERVE_SCHEMA_VERSION,
        escape(&scc_sim::runner::git_rev()),
        report_body(r, "  "),
    )
}

fn shard_json(s: &ShardReport) -> String {
    format!(
        "{{\"shard\": {}, \"jobs_ok\": {}, \"forwarded\": {}, \"throughput_rps\": {:.2}}}",
        s.shard, s.jobs_ok, s.forwarded, s.throughput_rps
    )
}

/// Renders a shard-scaling sweep as the `results/BENCH_serve.json`
/// document (schema v3, `mode: "scaling"`): one `topologies` entry per
/// shard count, each with the full load report plus a per-shard
/// throughput breakdown.
pub fn scaling_bench_json(topologies: &[TopologyReport]) -> String {
    let topos: Vec<String> = topologies
        .iter()
        .map(|t| {
            let shards: Vec<String> =
                t.per_shard.iter().map(|s| format!("        {}", shard_json(s))).collect();
            format!(
                "    {{\n      \"shards\": {},\n      \"per_shard\": [\n{}\n      ],\n{}\n    }}",
                t.shards,
                shards.join(",\n"),
                report_body(&t.report, "      "),
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"serve\",\n  \"schema_version\": {},\n  \"git_rev\": \"{}\",\n  \
         \"io_model\": \"readiness-poll\",\n  \"mode\": \"scaling\",\n  \
         \"topologies\": [\n{}\n  ]\n}}\n",
        BENCH_SERVE_SCHEMA_VERSION,
        escape(&scc_sim::runner::git_rev()),
        topos.join(",\n"),
    )
}

/// Renders the restart-and-replay report as the
/// `results/BENCH_store.json` document: the replay's warm-hit rate plus
/// the restarted server's recovery and store counters (read from a
/// final `stats` probe), tagged with the store's schema version and the
/// engine revision so regressions are attributable to a build.
pub fn store_bench_json(r: &LoadReport, final_stats: &Json) -> String {
    let read = |name: &str| final_stats.get(name).and_then(Json::as_u64).unwrap_or(0);
    let warm = if r.store_warm_hit_rate.is_finite() {
        format!("{:.4}", r.store_warm_hit_rate)
    } else {
        "null".to_string()
    };
    format!(
        "{{\n  \"bench\": \"store\",\n  \"schema_version\": {},\n  \"git_rev\": \"{}\",\n  \
         \"requests\": {},\n  \"ok\": {},\n  \"errors\": {},\n  \"warm_hit_rate\": {warm},\n  \
         \"store\": {{\"hits\": {}, \"misses\": {}, \"writes\": {}, \"segments\": {}, \
         \"decode_rejects\": {}}},\n  \"recovery\": {{\"records\": {}, \"corrupt_skipped\": {}, \
         \"torn_truncations\": {}, \"invalidated_segments\": {}}}\n}}\n",
        scc_sim::persist::SCHEMA_VERSION,
        escape(&scc_sim::runner::git_rev()),
        r.requests,
        r.ok,
        r.errors,
        r.store_hits,
        r.store_misses,
        read("runner.store.writes"),
        read("runner.store.segments"),
        read("runner.store.decode_rejects"),
        read("runner.store.recovered_records"),
        read("runner.store.recovery_corrupt_skipped"),
        read("runner.store.recovery_torn_truncations"),
        read("runner.store.recovery_invalidated_segments"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> LoadReport {
        LoadReport {
            mode: "direct",
            idle_conns: 0,
            phases: Vec::new(),
            conns: 4,
            requests: 0,
            ok: 0,
            rejections: 0,
            errors: 0,
            wall_s: 0.1,
            throughput_rps: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            counters_exclusive: true,
            cache_hit_rate: None,
            store_hits: 0,
            store_misses: 0,
            store_warm_hit_rate: f64::NAN,
        }
    }

    fn sample_phase(conns: usize) -> PhaseReport {
        PhaseReport {
            conns,
            requests: 64,
            ok: 64,
            rejections: 0,
            errors: 0,
            wall_s: 1.0,
            throughput_rps: 64.0,
            p50_ms: 2.0,
            p95_ms: 4.0,
            p99_ms: 6.0,
            cache_hits: 48,
            cache_misses: 16,
            counters_exclusive: true,
            cache_hit_rate: Some(0.75),
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn tier_counter_deltas_saturate() {
        let earlier = TierCounters { cache_hits: 10, cache_misses: 4, ..Default::default() };
        let later = TierCounters { cache_hits: 25, cache_misses: 2, ..Default::default() };
        let d = later.since(&earlier);
        assert_eq!(d.cache_hits, 15);
        assert_eq!(d.cache_misses, 0, "a restarted server must not underflow the delta");
    }

    #[test]
    fn bench_json_handles_a_lookup_free_run() {
        let r = empty_report();
        let doc = bench_json(&r);
        assert!(doc.contains("\"cache_hit_rate\": null"));
        assert!(doc.contains("\"schema_version\": 3"));
        assert!(doc.contains("\"mode\": \"direct\""));
        crate::json::Json::parse(&doc).unwrap();
        let store_doc = store_bench_json(&r, &Json::parse("{}").unwrap());
        assert!(store_doc.contains("\"warm_hit_rate\": null"));
        assert!(store_doc.contains("\"schema_version\": 1"));
        Json::parse(&store_doc).unwrap();
    }

    #[test]
    fn bench_json_v3_carries_per_phase_tail_latency_and_cache_deltas() {
        let mut r = empty_report();
        r.idle_conns = 1000;
        r.conns = 256;
        r.counters_exclusive = false;
        r.phases = vec![sample_phase(8), {
            let mut p = sample_phase(256);
            p.requests = 2048;
            p.ok = 2048;
            p.rejections = 31;
            p.wall_s = 8.0;
            p.throughput_rps = 256.0;
            p.p50_ms = 9.0;
            p.p95_ms = 40.0;
            p.p99_ms = 90.0;
            p.counters_exclusive = false;
            p.cache_hit_rate = None;
            p
        }];
        let doc = bench_json(&r);
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("schema_version").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("idle_conns").and_then(Json::as_u64), Some(1000));
        assert_eq!(j.get("io_model").and_then(Json::as_str), Some("readiness-poll"));
        assert_eq!(j.get("counters_exclusive").and_then(Json::as_bool), Some(false));
        match j.get("phases") {
            Some(Json::Arr(phases)) => {
                assert_eq!(phases.len(), 2);
                assert_eq!(phases[1].get("conns").and_then(Json::as_u64), Some(256));
                assert_eq!(
                    phases[1]
                        .get("latency_ms")
                        .and_then(|l| l.get("p99"))
                        .and_then(Json::as_f64),
                    Some(90.0)
                );
                let cache = phases[0].get("cache").expect("phase cache object");
                assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(48));
                assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(0.75));
                assert_eq!(cache.get("exclusive").and_then(Json::as_bool), Some(true));
                // The shared-counter phase withholds its rate instead of
                // reporting a number polluted by foreign traffic.
                let shared = phases[1].get("cache").expect("phase cache object");
                assert!(matches!(shared.get("hit_rate"), Some(Json::Null)));
                assert_eq!(shared.get("exclusive").and_then(Json::as_bool), Some(false));
            }
            other => panic!("missing phases array: {other:?}"),
        }
    }

    #[test]
    fn scaling_bench_json_records_per_shard_throughput() {
        let mk = |shards: usize| {
            let mut r = empty_report();
            r.mode = "routed";
            r.conns = 64;
            r.ok = 512;
            r.requests = 512;
            r.throughput_rps = 100.0 * shards as f64;
            r.phases = vec![sample_phase(64)];
            TopologyReport {
                shards,
                per_shard: (0..shards)
                    .map(|i| ShardReport {
                        shard: i,
                        jobs_ok: 512 / shards as u64,
                        forwarded: 512 / shards as u64,
                        throughput_rps: 100.0,
                    })
                    .collect(),
                report: r,
            }
        };
        let doc = scaling_bench_json(&[mk(1), mk(2), mk(4)]);
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("schema_version").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("mode").and_then(Json::as_str), Some("scaling"));
        match j.get("topologies") {
            Some(Json::Arr(topos)) => {
                assert_eq!(topos.len(), 3);
                assert_eq!(topos[2].get("shards").and_then(Json::as_u64), Some(4));
                assert_eq!(topos[2].get("mode").and_then(Json::as_str), Some("routed"));
                match topos[2].get("per_shard") {
                    Some(Json::Arr(shards)) => {
                        assert_eq!(shards.len(), 4);
                        assert_eq!(shards[3].get("shard").and_then(Json::as_u64), Some(3));
                        assert_eq!(shards[3].get("jobs_ok").and_then(Json::as_u64), Some(128));
                        assert_eq!(
                            shards[3].get("throughput_rps").and_then(Json::as_f64),
                            Some(100.0)
                        );
                    }
                    other => panic!("missing per_shard array: {other:?}"),
                }
                assert!(topos[0].get("phases").is_some(), "each topology embeds phases");
            }
            other => panic!("missing topologies array: {other:?}"),
        }
    }

    #[test]
    fn store_bench_json_reports_a_warm_replay() {
        let mut r = empty_report();
        r.conns = 2;
        r.requests = 16;
        r.ok = 16;
        r.wall_s = 0.5;
        r.throughput_rps = 32.0;
        r.p50_ms = 1.0;
        r.p95_ms = 2.0;
        r.p99_ms = 2.0;
        r.cache_hit_rate = Some(0.75);
        r.store_hits = 4;
        r.store_warm_hit_rate = 1.0;
        let stats = Json::parse(
            r#"{"runner.store.writes":0,"runner.store.segments":2,
                "runner.store.recovered_records":4,"runner.store.recovery_corrupt_skipped":0,
                "runner.store.recovery_torn_truncations":0,
                "runner.store.recovery_invalidated_segments":0,"runner.store.decode_rejects":0}"#,
        )
        .unwrap();
        let doc = store_bench_json(&r, &stats);
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("warm_hit_rate").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            j.get("recovery").and_then(|x| x.get("records")).and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(
            j.get("store").and_then(|x| x.get("hits")).and_then(Json::as_u64),
            Some(4)
        );
    }
}
