//! The resident simulation service.
//!
//! A [`Server`] owns one or more listeners (TCP and/or Unix), a bounded
//! job queue, and a pool of simulation workers sharing one
//! [`Runner`], and with it that runner's result cache. Network
//! I/O is a **single readiness loop**: one thread multiplexes every
//! connection over `poll(2)` (via the no-libc shim in [`crate::sys`]),
//! with nonblocking sockets and per-connection state machines
//! ([`crate::conn`]). The lifecycle is:
//!
//! 1. **Accept**: the I/O thread accepts until `WouldBlock`, subject to
//!    admission control — beyond `max_conns` a connection gets a
//!    best-effort `over_capacity` error and is dropped.
//! 2. **Parse/queue**: readable connections accumulate bytes, parse
//!    NDJSON frames, and answer verbs inline; `run` requests are
//!    enqueued (at most one outstanding per connection — the fairness
//!    policy), or rejected with `queue_full` + a capped
//!    `retry_after_ms` hint derived from the job-time EWMA and the
//!    backlog.
//! 3. **Execute**: workers pop jobs, enforce deadlines (expired-while-
//!    queued jobs are rejected without simulating; running jobs are
//!    cancelled via the pipeline's cancel check), then hand the
//!    rendered response to the I/O thread through the completion list
//!    and the wakeup pipe, which re-arms the connection's writer.
//! 4. **Drain**: the `shutdown` verb (or [`ServerHandle::drain`], which
//!    the binary wires to SIGTERM) flips the drain flag *under the
//!    queue lock*: accepting stops, queued and in-flight jobs finish,
//!    new `run` frames get a `draining` error, idle connections close,
//!    half-written responses flush before their connections close, and
//!    [`Server::serve`] returns.

use std::collections::VecDeque;
#[cfg(unix)]
use std::collections::HashMap;
use std::io;
#[cfg(unix)]
use std::io::Write;
use std::net::SocketAddr;
#[cfg(unix)]
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

#[cfg(unix)]
use crate::conn::{sweep_for_drain, Conn, ConnStatus};
use crate::conn::FrameDisposition;
use crate::net::{Addr, Listener};
#[cfg(unix)]
use crate::net::Stream;
use crate::protocol::{
    error_response, key_response, metrics_object, ok_response, parse_request, run_key,
    run_one_response, trace_key, ErrorCode, Request, RunRequest, TraceRequest, MAX_FRAME_BYTES,
};
#[cfg(unix)]
use crate::sys;
use scc_pipeline::{Metric, MetricValue};
use scc_sim::runner::{resolve_workload, validate_workload_name, Job, StoreTier};
use scc_sim::{Runner, SimOptions};
use scc_workloads::{Scale, Suite, Workload};
use std::borrow::Cow;

/// How long a worker waits on the queue condvar before re-checking the
/// drain flag.
const WORKER_POLL: Duration = Duration::from_millis(100);

/// Readiness-loop poll timeout: the backstop cadence for drain checks
/// when no fd produces an event (completions and drain requests also
/// wake the loop through the pipe).
#[cfg(unix)]
const POLL_TIMEOUT_MS: i32 = 200;

/// Ceiling on the `retry_after_ms` backpressure hint. A deep queue of
/// slow jobs must suggest "come back soon and re-probe", never a
/// multi-hour sleep computed from a saturated product.
pub const RETRY_AFTER_CAP_MS: u64 = 30_000;

/// How long drain waits for connections to flush half-written
/// responses before force-closing them.
#[cfg(unix)]
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Simulation worker threads sharing the job queue.
    pub workers: usize,
    /// Bounded queue depth; `run` requests beyond it are rejected with
    /// `queue_full` + `retry_after_ms`.
    pub queue_depth: usize,
    /// Admission control: connections beyond this many get a
    /// best-effort `over_capacity` error and are closed immediately.
    pub max_conns: usize,
    /// Ceiling applied to any client-supplied `max_cycles`.
    pub max_cycles: u64,
    /// Directory of the persistent result store (`--store-dir`). When
    /// set, results are written through to disk and a restart serves
    /// prior results warm; when the store fails to open, the server
    /// *degrades* — it serves cold and reports
    /// `serve.store.degraded = 1` instead of refusing to start.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: scc_sim::default_jobs(),
            queue_depth: 64,
            max_conns: 4096,
            max_cycles: scc_sim::build::DEFAULT_MAX_CYCLES,
            store_dir: None,
        }
    }
}

/// One queued `run` request, waiting for a worker. The token routes
/// the rendered response back to its connection through the completion
/// list.
struct QueuedJob {
    req: RunRequest,
    /// `Some` for a `run-trace` job: the ingested program, already
    /// decoded and named `trace:<digest>` in `req.workload`. `None` for
    /// registry jobs, which the worker resolves by name.
    workload: Option<Workload>,
    deadline: Option<Instant>,
    token: u64,
}

/// A finished job's response, headed back to the I/O thread.
struct Completion {
    token: u64,
    reply: String,
}

/// State shared by the I/O thread and the workers.
struct Shared {
    cfg: ServerConfig,
    runner: Runner,
    queue: Mutex<VecDeque<QueuedJob>>,
    work_ready: Condvar,
    /// Drain flag. Written only while holding the queue lock, so the
    /// I/O thread, having observed `false` under the lock, knows
    /// workers cannot have exited before its enqueue became visible.
    drain: AtomicBool,
    /// Responses finished by workers, awaiting delivery by the I/O
    /// thread (which the wakeup pipe nudges).
    completions: Mutex<Vec<Completion>>,
    #[cfg(unix)]
    wake: sys::WakePipe,
    in_flight: AtomicUsize,
    connections: AtomicU64,
    open_conns: AtomicUsize,
    conns_refused: AtomicU64,
    /// Accepted connections dropped because nonblocking setup failed —
    /// a blocking socket must never reach the readiness loop.
    setup_failures: AtomicU64,
    requests: AtomicU64,
    jobs_ok: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_rejected: AtomicU64,
    /// EWMA of job wall time, microseconds (alpha = 1/8).
    avg_job_us: AtomicU64,
    /// True when `store_dir` was requested but the store failed to open
    /// (the server serves cold instead of refusing to start).
    store_degraded: bool,
}

impl Shared {
    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    /// The backpressure hint: how long a client should wait before
    /// retrying, assuming the backlog ahead of it drains at the
    /// observed per-job EWMA across the worker pool. Every step
    /// saturates and the result is capped at [`RETRY_AFTER_CAP_MS`], so
    /// a deep queue of pathologically slow jobs can neither overflow
    /// nor tell a client to sleep for hours.
    fn retry_after_ms(&self, queued: usize) -> u64 {
        let avg_us = self.avg_job_us.load(Ordering::Relaxed).max(1_000);
        let backlog = (queued as u64)
            .saturating_add(self.in_flight.load(Ordering::Relaxed) as u64)
            .saturating_add(1);
        let us = avg_us.saturating_mul(backlog) / self.cfg.workers.max(1) as u64;
        (us / 1_000).clamp(10, RETRY_AFTER_CAP_MS)
    }

    fn observe_job_time(&self, wall: Duration) {
        let sample = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        let old = self.avg_job_us.load(Ordering::Relaxed);
        let new = if old == 0 { sample } else { old - old / 8 + sample / 8 };
        self.avg_job_us.store(new, Ordering::Relaxed);
    }

    /// Hands a finished job's response to the I/O thread.
    fn complete(&self, token: u64, reply: String) {
        self.completions.lock().unwrap_or_else(|p| p.into_inner()).push(Completion {
            token,
            reply,
        });
        #[cfg(unix)]
        self.wake.wake();
    }

    /// The store tier attached to the shared runner, if any.
    fn store(&self) -> Option<&Arc<StoreTier>> {
        self.runner.store_tier()
    }

    /// Gauges and counters for the `stats` verb, merged with the
    /// runner's `runner.cache.*` (and, when a store is attached,
    /// `runner.store.*`) registry metrics.
    fn metrics(&self) -> Vec<Metric> {
        let queued = self.queue.lock().unwrap_or_else(|p| p.into_inner()).len();
        let counter = |name: &str, v: u64| Metric {
            name: name.to_string(),
            value: MetricValue::Counter(v),
        };
        let mut out = vec![
            counter("serve.workers", self.cfg.workers as u64),
            counter("serve.queue.depth", self.cfg.queue_depth as u64),
            counter("serve.queue.len", queued as u64),
            counter("serve.in_flight", self.in_flight.load(Ordering::Relaxed) as u64),
            counter("serve.draining", u64::from(self.draining())),
            counter("serve.connections", self.connections.load(Ordering::Relaxed)),
            counter("serve.conns.open", self.open_conns.load(Ordering::Relaxed) as u64),
            counter("serve.conns.max", self.cfg.max_conns as u64),
            counter("serve.conns.refused", self.conns_refused.load(Ordering::Relaxed)),
            counter("serve.net.setup_failures", self.setup_failures.load(Ordering::Relaxed)),
            counter("serve.requests", self.requests.load(Ordering::Relaxed)),
            counter("serve.jobs.ok", self.jobs_ok.load(Ordering::Relaxed)),
            counter("serve.jobs.failed", self.jobs_failed.load(Ordering::Relaxed)),
            counter("serve.jobs.rejected", self.jobs_rejected.load(Ordering::Relaxed)),
            counter("serve.avg_job_us", self.avg_job_us.load(Ordering::Relaxed)),
        ];
        out.push(counter("serve.store.enabled", u64::from(self.store().is_some())));
        out.push(counter("serve.store.degraded", u64::from(self.store_degraded)));
        out.extend(self.runner.cache_metrics());
        if let Some(tier) = self.store() {
            out.extend(tier.metrics());
        }
        out
    }
}

/// A handle that can observe and trigger drain from outside the server
/// thread (the binary points SIGTERM at this).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins graceful drain: stop accepting, finish queued and
    /// in-flight jobs, flush every half-written response, then let
    /// [`Server::serve`] return.
    pub fn drain(&self) {
        let _guard = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        self.shared.drain.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
        #[cfg(unix)]
        self.shared.wake.wake();
    }

    /// True once drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }
}

/// The service: listeners + readiness loop + worker pool. Construct
/// with [`Server::bind`], then block in [`Server::serve`].
pub struct Server {
    shared: Arc<Shared>,
    listeners: Vec<Listener>,
}

impl Server {
    /// Binds every address and prepares (but does not start) the
    /// service. Unix socket paths left over from a previous run are
    /// unlinked first.
    pub fn bind(addrs: &[Addr], cfg: ServerConfig) -> io::Result<Server> {
        let listeners = Listener::bind_all(addrs)?;
        let workers = cfg.workers.max(1);
        // Open the persistent tier before serving, so recovery happens
        // once up front. An unopenable store degrades to cold serving —
        // a broken disk must not take the service down with it.
        let mut runner = Runner::new();
        let mut store_degraded = false;
        if let Some(dir) = &cfg.store_dir {
            match StoreTier::open(dir) {
                Ok(tier) => {
                    let rec = tier.recovery();
                    eprintln!(
                        "scc-serve: store at {} recovered {} records \
                         ({} corrupt skipped, {} torn truncations, {} segments invalidated)",
                        dir.display(),
                        rec.records_indexed,
                        rec.corrupt_records_skipped,
                        rec.torn_truncations,
                        rec.invalidated_segments(),
                    );
                    runner = runner.with_store(tier);
                }
                Err(e) => {
                    eprintln!(
                        "scc-serve: store at {} unavailable ({e}); serving cold",
                        dir.display()
                    );
                    store_degraded = true;
                }
            }
        }
        let shared = Arc::new(Shared {
            cfg: ServerConfig { workers, ..cfg },
            runner,
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            drain: AtomicBool::new(false),
            completions: Mutex::new(Vec::new()),
            #[cfg(unix)]
            wake: sys::WakePipe::new()?,
            in_flight: AtomicUsize::new(0),
            connections: AtomicU64::new(0),
            open_conns: AtomicUsize::new(0),
            conns_refused: AtomicU64::new(0),
            setup_failures: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            jobs_ok: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            avg_job_us: AtomicU64::new(0),
            store_degraded,
        });
        Ok(Server { shared, listeners })
    }

    /// A drain handle usable from other threads (tests, signal wiring).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// The first bound TCP address (resolves port 0 for tests).
    pub fn local_tcp_addr(&self) -> Option<SocketAddr> {
        self.listeners.iter().find_map(Listener::local_tcp_addr)
    }

    /// Runs the service until drained: spawns the worker pool, runs the
    /// readiness loop on the calling thread, and on drain joins every
    /// worker before returning. Unix socket files are unlinked as the
    /// listeners drop on return.
    #[cfg(unix)]
    pub fn serve(self) -> io::Result<()> {
        let mut worker_handles = Vec::new();
        for w in 0..self.shared.cfg.workers {
            let shared = Arc::clone(&self.shared);
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("scc-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }

        let loop_result = event_loop(&self.shared, &self.listeners);

        // The loop only exits in drain (or on a fatal poll error, in
        // which case we still drain so workers exit).
        self.handle().drain();
        for h in worker_handles {
            let _ = h.join();
        }
        // Every worker has exited, so every write-through has reached
        // the store; fsync before reporting a clean exit.
        if let Some(tier) = self.shared.store() {
            match tier.flush() {
                Ok(()) => eprintln!("scc-serve: store flushed"),
                Err(e) => eprintln!("scc-serve: store flush failed: {e}"),
            }
        }
        let m = self.shared.metrics();
        eprintln!("scc-serve: drained; final {}", metrics_object(&m));
        loop_result
    }

    /// The readiness loop multiplexes raw fds via `poll(2)`, which this
    /// build target does not provide.
    #[cfg(not(unix))]
    pub fn serve(self) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "scc-serve's readiness loop requires a Unix-like OS",
        ))
    }
}

/// The single I/O thread: accept, parse, enqueue, deliver completions,
/// drain — all over one `poll(2)` set.
#[cfg(unix)]
fn event_loop(shared: &Arc<Shared>, listeners: &[Listener]) -> io::Result<()> {
    let mut conns: HashMap<u64, Conn<Stream>> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut drain_started: Option<Instant> = None;
    // After an accept error (e.g. fd exhaustion), stop polling the
    // listeners briefly instead of spinning on an always-ready backlog.
    let mut accept_backoff_until: Option<Instant> = None;

    loop {
        let draining = shared.draining();
        if draining {
            let started = *drain_started.get_or_insert_with(Instant::now);
            let closed = sweep_for_drain(&mut conns);
            shared.open_conns.fetch_sub(closed, Ordering::Relaxed);
            if started.elapsed() > DRAIN_GRACE && !conns.is_empty() {
                // The grace backstop is for clients that will not read
                // their last response — never for connections still
                // owed an in-flight job's reply; those get a fresh
                // grace window once the reply is delivered.
                let lingering: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| !c.awaiting_job())
                    .map(|(tok, _)| *tok)
                    .collect();
                if !lingering.is_empty() {
                    eprintln!(
                        "scc-serve: drain grace expired; force-closing {} connections",
                        lingering.len()
                    );
                    for tok in lingering {
                        conns.remove(&tok);
                        shared.open_conns.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                drain_started = Some(Instant::now());
            }
            if conns.is_empty() {
                return Ok(());
            }
        }

        // Build the poll set: wake pipe, listeners, then connections.
        let accepting = !draining
            && accept_backoff_until.is_none_or(|t| Instant::now() >= t)
            && conns.len() < shared.cfg.max_conns.saturating_add(64);
        let mut fds = Vec::with_capacity(1 + listeners.len() + conns.len());
        fds.push(sys::PollFd::new(shared.wake.read_fd(), sys::POLLIN));
        let listener_base = fds.len();
        for l in listeners {
            // A negative fd tells poll(2) to skip the entry, which is
            // how accepting is paused without rebuilding the set.
            let fd = if accepting { l.as_raw_fd() } else { -1 };
            fds.push(sys::PollFd::new(fd, sys::POLLIN));
        }
        let conn_base = fds.len();
        let mut tokens = Vec::with_capacity(conns.len());
        for (tok, c) in &conns {
            let (r, w) = c.wants();
            let mut events = 0;
            if r {
                events |= sys::POLLIN;
            }
            if w {
                events |= sys::POLLOUT;
            }
            // Entries with an empty interest set still report
            // POLLERR/POLLHUP, so a vanished peer wakes the loop even
            // while its job runs.
            fds.push(sys::PollFd::new(c.stream().as_raw_fd(), events));
            tokens.push(*tok);
        }

        sys::poll_fds(&mut fds, POLL_TIMEOUT_MS)?;

        if fds[0].revents != 0 {
            shared.wake.drain();
        }
        deliver_completions(shared, &mut conns);

        for (i, l) in listeners.iter().enumerate() {
            if fds[listener_base + i].revents & sys::POLLIN != 0 {
                if let Err(e) = accept_all(shared, l, &mut conns, &mut next_token) {
                    eprintln!("scc-serve: accept error: {e}");
                    accept_backoff_until = Some(Instant::now() + Duration::from_millis(50));
                }
            }
        }

        for (i, tok) in tokens.iter().enumerate() {
            let revents = fds[conn_base + i].revents;
            if revents == 0 {
                continue;
            }
            // The completion pass above may already have closed it.
            let Some(c) = conns.get_mut(tok) else { continue };
            let mut cb = |line: &str| handle_frame(shared, line, *tok);
            let status = if revents & sys::POLLNVAL != 0 {
                ConnStatus::Closed
            } else if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
                // Errors and hangups surface through read(): EOF or a
                // hard error, each with its defined close semantics.
                c.on_readable(&mut cb)
            } else {
                c.on_writable(&mut cb)
            };
            if status == ConnStatus::Closed {
                conns.remove(tok);
                shared.open_conns.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Routes every finished job's response to its connection's writer.
#[cfg(unix)]
fn deliver_completions(shared: &Arc<Shared>, conns: &mut HashMap<u64, Conn<Stream>>) {
    let completions =
        std::mem::take(&mut *shared.completions.lock().unwrap_or_else(|p| p.into_inner()));
    for comp in completions {
        // A connection that died mid-job simply loses its response;
        // the job itself ran (and populated the cache) regardless.
        let Some(c) = conns.get_mut(&comp.token) else { continue };
        let mut cb = |line: &str| handle_frame(shared, line, comp.token);
        if c.complete_job(&comp.reply, &mut cb) == ConnStatus::Closed {
            conns.remove(&comp.token);
            shared.open_conns.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Accepts until `WouldBlock`, applying admission control and forcing
/// every admitted stream nonblocking.
#[cfg(unix)]
fn accept_all(
    shared: &Arc<Shared>,
    l: &Listener,
    conns: &mut HashMap<u64, Conn<Stream>>,
    next_token: &mut u64,
) -> io::Result<()> {
    while let Some(mut stream) = l.accept()? {
        shared.connections.fetch_add(1, Ordering::Relaxed);
        if conns.len() >= shared.cfg.max_conns {
            shared.conns_refused.fetch_add(1, Ordering::Relaxed);
            // Best-effort rejection frame; a full socket buffer on a
            // brand-new connection is not worth waiting for.
            let queued = shared.queue.lock().unwrap_or_else(|p| p.into_inner()).len();
            let r = error_response(
                None,
                ErrorCode::OverCapacity,
                &format!("connection limit {} reached", shared.cfg.max_conns),
                Some(shared.retry_after_ms(queued)),
            );
            let _ = stream.set_nonblocking(true);
            let _ = stream.write(r.as_bytes());
            continue;
        }
        // A blocking socket in a readiness loop would wedge every
        // other connection on the first short read; if nonblocking
        // setup fails the connection must die, not degrade.
        if let Err(e) = stream.set_nonblocking(true) {
            shared.setup_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!("scc-serve: set_nonblocking failed on accepted connection: {e}");
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        shared.open_conns.fetch_add(1, Ordering::Relaxed);
        conns.insert(token, Conn::new(stream, MAX_FRAME_BYTES));
    }
    Ok(())
}

/// Parses and dispatches one request frame: most verbs are answered
/// inline; a valid `run` is enqueued and answered later through the
/// completion path.
fn handle_frame(shared: &Shared, line: &str, token: u64) -> FrameDisposition {
    use FrameDisposition::Reply;
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return Reply(e.response()),
    };
    match request {
        Request::Health => {
            let status = if shared.draining() { "draining" } else { "ok" };
            Reply(ok_response(&format!("\"status\":\"{status}\"")))
        }
        Request::Stats => {
            Reply(ok_response(&format!("\"stats\":{}", metrics_object(&shared.metrics()))))
        }
        Request::Persist => Reply(match shared.store() {
            Some(tier) => match tier.flush() {
                Ok(()) => ok_response(&format!(
                    "\"status\":\"persisted\",\"writes\":{}",
                    tier.store_stats().puts
                )),
                Err(e) => {
                    error_response(None, ErrorCode::StoreIo, &format!("store flush failed: {e}"), None)
                }
            },
            None => store_unavailable(shared),
        }),
        Request::Warm => Reply(match shared.store() {
            Some(_) => match shared.runner.warm_from_store() {
                Ok(n) => ok_response(&format!("\"status\":\"warmed\",\"entries\":{n}")),
                Err(e) => {
                    error_response(None, ErrorCode::StoreIo, &format!("store warm failed: {e}"), None)
                }
            },
            None => store_unavailable(shared),
        }),
        Request::Shutdown => {
            let _guard = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            shared.drain.store(true, Ordering::SeqCst);
            shared.work_ready.notify_all();
            Reply(ok_response("\"status\":\"draining\""))
        }
        Request::Key(req) => {
            // The key is computed exactly as the execution path would:
            // same options, same clamp — so what this returns is the
            // string the result is cached and stored under, and the
            // string `scc-route` hashes for shard placement.
            let id = req.id.clone();
            if let Err(e) = validate_workload_name(&req.workload) {
                return Reply(error_response(
                    id.as_deref(),
                    ErrorCode::from_job_error(&e),
                    &e.to_string(),
                    None,
                ));
            }
            let key = run_key(&req, shared.cfg.max_cycles);
            Reply(key_response(id.as_deref(), &key))
        }
        Request::KeyTrace(req) => {
            // The payload was fully validated at parse time, so the key
            // is always computable — no workload-name check applies.
            let key = trace_key(&req, shared.cfg.max_cycles);
            Reply(key_response(req.id.as_deref(), &key))
        }
        Request::Run(run) => submit_run(shared, run, None, token),
        Request::RunTrace(tr) => submit_trace(shared, tr, token),
    }
}

/// Converts a validated `run-trace` request into an ordinary queued
/// job: the decoded program becomes a [`Workload`] named by content
/// digest, and everything downstream (queueing, deadline handling, the
/// cache fast path, store write-through) is the `run` path verbatim.
fn submit_trace(shared: &Shared, tr: TraceRequest, token: u64) -> FrameDisposition {
    let req = tr.as_run_request();
    let trace = match scc_lang::trace::decode(&tr.trace_bytes) {
        Ok(t) => t,
        // Unreachable in practice: the parser validated the same bytes.
        Err(e) => {
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            return FrameDisposition::Reply(error_response(
                req.id.as_deref(),
                ErrorCode::BadTrace,
                &format!("invalid SCCTRACE1 payload: {e}"),
                None,
            ));
        }
    };
    let workload = Workload {
        name: Cow::Owned(req.workload.clone()),
        suite: Suite::Guest,
        program: trace.program,
        description: "ingested SCCTRACE1 program",
        scale: Scale::custom(req.iters),
    };
    submit_run(shared, req, Some(workload), token)
}

/// The `persist`/`warm` rejection when no store tier is attached —
/// distinguishing "never configured" from "configured but degraded".
fn store_unavailable(shared: &Shared) -> String {
    let message = if shared.store_degraded {
        "persistent store failed to open at startup; serving cold"
    } else {
        "no persistent store attached (start scc-serve with --store-dir)"
    };
    error_response(None, ErrorCode::StoreUnavailable, message, None)
}

/// Validates and enqueues one `run` request; the response arrives via
/// the completion path once a worker finishes it.
fn submit_run(
    shared: &Shared,
    req: RunRequest,
    workload: Option<Workload>,
    token: u64,
) -> FrameDisposition {
    use FrameDisposition::{JobQueued, Reply};
    let id = req.id.clone();
    // Validate the workload name before spending a queue slot, so a
    // typo never occupies capacity. Name-only: this runs on the I/O
    // thread for every request, so it must not build the program.
    // Trace jobs carry their (already validated) program and a
    // synthesized digest name, so the registry check does not apply.
    if workload.is_none() {
        if let Err(e) = validate_workload_name(&req.workload) {
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            return Reply(error_response(
                id.as_deref(),
                ErrorCode::from_job_error(&e),
                &e.to_string(),
                None,
            ));
        }
    }
    let deadline = req.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    {
        let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        // Checked under the lock: drain is only ever set under this
        // lock, so seeing `false` here guarantees workers will still
        // observe this enqueue before exiting.
        if shared.draining() {
            return Reply(error_response(
                id.as_deref(),
                ErrorCode::Draining,
                "server is draining; submit to another instance",
                None,
            ));
        }
        if q.len() >= shared.cfg.queue_depth {
            shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            let hint = shared.retry_after_ms(q.len());
            return Reply(error_response(
                id.as_deref(),
                ErrorCode::QueueFull,
                &format!("queue at capacity ({})", shared.cfg.queue_depth),
                Some(hint),
            ));
        }
        q.push_back(QueuedJob { req, workload, deadline, token });
    }
    shared.work_ready.notify_one();
    JobQueued
}

/// Worker: pop → execute → hand the response to the I/O thread, until
/// drained and the queue is empty.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shared.draining() {
                    break None;
                }
                let (guard, _) = shared
                    .work_ready
                    .wait_timeout(q, WORKER_POLL)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        };
        let Some(qj) = job else { return };
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let started = Instant::now();
        let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(shared, &qj)
        }))
        .unwrap_or_else(|_| {
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            error_response(
                qj.req.id.as_deref(),
                ErrorCode::InternalError,
                "job execution panicked",
                None,
            )
        });
        shared.observe_job_time(started.elapsed());
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.complete(qj.token, reply);
    }
}

/// Executes one popped job on the shared runner.
fn execute_job(shared: &Shared, qj: &QueuedJob) -> String {
    let req = &qj.req;
    let id = req.id.as_deref();
    if let Some(d) = qj.deadline {
        if Instant::now() >= d {
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            return error_response(
                id,
                ErrorCode::DeadlineExceeded,
                "deadline expired while queued",
                None,
            );
        }
    }
    // Fast path: probe the result tiers by canonical key before paying
    // for workload resolution. `run_key` is a pure string computation,
    // while resolving builds the whole workload program — on a warm
    // server the hit path is the common case and must not be priced
    // like a miss — nor by the result's size: the reply renders the
    // digest the runner memoised on the entry.
    if !req.audit {
        if let Some(hit) = shared.runner.try_cached(&run_key(req, shared.cfg.max_cycles), None) {
            shared.jobs_ok.fetch_add(1, Ordering::Relaxed);
            return run_one_response(id, &hit);
        }
    }
    let workload = match &qj.workload {
        // A trace job travels with its decoded program; nothing to
        // resolve.
        Some(w) => w.clone(),
        None => match resolve_workload(&req.workload, Scale::custom(req.iters)) {
            Ok(w) => w,
            Err(e) => {
                shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
                return error_response(id, ErrorCode::from_job_error(&e), &e.to_string(), None);
            }
        },
    };
    let mut opts = SimOptions::new(req.level);
    opts.max_cycles = req.max_cycles.unwrap_or(shared.cfg.max_cycles).min(shared.cfg.max_cycles);
    let job = Job::new(&workload, &opts);
    match shared.runner.run_fresh(&job, qj.deadline, req.audit) {
        Ok(one) => {
            shared.jobs_ok.fetch_add(1, Ordering::Relaxed);
            run_one_response(id, &one)
        }
        Err(e) => {
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            error_response(id, ErrorCode::from_job_error(&e), &e.to_string(), None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared() -> Arc<Shared> {
        let server =
            Server::bind(&[Addr::Tcp("127.0.0.1:0".to_string())], ServerConfig::default())
                .expect("bind");
        Arc::clone(&server.shared)
    }

    #[test]
    fn retry_hint_saturates_and_is_capped_at_the_extremes() {
        let shared = test_shared();
        // Pathological: a saturated EWMA, a huge backlog, and maximal
        // in-flight — the product would overflow u64 many times over,
        // and the naive hint would be centuries. The hint must be the
        // cap, not a wrapped or absurd value.
        shared.avg_job_us.store(u64::MAX, Ordering::Relaxed);
        shared.in_flight.store(usize::MAX, Ordering::SeqCst);
        assert_eq!(shared.retry_after_ms(usize::MAX), RETRY_AFTER_CAP_MS);
        // A deep-but-real backlog of slow jobs also lands on the cap
        // rather than a multi-hour sleep: 10k queued × 30 s jobs.
        shared.in_flight.store(0, Ordering::SeqCst);
        shared.avg_job_us.store(30_000_000, Ordering::Relaxed);
        assert_eq!(shared.retry_after_ms(10_000), RETRY_AFTER_CAP_MS);
    }

    #[test]
    fn retry_hint_keeps_its_floor_on_an_idle_server() {
        let shared = test_shared();
        shared.avg_job_us.store(0, Ordering::Relaxed);
        assert!(shared.retry_after_ms(0) >= 10);
    }

    #[test]
    fn retry_hint_tracks_a_sane_backlog_proportionally() {
        let shared = test_shared();
        // 1 ms jobs, backlog of (queued + in-flight + 1) over the pool.
        shared.avg_job_us.store(1_000, Ordering::Relaxed);
        let workers = shared.cfg.workers as u64;
        let hint = shared.retry_after_ms(2 * shared.cfg.workers);
        // Roughly (2W + 1) ms / W workers ≈ 2-3 ms, floored at 10.
        assert!(hint >= 10 && hint <= 10.max(3 * workers), "hint = {hint}");
    }

    #[test]
    fn job_time_ewma_accepts_extreme_samples() {
        let shared = test_shared();
        shared.observe_job_time(Duration::from_secs(u64::MAX / 2_000_000));
        shared.observe_job_time(Duration::from_micros(1));
        // No panic, and the hint still respects the cap.
        assert!(shared.retry_after_ms(1_000_000) <= RETRY_AFTER_CAP_MS);
    }
}
