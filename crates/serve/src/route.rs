//! `scc-route`: a consistent-hash shard router in front of N
//! `scc-serve` backends.
//!
//! The router is a second, thinner instantiation of the same readiness
//! machinery the server runs on: one thread, one `poll(2)` set, and the
//! [`Conn`] state machine on every client connection. It never
//! simulates anything — its job is placement:
//!
//! 1. A client `run` frame is parsed just far enough to compute the
//!    job's canonical content key ([`run_key`] — the *same* string the
//!    shard will cache and store the result under), hashed onto the
//!    [`Ring`], and forwarded **verbatim** to the owning shard. Byte
//!    transparency is the point: the response a client sees through the
//!    router is byte-identical to what the shard produced, which in
//!    turn is byte-identical to direct in-process execution.
//! 2. Keyed placement means each shard only ever sees its own slice of
//!    the keyspace, so per-shard result caches and persistent stores
//!    stay hot and disjoint for free.
//! 3. `key`, `stats`, `health`, and `shutdown` are answered locally;
//!    `persist`/`warm` are per-shard administrative verbs and are
//!    rejected with a pointer at the shards.
//!
//! # Upstream pools and failover
//!
//! A shard allows one outstanding `run` per connection (its fairness
//! policy), so the router holds a small pool of upstream connections
//! per shard and picks the least-loaded one. Each upstream connection
//! carries a FIFO of the client tokens whose requests it forwarded —
//! NDJSON responses come back in order, so the front of the FIFO always
//! identifies the response's owner.
//!
//! A failed upstream moves to `Down` with doubling backoff
//! ([`RECONNECT_INITIAL`] → [`RECONNECT_CAP`]); every request it owed
//! is answered with a typed `shard_unavailable` error. While a shard
//! has no `Up` connection, requests hashing to it are rejected
//! immediately with `shard_unavailable` + `retry_after_ms` (time to the
//! next reconnect probe) — degraded, never stalled: the other shards'
//! traffic is unaffected, which is exactly the deopt-style contract of
//! a *recoverable* invalidation ([`ErrorCode::is_retryable`]).
//!
//! # Drain
//!
//! `shutdown` (or SIGTERM via [`RouterHandle::drain`]) drains the
//! router *and* propagates: one `shutdown` frame is written to each
//! shard (tagged with a control token so its acknowledgement is
//! discarded), so a single `shutdown` to the router winds down the
//! whole topology; in-flight forwarded jobs still complete and deliver
//! first.

use std::collections::{HashMap, VecDeque};
use std::io;
#[cfg(unix)]
use std::io::Write;
use std::net::SocketAddr;
#[cfg(unix)]
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(unix)]
use crate::conn::{sweep_for_drain, Conn, ConnStatus};
use crate::conn::FrameDisposition;
use crate::frame::{FrameReader, FrameWriter, Poll};
use crate::net::{Addr, Listener, Stream};
use crate::protocol::{
    error_response, key_response, metrics_object, ok_response, parse_request, run_key,
    trace_key, ErrorCode, Request, MAX_FRAME_BYTES,
};
use crate::ring::Ring;
#[cfg(unix)]
use crate::sys;
use scc_pipeline::{Metric, MetricValue};

/// Shard responses can carry full reports with audit logs; mirror the
/// blocking client's response cap rather than the request cap.
pub const MAX_UPSTREAM_FRAME: usize = 16 * 1024 * 1024;

/// First reconnect delay after an upstream connection fails.
pub const RECONNECT_INITIAL: Duration = Duration::from_millis(100);

/// Ceiling of the doubling reconnect backoff.
pub const RECONNECT_CAP: Duration = Duration::from_secs(5);

/// Poll timeout — the cadence of reconnect probes and drain checks when
/// no fd is ready.
#[cfg(unix)]
const POLL_TIMEOUT_MS: i32 = 100;

/// How long drain waits for clients to take their final bytes before
/// force-closing.
#[cfg(unix)]
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// FIFO token marking a router-originated control frame (the propagated
/// `shutdown`): the shard's acknowledgement has no client to go to.
const CONTROL_TOKEN: u64 = u64::MAX;

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Backend shard addresses; index in this list is the shard's ring
    /// identity, so order matters and must be stable across restarts.
    pub shards: Vec<Addr>,
    /// Upstream connections per shard. Shards run one outstanding job
    /// per connection, so this is also the router's per-shard
    /// concurrency ceiling.
    pub upstream_conns: usize,
    /// Client connection limit (admission control, as on the server).
    pub max_conns: usize,
    /// Cycle-budget cap — **must match the shards'** `--max-cycles`:
    /// the router hashes the canonical key, and the key embeds the
    /// clamped budget.
    pub max_cycles: u64,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            shards: Vec::new(),
            upstream_conns: 4,
            max_conns: 4096,
            max_cycles: scc_sim::build::DEFAULT_MAX_CYCLES,
        }
    }
}

/// One live upstream connection to a shard.
#[cfg(unix)]
struct Upstream {
    stream: Stream,
    reader: FrameReader,
    writer: FrameWriter,
    /// Client tokens owed a response, in forwarding order (NDJSON
    /// responses return in order on one connection). Entries carry the
    /// id needed to synthesize a typed failure if the connection dies
    /// with the response still owed.
    fifo: VecDeque<FifoEntry>,
}

#[cfg(unix)]
struct FifoEntry {
    token: u64,
    id: Option<String>,
}

/// One slot of a shard's connection pool.
#[cfg(unix)]
enum Slot {
    Up(Upstream),
    /// Disconnected; retry at `until`, then double `backoff`.
    Down { until: Instant, backoff: Duration },
}

#[cfg(unix)]
struct ShardState {
    addr: Addr,
    slots: Vec<Slot>,
    forwarded: u64,
}

#[cfg(unix)]
impl ShardState {
    fn up_slots(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s, Slot::Up(_))).count()
    }

    /// Milliseconds until this shard's earliest reconnect probe — the
    /// honest `retry_after_ms` for `shard_unavailable`.
    fn retry_after_ms(&self) -> u64 {
        let now = Instant::now();
        self.slots
            .iter()
            .filter_map(|s| match s {
                Slot::Down { until, .. } => {
                    Some(until.saturating_duration_since(now).as_millis() as u64)
                }
                Slot::Up(_) => None,
            })
            .min()
            .unwrap_or(0)
            .clamp(10, crate::server::RETRY_AFTER_CAP_MS)
    }
}

/// Loop-local counters behind the `stats` verb (single-threaded, so
/// plain integers).
#[derive(Default)]
struct Counters {
    connections: u64,
    conns_refused: u64,
    setup_failures: u64,
    requests: u64,
    forwarded: u64,
    replies: u64,
    shard_unavailable: u64,
    upstream_failures: u64,
    reconnects: u64,
}

/// A `run` frame parsed, placed, and awaiting an upstream slot.
struct PendingForward {
    token: u64,
    shard: usize,
    line: String,
    id: Option<String>,
}

/// State shared with [`RouterHandle`] (the only cross-thread surface).
struct RouterShared {
    drain: AtomicBool,
}

/// A handle that can trigger drain from outside the router thread (the
/// binary points SIGTERM here).
#[derive(Clone)]
pub struct RouterHandle {
    shared: Arc<RouterShared>,
}

impl RouterHandle {
    /// Begins graceful drain: stop accepting, deliver in-flight
    /// responses, propagate `shutdown` to every shard, then let
    /// [`Router::serve`] return.
    pub fn drain(&self) {
        self.shared.drain.store(true, Ordering::SeqCst);
    }

    /// True once drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.drain.load(Ordering::SeqCst)
    }
}

/// The router: listeners + ring + upstream pools, one readiness loop.
/// Construct with [`Router::bind`], then block in [`Router::serve`].
pub struct Router {
    shared: Arc<RouterShared>,
    cfg: RouterConfig,
    ring: Ring,
    listeners: Vec<Listener>,
}

impl Router {
    /// Binds every listen address and prepares (but does not start) the
    /// router. Shards are dialed lazily by the loop, so the router may
    /// come up before its shards do.
    pub fn bind(addrs: &[Addr], cfg: RouterConfig) -> io::Result<Router> {
        if cfg.shards.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no shard addresses"));
        }
        let listeners = Listener::bind_all(addrs)?;
        let ring = Ring::new(cfg.shards.len());
        Ok(Router {
            shared: Arc::new(RouterShared { drain: AtomicBool::new(false) }),
            cfg: RouterConfig { upstream_conns: cfg.upstream_conns.max(1), ..cfg },
            ring,
            listeners,
        })
    }

    /// A drain handle usable from other threads (tests, signal wiring).
    pub fn handle(&self) -> RouterHandle {
        RouterHandle { shared: Arc::clone(&self.shared) }
    }

    /// The first bound TCP address (resolves port 0 for tests).
    pub fn local_tcp_addr(&self) -> Option<SocketAddr> {
        self.listeners.iter().find_map(Listener::local_tcp_addr)
    }

    /// Runs the router until drained. Unix socket files are unlinked as
    /// the listeners drop on return.
    #[cfg(unix)]
    pub fn serve(self) -> io::Result<()> {
        route_loop(&self)
    }

    /// The readiness loop multiplexes raw fds via `poll(2)`, which this
    /// build target does not provide.
    #[cfg(not(unix))]
    pub fn serve(self) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "scc-route's readiness loop requires a Unix-like OS",
        ))
    }
}

/// Everything below is the single router thread.
#[cfg(unix)]
fn route_loop(router: &Router) -> io::Result<()> {
    let cfg = &router.cfg;
    let ring = &router.ring;
    let mut conns: HashMap<u64, Conn<Stream>> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut counters = Counters::default();
    let mut shards: Vec<ShardState> = cfg
        .shards
        .iter()
        .map(|addr| ShardState {
            addr: addr.clone(),
            slots: (0..cfg.upstream_conns)
                .map(|_| Slot::Down {
                    until: Instant::now(),
                    backoff: RECONNECT_INITIAL,
                })
                .collect(),
            forwarded: 0,
        })
        .collect();
    let mut pending: Vec<PendingForward> = Vec::new();
    let mut completions: Vec<(u64, String)> = Vec::new();
    let mut drain_started: Option<Instant> = None;
    let mut shutdown_propagated = false;
    let mut accept_backoff_until: Option<Instant> = None;

    loop {
        let draining = router.shared.drain.load(Ordering::SeqCst);
        if !draining {
            // Reconnect probes for Down slots whose backoff expired.
            reconnect_due_slots(&mut shards, &mut counters);
        } else {
            let started = *drain_started.get_or_insert_with(Instant::now);
            if !shutdown_propagated {
                propagate_shutdown(&mut shards);
                shutdown_propagated = true;
            }
            sweep_for_drain(&mut conns);
            let upstream_quiet = shards.iter().all(|s| {
                s.slots.iter().all(|slot| match slot {
                    Slot::Up(u) => u.writer.is_empty(),
                    Slot::Down { .. } => true,
                })
            });
            if (conns.is_empty() && upstream_quiet) || started.elapsed() > DRAIN_GRACE {
                return Ok(());
            }
        }

        // ---- Build the poll set: listeners, clients, upstreams. ----
        let accepting = !draining
            && accept_backoff_until.is_none_or(|t| Instant::now() >= t)
            && conns.len() < cfg.max_conns.saturating_add(64);
        let mut fds = Vec::with_capacity(router.listeners.len() + conns.len() + shards.len());
        let listener_base = fds.len();
        for l in &router.listeners {
            let fd = if accepting { l.as_raw_fd() } else { -1 };
            fds.push(sys::PollFd::new(fd, sys::POLLIN));
        }
        let conn_base = fds.len();
        let mut conn_tokens = Vec::with_capacity(conns.len());
        for (tok, c) in &conns {
            let (r, w) = c.wants();
            let mut events = 0;
            if r {
                events |= sys::POLLIN;
            }
            if w {
                events |= sys::POLLOUT;
            }
            fds.push(sys::PollFd::new(c.stream().as_raw_fd(), events));
            conn_tokens.push(*tok);
        }
        let up_base = fds.len();
        let mut up_index = Vec::new();
        for (si, shard) in shards.iter().enumerate() {
            for (vi, slot) in shard.slots.iter().enumerate() {
                if let Slot::Up(u) = slot {
                    let mut events = sys::POLLIN;
                    if !u.writer.is_empty() {
                        events |= sys::POLLOUT;
                    }
                    fds.push(sys::PollFd::new(u.stream.as_raw_fd(), events));
                    up_index.push((si, vi));
                }
            }
        }

        sys::poll_fds(&mut fds, POLL_TIMEOUT_MS)?;

        // ---- Upstream edges first: responses unblock clients. ----
        for (i, &(si, vi)) in up_index.iter().enumerate() {
            let revents = fds[up_base + i].revents;
            if revents == 0 {
                continue;
            }
            service_upstream(&mut shards[si], vi, &mut counters, &mut completions);
        }

        // ---- Accept new clients. ----
        for (i, l) in router.listeners.iter().enumerate() {
            if fds[listener_base + i].revents & sys::POLLIN != 0 {
                if let Err(e) = accept_all(cfg, l, &mut conns, &mut next_token, &mut counters) {
                    eprintln!("scc-route: accept error: {e}");
                    accept_backoff_until = Some(Instant::now() + Duration::from_millis(50));
                }
            }
        }

        // ---- Client edges. ----
        for (i, tok) in conn_tokens.iter().enumerate() {
            let revents = fds[conn_base + i].revents;
            if revents == 0 {
                continue;
            }
            let Some(c) = conns.get_mut(tok) else { continue };
            let mut cb = |line: &str| {
                frame_action(
                    cfg,
                    ring,
                    &shards,
                    &mut counters,
                    &mut pending,
                    &router.shared.drain,
                    *tok,
                    line,
                )
            };
            let status = if revents & sys::POLLNVAL != 0 {
                ConnStatus::Closed
            } else if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
                c.on_readable(&mut cb)
            } else {
                c.on_writable(&mut cb)
            };
            if status == ConnStatus::Closed {
                conns.remove(tok);
            }
        }

        // ---- Dispatch placed forwards and deliver completions until
        // quiescent: a delivery re-pumps its connection's parser, which
        // can queue fresh forwards; a dispatch onto a dead shard
        // synthesizes an error completion. ----
        while !pending.is_empty() || !completions.is_empty() {
            for fwd in std::mem::take(&mut pending) {
                dispatch_forward(&mut shards, fwd, &mut counters, &mut completions);
            }
            deliver_completions(
                cfg,
                ring,
                &shards,
                &mut counters,
                &mut pending,
                &router.shared.drain,
                &mut conns,
                &mut completions,
            );
        }
    }
}

/// Routes each completed (or synthesized) response to its client
/// connection and re-pumps that connection's parser, collecting any
/// next forward into `pending`.
#[cfg(unix)]
#[allow(clippy::too_many_arguments)]
fn deliver_completions(
    cfg: &RouterConfig,
    ring: &Ring,
    shards: &[ShardState],
    counters: &mut Counters,
    pending: &mut Vec<PendingForward>,
    drain: &AtomicBool,
    conns: &mut HashMap<u64, Conn<Stream>>,
    completions: &mut Vec<(u64, String)>,
) {
    for (tok, reply) in completions.drain(..) {
        if tok == CONTROL_TOKEN {
            continue;
        }
        // A client that vanished mid-job simply loses its response.
        let Some(c) = conns.get_mut(&tok) else { continue };
        counters.replies += 1;
        let mut cb =
            |line: &str| frame_action(cfg, ring, shards, counters, pending, drain, tok, line);
        if c.complete_job(&reply, &mut cb) == ConnStatus::Closed {
            conns.remove(&tok);
        }
    }
}

/// Parses one client frame and decides its fate: answer locally, or
/// queue a forward (the dispatch happens after the conn borrow ends).
#[cfg(unix)]
#[allow(clippy::too_many_arguments)]
fn frame_action(
    cfg: &RouterConfig,
    ring: &Ring,
    shards: &[ShardState],
    counters: &mut Counters,
    pending: &mut Vec<PendingForward>,
    drain: &AtomicBool,
    token: u64,
    line: &str,
) -> FrameDisposition {
    use FrameDisposition::Reply;
    let draining = drain.load(Ordering::SeqCst);
    counters.requests += 1;
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return Reply(e.response()),
    };
    match request {
        Request::Health => {
            let status = if draining { "draining" } else { "ok" };
            Reply(ok_response(&format!("\"status\":\"{status}\"")))
        }
        Request::Stats => Reply(ok_response(&format!(
            "\"stats\":{}",
            metrics_object(&route_metrics(cfg, shards, counters, draining))
        ))),
        Request::Shutdown => {
            // Raise the drain flag here; the loop observes it on its
            // next tick and propagates `shutdown` to the shards.
            // Replying first lets the client see the acknowledgement
            // before its connection drains.
            drain.store(true, Ordering::SeqCst);
            Reply(ok_response("\"status\":\"draining\""))
        }
        Request::Key(req) => {
            // Same computation the shard would do — and the exact
            // string the ring hashes below for `run`.
            let key = run_key(&req, cfg.max_cycles);
            Reply(key_response(req.id.as_deref(), &key))
        }
        Request::KeyTrace(req) => {
            let key = trace_key(&req, cfg.max_cycles);
            Reply(key_response(req.id.as_deref(), &key))
        }
        Request::Persist | Request::Warm => Reply(error_response(
            None,
            ErrorCode::BadRequest,
            "store administration is per-shard; send this verb to a shard directly",
            None,
        )),
        Request::Run(req) if draining => Reply(error_response(
            req.id.as_deref(),
            ErrorCode::Draining,
            "router is draining; submit to another instance",
            None,
        )),
        Request::RunTrace(req) if draining => Reply(error_response(
            req.id.as_deref(),
            ErrorCode::Draining,
            "router is draining; submit to another instance",
            None,
        )),
        Request::Run(req) => {
            // Forward the client's bytes verbatim: the router adds
            // nothing and rewrites nothing, so shard responses (keyed
            // by the same id) pass through byte-identical.
            let shard = ring.shard_for(&run_key(&req, cfg.max_cycles));
            pending.push(PendingForward {
                token,
                shard,
                line: format!("{line}\n"),
                id: req.id,
            });
            FrameDisposition::JobQueued
        }
        Request::RunTrace(req) => {
            // Trace jobs place by the same canonical key machinery —
            // the digest-derived name means byte-identical traces from
            // any client land on the same shard, and the frame still
            // forwards verbatim.
            let shard = ring.shard_for(&trace_key(&req, cfg.max_cycles));
            pending.push(PendingForward {
                token,
                shard,
                line: format!("{line}\n"),
                id: req.id,
            });
            FrameDisposition::JobQueued
        }
    }
}

/// Sends one queued forward to the least-loaded Up slot of its shard.
/// A fully-down shard — or a write that fails on the spot — resolves
/// the request with a synthesized `shard_unavailable` completion; the
/// client is never left waiting on a connection that cannot answer.
#[cfg(unix)]
fn dispatch_forward(
    shards: &mut [ShardState],
    fwd: PendingForward,
    counters: &mut Counters,
    completions: &mut Vec<(u64, String)>,
) {
    let shard = &mut shards[fwd.shard];
    let vi = shard
        .slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            Slot::Up(u) => Some((i, u.fifo.len())),
            Slot::Down { .. } => None,
        })
        .min_by_key(|&(_, depth)| depth)
        .map(|(i, _)| i);
    let Some(vi) = vi else {
        counters.shard_unavailable += 1;
        completions.push((
            fwd.token,
            error_response(
                fwd.id.as_deref(),
                ErrorCode::ShardUnavailable,
                &format!("shard {} ({}) is unreachable", fwd.shard, shard.addr),
                Some(shard.retry_after_ms()),
            ),
        ));
        return;
    };
    let Slot::Up(up) = &mut shard.slots[vi] else { unreachable!() };
    up.writer.push(&fwd.line);
    up.fifo.push_back(FifoEntry { token: fwd.token, id: fwd.id });
    counters.forwarded += 1;
    shard.forwarded += 1;
    // Opportunistic flush; leftovers drain on the next POLLOUT edge. A
    // hard failure takes the slot down, which synthesizes errors for
    // everything in its FIFO — including the forward just queued.
    if up.writer.write_some(&mut up.stream).is_err() {
        fail_slot_into(shard, vi, counters, completions);
    }
}

/// Services one Up slot's readiness edge: drain responses (each one
/// resolves the FIFO front), flush pending writes, and on any hard
/// failure take the slot Down and synthesize errors for everything it
/// still owed.
#[cfg(unix)]
fn service_upstream(
    shard: &mut ShardState,
    vi: usize,
    counters: &mut Counters,
    completions: &mut Vec<(u64, String)>,
) {
    let failed = {
        let Slot::Up(u) = &mut shard.slots[vi] else { return };
        let mut failed = false;
        loop {
            match u.reader.poll_line(&mut u.stream) {
                Poll::TimedOut => break,
                Poll::Line(l) => {
                    if let Some(entry) = u.fifo.pop_front() {
                        completions.push((entry.token, format!("{l}\n")));
                    }
                    // A frame with no FIFO owner is a shard protocol
                    // violation; drop it rather than misattribute.
                }
                Poll::BadUtf8 => {
                    // The line was consumed; its owner gets a typed
                    // failure and the stream stays usable.
                    if let Some(entry) = u.fifo.pop_front() {
                        completions.push((
                            entry.token,
                            error_response(
                                entry.id.as_deref(),
                                ErrorCode::InternalError,
                                "shard returned a non-UTF-8 frame",
                                None,
                            ),
                        ));
                    }
                }
                Poll::Eof | Poll::Err(_) | Poll::Oversized => {
                    failed = true;
                    break;
                }
            }
        }
        if !failed {
            if let Err(_e) = u.writer.write_some(&mut u.stream) {
                failed = true;
            }
        }
        failed
    };
    if failed {
        fail_slot_into(shard, vi, counters, completions);
    }
}

/// Takes slot `vi` Down (fresh backoff) and synthesizes a typed
/// `shard_unavailable` for every response it still owed.
#[cfg(unix)]
fn fail_slot_into(
    shard: &mut ShardState,
    vi: usize,
    counters: &mut Counters,
    completions: &mut Vec<(u64, String)>,
) {
    let old = std::mem::replace(
        &mut shard.slots[vi],
        Slot::Down { until: Instant::now() + RECONNECT_INITIAL, backoff: RECONNECT_INITIAL },
    );
    counters.upstream_failures += 1;
    if let Slot::Up(u) = old {
        let retry = shard.retry_after_ms();
        for entry in u.fifo {
            if entry.token == CONTROL_TOKEN {
                continue;
            }
            counters.shard_unavailable += 1;
            completions.push((
                entry.token,
                error_response(
                    entry.id.as_deref(),
                    ErrorCode::ShardUnavailable,
                    &format!("shard connection to {} failed mid-request", shard.addr),
                    Some(retry),
                ),
            ));
        }
    }
}

/// Attempts to connect every Down slot whose backoff expired.
#[cfg(unix)]
fn reconnect_due_slots(shards: &mut [ShardState], counters: &mut Counters) {
    let now = Instant::now();
    for shard in shards.iter_mut() {
        for slot in shard.slots.iter_mut() {
            let Slot::Down { until, backoff } = slot else { continue };
            if now < *until {
                continue;
            }
            match Stream::connect(&shard.addr) {
                Ok(stream) => {
                    if stream.set_nonblocking(true).is_err() {
                        let next = (*backoff * 2).min(RECONNECT_CAP);
                        *slot = Slot::Down { until: now + next, backoff: next };
                        continue;
                    }
                    counters.reconnects += 1;
                    *slot = Slot::Up(Upstream {
                        stream,
                        reader: FrameReader::new(MAX_UPSTREAM_FRAME),
                        writer: FrameWriter::new(),
                        fifo: VecDeque::new(),
                    });
                }
                Err(_) => {
                    let next = (*backoff * 2).min(RECONNECT_CAP);
                    *slot = Slot::Down { until: now + next, backoff: next };
                }
            }
        }
    }
}

/// Writes one `shutdown` frame to each shard (on its least-loaded Up
/// slot), tagged with the control token so the acknowledgement is
/// discarded. Shards drain themselves from there.
#[cfg(unix)]
fn propagate_shutdown(shards: &mut [ShardState]) {
    for shard in shards.iter_mut() {
        let slot = shard
            .slots
            .iter_mut()
            .filter_map(|s| match s {
                Slot::Up(u) => Some(u),
                Slot::Down { .. } => None,
            })
            .min_by_key(|u| u.fifo.len());
        if let Some(up) = slot {
            up.writer.push("{\"proto\":2,\"verb\":\"shutdown\"}\n");
            up.fifo.push_back(FifoEntry { token: CONTROL_TOKEN, id: None });
            let _ = up.writer.write_some(&mut up.stream);
        }
        // A fully-down shard gets nothing — it is already not serving,
        // and whoever supervises it (scc-load's spawn mode, CI) owns
        // its lifecycle.
    }
}

/// Accepts until `WouldBlock` with the same admission policy as the
/// server.
#[cfg(unix)]
fn accept_all(
    cfg: &RouterConfig,
    l: &Listener,
    conns: &mut HashMap<u64, Conn<Stream>>,
    next_token: &mut u64,
    counters: &mut Counters,
) -> io::Result<()> {
    while let Some(mut stream) = l.accept()? {
        counters.connections += 1;
        if conns.len() >= cfg.max_conns {
            counters.conns_refused += 1;
            let r = error_response(
                None,
                ErrorCode::OverCapacity,
                &format!("connection limit {} reached", cfg.max_conns),
                Some(100),
            );
            let _ = stream.set_nonblocking(true);
            let _ = stream.write(r.as_bytes());
            continue;
        }
        if let Err(e) = stream.set_nonblocking(true) {
            counters.setup_failures += 1;
            eprintln!("scc-route: set_nonblocking failed on accepted connection: {e}");
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        conns.insert(token, Conn::new(stream, MAX_FRAME_BYTES));
    }
    Ok(())
}

/// The `route.*` metric set behind the router's `stats` verb.
#[cfg(unix)]
fn route_metrics(
    cfg: &RouterConfig,
    shards: &[ShardState],
    counters: &Counters,
    draining: bool,
) -> Vec<Metric> {
    let counter = |name: String, v: u64| Metric { name, value: MetricValue::Counter(v) };
    let c = |name: &str, v: u64| counter(name.to_string(), v);
    let shards_up = shards.iter().filter(|s| s.up_slots() > 0).count();
    let slots_up: usize = shards.iter().map(|s| s.up_slots()).sum();
    let mut out = vec![
        c("route.shards", shards.len() as u64),
        c("route.shards.up", shards_up as u64),
        c("route.upstream.conns", (shards.len() * cfg.upstream_conns) as u64),
        c("route.upstream.conns_up", slots_up as u64),
        c("route.upstream.failures", counters.upstream_failures),
        c("route.reconnects", counters.reconnects),
        c("route.draining", u64::from(draining)),
        c("route.connections", counters.connections),
        c("route.conns.refused", counters.conns_refused),
        c("route.conns.max", cfg.max_conns as u64),
        c("route.net.setup_failures", counters.setup_failures),
        c("route.requests", counters.requests),
        c("route.forwarded", counters.forwarded),
        c("route.replies", counters.replies),
        c("route.shard_unavailable", counters.shard_unavailable),
    ];
    for (i, s) in shards.iter().enumerate() {
        out.push(counter(format!("route.shard.{i}.forwarded"), s.forwarded));
        out.push(counter(format!("route.shard.{i}.up"), s.up_slots() as u64));
    }
    out
}
