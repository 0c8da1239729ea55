//! `scc-serve`: a resident simulation service over the shared
//! [`scc_sim::Runner`], plus its client and load generator.
//!
//! The binary crates `scc-serve` and `scc-load` are thin shells over
//! this library:
//!
//! - [`server`] — listeners (TCP + Unix), the single-threaded
//!   `poll(2)` readiness loop, the bounded job queue with `queue_full`
//!   backpressure, admission control, deadline enforcement, and
//!   graceful drain;
//! - [`conn`] — the per-connection nonblocking state machine
//!   (read-accumulate → parse → enqueue → buffered write-drain), with
//!   one-outstanding-run fairness;
//! - [`sys`] — the minimal `poll(2)`/`pipe(2)`/`rlimit` FFI shim (no
//!   libc crate, same idiom as [`signal`]);
//! - [`protocol`] — the NDJSON wire grammar and the deterministic
//!   report rendering (byte-identical to direct in-process execution);
//! - [`frame`] — resumable newline framing (reader and
//!   short-write-safe writer) with a size cap; frames parse with the
//!   workspace's one JSON reader, [`scc_isa::json::Json`];
//! - [`ring`] / [`route`] — the consistent-hash ring and the
//!   `scc-route` shard router: clients connect to the router as if it
//!   were a shard, each `run` is hashed on its canonical job key and
//!   forwarded verbatim to the owning backend, and a down shard
//!   degrades to typed `shard_unavailable` errors with reconnect
//!   backoff (see `PROTOCOL.md` and `ARCHITECTURE.md` §10);
//! - [`client`] / [`loadgen`] / [`spawn`] — a blocking client, the
//!   concurrent load driver behind `results/BENCH_serve.json`, and the
//!   multi-process topology launcher for router+shard scaling sweeps;
//! - [`signal`] — the SIGTERM/SIGINT drain hook.
//!
//! Everything is std-only: no async runtime, no serde, no signal or
//! libc crates — matching the repo's zero-registry-dependency rule.
//! The readiness loop itself is Unix-only (it multiplexes raw fds);
//! the client, load generator, and protocol code are portable.

#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod frame;
pub mod loadgen;
pub mod net;
pub mod protocol;
pub mod ring;
pub mod route;
pub mod server;
pub mod signal;
pub mod spawn;
pub mod sys;

/// The workspace's JSON module, [`scc_isa::json`], re-exported so that
/// `scc_serve::json::Json` keeps resolving for the benchmark package
/// (`perfbench/`), which imports it by that path.
pub use scc_isa::json;

pub use client::Client;
pub use net::Addr;
pub use route::{Router, RouterConfig, RouterHandle};
pub use server::{Server, ServerConfig, ServerHandle};
