//! End-to-end tests for `run-trace` ingestion: externally compiled
//! `SCCTRACE1` blobs served over real sockets.
//!
//! The correctness bar mirrors the router suite: a trace job served
//! over a Unix socket, and the same job forwarded through `scc-route`,
//! must both be **byte-identical** to direct in-process [`Runner`]
//! execution of the decoded program. Corrupt, truncated, and
//! version-stale blobs must come back as typed `bad_trace` errors —
//! never a dropped connection — and the session must keep serving
//! afterwards.

use std::borrow::Cow;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};
use std::{env, io};

use scc_lang::corpus;
use scc_lang::trace;
use scc_serve::json::Json;
use scc_serve::protocol::{run_response, Proto};
use scc_serve::route::{Router, RouterConfig};
use scc_serve::server::{Server, ServerConfig, ServerHandle};
use scc_serve::{Addr, Client};
use scc_sim::runner::{trace_workload_name, Job};
use scc_sim::{OptLevel, Runner, SimOptions};
use scc_workloads::{Scale, Suite, Workload};

type Joiner = thread::JoinHandle<io::Result<()>>;

fn shard_cfg() -> ServerConfig {
    ServerConfig { workers: 2, queue_depth: 64, ..ServerConfig::default() }
}

/// A fresh Unix socket path under the system temp dir, unique per
/// (process, tag) so parallel tests never collide.
fn sock_path(tag: &str) -> PathBuf {
    env::temp_dir().join(format!("scc-trace-{}-{tag}.sock", std::process::id()))
}

fn start_unix_shard(tag: &str) -> (Addr, ServerHandle, Joiner, PathBuf) {
    let path = sock_path(tag);
    let addr = Addr::Unix(path.clone());
    let server = Server::bind(std::slice::from_ref(&addr), shard_cfg()).expect("bind unix shard");
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());
    (addr, handle, join, path)
}

fn start_tcp_shard() -> (Addr, ServerHandle, Joiner) {
    let server =
        Server::bind(&[Addr::Tcp("127.0.0.1:0".to_string())], shard_cfg()).expect("bind shard");
    let bound: SocketAddr = server.local_tcp_addr().expect("tcp addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());
    (Addr::Tcp(bound.to_string()), handle, join)
}

/// The `SCCTRACE1` blob for a corpus program compiled at `O2`, plus
/// its stamp-independent program digest.
fn corpus_trace(name: &str, iters: i64) -> (Vec<u8>, u64) {
    let g = corpus::find(name).expect("corpus program");
    let c = g.compile(scc_lang::Opt::O2, iters).expect("corpus compiles");
    let digest = trace::program_digest(&c.program);
    (trace::encode(&c.program, "external-frontend 9.9.9"), digest)
}

/// What the server must answer for a trace job, computed by decoding
/// the same blob and running it in-process — the same synthesis
/// `submit_trace` performs, executed without any serving machinery.
fn direct_response(blob: &[u8], id: &str, level: OptLevel) -> String {
    let t = trace::decode(blob).expect("blob decodes");
    let w = Workload {
        name: Cow::Owned(trace_workload_name(t.digest)),
        suite: Suite::Guest,
        program: t.program,
        description: "ingested SCCTRACE1 program",
        scale: Scale::custom(1),
    };
    let opts = SimOptions::new(level);
    let job = Job::new(&w, &opts);
    let one = Runner::new().run_fresh(&job, None, Some(id), false).expect("direct run");
    // `Client::request` strips the NDJSON line delimiter; strip it here
    // too so the comparison covers the full rendered frame body.
    run_response(Proto::V2, Some(id), &one.result, None).trim_end_matches('\n').to_string()
}

fn run_trace_frame(id: &str, b64: &str, level: &str) -> String {
    format!(r#"{{"proto":2,"verb":"run-trace","id":"{id}","trace":"{b64}","level":"{level}"}}"#)
}

#[test]
fn run_trace_over_a_unix_socket_is_byte_identical_to_direct_execution() {
    let (addr, handle, join, path) = start_unix_shard("direct");
    let (blob, digest) = corpus_trace("cksum", 3);
    let b64 = trace::to_base64(&blob);

    let mut c = Client::connect(&addr).expect("connect over unix socket");

    // The key verb with a trace payload answers without executing:
    // the canonical content key is pinned to the program digest.
    let key = c
        .request_json(&format!(r#"{{"proto":2,"verb":"key","trace":"{b64}"}}"#))
        .expect("key frame");
    let key_str = key.get("key").and_then(Json::as_str).expect("key string");
    let want_prefix = format!("{}|iters=1|", trace_workload_name(digest));
    assert!(
        key_str.starts_with(&want_prefix),
        "trace key `{key_str}` must start with `{want_prefix}`"
    );

    // The run itself: byte-identical to in-process execution.
    let got = c.request(&run_trace_frame("ux-1", &b64, "full-scc")).expect("run-trace frame");
    let want = direct_response(&blob, "ux-1", OptLevel::Full);
    assert_eq!(got, want, "unix-socket run-trace differs from direct execution");

    // A second level on the same connection exercises a distinct
    // config key under the same digest name.
    let got = c.request(&run_trace_frame("ux-2", &b64, "baseline")).expect("second run-trace");
    let want = direct_response(&blob, "ux-2", OptLevel::Baseline);
    assert_eq!(got, want, "baseline run-trace differs from direct execution");

    drop(c);
    handle.drain();
    join.join().expect("shard thread").expect("shard result");
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_trace_through_the_router_is_byte_identical_to_direct_execution() {
    let (a0, _h0, j0) = start_tcp_shard();
    let (a1, _h1, j1) = start_tcp_shard();
    let cfg = RouterConfig { shards: vec![a0, a1], upstream_conns: 2, ..RouterConfig::default() };
    let router = Router::bind(&[Addr::Tcp("127.0.0.1:0".to_string())], cfg).expect("bind router");
    let bound: SocketAddr = router.local_tcp_addr().expect("router tcp addr");
    let ra = Addr::Tcp(bound.to_string());
    let rh = router.handle();
    let rj = thread::spawn(move || router.serve());
    wait_for_shards_up(&ra, 2);

    // Distinct corpus programs land on ring positions by content key;
    // every routed response must match direct execution byte for byte.
    let mut forwarded = 0u64;
    for (i, name) in ["cksum", "sieve", "sort"].iter().enumerate() {
        let (blob, _) = corpus_trace(name, 2);
        let b64 = trace::to_base64(&blob);
        let id = format!("rt-{i}");
        let mut c = Client::connect(&ra).expect("connect router");
        let got = c.request(&run_trace_frame(&id, &b64, "full-scc")).expect("routed run-trace");
        let want = direct_response(&blob, &id, OptLevel::Full);
        assert_eq!(got, want, "routed `{name}` trace differs from direct execution");
        forwarded += 1;
    }

    let mut c = Client::connect(&ra).expect("router stats");
    let s = c.request_json("{\"proto\":2,\"verb\":\"stats\"}").expect("stats");
    let stats = s.get("stats").expect("stats object");
    let fwd0 = stats.get("route.shard.0.forwarded").and_then(Json::as_u64).unwrap_or(0);
    let fwd1 = stats.get("route.shard.1.forwarded").and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(fwd0 + fwd1, forwarded, "every run-trace frame was forwarded");
    drop(c);

    rh.drain();
    rj.join().expect("router thread").expect("router result");
    j0.join().expect("shard 0 thread").expect("shard 0 result");
    j1.join().expect("shard 1 thread").expect("shard 1 result");
}

/// Polls the router's `stats` until `n` shards report up (30s backstop).
fn wait_for_shards_up(addr: &Addr, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            if let Ok(s) = c.request_json("{\"proto\":2,\"verb\":\"stats\"}") {
                let up = s
                    .get("stats")
                    .and_then(|t| t.get("route.shards.up"))
                    .and_then(Json::as_u64);
                if up == Some(n) {
                    return;
                }
            }
        }
        assert!(Instant::now() < deadline, "timed out waiting for {n} shards");
        thread::sleep(Duration::from_millis(20));
    }
}

/// Asserts an error frame: `ok:false` with the given v2 `code`.
fn assert_error_code(resp: &Json, code: &str, what: &str) {
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false), "{what}: must be an error");
    let got = resp.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
    assert_eq!(got, Some(code), "{what}: wrong error code");
}

#[test]
fn corrupt_truncated_and_stale_traces_get_typed_errors_and_serving_continues() {
    let (addr, handle, join, path) = start_unix_shard("reject");
    let (blob, _) = corpus_trace("matmul", 2);
    let mut c = Client::connect(&addr).expect("connect over unix socket");

    // Truncated: half the blob. The length header no longer matches.
    let truncated = trace::to_base64(&blob[..blob.len() / 2]);
    let r = c
        .request_json(&run_trace_frame("bad-1", &truncated, "full-scc"))
        .expect("truncated frame answered");
    assert_error_code(&r, "bad_trace", "truncated blob");

    // Corrupt: flip a bit in the last body byte; the CRC catches it.
    let mut flipped = blob.clone();
    *flipped.last_mut().unwrap() ^= 0x40;
    let r = c
        .request_json(&run_trace_frame("bad-2", &trace::to_base64(&flipped), "full-scc"))
        .expect("corrupt frame answered");
    assert_error_code(&r, "bad_trace", "CRC-corrupt blob");

    // Version-stale: a future format version right after the magic.
    let mut stale = blob.clone();
    stale[8] = 0xEE;
    let r = c
        .request_json(&run_trace_frame("bad-3", &trace::to_base64(&stale), "full-scc"))
        .expect("stale frame answered");
    assert_error_code(&r, "bad_trace", "version-stale blob");

    // Not base64 at all.
    let r = c
        .request_json(r#"{"proto":2,"verb":"run-trace","id":"bad-4","trace":"@@@@"}"#)
        .expect("non-base64 frame answered");
    assert_error_code(&r, "bad_trace", "non-base64 payload");

    // Missing payload is a malformed request, not a trace error.
    let r = c
        .request_json(r#"{"proto":2,"verb":"run-trace","id":"bad-5"}"#)
        .expect("payload-less frame answered");
    assert_error_code(&r, "bad_request", "missing trace payload");

    // The same connection still serves good work after five rejects.
    let b64 = trace::to_base64(&blob);
    let got = c.request(&run_trace_frame("good-1", &b64, "full-scc")).expect("good frame");
    let want = direct_response(&blob, "good-1", OptLevel::Full);
    assert_eq!(got, want, "serving must continue after rejected traces");

    drop(c);
    handle.drain();
    join.join().expect("shard thread").expect("shard result");
    let _ = std::fs::remove_file(path);
}
