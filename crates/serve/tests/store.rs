//! End-to-end tests of the persistent store tier behind `scc-serve`:
//! the `persist`/`warm` verbs, warm-start byte-identity with direct
//! execution, graceful degradation on bad store directories, and the
//! drain-time flush.
//!
//! Each `Server` owns its runner, so a restarted server starts with an
//! empty LRU over the same disk, and the tests run concurrently.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use scc_serve::json::Json;
use scc_serve::protocol::{run_response, Proto};
use scc_serve::server::{Server, ServerConfig, ServerHandle};
use scc_serve::{Addr, Client};
use scc_sim::runner::{resolve_workload, Job, StoreTier};
use scc_sim::{Runner, SimOptions};
use scc_workloads::Scale;

fn temp_store_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("scc-serve-store-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(cfg: ServerConfig) -> (Addr, ServerHandle, thread::JoinHandle<io::Result<()>>) {
    let server = Server::bind(&[Addr::Tcp("127.0.0.1:0".to_string())], cfg).expect("bind");
    let addr: SocketAddr = server.local_tcp_addr().expect("tcp addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());
    (Addr::Tcp(addr.to_string()), handle, join)
}

fn store_cfg(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 8,
        store_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn drain_and_join(handle: &ServerHandle, join: thread::JoinHandle<io::Result<()>>) {
    handle.drain();
    join.join().expect("serve thread").expect("serve result");
}

fn run_line(id: &str, iters: i64) -> String {
    format!(
        "{{\"proto\":2,\"verb\":\"run\",\"id\":\"{id}\",\"workload\":\"freqmine\",\"iters\":{iters},\"level\":\"full-scc\"}}"
    )
}

/// The byte-exact response a warm-started server must produce: direct
/// in-process execution on a new runner through the same report
/// renderer.
fn expected_run_response(id: &str, iters: i64) -> String {
    let w = resolve_workload("freqmine", Scale::custom(iters)).expect("workload");
    let job = Job::new(&w, &SimOptions::new(scc_sim::OptLevel::Full));
    let one = Runner::new().run_fresh(&job, None, Some(id), false).expect("direct run");
    run_response(Proto::V2, Some(id), &one.result, None)
}

fn stat(j: &Json, name: &str) -> u64 {
    j.get("stats")
        .and_then(|s| s.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stat {name} missing: {j:?}"))
}

#[test]
fn persist_and_warm_verbs_round_trip_through_the_store() {
    let dir = temp_store_dir("verbs");
    let (addr, handle, join) = start(store_cfg(&dir));
    let mut c = Client::connect(&addr).unwrap();

    // Store-backed server advertises the tier in stats.
    let s = c.request_json("{\"proto\":2,\"verb\":\"stats\"}").unwrap();
    assert_eq!(stat(&s, "serve.store.enabled"), 1);
    assert_eq!(stat(&s, "serve.store.degraded"), 0);
    assert_eq!(stat(&s, "runner.store.writes"), 0);

    // A fresh run writes through to the store.
    let r = c.request_json(&run_line("w-1", 4101)).unwrap();
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    let s = c.request_json("{\"proto\":2,\"verb\":\"stats\"}").unwrap();
    assert_eq!(stat(&s, "runner.store.writes"), 1);

    // `persist` fsyncs and reports the write count.
    let p = c.request_json("{\"proto\":2,\"verb\":\"persist\"}").unwrap();
    assert_eq!(p.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(p.get("status").and_then(Json::as_str), Some("persisted"));
    assert_eq!(p.get("writes").and_then(Json::as_u64), Some(1));

    // `warm` promotes every live record into the LRU.
    let w = c.request_json("{\"proto\":2,\"verb\":\"warm\"}").unwrap();
    assert_eq!(w.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(w.get("status").and_then(Json::as_str), Some("warmed"));
    assert_eq!(w.get("entries").and_then(Json::as_u64), Some(1));
    let s = c.request_json("{\"proto\":2,\"verb\":\"stats\"}").unwrap();
    assert_eq!(stat(&s, "runner.store.preloaded"), 1);

    drain_and_join(&handle, join);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_started_server_is_byte_identical_to_direct_execution() {
    let dir = temp_store_dir("warmstart");

    // Cold server: simulate once, response written through to disk.
    let (addr, handle, join) = start(store_cfg(&dir));
    let mut c = Client::connect(&addr).unwrap();
    let cold = format!("{}\n", c.request(&run_line("ws-1", 4102)).unwrap());
    drop(c);
    drain_and_join(&handle, join); // drain flushes the store

    // Restart: a new server, so a cold LRU over the same disk.
    let (addr, handle, join) = start(store_cfg(&dir));
    let mut c = Client::connect(&addr).unwrap();
    let warm = format!("{}\n", c.request(&run_line("ws-1", 4102)).unwrap());
    let s = c.request_json("{\"proto\":2,\"verb\":\"stats\"}").unwrap();
    assert_eq!(
        stat(&s, "runner.store.hits"),
        1,
        "restarted server must have served from the store: {s:?}"
    );
    assert_eq!(stat(&s, "runner.cache.hits"), 0, "the restarted LRU starts empty");
    assert_eq!(stat(&s, "runner.cache.misses"), 1);
    assert_eq!(stat(&s, "runner.store.recovered_records"), 1);
    drain_and_join(&handle, join);

    assert_eq!(cold, warm, "warm-start response diverges from the cold run");
    let expected = expected_run_response("ws-1", 4102);
    assert_eq!(warm, expected, "warm-start response diverges from direct execution");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unopenable_store_dir_degrades_to_cold_serving() {
    // Point --store-dir at a regular file: the store cannot open, but
    // the server must come up and serve cold.
    let file = temp_store_dir("degraded-file");
    std::fs::write(&file, b"i am a file, not a directory").unwrap();
    let (addr, handle, join) = start(store_cfg(&file));
    let mut c = Client::connect(&addr).unwrap();

    let s = c.request_json("{\"proto\":2,\"verb\":\"stats\"}").unwrap();
    assert_eq!(stat(&s, "serve.store.enabled"), 0);
    assert_eq!(stat(&s, "serve.store.degraded"), 1);

    // Runs still work (cold).
    let r = c.request_json(&run_line("deg-1", 4103)).unwrap();
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));

    // Store verbs are clean typed errors, naming the degradation.
    for verb in ["persist", "warm"] {
        let e = c.request_json(&format!("{{\"proto\":2,\"verb\":\"{verb}\"}}")).unwrap();
        assert_eq!(e.get("ok").and_then(Json::as_bool), Some(false));
        let err = e.get("error").expect("error object");
        assert_eq!(err.get("code").and_then(Json::as_str), Some("store_unavailable"));
        assert!(
            err.get("message").and_then(Json::as_str).unwrap().contains("failed to open"),
            "{e:?}"
        );
    }
    drain_and_join(&handle, join);
    let _ = std::fs::remove_file(&file);
}

#[test]
fn corrupt_store_contents_serve_cold_not_garbage() {
    // A directory full of junk segment files: recovery discards them
    // all, warm finds nothing, and runs still work.
    let dir = temp_store_dir("degraded-corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seg-0000000000000001.log"), vec![0xAB; 4096]).unwrap();
    std::fs::write(dir.join("seg-0000000000000002.log"), b"SCCSTOR1 but then garbage").unwrap();

    let (addr, handle, join) = start(store_cfg(&dir));
    let mut c = Client::connect(&addr).unwrap();
    let s = c.request_json("{\"proto\":2,\"verb\":\"stats\"}").unwrap();
    assert_eq!(stat(&s, "serve.store.enabled"), 1, "junk contents are not a degraded store");
    assert_eq!(stat(&s, "runner.store.recovered_records"), 0);
    assert!(stat(&s, "runner.store.recovery_invalidated_segments") >= 2);

    let w = c.request_json("{\"proto\":2,\"verb\":\"warm\"}").unwrap();
    assert_eq!(w.get("entries").and_then(Json::as_u64), Some(0));

    let r = c.request_json(&run_line("cor-1", 4104)).unwrap();
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    drain_and_join(&handle, join);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persist_and_warm_without_a_store_are_typed_errors() {
    let (addr, handle, join) =
        start(ServerConfig { workers: 1, queue_depth: 4, ..ServerConfig::default() });
    let mut c = Client::connect(&addr).unwrap();
    for verb in ["persist", "warm"] {
        let e = c.request_json(&format!("{{\"proto\":2,\"verb\":\"{verb}\"}}")).unwrap();
        let err = e.get("error").expect("error object");
        assert_eq!(err.get("code").and_then(Json::as_str), Some("store_unavailable"));
        assert!(
            err.get("message").and_then(Json::as_str).unwrap().contains("--store-dir"),
            "{e:?}"
        );
    }
    let s = c.request_json("{\"proto\":2,\"verb\":\"stats\"}").unwrap();
    assert_eq!(stat(&s, "serve.store.enabled"), 0);
    assert_eq!(stat(&s, "serve.store.degraded"), 0);
    drain_and_join(&handle, join);
}

#[test]
fn drain_flushes_store_writes_before_exit() {
    let dir = temp_store_dir("drainflush");
    let (addr, handle, join) = start(store_cfg(&dir));
    let mut c = Client::connect(&addr).unwrap();
    let r = c.request_json(&run_line("df-1", 4105)).unwrap();
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    // Shutdown via the verb — no explicit persist.
    let d = c.request_json("{\"proto\":2,\"verb\":\"shutdown\"}").unwrap();
    assert_eq!(d.get("status").and_then(Json::as_str), Some("draining"));
    join.join().expect("serve thread").expect("serve result");
    let _ = handle;

    // The drained store recovers the record fully synced: nothing torn,
    // nothing corrupt.
    let tier = StoreTier::open(&dir).expect("reopen after drain");
    let rec = tier.recovery();
    assert_eq!(rec.records_indexed, 1, "drain must flush the write-through record");
    assert_eq!(rec.torn_truncations, 0);
    assert_eq!(rec.corrupt_records_skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
