//! Restart-and-replay: boot the real `scc-serve` binary with a store
//! directory, populate it over the wire, `kill -9` the process, restart
//! it on the same directory, and replay the identical mix. The replayed
//! run must be answered almost entirely from the persistent tier
//! (warm-hit rate >= 0.9) and recovery must be clean.
//!
//! This test runs in its own process and talks to child processes, so
//! it does not share the in-process LRU with any other test.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use scc_isa::json::Json;
use scc_serve::loadgen::{run, stats_object, store_bench_json, LoadConfig};
use scc_serve::Addr;

fn temp_store_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scc-restart-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns `scc-serve --listen tcp:127.0.0.1:0 --store-dir <dir>` and
/// waits for its "tcp bound at" banner to learn the ephemeral port.
fn spawn_server(store_dir: &Path) -> (Child, Addr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scc-serve"))
        .args(["--listen", "tcp:127.0.0.1:0", "--workers", "2", "--queue", "16"])
        .arg("--store-dir")
        .arg(store_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn scc-serve");
    let stderr = child.stderr.take().expect("child stderr");
    let mut lines = BufReader::new(stderr).lines();
    let mut addr = None;
    for line in lines.by_ref() {
        let line = line.expect("read child stderr");
        if let Some(rest) = line.strip_prefix("scc-serve: tcp bound at ") {
            addr = Some(Addr::Tcp(rest.trim().to_string()));
            break;
        }
    }
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    let addr = addr.expect("scc-serve never announced its tcp address");
    (child, addr)
}

fn mix(addr: Addr) -> LoadConfig {
    LoadConfig {
        addr,
        conns: 2,
        requests_per_conn: 4,
        workload: "freqmine".to_string(),
        iters: 4200,
        level: "full-scc".to_string(),
        deadline_ms: None,
        distinct: 4,
        idle_conns: 0,
        sweep: Vec::new(),
        stats_addrs: Vec::new(),
    }
}

#[test]
fn killed_server_replays_warm_from_its_store() {
    let dir = temp_store_dir();

    // Populate: run the mix against a cold server, then SIGKILL it —
    // no drain, no flush; durability must come from the write path.
    let (mut child, addr) = spawn_server(&dir);
    let cold = run(&mix(addr)).expect("populate run");
    assert_eq!(cold.errors, 0, "populate run failed: {cold:?}");
    assert!(cold.ok >= 8, "populate run too small: {cold:?}");
    child.kill().expect("kill -9 scc-serve");
    child.wait().expect("reap scc-serve");

    // Restart on the same directory and replay the identical mix.
    let (mut child, addr) = spawn_server(&dir);
    let warm = run(&mix(addr.clone())).expect("replay run");
    assert_eq!(warm.errors, 0, "replay run failed: {warm:?}");
    assert!(
        warm.store_warm_hit_rate >= 0.9,
        "replay after kill -9 must be served warm from the store: {warm:?}"
    );

    // Recovery after an unclean death must be clean: every record the
    // populate run wrote is indexed, nothing corrupt, nothing skipped.
    let stats = stats_object(&addr).expect("final stats");
    let read = |name: &str| stats.get(name).and_then(Json::as_u64).unwrap_or(0);
    assert!(read("runner.store.recovered_records") >= 1, "{stats:?}");
    assert_eq!(read("runner.store.recovery_corrupt_skipped"), 0, "{stats:?}");
    assert_eq!(read("runner.store.recovery_torn_truncations"), 0, "{stats:?}");
    assert_eq!(read("runner.store.recovery_invalidated_segments"), 0, "{stats:?}");

    // The replay report renders as a valid BENCH_store document.
    let doc = store_bench_json(&warm, &stats);
    let j = Json::parse(&doc).expect("BENCH_store document parses");
    let rate = j.get("warm_hit_rate").and_then(Json::as_f64).expect("warm_hit_rate");
    assert!(rate >= 0.9, "{doc}");

    child.kill().expect("kill scc-serve");
    child.wait().expect("reap scc-serve");
    let _ = std::fs::remove_dir_all(&dir);
}
