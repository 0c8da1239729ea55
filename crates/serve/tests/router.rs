//! End-to-end tests for `scc-route`: in-process shards behind an
//! in-process router, over real sockets.
//!
//! The correctness bar (the PR's acceptance criterion): responses
//! routed through `scc-route` are **byte-identical** to direct
//! in-process [`Runner`] execution, at 256+ concurrent connections —
//! and a dead shard degrades to typed `shard_unavailable` errors
//! without disturbing the other shard's traffic, then recovers cleanly
//! when the shard returns.

use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use scc_serve::json::Json;
use scc_serve::net::Stream;
use scc_serve::protocol::{run_key, run_response, Proto, RunRequest};
use scc_serve::ring::Ring;
use scc_serve::route::{Router, RouterConfig, RouterHandle};
use scc_serve::server::{Server, ServerConfig, ServerHandle};
use scc_serve::{Addr, Client};
use scc_sim::runner::{resolve_workload, Job};
use scc_sim::{OptLevel, Runner, SimOptions};
use scc_workloads::Scale;

type Joiner = thread::JoinHandle<io::Result<()>>;

fn shard_cfg() -> ServerConfig {
    ServerConfig { workers: 2, queue_depth: 1024, ..ServerConfig::default() }
}

fn start_shard(addr: &str, cfg: ServerConfig) -> (Addr, ServerHandle, Joiner) {
    let server = Server::bind(&[Addr::Tcp(addr.to_string())], cfg).expect("bind shard");
    let bound: SocketAddr = server.local_tcp_addr().expect("tcp addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());
    (Addr::Tcp(bound.to_string()), handle, join)
}

fn start_router(shards: Vec<Addr>, upstream_conns: usize) -> (Addr, RouterHandle, Joiner) {
    let cfg = RouterConfig { shards, upstream_conns, ..RouterConfig::default() };
    let router = Router::bind(&[Addr::Tcp("127.0.0.1:0".to_string())], cfg).expect("bind router");
    let bound: SocketAddr = router.local_tcp_addr().expect("tcp addr");
    let handle = router.handle();
    let join = thread::spawn(move || router.serve());
    (Addr::Tcp(bound.to_string()), handle, join)
}

/// Polls the router's `stats` until `pred` holds (30s backstop).
fn wait_for_stats(addr: &Addr, pred: impl Fn(&Json) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        // Reconnect each probe: the router may be mid-recovery.
        if let Ok(mut c) = Client::connect(addr) {
            if let Ok(s) = c.request_json("{\"proto\":2,\"verb\":\"stats\"}") {
                let stats = s.get("stats").expect("stats object");
                if pred(stats) {
                    return;
                }
                if Instant::now() >= deadline {
                    panic!("timed out waiting on router stats; last: {stats:?}");
                }
            }
        }
        assert!(Instant::now() < deadline, "timed out waiting on router stats");
        thread::sleep(Duration::from_millis(20));
    }
}

fn shards_up(n: u64) -> impl Fn(&Json) -> bool {
    move |s| s.get("route.shards.up").and_then(Json::as_u64) == Some(n)
}

/// The request and expected byte-exact response for one job shape.
fn shape(i: i64) -> (String, String) {
    let id = format!("rt-{i}");
    let iters = 120 + (i % 8);
    let req = format!(
        "{{\"proto\":2,\"verb\":\"run\",\"id\":\"{id}\",\"workload\":\"freqmine\",\"iters\":{iters},\"level\":\"full-scc\"}}\n"
    );
    let w = resolve_workload("freqmine", Scale::custom(iters)).expect("workload");
    let opts = SimOptions::new(OptLevel::Full);
    let job = Job::new(&w, &opts);
    let one = Runner::new().run_fresh(&job, None, Some(&id), false).expect("direct run");
    (req, run_response(Proto::V2, Some(&id), &one.result, None))
}

/// The ring shard a freqmine/full-scc shape with these iters lands on,
/// computed exactly as the router computes it.
fn owner_of(iters: i64, shards: usize) -> usize {
    let req = RunRequest {
        id: None,
        workload: "freqmine".into(),
        iters,
        level: OptLevel::Full,
        max_cycles: None,
        deadline_ms: None,
        audit: false,
    };
    Ring::new(shards).shard_for(&run_key(&req, scc_sim::build::DEFAULT_MAX_CYCLES))
}

/// Iters values (freqmine/full-scc) owned by shard 0 and shard 1 of a
/// two-shard ring.
fn one_key_per_shard() -> (i64, i64) {
    let mut owned = [None, None];
    for iters in 100..200 {
        let s = owner_of(iters, 2);
        if owned[s].is_none() {
            owned[s] = Some(iters);
        }
        if owned.iter().all(Option::is_some) {
            break;
        }
    }
    (owned[0].expect("a shard-0 key"), owned[1].expect("a shard-1 key"))
}

#[test]
fn routed_responses_are_byte_identical_at_256_connections() {
    const CONNS: usize = 256;
    let limit = scc_serve::sys::raise_nofile_limit().expect("raise fd limit");
    assert!(limit > 3 * CONNS as u64 + 64, "fd limit {limit} too low");

    let (a0, h0, j0) = start_shard("127.0.0.1:0", shard_cfg());
    let (a1, h1, j1) = start_shard("127.0.0.1:0", shard_cfg());
    let (ra, rh, rj) = start_router(vec![a0, a1], 4);
    wait_for_stats(&ra, shards_up(2));

    // Expected bytes per shape, from direct in-process execution.
    let expected: Vec<(String, String)> = (0..8).map(shape).collect();

    // Hold all 256 connections open at once, write every request, then
    // read every response — the router multiplexes all of them over
    // 2 shards x 4 upstream connections.
    let mut conns = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let s = Stream::connect(&ra).unwrap_or_else(|e| panic!("connect {i}: {e}"));
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        conns.push(s);
    }
    for (i, s) in conns.iter_mut().enumerate() {
        let (req, _) = &expected[i % 8];
        s.write_all(req.as_bytes()).unwrap_or_else(|e| panic!("write {i}: {e}"));
    }
    let mut failures = Vec::new();
    for (i, s) in conns.into_iter().enumerate() {
        let (_, want) = &expected[i % 8];
        let mut r = BufReader::new(s);
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) => failures.push(format!("conn {i}: closed before responding")),
            Ok(_) => {
                if &line != want {
                    failures.push(format!(
                        "conn {i}: routed response differs from direct execution\n got: {line} want: {want}"
                    ));
                }
            }
            Err(e) => failures.push(format!("conn {i}: read: {e}")),
        }
        if failures.len() > 5 {
            break;
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));

    // Per-shard counters prove the work actually spread across shards.
    let mut c = Client::connect(&ra).unwrap();
    let s = c.request_json("{\"proto\":2,\"verb\":\"stats\"}").unwrap();
    let stats = s.get("stats").unwrap();
    let fwd0 = stats.get("route.shard.0.forwarded").and_then(Json::as_u64).unwrap();
    let fwd1 = stats.get("route.shard.1.forwarded").and_then(Json::as_u64).unwrap();
    assert_eq!(fwd0 + fwd1, CONNS as u64, "all requests forwarded");
    assert!(fwd0 > 0 && fwd1 > 0, "placement spread: {fwd0}/{fwd1}");
    assert_eq!(stats.get("route.shard_unavailable").and_then(Json::as_u64), Some(0));
    drop(c);

    rh.drain();
    rj.join().expect("router thread").expect("router result");
    // Drain propagated: both shards wind down from the router's
    // shutdown frames, without their own handles being touched.
    j0.join().expect("shard 0 thread").expect("shard 0 result");
    j1.join().expect("shard 1 thread").expect("shard 1 result");
    let _ = (h0, h1);
}

#[test]
fn pipelined_requests_across_shards_come_back_in_order() {
    let (a0, _h0, j0) = start_shard("127.0.0.1:0", shard_cfg());
    let (a1, _h1, j1) = start_shard("127.0.0.1:0", shard_cfg());
    let (ra, rh, rj) = start_router(vec![a0, a1], 2);
    wait_for_stats(&ra, shards_up(2));

    // One connection alternating between a shard-0-owned and a
    // shard-1-owned key: the one-outstanding-per-connection policy
    // means responses must come back strictly in request order even
    // though they execute on different backends.
    let (k0, k1) = one_key_per_shard();
    let mut c = Client::connect(&ra).unwrap();
    let mut want = Vec::new();
    for round in 0..6 {
        let iters = if round % 2 == 0 { k0 } else { k1 };
        let id = format!("ord-{round}");
        let got = c
            .request_json(&format!(
                "{{\"proto\":2,\"verb\":\"run\",\"id\":\"{id}\",\"workload\":\"freqmine\",\"iters\":{iters}}}"
            ))
            .unwrap();
        assert_eq!(got.get("ok").and_then(Json::as_bool), Some(true), "{got:?}");
        assert_eq!(got.get("id").and_then(Json::as_str), Some(id.as_str()));
        want.push(got.get("report").and_then(|r| r.get("cycles")).cloned());
    }
    // Same key -> same report, across shards, every round.
    assert_eq!(want[0], want[2]);
    assert_eq!(want[1], want[3]);

    rh.drain();
    rj.join().unwrap().unwrap();
    j0.join().unwrap().unwrap();
    j1.join().unwrap().unwrap();
}

#[test]
fn key_verb_agrees_between_router_shard_and_ring() {
    let (a0, _h0, j0) = start_shard("127.0.0.1:0", shard_cfg());
    let (ra, rh, rj) = start_router(vec![a0.clone()], 1);
    wait_for_stats(&ra, shards_up(1));

    let req = "{\"proto\":2,\"verb\":\"key\",\"id\":\"k\",\"workload\":\"freqmine\",\"iters\":321,\"level\":\"full-scc\"}";
    let via_router = Client::connect(&ra).unwrap().request_json(req).unwrap();
    let via_shard = Client::connect(&a0).unwrap().request_json(req).unwrap();
    let rk = via_router.get("key").and_then(Json::as_str).unwrap().to_string();
    let sk = via_shard.get("key").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(rk, sk, "router and shard must agree on the canonical key");

    // And both match the in-process canonical serialization — the
    // string the shard's cache and store actually use.
    let w = resolve_workload("freqmine", Scale::custom(321)).unwrap();
    let opts = SimOptions::new(OptLevel::Full);
    assert_eq!(rk, Job::new(&w, &opts).key());

    rh.drain();
    rj.join().unwrap().unwrap();
    j0.join().unwrap().unwrap();
}

#[test]
fn a_dead_shard_degrades_to_typed_errors_and_recovers() {
    let (a0, h0, j0) = start_shard("127.0.0.1:0", shard_cfg());
    let (a1, _h1, j1) = start_shard("127.0.0.1:0", shard_cfg());
    let shard0_addr = match &a0 { Addr::Tcp(hp) => hp.clone(), _ => unreachable!() };
    let (ra, rh, rj) = start_router(vec![a0, a1], 2);
    wait_for_stats(&ra, shards_up(2));

    let (k0, k1) = one_key_per_shard();
    let run_frame = |id: &str, iters: i64| {
        format!("{{\"proto\":2,\"verb\":\"run\",\"id\":\"{id}\",\"workload\":\"freqmine\",\"iters\":{iters}}}")
    };

    // Kill shard 0 directly (not through the router): the router finds
    // out the hard way, via connection failures.
    h0.drain();
    j0.join().unwrap().unwrap();
    wait_for_stats(&ra, shards_up(1));

    // Shard-0 keys: typed, retryable, with a sane backoff hint.
    let mut c = Client::connect(&ra).unwrap();
    let e = c.request_json(&run_frame("dead", k0)).unwrap();
    assert_eq!(e.get("ok").and_then(Json::as_bool), Some(false), "{e:?}");
    let err = e.get("error").expect("error object");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("shard_unavailable"));
    let hint = err.get("retry_after_ms").and_then(Json::as_u64).expect("retry hint");
    assert!(hint > 0 && hint <= 30_000, "retry_after_ms = {hint}");

    // Shard-1 keys on the same connection: completely unaffected, and
    // still byte-identical to direct execution.
    let ok = c.request_json(&run_frame("alive", k1)).unwrap();
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true), "{ok:?}");
    assert_eq!(ok.get("id").and_then(Json::as_str), Some("alive"));

    // Resurrect shard 0 on its old address (retry: the port may take a
    // moment to free) and wait out the router's reconnect backoff.
    let deadline = Instant::now() + Duration::from_secs(10);
    let revived = loop {
        match Server::bind(&[Addr::Tcp(shard0_addr.clone())], shard_cfg()) {
            Ok(s) => break s,
            Err(e) => {
                assert!(Instant::now() < deadline, "rebind {shard0_addr}: {e}");
                thread::sleep(Duration::from_millis(100));
            }
        }
    };
    let h0b = revived.handle();
    let j0b = thread::spawn(move || revived.serve());
    wait_for_stats(&ra, shards_up(2));

    // Clean reconnect: shard-0 keys serve again on a fresh connection.
    let mut c2 = Client::connect(&ra).unwrap();
    let back = c2.request_json(&run_frame("back", k0)).unwrap();
    assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true), "{back:?}");
    assert_eq!(back.get("id").and_then(Json::as_str), Some("back"));

    // The router observed real failures and real reconnects.
    let mut cs = Client::connect(&ra).unwrap();
    let s = cs.request_json("{\"proto\":2,\"verb\":\"stats\"}").unwrap();
    let stats = s.get("stats").unwrap();
    assert!(stats.get("route.upstream.failures").and_then(Json::as_u64).unwrap() > 0);
    assert!(stats.get("route.shard_unavailable").and_then(Json::as_u64).unwrap() > 0);
    drop((c, c2, cs));

    rh.drain();
    rj.join().unwrap().unwrap();
    j1.join().unwrap().unwrap();
    let _ = h0b;
    j0b.join().unwrap().unwrap();
}

#[test]
fn the_shutdown_verb_drains_router_and_shards() {
    let (a0, _h0, j0) = start_shard("127.0.0.1:0", shard_cfg());
    let (a1, _h1, j1) = start_shard("127.0.0.1:0", shard_cfg());
    let (ra, _rh, rj) = start_router(vec![a0, a1], 2);
    wait_for_stats(&ra, shards_up(2));

    // The wire verb, not the in-process handle: this is the path
    // `scc-load --shards` and operators use.
    let mut c = Client::connect(&ra).unwrap();
    let ack = c.request_json("{\"proto\":2,\"verb\":\"shutdown\"}").unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack:?}");
    assert_eq!(ack.get("status").and_then(Json::as_str), Some("draining"));
    drop(c);

    // One verb winds down the whole topology: the router exits, and
    // its propagated shutdown frames drain both shards too.
    rj.join().unwrap().unwrap();
    j0.join().unwrap().unwrap();
    j1.join().unwrap().unwrap();
}

#[test]
fn v2_frames_route_with_v2_responses() {
    let (a0, _h0, j0) = start_shard("127.0.0.1:0", shard_cfg());
    let (ra, rh, rj) = start_router(vec![a0], 1);
    wait_for_stats(&ra, shards_up(1));

    let mut c = Client::connect(&ra).unwrap();
    let got = c
        .request_json(
            "{\"proto\":2,\"verb\":\"run\",\"id\":\"v2\",\"workload\":\"freqmine\",\"iters\":140}",
        )
        .unwrap();
    assert_eq!(got.get("ok").and_then(Json::as_bool), Some(true), "{got:?}");
    // The shard echoes the v2 envelope straight through the router.
    assert_eq!(got.get("proto").and_then(Json::as_u64), Some(2));
    assert_eq!(got.get("id").and_then(Json::as_str), Some("v2"));
    // The router speaks only this envelope too.
    let e = c.request_json("{\"verb\":\"health\",\"id\":\"old\"}").unwrap();
    assert_eq!(e.get("proto").and_then(Json::as_u64), Some(2));
    assert_eq!(e.get("id").and_then(Json::as_str), Some("old"));
    assert_eq!(
        e.get("error").and_then(|x| x.get("code")).and_then(Json::as_str),
        Some("unsupported_proto")
    );

    rh.drain();
    rj.join().unwrap().unwrap();
    j0.join().unwrap().unwrap();
}
