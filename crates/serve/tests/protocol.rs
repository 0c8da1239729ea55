//! End-to-end protocol tests against a live in-process `scc-serve`.
//!
//! Each test boots its own server on an ephemeral loopback port, talks
//! to it over real sockets, and (where the acceptance criteria demand
//! it) checks the bytes on the wire against direct in-process
//! [`Runner`] execution.

use std::io;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use scc_serve::json::Json;
use scc_serve::protocol::{run_response, Proto, MAX_FRAME_BYTES};
use scc_serve::server::{Server, ServerConfig, ServerHandle};
use scc_serve::{Addr, Client};
use scc_sim::runner::{resolve_workload, Job};
use scc_sim::{Runner, SimOptions};
use scc_workloads::Scale;

/// Boots a server on `127.0.0.1:0` and returns its address, a drain
/// handle, and the join handle of the serving thread.
fn start(cfg: ServerConfig) -> (Addr, ServerHandle, thread::JoinHandle<io::Result<()>>) {
    let server = Server::bind(&[Addr::Tcp("127.0.0.1:0".to_string())], cfg).expect("bind");
    let addr: SocketAddr = server.local_tcp_addr().expect("tcp addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());
    (Addr::Tcp(addr.to_string()), handle, join)
}

fn small_cfg() -> ServerConfig {
    ServerConfig { workers: 2, queue_depth: 8, ..ServerConfig::default() }
}

/// The response `scc-serve` must produce for a `run` request, computed
/// by executing the job directly on an in-process runner and rendering
/// it through the same deterministic report path.
fn expected_run_response(id: &str, workload: &str, iters: i64, level: scc_sim::OptLevel) -> String {
    let w = resolve_workload(workload, Scale::custom(iters)).expect("workload");
    let opts = SimOptions::new(level);
    let job = Job::new(&w, &opts);
    let one = Runner::new().run_fresh(&job, None, Some(id), false).expect("direct run");
    run_response(Proto::V2, Some(id), &one.result, None)
}

fn drain_and_join(handle: &ServerHandle, join: thread::JoinHandle<io::Result<()>>) {
    handle.drain();
    join.join().expect("serve thread").expect("serve result");
}

/// Polls the `stats` verb until `pred` holds on the stats object, with
/// a 30s backstop so a broken server fails the test instead of hanging.
fn wait_for(probe: &mut Client, pred: impl Fn(&Json) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = probe.request_json("{\"proto\":2,\"verb\":\"stats\"}").unwrap();
        let stats = s.get("stats").expect("stats object");
        if pred(stats) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting on stats; last: {stats:?}");
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn health_stats_and_malformed_frames_share_a_connection() {
    let (addr, handle, join) = start(small_cfg());
    let mut c = Client::connect(&addr).unwrap();

    let h = c.request_json("{\"proto\":2,\"verb\":\"health\"}").unwrap();
    assert_eq!(h.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(h.get("status").and_then(Json::as_str), Some("ok"));

    // Malformed JSON → typed bad_frame, and the connection survives.
    let e = c.request_json("{\"proto\":2,\"verb\":").unwrap();
    assert_eq!(e.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        e.get("error").and_then(|x| x.get("code")).and_then(Json::as_str),
        Some("bad_frame")
    );

    // Invalid UTF-8 → bad_frame, connection survives.
    c.send_raw(b"\xff\xfe\n").unwrap();
    let e = Json::parse(&c.read_response().unwrap()).unwrap();
    assert_eq!(
        e.get("error").and_then(|x| x.get("code")).and_then(Json::as_str),
        Some("bad_frame")
    );

    // Unknown verb → typed error carrying the request id.
    let e = c.request_json("{\"proto\":2,\"verb\":\"dance\",\"id\":\"r-7\"}").unwrap();
    assert_eq!(
        e.get("error").and_then(|x| x.get("code")).and_then(Json::as_str),
        Some("unknown_verb")
    );
    assert_eq!(e.get("id").and_then(Json::as_str), Some("r-7"));

    // Stats exposes the queue and cache registries.
    let s = c.request_json("{\"proto\":2,\"verb\":\"stats\"}").unwrap();
    let stats = s.get("stats").expect("stats object");
    assert_eq!(stats.get("serve.workers").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("serve.queue.depth").and_then(Json::as_u64), Some(8));
    assert!(stats.get("runner.cache.capacity").and_then(Json::as_u64).is_some());

    drain_and_join(&handle, join);
}

#[test]
fn frames_outside_the_v2_envelope_are_rejected_and_serving_continues() {
    let (addr, handle, join) = start(small_cfg());
    let mut c = Client::connect(&addr).unwrap();
    for line in [
        "{\"verb\":\"health\",\"id\":\"old-1\"}",
        "{\"proto\":1,\"verb\":\"health\",\"id\":\"old-1\"}",
        "{\"proto\":3,\"verb\":\"health\",\"id\":\"old-1\"}",
    ] {
        let e = c.request_json(line).unwrap();
        assert_eq!(e.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        assert_eq!(e.get("proto").and_then(Json::as_u64), Some(2), "{line}");
        assert_eq!(e.get("id").and_then(Json::as_str), Some("old-1"), "{line}");
        assert_eq!(
            e.get("error").and_then(|x| x.get("code")).and_then(Json::as_str),
            Some("unsupported_proto"),
            "{line}"
        );
        // The same connection keeps serving v2 frames.
        let h = c.request_json("{\"proto\":2,\"verb\":\"health\"}").unwrap();
        assert_eq!(h.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(h.get("status").and_then(Json::as_str), Some("ok"));
    }
    drain_and_join(&handle, join);
}

#[test]
fn unknown_workloads_are_clean_protocol_errors() {
    let (addr, handle, join) = start(small_cfg());
    let mut c = Client::connect(&addr).unwrap();
    let e = c
        .request_json("{\"proto\":2,\"verb\":\"run\",\"id\":\"bad-wl\",\"workload\":\"frobnicate\"}")
        .unwrap();
    assert_eq!(e.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        e.get("error").and_then(|x| x.get("code")).and_then(Json::as_str),
        Some("unknown_workload")
    );
    assert_eq!(e.get("id").and_then(Json::as_str), Some("bad-wl"));
    // The connection is still good for a real job afterwards.
    let ok = c
        .request_json("{\"proto\":2,\"verb\":\"run\",\"id\":\"after\",\"workload\":\"freqmine\",\"iters\":120}")
        .unwrap();
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    drain_and_join(&handle, join);
}

#[test]
fn truncated_frames_are_discarded_not_executed() {
    let (addr, handle, join) = start(small_cfg());
    let mut c = Client::connect(&addr).unwrap();
    // A half-sent request with no newline: the server must not act on
    // it; closing the write half leads to EOF with no response.
    c.send_raw(b"{\"proto\":2,\"verb\":\"run\",\"workload\":\"freq").unwrap();
    drop(c);
    // The server is still healthy for the next client.
    let mut c2 = Client::connect(&addr).unwrap();
    let h = c2.request_json("{\"proto\":2,\"verb\":\"health\"}").unwrap();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("ok"));
    drain_and_join(&handle, join);
}

#[test]
fn oversized_frames_get_a_typed_error_then_the_connection_closes() {
    let (addr, handle, join) = start(small_cfg());
    let mut c = Client::connect(&addr).unwrap();
    let huge = vec![b'x'; MAX_FRAME_BYTES + 4096];
    c.send_raw(&huge).unwrap();
    let e = Json::parse(&c.read_response().unwrap()).unwrap();
    assert_eq!(
        e.get("error").and_then(|x| x.get("code")).and_then(Json::as_str),
        Some("oversized_frame")
    );
    // Mid-frame recovery is impossible; the server hangs up.
    assert!(c.read_response().is_err());
    drain_and_join(&handle, join);
}

#[test]
fn concurrent_clients_get_byte_identical_reports_to_direct_execution() {
    const CONNS: usize = 32;
    const PER_CONN: usize = 2;
    let (addr, handle, join) = start(ServerConfig { workers: 4, queue_depth: 128, ..ServerConfig::default() });

    let mut threads = Vec::new();
    for conn in 0..CONNS {
        let addr = addr.clone();
        threads.push(thread::spawn(move || -> io::Result<Vec<(String, String)>> {
            let mut c = Client::connect(&addr)?;
            let mut got = Vec::new();
            for seq in 0..PER_CONN {
                let iters = 90 + (conn % 4) as i64 * 10;
                let id = format!("c{conn}-r{seq}");
                let line = format!(
                    "{{\"proto\":2,\"verb\":\"run\",\"id\":\"{id}\",\"workload\":\"freqmine\",\"iters\":{iters},\"level\":\"full-scc\"}}"
                );
                let resp = c.request(&line)?;
                got.push((id, format!("{resp}\n")));
            }
            Ok(got)
        }));
    }

    let mut all = Vec::new();
    for t in threads {
        all.extend(t.join().expect("client thread").expect("client io"));
    }
    assert_eq!(all.len(), CONNS * PER_CONN);

    // Every response must match direct in-process execution, byte for
    // byte — whether the service answered it fresh or from cache.
    for (id, resp) in &all {
        let conn: usize = id[1..id.find('-').unwrap()].parse().unwrap();
        let iters = 90 + (conn % 4) as i64 * 10;
        let expected = expected_run_response(id, "freqmine", iters, scc_sim::OptLevel::Full);
        assert_eq!(resp, &expected, "response for {id} diverges from direct execution");
    }
    drain_and_join(&handle, join);
}

#[test]
fn a_full_queue_rejects_with_a_retry_hint() {
    // One worker, queue of one: a long-running job plus a queued job
    // saturate the service; further submissions must be rejected
    // immediately with queue_full + retry_after_ms.
    let (addr, handle, join) =
        start(ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() });

    // The saturating jobs are deliberately large: the overflow probe
    // below must land while the blocker is still executing, on any
    // machine speed. Readiness is observed through `stats`, not sleeps.
    let blocker = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request_json(
                "{\"proto\":2,\"verb\":\"run\",\"id\":\"blocker\",\"workload\":\"freqmine\",\"iters\":60011}",
            )
            .unwrap()
        })
    };
    // Fill the queue's single slot...
    let filler = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let mut probe = Client::connect(&addr).unwrap();
            // Enqueue only once the blocker holds the worker, so this
            // request occupies the queue slot rather than the worker.
            wait_for(&mut probe, |s| {
                s.get("serve.in_flight").and_then(Json::as_u64) == Some(1)
            });
            c.request_json(
                "{\"proto\":2,\"verb\":\"run\",\"id\":\"filler\",\"workload\":\"freqmine\",\"iters\":60012}",
            )
            .unwrap()
        })
    };
    {
        let mut probe = Client::connect(&addr).unwrap();
        wait_for(&mut probe, |s| {
            s.get("serve.in_flight").and_then(Json::as_u64) == Some(1)
                && s.get("serve.queue.len").and_then(Json::as_u64) == Some(1)
        });
    }

    // ...and overflow it.
    let mut c = Client::connect(&addr).unwrap();
    let e = c
        .request_json("{\"proto\":2,\"verb\":\"run\",\"id\":\"overflow\",\"workload\":\"freqmine\",\"iters\":8013}")
        .unwrap();
    assert_eq!(e.get("ok").and_then(Json::as_bool), Some(false), "overflow response: {e:?}");
    let err = e.get("error").expect("error object");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("queue_full"));
    let hint = err.get("retry_after_ms").and_then(Json::as_u64).expect("retry hint");
    assert!(hint >= 10, "retry_after_ms = {hint}");

    // The saturating jobs themselves complete fine.
    let b = blocker.join().unwrap();
    assert_eq!(b.get("ok").and_then(Json::as_bool), Some(true));
    let f = filler.join().unwrap();
    assert_eq!(f.get("ok").and_then(Json::as_bool), Some(true));
    drain_and_join(&handle, join);
}

#[test]
fn deadline_exceeded_is_reported_and_does_not_poison_the_cache() {
    let (addr, handle, join) = start(small_cfg());
    let mut c = Client::connect(&addr).unwrap();

    // A job far larger than its 1 ms deadline: cancelled (mid-run or
    // while queued — both are deadline_exceeded on the wire).
    let e = c
        .request_json(
            "{\"proto\":2,\"verb\":\"run\",\"id\":\"dl\",\"workload\":\"freqmine\",\"iters\":8021,\"deadline_ms\":1}",
        )
        .unwrap();
    assert_eq!(e.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        e.get("error").and_then(|x| x.get("code")).and_then(Json::as_str),
        Some("deadline_exceeded")
    );

    // The identical job without a deadline must now run to completion
    // and match direct execution exactly — a cancelled run must never
    // have published a partial result into the shared cache.
    let resp = c
        .request("{\"proto\":2,\"verb\":\"run\",\"id\":\"dl\",\"workload\":\"freqmine\",\"iters\":8021}")
        .unwrap();
    let expected = expected_run_response("dl", "freqmine", 8021, scc_sim::OptLevel::Full);
    assert_eq!(format!("{resp}\n"), expected);
    drain_and_join(&handle, join);
}

#[test]
fn audited_runs_return_the_decision_log() {
    let (addr, handle, join) = start(small_cfg());
    let mut c = Client::connect(&addr).unwrap();
    let r = c
        .request_json(
            "{\"proto\":2,\"verb\":\"run\",\"id\":\"aud\",\"workload\":\"freqmine\",\"iters\":130,\"audit\":true}",
        )
        .unwrap();
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    match r.get("audit") {
        Some(Json::Arr(events)) => assert!(!events.is_empty(), "audit log empty"),
        other => panic!("missing audit array: {other:?}"),
    }
    drain_and_join(&handle, join);
}

#[test]
fn shutdown_drains_finishing_in_flight_work() {
    let (addr, _handle, join) =
        start(ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() });

    // A long job goes in-flight...
    let inflight = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request_json(
                "{\"proto\":2,\"verb\":\"run\",\"id\":\"inflight\",\"workload\":\"freqmine\",\"iters\":8031}",
            )
            .unwrap()
        })
    };
    thread::sleep(Duration::from_millis(300));

    // ...then a second connection orders the drain.
    let mut c = Client::connect(&addr).unwrap();
    let d = c.request_json("{\"proto\":2,\"verb\":\"shutdown\"}").unwrap();
    assert_eq!(d.get("status").and_then(Json::as_str), Some("draining"));

    // The in-flight job still completes successfully.
    let r = inflight.join().unwrap();
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "in-flight run: {r:?}");

    // And the server exits cleanly.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !join.is_finished() {
        assert!(Instant::now() < deadline, "serve() did not return after drain");
        thread::sleep(Duration::from_millis(20));
    }
    join.join().expect("serve thread").expect("serve result");

    // New connections are refused once drained.
    assert!(Client::connect(&addr).is_err());
}
