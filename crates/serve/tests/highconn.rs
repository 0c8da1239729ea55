//! The acceptance test for the readiness event loop: 1,000 concurrent
//! connections served through a single I/O thread with zero protocol
//! errors, every response byte-identical to direct in-process
//! [`Runner`] execution.
//!
//! The run uses a handful of distinct job shapes so most requests are
//! cache hits — the point is connection-multiplexing scale, not
//! simulator throughput — but identity is asserted on every response,
//! fresh and cached alike.

use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use scc_serve::net::Stream;
use scc_serve::protocol::{run_response, Proto};
use scc_serve::server::{Server, ServerConfig, ServerHandle};
use scc_serve::Addr;
use scc_sim::runner::{resolve_workload, Job};
use scc_sim::{OptLevel, Runner, SimOptions};
use scc_workloads::Scale;

const CONNS: usize = 1_000;
const SHAPES: i64 = 5;
const BASE_ITERS: i64 = 120;

fn start(cfg: ServerConfig) -> (Addr, ServerHandle, thread::JoinHandle<io::Result<()>>) {
    let server = Server::bind(&[Addr::Tcp("127.0.0.1:0".to_string())], cfg).expect("bind");
    let addr: SocketAddr = server.local_tcp_addr().expect("tcp addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());
    (Addr::Tcp(addr.to_string()), handle, join)
}

/// One direct in-process execution per job shape; responses for every
/// connection are rendered from these results with the connection's
/// own id — the same pure rendering the server uses.
fn direct_results() -> Vec<std::sync::Arc<scc_sim::SimResult>> {
    (0..SHAPES)
        .map(|k| {
            let w = resolve_workload("freqmine", Scale::custom(BASE_ITERS + k)).expect("workload");
            let opts = SimOptions::new(OptLevel::Full);
            let job = Job::new(&w, &opts);
            Runner::new().run_fresh(&job, None, false).expect("direct run").result
        })
        .collect()
}

#[test]
fn a_thousand_connections_share_one_io_thread_byte_identically() {
    // The test process itself needs >1k fds for its client sockets.
    let limit = scc_serve::sys::raise_nofile_limit().expect("raise fd limit");
    assert!(limit > 2 * CONNS as u64 + 64, "fd limit {limit} too low for {CONNS} connections");

    // The queue is deeper than the connection count so backpressure
    // (`queue_full`) cannot race into this identity check — overload
    // behavior has its own tests.
    let (addr, handle, join) = start(ServerConfig {
        workers: 2,
        queue_depth: 2 * CONNS,
        max_conns: CONNS + 16,
        ..ServerConfig::default()
    });

    // Open every connection before sending anything: the server must
    // hold all 1k open simultaneously on its single poll set.
    let mut conns = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let s = Stream::connect(&addr).unwrap_or_else(|e| panic!("connect {i}: {e}"));
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        conns.push(s);
    }

    // Phase 1: every connection writes its request (the server parses
    // and queues as readiness allows)...
    for (i, s) in conns.iter_mut().enumerate() {
        let iters = BASE_ITERS + (i as i64 % SHAPES);
        let req = format!(
            "{{\"proto\":2,\"verb\":\"run\",\"id\":\"hc-{i}\",\"workload\":\"freqmine\",\"iters\":{iters},\"level\":\"full-scc\"}}\n"
        );
        s.write_all(req.as_bytes()).unwrap_or_else(|e| panic!("write {i}: {e}"));
    }

    // ...then every connection reads its response. Expected bytes come
    // from direct in-process execution of the same five shapes.
    let direct = direct_results();
    let mut failures = Vec::new();
    for (i, s) in conns.into_iter().enumerate() {
        let shape = i % SHAPES as usize;
        let want = run_response(Proto::V2, Some(&format!("hc-{i}")), &direct[shape], None);
        let mut r = BufReader::new(s);
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) => failures.push(format!("conn {i}: server closed before responding")),
            Ok(_) => {
                if line != want {
                    failures.push(format!(
                        "conn {i}: response differs from direct execution\n got: {line} want: {want}"
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

    handle.drain();
    join.join().expect("serve thread").expect("serve result");
}
