//! The in-server layers, measured in-process: the protocol, persist,
//! store and runner calls a serve request passes through, replayed on a
//! workload's own keys and results inside spans. Tracing inside the
//! server processes is left to the servers' own instrumentation.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;

use scc_serve::protocol::{arch_digest, parse_request, report_json, run_key};
use scc_sim::build::DEFAULT_MAX_CYCLES;
use scc_sim::{persist, run_workload, OptLevel, Runner, SimOptions, SimResult, StoreTier};

use crate::gen::Key;
use crate::span::{Trace, Tracer};
use crate::Outcome;

/// Passes over the result set for the cheap calls.
const ROUNDS: usize = 5;
/// A result whose memory image has at least this many words is in the
/// large pool (the per-reply digest cost is linear in the image).
pub const LARGE_WORDS: usize = 50_000;
/// A result whose memory image has fewer words is in the small pool.
pub const SMALL_WORDS: usize = 1_000;

/// The digest pool of a result: `large`, `small` or `mid`.
pub fn pool(r: &SimResult) -> &'static str {
    match r.snapshot.mem.len() {
        n if n >= LARGE_WORDS => "large",
        n if n < SMALL_WORDS => "small",
        _ => "mid",
    }
}

/// Replays each layer call on `pairs` inside spans on `tracer` (which
/// must be on), checking every round trip, and sets `persist.bytes`. A
/// digest pool absent from `pairs` is measured on a reference result
/// (mcf or perlbench at scale 100), so both pool metrics always exist.
/// `dir` holds the temporary store and is left for the caller to remove.
///
/// # Errors
///
/// Fails if the temporary store cannot be opened.
pub fn replay(
    pairs: &[(Key, Arc<SimResult>)],
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> io::Result<()> {
    debug_assert!(tracer.is_on());
    let mut bytes = Vec::with_capacity(pairs.len());
    for _ in 0..ROUNDS {
        for (i, (key, res)) in pairs.iter().enumerate() {
            let line = key.request_line(i as u64);
            let p = key.program;
            let parsed = tracer.span("protocol.parse", p, None, |_| {
                parse_request(black_box(&line))
            });
            out.check(parsed.is_ok());
            let req = key.run_request();
            tracer.span("protocol.key", p, None, |_| {
                black_box(run_key(black_box(&req), DEFAULT_MAX_CYCLES))
            });
            tracer.span("protocol.report", p, None, |_| {
                black_box(report_json(black_box(res)))
            });
            tracer.span("protocol.digest", pool(res), None, |_| {
                black_box(arch_digest(black_box(res)))
            });
            let enc = tracer.span("persist.encode", p, None, |_| {
                persist::encode_result(black_box(res))
            });
            let dec = tracer.span("persist.decode", p, None, |_| {
                persist::decode_result(black_box(&enc))
            });
            out.check(dec.is_some_and(|d| d.stats == res.stats && d.snapshot == res.snapshot));
            bytes.push(enc.len() as f64);
        }
    }
    for (program, want, detail) in [
        ("mcf", "large", "reference-large"),
        ("perlbench", "small", "reference-small"),
    ] {
        if pairs.iter().any(|(_, r)| pool(r) == want) {
            continue;
        }
        let level = OptLevel::Baseline;
        let reference = run_workload(
            &Key {
                program,
                level,
                iters: 100,
            }
            .build(),
            &SimOptions::new(level),
        );
        for _ in 0..ROUNDS * 4 {
            tracer.span("protocol.digest", detail, None, |_| {
                black_box(arch_digest(black_box(&reference)))
            });
        }
    }
    out.set_median("persist.bytes", &bytes);

    let tier = StoreTier::open(&dir.join("replay-store"))?;
    for (key, res) in pairs {
        let k = key.canonical();
        tracer.span("store.put", key.program, None, |_| tier.put(&k, res));
    }
    for (key, res) in pairs {
        let k = key.canonical();
        let got = tracer.span("store.get", key.program, None, |_| tier.get(&k));
        out.check(got.is_some_and(|g| g.snapshot == res.snapshot));
    }
    // Every key is now in the store, so the first probe promotes it into
    // the runner's LRU and the timed probes are warm hits.
    let runner = Runner::new().with_store(Arc::clone(&tier));
    let keys: Vec<(String, &'static str)> = pairs
        .iter()
        .map(|(k, _)| (k.canonical(), k.program))
        .collect();
    for (k, _) in &keys {
        out.check(runner.try_cached(k, None).is_some());
    }
    for _ in 0..ROUNDS {
        for (k, p) in &keys {
            let hit = tracer.span("runner.try_cached", p, None, |_| {
                runner.try_cached(black_box(k), None)
            });
            out.check(hit.is_some());
        }
    }
    Ok(())
}

/// Sets the per-layer metrics [`replay`]'s spans measure.
pub fn metrics(trace: &Trace, out: &mut Outcome) {
    let us = |ns: Vec<f64>| -> Vec<f64> { ns.iter().map(|v| v / 1e3).collect() };
    for (metric, span) in [
        ("protocol.parse_us", "protocol.parse"),
        ("protocol.key_us", "protocol.key"),
        ("protocol.report_us", "protocol.report"),
        ("persist.encode_us", "persist.encode"),
        ("persist.decode_us", "persist.decode"),
        ("store.put_us", "store.put"),
        ("store.get_us", "store.get"),
        ("runner.try_cached_us", "runner.try_cached"),
    ] {
        out.set_median(metric, &us(trace.durations_ns(span)));
    }
    let digests = |keep: &dyn Fn(&str) -> bool| -> Vec<f64> {
        let spans = trace
            .spans()
            .iter()
            .filter(|s| s.name == "protocol.digest" && keep(s.detail));
        us(spans.map(|s| s.dur_ns() as f64).collect())
    };
    out.set_median(
        "protocol.digest_us",
        &digests(&|d| !d.starts_with("reference")),
    );
    out.set_median(
        "protocol.digest_large_us",
        &digests(&|d| d.ends_with("large")),
    );
    out.set_median(
        "protocol.digest_small_us",
        &digests(&|d| d.ends_with("small")),
    );
    let build_ms: Vec<f64> = trace
        .durations_ns("workloads.build")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    out.set_median("workloads.build_ms", &build_ms);
}
