//! The `scc-serve` wire protocol: newline-delimited JSON frames in one
//! envelope, version 2.
//!
//! # Grammar
//!
//! Every frame is one JSON object on one line (`\n`-terminated, at most
//! [`MAX_FRAME_BYTES`] bytes). Requests carry `"proto":2` and a `verb`:
//!
//! ```text
//! {"proto":2,"verb":"run","id":"r-1","workload":"freqmine","iters":800,
//!  "level":"full-scc","deadline_ms":2000,"max_cycles":400000000,
//!  "audit":false}
//! {"proto":2,"verb":"run-trace","id":"t-1","trace":"<base64 SCCTRACE1>",
//!  "level":"full-scc","deadline_ms":2000,"max_cycles":400000000,"audit":false}
//! {"proto":2,"verb":"key","workload":"freqmine","iters":800,"level":"full-scc"}
//! {"proto":2,"verb":"key","trace":"<base64 SCCTRACE1>","level":"full-scc"}
//! {"proto":2,"verb":"stats"}
//! {"proto":2,"verb":"health"}
//! {"proto":2,"verb":"persist"}
//! {"proto":2,"verb":"warm"}
//! {"proto":2,"verb":"shutdown"}
//! ```
//!
//! Every response, errors included, carries the same envelope:
//!
//! ```text
//! {"ok":true,"proto":2,"id":"r-1","report":{...}}
//! {"ok":false,"proto":2,"id":"r-1","error":{"code":"queue_full",
//!  "message":"...","retry_after_ms":120}}
//! ```
//!
//! A request whose `proto` is missing or is anything but `2` is
//! rejected with `unsupported_proto` (echoing its `id` when that
//! parses), in that same envelope; the connection keeps serving. The
//! envelope is this module's decision alone: callers render replies
//! through [`ok_response`], [`error_response`], [`key_response`] and the
//! `run` renderers, none of which takes a version.
//!
//! # Error codes
//!
//! Errors carry a code from the closed [`ErrorCode`] enum. The split
//! that matters operationally is [`ErrorCode::is_retryable`]: a
//! retryable error (`queue_full`,
//! `shard_unavailable`, `over_capacity`, `draining`) means *this
//! request could succeed later or elsewhere* — the deopt-style
//! recoverable invalidation — while everything else is a hard fault of
//! the request itself.
//!
//! The `report` object is a *pure function of the simulation result* —
//! no timestamps, no cache provenance — so a response is byte-identical
//! whether the job was simulated fresh, resolved from the shared cache,
//! executed by a direct in-process [`Runner`](scc_sim::Runner), or
//! relayed through `scc-route`. The regression suites hold both the
//! service and the router to that.

use crate::json::Json;
use scc_isa::json::{escape, push_escaped};
use scc_pipeline::{Metric, MetricValue};
use scc_sim::{OptLevel, RunOne, SimOptions, SimResult};
use std::fmt::Write as _;

/// Hard cap on one request frame. Well above any legitimate request
/// (a few hundred bytes) and well below anything that could pressure
/// server memory.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Upper bound a client may set for `iters` (workload scale). Keeps a
/// single request from monopolizing a worker for minutes.
pub const MAX_ITERS: i64 = 100_000;

/// Default workload scale when a `run` request omits `iters`.
pub const DEFAULT_ITERS: i64 = 1000;

/// The wire envelope version. There is one; [`run_response`] names it
/// so its callers state which envelope they compare against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// `"proto":2` on every frame; errors carry a closed `code`.
    V2,
}

/// The envelope marker every response carries after `"ok":…,`.
const ENVELOPE: &str = "\"proto\":2,";

/// The closed set of machine-readable error codes, so a router or
/// client can branch on them without string contracts scattered across
/// the codebase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ErrorCode {
    /// The frame was not a JSON object (or not valid UTF-8).
    BadFrame,
    /// The frame parsed but a field was missing or malformed.
    BadRequest,
    /// The `verb` is not part of the protocol.
    UnknownVerb,
    /// The frame exceeded [`MAX_FRAME_BYTES`]; the connection closes.
    OversizedFrame,
    /// The `proto` field was missing or named a version other than 2.
    UnsupportedProto,
    /// The job queue is at capacity; retry after `retry_after_ms`.
    QueueFull,
    /// The connection limit is reached; retry against another instance.
    OverCapacity,
    /// The server is draining and accepts no new work.
    Draining,
    /// The request's deadline expired (while queued or mid-run).
    DeadlineExceeded,
    /// The workload did not halt within its cycle budget.
    BudgetExhausted,
    /// The workload name does not exist in the suite.
    UnknownWorkload,
    /// The `run-trace` payload was not a valid `SCCTRACE1` blob
    /// (bad base64, bad magic, version mismatch, truncation, CRC
    /// failure, or a malformed program body).
    BadTrace,
    /// No persistent store is attached (or it failed to open).
    StoreUnavailable,
    /// The persistent store failed an I/O operation.
    StoreIo,
    /// The shard owning this job's key is down; retry after
    /// `retry_after_ms` (the router's reconnect backoff).
    ShardUnavailable,
    /// The job's worker panicked or another invariant broke.
    InternalError,
}

impl ErrorCode {
    /// The wire string, sent as the error's `code`.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownVerb => "unknown_verb",
            ErrorCode::OversizedFrame => "oversized_frame",
            ErrorCode::UnsupportedProto => "unsupported_proto",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::OverCapacity => "over_capacity",
            ErrorCode::Draining => "draining",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::BudgetExhausted => "budget_exhausted",
            ErrorCode::UnknownWorkload => "unknown_workload",
            ErrorCode::BadTrace => "bad_trace",
            ErrorCode::StoreUnavailable => "store_unavailable",
            ErrorCode::StoreIo => "store_io",
            ErrorCode::ShardUnavailable => "shard_unavailable",
            ErrorCode::InternalError => "internal_error",
        }
    }

    /// Parses an error's `code` back into the closed set. `None` means
    /// the peer spoke a code outside the protocol — treat as
    /// non-retryable.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        [
            ErrorCode::BadFrame,
            ErrorCode::BadRequest,
            ErrorCode::UnknownVerb,
            ErrorCode::OversizedFrame,
            ErrorCode::UnsupportedProto,
            ErrorCode::QueueFull,
            ErrorCode::OverCapacity,
            ErrorCode::Draining,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BudgetExhausted,
            ErrorCode::UnknownWorkload,
            ErrorCode::BadTrace,
            ErrorCode::StoreUnavailable,
            ErrorCode::StoreIo,
            ErrorCode::ShardUnavailable,
            ErrorCode::InternalError,
        ]
        .into_iter()
        .find(|c| c.as_str() == s)
    }

    /// The [`JobError`](scc_sim::runner::JobError) discriminants map
    /// into the closed set here, so the simulation layer never grows a
    /// parallel string contract.
    pub fn from_job_error(e: &scc_sim::runner::JobError) -> ErrorCode {
        ErrorCode::parse(e.kind()).unwrap_or(ErrorCode::InternalError)
    }

    /// True when the same request could succeed later (or on another
    /// instance): the recoverable-invalidation half of the error space.
    /// Everything else is a hard fault of the request itself.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::QueueFull
                | ErrorCode::OverCapacity
                | ErrorCode::Draining
                | ErrorCode::ShardUnavailable
        )
    }
}

/// A parsed `run` request.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRequest {
    /// Client-chosen request ID, echoed on the response and propagated
    /// into the runner's trace track.
    pub id: Option<String>,
    /// Workload name (validated against the suite by the worker).
    pub workload: String,
    /// Workload scale (base loop iterations).
    pub iters: i64,
    /// Optimization level.
    pub level: OptLevel,
    /// Optional cycle-budget override (clamped by the server).
    pub max_cycles: Option<u64>,
    /// Optional deadline, milliseconds from request receipt.
    pub deadline_ms: Option<u64>,
    /// Request the SCC decision audit log of the run.
    pub audit: bool,
}

/// A parsed `run-trace` request: an externally compiled program shipped
/// as a versioned `SCCTRACE1` blob (base64 in the JSON frame), plus the
/// same execution knobs as `run`. The payload is fully validated at
/// parse time — magic, versions, CRC, and program reconstruction — so a
/// frame that parses can always be executed.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRequest {
    /// Client-chosen request ID, echoed on the response.
    pub id: Option<String>,
    /// The decoded (binary) `SCCTRACE1` bytes, already validated.
    pub trace_bytes: Vec<u8>,
    /// The trace's content digest (`scc_lang::trace::program_digest`),
    /// from which the job's `trace:<digest>` workload name derives.
    pub digest: u64,
    /// Optimization level.
    pub level: OptLevel,
    /// Optional cycle-budget override (clamped by the server).
    pub max_cycles: Option<u64>,
    /// Optional deadline, milliseconds from request receipt.
    pub deadline_ms: Option<u64>,
    /// Request the SCC decision audit log of the run.
    pub audit: bool,
}

impl TraceRequest {
    /// The equivalent run-shaped request: workload named by content
    /// digest, scale pinned to 1 (the program is fully specified — there
    /// is nothing to scale). Everything downstream of admission — the
    /// job key, the result cache, the store, ring placement — sees an
    /// ordinary [`RunRequest`] through this view, which is how trace
    /// jobs get uniform treatment with zero special cases.
    pub fn as_run_request(&self) -> RunRequest {
        RunRequest {
            id: self.id.clone(),
            workload: scc_sim::runner::trace_workload_name(self.digest),
            iters: 1,
            level: self.level,
            max_cycles: self.max_cycles,
            deadline_ms: self.deadline_ms,
            audit: self.audit,
        }
    }
}

/// A parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Simulate one job.
    Run(RunRequest),
    /// Simulate one ingested `SCCTRACE1` program.
    RunTrace(TraceRequest),
    /// Return the canonical content key of a run-shaped request — the
    /// exact string the cache and store identify the result by and the
    /// string `scc-route` hashes for shard placement. Takes the same
    /// fields as `run` (`deadline_ms`/`audit` are accepted and
    /// ignored; they are not part of the key).
    Key(RunRequest),
    /// Return the canonical content key of a `run-trace`-shaped request
    /// (the `key` verb with a `trace` field instead of a `workload`).
    KeyTrace(TraceRequest),
    /// Service introspection: queue, counters, cache.
    Stats,
    /// Liveness/readiness: `ok` or `draining`.
    Health,
    /// Fsync the persistent store's active segment (durability barrier).
    Persist,
    /// Promote every live store record into the in-memory result cache.
    Warm,
    /// Begin graceful drain: stop accepting, finish in-flight, exit.
    Shutdown,
}

/// A protocol-level rejection (the frame never became a job).
#[derive(Clone, Debug, PartialEq)]
pub struct ProtoError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Request ID, when the frame parsed far enough to reveal one.
    pub id: Option<String>,
}

impl ProtoError {
    fn new(code: ErrorCode, message: impl Into<String>, id: Option<String>) -> ProtoError {
        ProtoError { code, message: message.into(), id }
    }

    /// The error frame answering the rejected request.
    pub fn response(&self) -> String {
        error_response(self.id.as_deref(), self.code, &self.message, None)
    }
}

/// Parses an optimization level from its table label (the same labels
/// `OptLevel::label` prints).
pub fn parse_level(label: &str) -> Option<OptLevel> {
    OptLevel::all().into_iter().find(|l| l.label() == label)
}

/// Parses one request frame. Only the version-2 envelope is accepted.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    use ErrorCode as E;
    let doc = Json::parse(line)
        .map_err(|e| ProtoError::new(E::BadFrame, format!("malformed JSON: {e}"), None))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(ProtoError::new(E::BadFrame, "frame must be a JSON object", None));
    }
    let id = doc.get("id").and_then(Json::as_str).map(str::to_string);
    // The envelope version gates everything else.
    if doc.get("proto").and_then(Json::as_u64) != Some(2) {
        return Err(ProtoError::new(E::UnsupportedProto, "`proto` must be 2", id));
    }
    if let Some(id_field) = doc.get("id") {
        if id_field.as_str().is_none() {
            return Err(ProtoError::new(E::BadRequest, "`id` must be a string", None));
        }
        if id.as_deref().is_some_and(|s| s.len() > 128) {
            return Err(ProtoError::new(E::BadRequest, "`id` longer than 128 bytes", None));
        }
    }
    let verb = match doc.get("verb").and_then(Json::as_str) {
        Some(v) => v,
        None => return Err(ProtoError::new(E::BadRequest, "missing `verb`", id)),
    };
    Ok(match verb {
        "stats" => Request::Stats,
        "health" => Request::Health,
        "persist" => Request::Persist,
        "warm" => Request::Warm,
        "shutdown" => Request::Shutdown,
        "run" => Request::Run(parse_run(&doc, id)?),
        "run-trace" => Request::RunTrace(parse_trace(&doc, id)?),
        // `key` takes either shape: a `trace` field selects the
        // trace-job key, otherwise the registry-workload key.
        "key" if doc.get("trace").is_some() => Request::KeyTrace(parse_trace(&doc, id)?),
        "key" => Request::Key(parse_run(&doc, id)?),
        other => {
            return Err(ProtoError::new(
                E::UnknownVerb,
                format!(
                    "unknown verb `{}` (expected run|run-trace|key|stats|health|persist|warm|shutdown)",
                    escape(other)
                ),
                id,
            ))
        }
    })
}

fn parse_run(doc: &Json, id: Option<String>) -> Result<RunRequest, ProtoError> {
    let bad = |msg: String, id: &Option<String>| {
        Err(ProtoError::new(ErrorCode::BadRequest, msg, id.clone()))
    };
    let workload = match doc.get("workload").and_then(Json::as_str) {
        Some(w) if !w.is_empty() && w.len() <= 64 => w.to_string(),
        Some(_) => return bad("`workload` must be 1..=64 bytes".into(), &id),
        None => return bad("run needs a string `workload`".into(), &id),
    };
    let iters = match doc.get("iters") {
        None => DEFAULT_ITERS,
        Some(v) => match v.as_i64() {
            Some(n) if (1..=MAX_ITERS).contains(&n) => n,
            _ => return bad(format!("`iters` must be an integer in 1..={MAX_ITERS}"), &id),
        },
    };
    let (level, max_cycles, deadline_ms, audit) = parse_exec_opts(doc, &id)?;
    Ok(RunRequest { id, workload, iters, level, max_cycles, deadline_ms, audit })
}

/// The execution knobs shared by `run` and `run-trace`.
fn parse_exec_opts(
    doc: &Json,
    id: &Option<String>,
) -> Result<(OptLevel, Option<u64>, Option<u64>, bool), ProtoError> {
    let bad = |msg: String| Err(ProtoError::new(ErrorCode::BadRequest, msg, id.clone()));
    let level = match doc.get("level") {
        None => OptLevel::Full,
        Some(v) => match v.as_str().and_then(parse_level) {
            Some(l) => l,
            None => {
                let labels: Vec<&str> = OptLevel::all().iter().map(|l| l.label()).collect();
                return bad(format!("`level` must be one of {}", labels.join("|")));
            }
        },
    };
    let max_cycles = match doc.get("max_cycles") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(n) if n >= 1 => Some(n),
            _ => return bad("`max_cycles` must be a positive integer".into()),
        },
    };
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(n) => Some(n),
            None => return bad("`deadline_ms` must be a non-negative integer".into()),
        },
    };
    let audit = match doc.get("audit") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return bad("`audit` must be a boolean".into()),
        },
    };
    Ok((level, max_cycles, deadline_ms, audit))
}

/// Parses and fully validates a `run-trace`-shaped frame. The base64
/// payload is decoded and the `SCCTRACE1` body verified end to end
/// (magic, format/schema versions, CRC, program reconstruction) right
/// here, so a malformed or version-stale trace is rejected at admission
/// with [`ErrorCode::BadTrace`] and never reaches a worker.
fn parse_trace(doc: &Json, id: Option<String>) -> Result<TraceRequest, ProtoError> {
    let fail = |code: ErrorCode, msg: String, id: &Option<String>| {
        Err(ProtoError::new(code, msg, id.clone()))
    };
    let b64 = match doc.get("trace").and_then(Json::as_str) {
        Some(t) if !t.is_empty() => t,
        Some(_) => return fail(ErrorCode::BadRequest, "`trace` must be non-empty".into(), &id),
        None => {
            return fail(
                ErrorCode::BadRequest,
                "run-trace needs a base64 `trace` string".into(),
                &id,
            )
        }
    };
    let trace_bytes = match scc_lang::trace::from_base64(b64) {
        Some(b) => b,
        None => return fail(ErrorCode::BadTrace, "`trace` is not valid base64".into(), &id),
    };
    let digest = match scc_lang::trace::decode(&trace_bytes) {
        Ok(t) => t.digest,
        Err(e) => return fail(ErrorCode::BadTrace, format!("invalid SCCTRACE1 payload: {e}"), &id),
    };
    let (level, max_cycles, deadline_ms, audit) = parse_exec_opts(doc, &id)?;
    Ok(TraceRequest { id, trace_bytes, digest, level, max_cycles, deadline_ms, audit })
}

/// The canonical content key of a run-shaped request, as the serving
/// process would compute it: paper-default [`SimOptions`] at the
/// requested level with the effective cycle budget (the client's
/// `max_cycles` clamped to `max_cycles_cap`). Delegates to
/// [`scc_sim::runner::job_key`] — the single source of truth shared by
/// the cache, the store, and the router; there is deliberately no
/// second serialization of a job identity anywhere in the service.
pub fn run_key(req: &RunRequest, max_cycles_cap: u64) -> String {
    let mut opts = SimOptions::new(req.level);
    opts.max_cycles = req.max_cycles.unwrap_or(max_cycles_cap).min(max_cycles_cap);
    scc_sim::runner::job_key(
        &req.workload,
        req.iters,
        req.level,
        opts.max_cycles,
        &opts.to_pipeline_config(),
    )
}

/// The canonical content key of a `run-trace`-shaped request: exactly
/// [`run_key`] over the trace's synthesized run view
/// ([`TraceRequest::as_run_request`]). Because the workload name is the
/// trace's content digest, byte-identical traces share a key — and so a
/// cache entry, a store record, and a shard — regardless of which
/// client submitted them.
pub fn trace_key(req: &TraceRequest, max_cycles_cap: u64) -> String {
    run_key(&req.as_run_request(), max_cycles_cap)
}

fn id_field(id: Option<&str>) -> String {
    match id {
        Some(id) => format!("\"id\":\"{}\",", escape(id)),
        None => String::new(),
    }
}

/// Renders a successful non-`run` response from pre-rendered body
/// fields (e.g. `"status":"ok"`).
pub fn ok_response(body_fields: &str) -> String {
    format!("{{\"ok\":true,{ENVELOPE}{body_fields}}}\n")
}

/// Renders an error response frame.
pub fn error_response(
    id: Option<&str>,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let retry = match retry_after_ms {
        Some(ms) => format!(",\"retry_after_ms\":{ms}"),
        None => String::new(),
    };
    format!(
        "{{\"ok\":false,{ENVELOPE}{}\"error\":{{\"code\":\"{}\",\"message\":\"{}\"{retry}}}}}\n",
        id_field(id),
        code.as_str(),
        escape(message),
    )
}

/// The report's architectural-state digest. It lives in `scc_sim` so the
/// runner can memoise it per resident result; see
/// [`scc_sim::arch_digest`] for the byte order it hashes.
pub use scc_sim::arch_digest;

/// Renders the deterministic report object for one simulation result:
/// headline counters, total energy, an architectural-state digest, and
/// the full metrics registry. Single-line, no provenance — the same
/// bytes whether served fresh, from cache, computed directly, or
/// relayed through the router.
pub fn report_json(res: &SimResult) -> String {
    let mut out = String::with_capacity(4096);
    push_report(&mut out, res, arch_digest(res));
    out
}

/// The one report renderer: [`report_json`]'s bytes, appended to `out`
/// with `digest` (which must be [`arch_digest`] of `res`) as the
/// `arch_digest` field. Fields are formatted straight into `out`; no
/// metric name or value is allocated on its own.
fn push_report(out: &mut String, res: &SimResult, digest: u64) {
    out.push_str("{\"workload\":\"");
    push_escaped(out, &res.workload);
    let _ = write!(
        out,
        "\",\"level\":\"{}\",\"halted\":{},\"cycles\":{},\
         \"committed_uops\":{},\"program_uops\":{},\"energy_pj\":{:.6},\
         \"arch_digest\":\"{digest:016x}\",\"metrics\":{{",
        res.level.label(),
        res.halted,
        res.stats.cycles,
        res.stats.committed_uops,
        res.stats.program_uops,
        res.energy_pj(),
    );
    let mut sep = "";
    res.stats.visit_metrics(|prefix, name, value| {
        // Registry names are static identifiers: nothing to escape.
        out.push_str(sep);
        out.push('"');
        if !prefix.is_empty() {
            out.push_str(prefix);
            out.push('.');
        }
        out.push_str(name);
        out.push_str("\":");
        push_metric_value(out, value);
        sep = ",";
    });
    out.push_str("}}");
}

/// Counters as integers, gauges as fixed-point, non-finite gauges as
/// `0` — the same convention as `scc_sim::metrics_json`.
fn push_metric_value(out: &mut String, value: MetricValue) {
    let _ = match value {
        MetricValue::Counter(c) => write!(out, "{c}"),
        MetricValue::Gauge(g) if g.is_finite() => write!(out, "{g:.6}"),
        MetricValue::Gauge(_) => write!(out, "0"),
    };
}

fn push_metric_fields(out: &mut String, metrics: &[Metric]) {
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push_escaped(out, &m.name);
        out.push_str("\":");
        push_metric_value(out, m.value);
    }
}

/// Renders a registry metric slice as one JSON object keyed by dotted
/// metric name (counters as integers, gauges as fixed-point, non-finite
/// gauges as `0` — the same convention as `scc_sim::metrics_json`).
pub fn metrics_object(metrics: &[Metric]) -> String {
    let mut out = String::with_capacity(64 * metrics.len().max(1));
    out.push('{');
    push_metric_fields(&mut out, metrics);
    out.push('}');
    out
}

/// Renders a successful `run` response frame, computing the result's
/// digest. `Proto` has one variant; naming it here lets callers that
/// pin reply bytes say which envelope they expect.
pub fn run_response(
    _proto: Proto,
    id: Option<&str>,
    res: &SimResult,
    audit_jsonl: Option<&str>,
) -> String {
    render_run_response(id, res, arch_digest(res), audit_jsonl)
}

/// [`run_response`] for a runner resolution, rendering the digest the
/// runner memoised on the result instead of recomputing it — the
/// server's reply on both its hit and its miss path. Same bytes.
pub fn run_one_response(id: Option<&str>, one: &RunOne) -> String {
    render_run_response(id, &one.result, one.digest, one.audit_jsonl.as_deref())
}

fn render_run_response(
    id: Option<&str>,
    res: &SimResult,
    digest: u64,
    audit_jsonl: Option<&str>,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"ok\":true,");
    out.push_str(ENVELOPE);
    out.push_str(&id_field(id));
    out.push_str("\"report\":");
    push_report(&mut out, res, digest);
    if let Some(jsonl) = audit_jsonl {
        out.push_str(",\"audit\":[");
        let mut sep = "";
        for line in jsonl.lines().filter(|l| !l.is_empty()) {
            out.push_str(sep);
            out.push_str(line);
            sep = ",";
        }
        out.push(']');
    }
    out.push_str("}\n");
    out
}

/// Renders a successful `key` response frame.
pub fn key_response(id: Option<&str>, key: &str) -> String {
    format!("{{\"ok\":true,{ENVELOPE}{}\"key\":\"{}\"}}\n", id_field(id), escape(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Request, ProtoError> {
        parse_request(line)
    }

    /// Parses a version-2 frame made of `fields` (`"verb":…` etc.).
    fn v2(fields: &str) -> Result<Request, ProtoError> {
        parse_request(&format!("{{\"proto\":2,{fields}}}"))
    }

    #[test]
    fn run_request_round_trips() {
        let r = v2(
            r#""verb":"run","id":"r-9","workload":"freqmine","iters":800,"level":"baseline","deadline_ms":250,"audit":true"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Run(RunRequest {
                id: Some("r-9".into()),
                workload: "freqmine".into(),
                iters: 800,
                level: OptLevel::Baseline,
                max_cycles: None,
                deadline_ms: Some(250),
                audit: true,
            })
        );
    }

    #[test]
    fn frames_without_proto_2_are_rejected_in_the_one_envelope() {
        for line in [
            r#"{"verb":"health","id":"u-1"}"#,
            r#"{"proto":1,"verb":"health","id":"u-1"}"#,
            r#"{"proto":3,"verb":"health","id":"u-1"}"#,
            r#"{"proto":"two","verb":"health","id":"u-1"}"#,
        ] {
            let e = parse(line).unwrap_err();
            assert_eq!(e.code, ErrorCode::UnsupportedProto, "{line}");
            assert_eq!(e.id.as_deref(), Some("u-1"), "{line}");
            let j = Json::parse(e.response().trim_end()).unwrap();
            assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(j.get("proto").and_then(Json::as_u64), Some(2));
            assert_eq!(j.get("id").and_then(Json::as_str), Some("u-1"));
            let err = j.get("error").unwrap();
            assert_eq!(err.get("code").and_then(Json::as_str), Some("unsupported_proto"));
            // The rejection is per frame: the next v2 frame parses.
            assert_eq!(v2(r#""verb":"health""#), Ok(Request::Health));
        }
        // An `id` that is not a string is not echoed.
        let e = parse(r#"{"verb":"health","id":7}"#).unwrap_err();
        assert_eq!((e.code, e.id), (ErrorCode::UnsupportedProto, None));
    }

    #[test]
    fn v2_errors_carry_code_and_the_requests_proto() {
        let e = v2(r#""verb":"dance""#).unwrap_err();
        assert_eq!(e.code, ErrorCode::UnknownVerb);
        let s = e.response();
        assert!(!s.contains("retry_after_ms"));
        assert!(!s.contains("\"id\""));
        let j = Json::parse(s.trim_end()).unwrap();
        assert_eq!(j.get("proto").and_then(Json::as_u64), Some(2));
        let err = j.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_str), Some("unknown_verb"));
        // An id is escaped and echoed; a retry hint is carried.
        let s = error_response(Some("r\"1"), ErrorCode::QueueFull, "queue at capacity", Some(120));
        assert!(s.ends_with('\n'));
        assert_eq!(s.lines().count(), 1);
        let j = Json::parse(s.trim_end()).unwrap();
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("id").and_then(Json::as_str), Some("r\"1"));
        let err = j.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_str), Some("queue_full"));
        assert_eq!(err.get("retry_after_ms").and_then(Json::as_u64), Some(120));
    }

    #[test]
    fn run_defaults_are_applied() {
        match v2(r#""verb":"run","workload":"gcc""#).unwrap() {
            Request::Run(r) => {
                assert_eq!(r.iters, DEFAULT_ITERS);
                assert_eq!(r.level, OptLevel::Full);
                assert!(!r.audit);
                assert_eq!(r.id, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn verbs_parse() {
        let req = |fields: &str| v2(fields).unwrap();
        assert_eq!(req(r#""verb":"stats""#), Request::Stats);
        assert_eq!(req(r#""verb":"health""#), Request::Health);
        assert_eq!(req(r#""verb":"persist""#), Request::Persist);
        assert_eq!(req(r#""verb":"warm""#), Request::Warm);
        assert_eq!(req(r#""verb":"shutdown""#), Request::Shutdown);
        match req(r#""verb":"key","workload":"gcc","iters":42"#) {
            Request::Key(k) => assert_eq!((k.workload.as_str(), k.iters), ("gcc", 42)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_bad_frame() {
        for bad in ["", "{", "not json", "[1,2,3", "\"just a string"] {
            let e = parse(bad).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadFrame, "{bad:?} → {e:?}");
        }
        // A complete non-object document is also a framing error.
        assert_eq!(parse("[1,2,3]").unwrap_err().code, ErrorCode::BadFrame);
        assert_eq!(parse("42").unwrap_err().code, ErrorCode::BadFrame);
    }

    #[test]
    fn unknown_verbs_and_bad_fields_are_typed() {
        assert_eq!(v2(r#""verb":"dance""#).unwrap_err().code, ErrorCode::UnknownVerb);
        assert_eq!(v2(r#""workload":"gcc""#).unwrap_err().code, ErrorCode::BadRequest);
        for bad in [
            r#""verb":"run""#,
            r#""verb":"run","workload":"""#,
            r#""verb":"run","workload":"gcc","iters":0"#,
            r#""verb":"run","workload":"gcc","iters":9999999"#,
            r#""verb":"run","workload":"gcc","iters":3.5"#,
            r#""verb":"run","workload":"gcc","level":"ludicrous""#,
            r#""verb":"run","workload":"gcc","deadline_ms":-4"#,
            r#""verb":"run","workload":"gcc","audit":"yes""#,
            r#""verb":"run","workload":"gcc","max_cycles":0"#,
            r#""verb":"run","id":7,"workload":"gcc""#,
            r#""verb":"key""#,
        ] {
            let e = v2(bad).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "{bad}");
        }
    }

    #[test]
    fn error_id_is_preserved_when_parseable() {
        let e = v2(r#""verb":"dance","id":"r-3""#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("r-3"));
    }

    #[test]
    fn level_labels_round_trip() {
        for l in OptLevel::all() {
            assert_eq!(parse_level(l.label()), Some(l));
        }
        assert_eq!(parse_level("warp-speed"), None);
    }

    #[test]
    fn error_codes_round_trip_and_split_on_retryability() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::BadRequest,
            ErrorCode::UnknownVerb,
            ErrorCode::OversizedFrame,
            ErrorCode::UnsupportedProto,
            ErrorCode::QueueFull,
            ErrorCode::OverCapacity,
            ErrorCode::Draining,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BudgetExhausted,
            ErrorCode::UnknownWorkload,
            ErrorCode::BadTrace,
            ErrorCode::StoreUnavailable,
            ErrorCode::StoreIo,
            ErrorCode::ShardUnavailable,
            ErrorCode::InternalError,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("not_a_code"), None);
        assert!(!ErrorCode::BadTrace.is_retryable());
        assert!(ErrorCode::QueueFull.is_retryable());
        assert!(ErrorCode::ShardUnavailable.is_retryable());
        assert!(ErrorCode::OverCapacity.is_retryable());
        assert!(ErrorCode::Draining.is_retryable());
        assert!(!ErrorCode::DeadlineExceeded.is_retryable());
        assert!(!ErrorCode::UnknownWorkload.is_retryable());
        assert!(!ErrorCode::BadFrame.is_retryable());
    }

    #[test]
    fn run_key_matches_the_runners_canonical_key() {
        use scc_sim::runner::{resolve_workload, Job};
        use scc_workloads::Scale;
        let req = RunRequest {
            id: None,
            workload: "freqmine".into(),
            iters: 800,
            level: OptLevel::Full,
            max_cycles: None,
            deadline_ms: None,
            audit: false,
        };
        let cap = scc_sim::build::DEFAULT_MAX_CYCLES;
        let key = run_key(&req, cap);
        // The exact key the worker's execution path would cache under.
        let w = resolve_workload("freqmine", Scale::custom(800)).unwrap();
        let mut opts = SimOptions::new(OptLevel::Full);
        opts.max_cycles = cap;
        assert_eq!(key, Job::new(&w, &opts).key());
        // A client max_cycles beyond the cap clamps identically.
        let mut over = req.clone();
        over.max_cycles = Some(u64::MAX);
        assert_eq!(run_key(&over, cap), key);
    }

    fn example_trace_b64() -> String {
        let g = scc_lang::corpus::find("cksum").expect("corpus entry");
        let c = g.compile(scc_lang::Opt::O2, 1).expect("compiles");
        scc_lang::trace::to_base64(&scc_lang::trace::encode(&c.program, "test"))
    }

    #[test]
    fn run_trace_parses_and_synthesizes_a_digest_named_job() {
        let b64 = example_trace_b64();
        let tr = match v2(&format!(r#""verb":"run-trace","id":"t-1","trace":"{b64}","level":"baseline""#))
            .unwrap()
        {
            Request::RunTrace(tr) => tr,
            other => panic!("{other:?}"),
        };
        assert_eq!(tr.level, OptLevel::Baseline);
        let run = tr.as_run_request();
        assert_eq!(run.workload, scc_sim::runner::trace_workload_name(tr.digest));
        assert_eq!(run.iters, 1);
        assert!(scc_sim::runner::is_trace_workload(&run.workload));
        // The key verb computes the same key `run-trace` executes under.
        match v2(&format!(r#""verb":"key","trace":"{b64}","level":"baseline""#)).unwrap() {
            Request::KeyTrace(kt) => assert_eq!(trace_key(&kt, 1000), trace_key(&tr, 1000)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupt_and_version_stale_traces_are_bad_trace() {
        let g = scc_lang::corpus::find("cksum").unwrap();
        let c = g.compile(scc_lang::Opt::O2, 1).unwrap();
        let good = scc_lang::trace::encode(&c.program, "test");

        // Truncation, body corruption (CRC), and a future format
        // version must all reject with the typed code — never a panic.
        let mut cases: Vec<Vec<u8>> = vec![good[..good.len() / 2].to_vec()];
        let mut corrupt = good.clone();
        *corrupt.last_mut().unwrap() ^= 0x40;
        cases.push(corrupt);
        let mut stale = good.clone();
        stale[8] = 0xEE; // format_version low byte
        cases.push(stale);
        for bytes in cases {
            let b64 = scc_lang::trace::to_base64(&bytes);
            let e = v2(&format!(r#""verb":"run-trace","id":"x","trace":"{b64}""#)).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadTrace);
            assert_eq!(e.id.as_deref(), Some("x"));
        }
        // Not base64 at all.
        let e = v2(r#""verb":"run-trace","trace":"@@@@""#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadTrace);
        // Missing/empty payloads are request-shape errors, not trace errors.
        let e = v2(r#""verb":"run-trace""#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = v2(r#""verb":"run-trace","trace":"""#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn key_response_renders_valid_json() {
        let s = key_response(Some("k-1"), "freqmine|iters=800|full-scc|max=1|x");
        let j = Json::parse(s.trim_end()).unwrap();
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("proto").and_then(Json::as_u64), Some(2));
        assert_eq!(
            j.get("key").and_then(Json::as_str),
            Some("freqmine|iters=800|full-scc|max=1|x")
        );
    }
}
