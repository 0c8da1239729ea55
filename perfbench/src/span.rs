//! Spans around the benchmark's calls into each layer, kept in memory
//! and written as Chrome trace-event JSON when the run ends.
//!
//! A span records its name, start, end, parent span and (for serve
//! requests) the request id. The closure API nests spans strictly on one
//! thread, so a span's children never overlap and its self time is its
//! duration minus the sum of its children's.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, named `layer.call` (e.g. `pipeline.run`).
    pub name: &'static str,
    /// What the call worked on (a program name), or empty.
    pub detail: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// Request id, for spans of one serve request.
    pub req: Option<u64>,
    /// Recording thread.
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. When off, [`Tracer::span`] just calls
/// its closure, so the untraced path pays one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for thread `tid`, timing from `epoch`.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// True while spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between spans (the traced run alternates
    /// traced and untraced slices to measure the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        req: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            detail,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            tid: self.tid,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }
}

/// Every span of a run, merged across threads.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends a thread's spans, re-basing their parent indices.
    pub fn merge(&mut self, t: Tracer) {
        let base = self.spans.len();
        self.spans.extend(t.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans, in recording order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// The trace as Chrome trace-event JSON (complete `X` events, times
    /// in µs); each event's `args` carry its self time, its parent's name
    /// and its request id.
    pub fn chrome_json(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::with_capacity(160 * self.spans.len() + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"self_us\":{:.3},\"parent\":\"{parent}\"",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                self_ns[i] as f64 / 1e3,
            );
            if !s.detail.is_empty() {
                let _ = write!(out, ",\"detail\":\"{}\"", s.detail);
            }
            if let Some(r) = s.req {
                let _ = write!(out, ",\"req\":{r}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer.call", "", None, |t| {
            t.span("inner.a", "mcf", None, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner.b", "", Some(7), |_| ());
        });
        let mut trace = Trace::default();
        trace.merge(t);
        let s = trace.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        let self_ns = trace.self_ns();
        assert_eq!(self_ns[0], s[0].dur_ns() - s[1].dur_ns() - s[2].dur_ns());
        assert!(s[1].dur_ns() >= 2_000_000);
        let json = trace.chrome_json();
        let doc = scc_serve::json::Json::parse(&json).expect("valid JSON");
        let events = match doc.get("traceEvents") {
            Some(scc_serve::json::Json::Arr(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(events.len(), 3);
        let args = events[2].get("args").unwrap();
        assert_eq!(
            args.get("parent").and_then(|p| p.as_str()),
            Some("outer.call")
        );
        assert_eq!(args.get("req").and_then(|r| r.as_u64()), Some(7));
    }

    #[test]
    fn off_records_nothing_and_merge_rebases_parents() {
        let mut off = Tracer::new(false, Instant::now(), 0);
        assert_eq!(off.span("a.b", "", None, |_| 5), 5);
        let mut trace = Trace::default();
        trace.merge(off);
        assert!(trace.spans().is_empty());
        for tid in 0..2 {
            let mut t = Tracer::new(true, Instant::now(), tid);
            t.span("x.outer", "", None, |t| t.span("x.inner", "", None, |_| ()));
            trace.merge(t);
        }
        assert_eq!(trace.spans()[3].parent, Some(2));
        assert_eq!(trace.durations_ns("x.inner").len(), 2);
    }
}
