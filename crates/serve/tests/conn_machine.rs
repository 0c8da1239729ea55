//! Deterministic nonblocking edge cases for the per-connection state
//! machine, driven through a scripted mock stream — no sockets, no
//! timing, every `WouldBlock`/`EINTR`/short read is placed exactly.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use scc_isa::json::Json;
use scc_serve::conn::{Conn, ConnStatus, FrameDisposition, WRITE_HIGH_WATER};

/// What the mock returns for one `read` or `write` call.
#[derive(Clone, Debug)]
enum Step {
    /// Serve up to this many bytes of the scripted input.
    Read(usize),
    /// `ErrorKind::WouldBlock`.
    Block,
    /// `ErrorKind::Interrupted`.
    Eintr,
    /// Accept up to this many bytes of output.
    Write(usize),
}

/// A stream whose reads and writes follow a script. Reads consume
/// `input`; writes append to `written`. When a script runs dry the
/// stream acts unconstrained (full reads to EOF, full writes).
#[derive(Default)]
struct MockStream {
    input: VecDeque<u8>,
    read_script: VecDeque<Step>,
    write_script: VecDeque<Step>,
    written: Vec<u8>,
}

impl MockStream {
    fn with_input(input: &str) -> MockStream {
        MockStream { input: input.bytes().collect(), ..MockStream::default() }
    }

    fn responses(&self) -> Vec<Json> {
        String::from_utf8(self.written.clone())
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect()
    }
}

impl Read for MockStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let cap = match self.read_script.pop_front() {
            Some(Step::Block) => return Err(io::ErrorKind::WouldBlock.into()),
            Some(Step::Eintr) => return Err(io::ErrorKind::Interrupted.into()),
            Some(Step::Read(n)) => n,
            Some(other) => panic!("write step {other:?} in read script"),
            // Script dry: serve everything left; once the input is
            // exhausted act like an idle open socket, not EOF — EOF
            // is always scripted explicitly as `Read(0)`.
            None if self.input.is_empty() => return Err(io::ErrorKind::WouldBlock.into()),
            None => buf.len(),
        };
        let n = cap.min(buf.len()).min(self.input.len());
        for b in buf.iter_mut().take(n) {
            *b = self.input.pop_front().unwrap();
        }
        Ok(n)
    }
}

impl Write for MockStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let cap = match self.write_script.pop_front() {
            Some(Step::Block) => return Err(io::ErrorKind::WouldBlock.into()),
            Some(Step::Eintr) => return Err(io::ErrorKind::Interrupted.into()),
            Some(Step::Write(n)) => n,
            Some(other) => panic!("read step {other:?} in write script"),
            None => buf.len(),
        };
        let n = cap.min(buf.len());
        self.written.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

const MAX_FRAME: usize = 1024;

fn echo(line: &str) -> FrameDisposition {
    FrameDisposition::Reply(format!("echo:{line}\n"))
}

#[test]
fn a_frame_split_into_one_byte_reads_still_parses() {
    let mut stream = MockStream::with_input("{\"verb\":\"health\"}\n");
    // Every read yields exactly one byte, with a WouldBlock wedged
    // between each pair — 18 bytes of frame arrive over 35+ edges.
    for _ in 0..18 {
        stream.read_script.push_back(Step::Read(1));
        stream.read_script.push_back(Step::Block);
    }
    let mut conn = Conn::new(stream, MAX_FRAME);
    let mut seen = Vec::new();
    let mut on_frame = |l: &str| {
        seen.push(l.to_string());
        echo(l)
    };
    for _ in 0..40 {
        assert_eq!(conn.on_readable(&mut on_frame), ConnStatus::Open);
    }
    assert_eq!(seen, vec!["{\"verb\":\"health\"}".to_string()]);
    assert_eq!(String::from_utf8(conn.stream().written.clone()).unwrap(), "echo:{\"verb\":\"health\"}\n");
}

#[test]
fn would_block_mid_write_parks_and_resumes_without_truncation() {
    let mut stream = MockStream::with_input("ping\n");
    // The response goes out 3 bytes per call with WouldBlock and EINTR
    // interleaved; nothing may be lost or reordered.
    stream.write_script.extend([
        Step::Write(3),
        Step::Block,
        Step::Eintr,
        Step::Write(3),
        Step::Write(2),
        Step::Block,
        Step::Write(1),
    ]);
    let mut conn = Conn::new(stream, MAX_FRAME);
    let mut on_frame = |l: &str| echo(l);
    assert_eq!(conn.on_readable(&mut on_frame), ConnStatus::Open);
    let (_, wants_write) = conn.wants();
    assert!(wants_write, "parked bytes must request POLLOUT");
    while conn.wants().1 {
        assert_eq!(conn.on_writable(&mut on_frame), ConnStatus::Open);
    }
    assert_eq!(String::from_utf8(conn.stream().written.clone()).unwrap(), "echo:ping\n");
}

#[test]
fn pipelined_run_frames_park_behind_one_outstanding_job() {
    // Three frames arrive in one readable edge; the first becomes a
    // job, so the other two stay buffered until the job completes.
    let stream = MockStream::with_input("run1\nrun2\nrun3\n");
    let mut conn = Conn::new(stream, MAX_FRAME);
    let jobs = std::cell::RefCell::new(Vec::new());
    let mut on_frame = |l: &str| {
        jobs.borrow_mut().push(l.to_string());
        FrameDisposition::JobQueued
    };
    assert_eq!(conn.on_readable(&mut on_frame), ConnStatus::Open);
    assert_eq!(*jobs.borrow(), vec!["run1"], "second frame parsed while a job is outstanding");
    assert!(conn.awaiting_job());
    let (readable, _) = conn.wants();
    assert!(!readable, "must not poll for reads while awaiting a job");

    assert_eq!(conn.complete_job("done:run1\n", &mut on_frame), ConnStatus::Open);
    assert_eq!(*jobs.borrow(), vec!["run1", "run2"], "completion resumes exactly one frame");
    assert_eq!(conn.complete_job("done:run2\n", &mut on_frame), ConnStatus::Open);
    assert_eq!(conn.complete_job("done:run3\n", &mut on_frame), ConnStatus::Open);
    assert_eq!(
        String::from_utf8(conn.stream().written.clone()).unwrap(),
        "done:run1\ndone:run2\ndone:run3\n"
    );
}

#[test]
fn eof_with_a_parked_response_flushes_before_closing() {
    let mut stream = MockStream::with_input("last\n");
    // Input ends after one frame (explicit EOF); the response needs
    // three writable edges to drain. Close must wait for the last.
    stream.read_script.extend([Step::Read(5), Step::Read(0)]);
    stream.write_script.extend([Step::Write(4), Step::Block, Step::Block]);
    let mut conn = Conn::new(stream, MAX_FRAME);
    let mut on_frame = |l: &str| echo(l);
    // Reads the frame, hits EOF, writes 4 bytes, parks the rest.
    assert_eq!(conn.on_readable(&mut on_frame), ConnStatus::Open);
    assert_eq!(conn.on_readable(&mut on_frame), ConnStatus::Open);
    // The drained flush resolves the EOF into a close.
    assert_eq!(conn.on_writable(&mut on_frame), ConnStatus::Closed);
    assert_eq!(String::from_utf8(conn.stream().written.clone()).unwrap(), "echo:last\n");
}

#[test]
fn eof_while_awaiting_a_job_still_delivers_the_response() {
    let mut stream = MockStream::with_input("job\n");
    stream.read_script.extend([Step::Read(4), Step::Read(0)]);
    let mut conn = Conn::new(stream, MAX_FRAME);
    let mut queue = |_: &str| FrameDisposition::JobQueued;
    assert_eq!(conn.on_readable(&mut queue), ConnStatus::Open);
    // Peer half-closed; the job is still running. The connection must
    // stay open until the reply lands, then close.
    assert_eq!(conn.on_readable(&mut queue), ConnStatus::Open);
    assert!(conn.awaiting_job());
    let mut no_more = |l: &str| panic!("unexpected frame after EOF: {l}");
    assert_eq!(conn.complete_job("done\n", &mut no_more), ConnStatus::Closed);
    assert_eq!(String::from_utf8(conn.stream().written.clone()).unwrap(), "done\n");
}

#[test]
fn drain_with_a_half_written_response_finishes_the_frame() {
    let mut stream = MockStream::with_input("bye\n");
    stream.write_script.extend([Step::Write(2), Step::Block, Step::Write(2), Step::Block]);
    let mut conn = Conn::new(stream, MAX_FRAME);
    let mut on_frame = |l: &str| echo(l);
    assert_eq!(conn.on_readable(&mut on_frame), ConnStatus::Open);
    // Drain arrives with "ec" on the wire and "ho:bye\n" parked.
    conn.begin_drain();
    assert_eq!(conn.on_writable(&mut on_frame), ConnStatus::Open);
    // The final writable edge drains the buffer and closes.
    assert_eq!(conn.on_writable(&mut on_frame), ConnStatus::Closed);
    assert_eq!(String::from_utf8(conn.stream().written.clone()).unwrap(), "echo:bye\n");
}

#[test]
fn drain_defers_to_an_outstanding_job() {
    let stream = MockStream::with_input("job\n");
    let mut conn = Conn::new(stream, MAX_FRAME);
    let mut queue = |_: &str| FrameDisposition::JobQueued;
    assert_eq!(conn.on_readable(&mut queue), ConnStatus::Open);
    // begin_drain while the job is in flight is a no-op; the sweep
    // comes back after completion.
    conn.begin_drain();
    let mut no_more = |_: &str| panic!("frame parsed during drain");
    assert_eq!(conn.complete_job("late-reply\n", &mut no_more), ConnStatus::Open);
    conn.begin_drain();
    assert_eq!(conn.on_writable(&mut no_more), ConnStatus::Closed);
    assert_eq!(String::from_utf8(conn.stream().written.clone()).unwrap(), "late-reply\n");
}

#[test]
fn oversized_frames_get_an_error_then_a_close_after_flush() {
    let big = "x".repeat(MAX_FRAME + 10);
    let stream = MockStream::with_input(&big);
    let mut conn = Conn::new(stream, MAX_FRAME);
    let mut on_frame = |l: &str| panic!("oversized frame dispatched: {l}");
    // Unconstrained write script: the error flushes in one edge and
    // the connection closes without ever dispatching a frame.
    assert_eq!(conn.on_readable(&mut on_frame), ConnStatus::Closed);
    let responses = conn.stream().responses();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].get("proto").and_then(Json::as_u64), Some(2));
    let code = responses[0]
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .map(str::to_string);
    assert_eq!(code.as_deref(), Some("oversized_frame"));
}

#[test]
fn bad_utf8_is_answered_and_parsing_continues() {
    let mut stream = MockStream::default();
    stream.input.extend([0xff, 0xfe, b'\n']);
    stream.input.extend("ok\n".bytes());
    let mut conn = Conn::new(stream, MAX_FRAME);
    let mut seen = Vec::new();
    let mut on_frame = |l: &str| {
        seen.push(l.to_string());
        echo(l)
    };
    assert_eq!(conn.on_readable(&mut on_frame), ConnStatus::Open);
    assert_eq!(seen, vec!["ok"], "the garbage frame must not reach dispatch");
    let written = String::from_utf8(conn.stream().written.clone()).unwrap();
    let mut lines = written.lines();
    let error = Json::parse(lines.next().unwrap()).unwrap();
    assert_eq!(error.get("proto").and_then(Json::as_u64), Some(2));
    let code = error
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .map(str::to_string);
    assert_eq!(code.as_deref(), Some("bad_frame"));
    assert_eq!(lines.next(), Some("echo:ok"));
}

#[test]
fn a_full_write_buffer_pauses_parsing_until_it_drains() {
    // A reply far over the high-water mark, followed by another frame
    // that must NOT be parsed until the buffer drains.
    let mut stream = MockStream::with_input("big\nnext\n");
    stream.write_script.push_back(Step::Block);
    let mut conn = Conn::new(stream, MAX_FRAME);
    let huge = format!("{}\n", "y".repeat(WRITE_HIGH_WATER + 1));
    let seen = std::cell::RefCell::new(Vec::new());
    let mut on_frame = |l: &str| {
        seen.borrow_mut().push(l.to_string());
        if l == "big" {
            FrameDisposition::Reply(huge.clone())
        } else {
            FrameDisposition::Reply("small\n".to_string())
        }
    };
    assert_eq!(conn.on_readable(&mut on_frame), ConnStatus::Open);
    assert_eq!(*seen.borrow(), vec!["big"], "parsing must pause above the high-water mark");
    let (readable, writable) = conn.wants();
    assert!(!readable && writable);
    // Unconstrained writes from here: one writable edge drains the
    // buffer and resumes the second frame.
    while conn.wants().1 {
        assert_eq!(conn.on_writable(&mut on_frame), ConnStatus::Open);
    }
    assert_eq!(*seen.borrow(), vec!["big", "next"]);
    assert!(String::from_utf8(conn.stream().written.clone()).unwrap().ends_with("small\n"));
}

#[test]
fn an_interrupted_read_is_retried_transparently() {
    let mut stream = MockStream::with_input("survives-eintr\n");
    stream.read_script.extend([Step::Eintr, Step::Read(7), Step::Eintr, Step::Read(8)]);
    let mut conn = Conn::new(stream, MAX_FRAME);
    let mut seen = Vec::new();
    let mut on_frame = |l: &str| {
        seen.push(l.to_string());
        echo(l)
    };
    assert_eq!(conn.on_readable(&mut on_frame), ConnStatus::Open);
    assert_eq!(seen, vec!["survives-eintr"]);
}

#[test]
fn an_immediate_eof_with_nothing_owed_closes() {
    let mut stream = MockStream::default();
    stream.read_script.push_back(Step::Read(0));
    let mut conn = Conn::new(stream, MAX_FRAME);
    let mut on_frame = |l: &str| panic!("frame from an empty stream: {l}");
    assert_eq!(conn.on_readable(&mut on_frame), ConnStatus::Closed);
    assert!(conn.stream().written.is_empty());
}
