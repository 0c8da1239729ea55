//! The per-connection state machine of the readiness loop.
//!
//! A [`Conn`] owns one nonblocking stream plus its resumable framing
//! state: a [`FrameReader`](crate::frame::FrameReader) accumulating
//! request bytes and a [`FrameWriter`](crate::frame::FrameWriter)
//! draining response bytes. The event loop drives it with edge
//! handlers ([`Conn::on_readable`], [`Conn::on_writable`],
//! [`Conn::complete_job`]) and asks [`Conn::wants`] which readiness
//! events to poll for.
//!
//! Two invariants shape the machine:
//!
//! - **One outstanding `run` per connection.** While a job is queued or
//!   in flight (`awaiting_job`), no further frames are parsed — the
//!   bytes stay in the kernel socket buffer and the read accumulator.
//!   This keeps responses trivially ordered *and* is the fairness
//!   policy: a client pipelining a thousand `run` frames holds exactly
//!   one queue slot, so it cannot starve other connections.
//! - **Writes are never abandoned mid-frame.** Every response goes
//!   through the buffered writer; `WouldBlock` parks the remainder for
//!   the next `POLLOUT` edge and close-like states (`Eof` seen, drain,
//!   oversized frame) only complete once the buffer fully drains.
//!
//! The machine is generic over the stream so a deterministic mock (one
//! byte per read, scripted `WouldBlock`/`EINTR`) can drive every edge
//! case in tests; the event loop instantiates it with a real
//! [`Stream`](crate::net::Stream).

use std::collections::HashMap;
use std::io::{Read, Write};

use crate::frame::{FrameReader, FrameWriter, Poll, WriteStatus};
use crate::protocol::{error_response, ErrorCode};

/// Pause parsing new frames once this many response bytes are queued
/// behind a slow reader; parsing resumes when the buffer drains. This
/// bounds per-connection memory against a client that pipelines
/// requests but never reads responses.
pub const WRITE_HIGH_WATER: usize = 256 * 1024;

/// What the server did with one parsed frame.
#[derive(Debug)]
pub enum FrameDisposition {
    /// The frame was answered immediately; write this response.
    Reply(String),
    /// The frame became a queued job; the response will arrive later
    /// via [`Conn::complete_job`].
    JobQueued,
}

/// Whether the connection survives the edge that was just handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnStatus {
    /// Keep polling this connection.
    Open,
    /// Done (peer closed, I/O error, or a close-after-flush finished
    /// flushing): deregister and drop.
    Closed,
}

/// One multiplexed connection.
pub struct Conn<S> {
    stream: S,
    reader: FrameReader,
    writer: FrameWriter,
    max_frame: usize,
    awaiting_job: bool,
    close_after_flush: bool,
    eof: bool,
}

impl<S: Read + Write> Conn<S> {
    /// Wraps a (nonblocking) stream with fresh framing state.
    pub fn new(stream: S, max_frame: usize) -> Conn<S> {
        Conn {
            stream,
            reader: FrameReader::new(max_frame),
            writer: FrameWriter::new(),
            max_frame,
            awaiting_job: false,
            close_after_flush: false,
            eof: false,
        }
    }

    /// The underlying stream (the event loop needs its fd).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// True while a `run` from this connection is queued or executing.
    pub fn awaiting_job(&self) -> bool {
        self.awaiting_job
    }

    /// Which readiness events the event loop should poll for:
    /// `(readable, writable)`.
    pub fn wants(&self) -> (bool, bool) {
        let readable = !self.awaiting_job
            && !self.close_after_flush
            && !self.eof
            && self.writer.pending() <= WRITE_HIGH_WATER;
        (readable, !self.writer.is_empty())
    }

    /// Marks the connection to close once its buffer drains — unless a
    /// job is outstanding, in which case the drain sweep will come back
    /// after the job's response is delivered.
    pub fn begin_drain(&mut self) {
        if !self.awaiting_job {
            self.close_after_flush = true;
        }
    }

    /// Handles a readable edge: drain the socket, parse complete
    /// frames, dispatch each through `on_frame`, then flush whatever
    /// responses accumulated.
    pub fn on_readable(
        &mut self,
        on_frame: &mut impl FnMut(&str) -> FrameDisposition,
    ) -> ConnStatus {
        loop {
            if self.awaiting_job
                || self.close_after_flush
                || self.eof
                || self.writer.pending() > WRITE_HIGH_WATER
            {
                break;
            }
            match self.reader.poll_line(&mut self.stream) {
                Poll::TimedOut => break,
                Poll::Eof => {
                    // A truncated unterminated frame is not a request;
                    // finish writing what we owe, then close.
                    self.eof = true;
                    break;
                }
                Poll::Err(_) => return ConnStatus::Closed,
                Poll::Oversized => {
                    // The stream is mid-frame; recovery is impossible.
                    // Framing errors carry no `id`: the frame never
                    // parsed far enough to reveal one.
                    let r = error_response(
                        None,
                        ErrorCode::OversizedFrame,
                        &format!("frame exceeds {} bytes", self.max_frame),
                        None,
                    );
                    self.writer.push(&r);
                    self.close_after_flush = true;
                    break;
                }
                Poll::BadUtf8 => {
                    let r =
                        error_response(None, ErrorCode::BadFrame, "frame is not valid UTF-8", None);
                    self.writer.push(&r);
                }
                Poll::Line(line) => match on_frame(&line) {
                    FrameDisposition::Reply(r) => self.writer.push(&r),
                    FrameDisposition::JobQueued => self.awaiting_job = true,
                },
            }
        }
        self.flush()
    }

    /// Handles a writable edge: drain the response buffer, then — if
    /// the connection is idle again — resume parsing any frames that
    /// were buffered while parsing was paused.
    pub fn on_writable(
        &mut self,
        on_frame: &mut impl FnMut(&str) -> FrameDisposition,
    ) -> ConnStatus {
        match self.flush() {
            ConnStatus::Closed => ConnStatus::Closed,
            ConnStatus::Open => {
                if self.writer.is_empty() && !self.awaiting_job && !self.close_after_flush {
                    self.on_readable(on_frame)
                } else {
                    ConnStatus::Open
                }
            }
        }
    }

    /// Delivers the response of this connection's outstanding job and
    /// resumes the frame pump.
    pub fn complete_job(
        &mut self,
        reply: &str,
        on_frame: &mut impl FnMut(&str) -> FrameDisposition,
    ) -> ConnStatus {
        self.awaiting_job = false;
        self.writer.push(reply);
        self.on_writable(on_frame)
    }

    /// Writes as much as the socket takes; resolves close-like states
    /// once the buffer is empty.
    fn flush(&mut self) -> ConnStatus {
        match self.writer.write_some(&mut self.stream) {
            Ok(WriteStatus::Drained) => {
                if self.close_after_flush || (self.eof && !self.awaiting_job) {
                    ConnStatus::Closed
                } else {
                    ConnStatus::Open
                }
            }
            Ok(WriteStatus::Pending) => ConnStatus::Open,
            // A peer that vanished mid-response: nothing left to tell it.
            Err(_) => ConnStatus::Closed,
        }
    }
}

/// The drain sweep both readiness loops run on every tick while
/// draining: each idle connection is marked to close once its buffer
/// drains and is flushed; a connection owed a job's reply is left for
/// that reply's delivery. A draining connection parses no further
/// frames, so the sweep dispatches none. Closed connections are removed
/// from `conns`; returns how many were.
pub(crate) fn sweep_for_drain<S: Read + Write>(conns: &mut HashMap<u64, Conn<S>>) -> usize {
    let before = conns.len();
    conns.retain(|_, c| {
        if c.awaiting_job() {
            return true;
        }
        c.begin_drain();
        c.flush() == ConnStatus::Open
    });
    before - conns.len()
}
