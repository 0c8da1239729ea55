//! A minimal blocking client for the `scc-serve` protocol, used by the
//! load generator, the protocol tests, and the CI smoke step.

use std::io::{self, Write};
use std::time::Duration;

use crate::frame::{FrameReader, Poll};
use crate::net::{Addr, Stream};
use scc_isa::json::Json;

/// Responses can be much larger than requests (full metrics registry,
/// audit logs), so the client accepts frames up to this size.
const MAX_RESPONSE_BYTES: usize = 16 * 1024 * 1024;

/// One connection to an `scc-serve` instance.
pub struct Client {
    stream: Stream,
    reader: FrameReader,
}

impl Client {
    /// Dials the service.
    pub fn connect(addr: &Addr) -> io::Result<Client> {
        let stream = Stream::connect(addr)?;
        stream.set_read_timeout(None)?;
        Ok(Client { stream, reader: FrameReader::new(MAX_RESPONSE_BYTES) })
    }

    /// Dials with a read timeout (responses slower than this surface
    /// as [`io::ErrorKind::TimedOut`]).
    pub fn connect_with_timeout(addr: &Addr, read_timeout: Duration) -> io::Result<Client> {
        let stream = Stream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Client { stream, reader: FrameReader::new(MAX_RESPONSE_BYTES) })
    }

    /// Sends raw bytes without framing — for tests that need to write
    /// garbage, partial frames, or oversized payloads.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads the next response frame.
    pub fn read_response(&mut self) -> io::Result<String> {
        match self.reader.poll_line(&mut self.stream) {
            Poll::Line(s) => Ok(s),
            Poll::TimedOut => Err(io::Error::new(io::ErrorKind::TimedOut, "response timed out")),
            Poll::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Poll::Oversized => {
                Err(io::Error::new(io::ErrorKind::InvalidData, "response too large"))
            }
            Poll::BadUtf8 => {
                Err(io::Error::new(io::ErrorKind::InvalidData, "response not UTF-8"))
            }
            Poll::Err(e) => Err(e),
        }
    }

    /// Sends one request line (newline appended) and reads one response
    /// frame.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send_raw(line.as_bytes())?;
        self.send_raw(b"\n")?;
        self.read_response()
    }

    /// [`Client::request`] plus JSON parsing of the response.
    pub fn request_json(&mut self, line: &str) -> io::Result<Json> {
        let resp = self.request(line)?;
        Json::parse(&resp)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }
}
