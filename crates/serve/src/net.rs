//! Transport plumbing shared by the server, the router, the client, and
//! the bins: an address type covering TCP and Unix sockets, a [`Stream`]
//! enum abstracting over both connection kinds, and the nonblocking
//! `Listener` front end both readiness loops accept on.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// Where to listen or connect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Addr {
    /// A TCP host:port, e.g. `127.0.0.1:7878` (port 0 picks an
    /// ephemeral port when binding).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl Addr {
    /// Parses `tcp:HOST:PORT`, `unix:PATH`, or a bare `HOST:PORT`.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            return Ok(Addr::Tcp(rest.to_string()));
        }
        if let Some(rest) = s.strip_prefix("unix:") {
            #[cfg(unix)]
            return Ok(Addr::Unix(std::path::PathBuf::from(rest)));
            #[cfg(not(unix))]
            return Err(format!("unix sockets are unavailable here: {rest}"));
        }
        if s.contains(':') {
            return Ok(Addr::Tcp(s.to_string()));
        }
        Err(format!("bad address `{s}` (expected tcp:HOST:PORT or unix:PATH)"))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
            #[cfg(unix)]
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// One accepted or dialed connection, TCP or Unix.
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Dials `addr`.
    pub fn connect(addr: &Addr) -> io::Result<Stream> {
        match addr {
            Addr::Tcp(hp) => TcpStream::connect(hp.as_str()).map(Stream::Tcp),
            #[cfg(unix)]
            Addr::Unix(p) => UnixStream::connect(p).map(Stream::Unix),
        }
    }

    /// Sets the read timeout (used by clients that bound how long they
    /// wait for a response frame).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Switches the stream between blocking and nonblocking mode (the
    /// server's readiness loop runs every accepted connection
    /// nonblocking).
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }
}

#[cfg(unix)]
impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// One bound, nonblocking listening socket. A Unix listener unlinks its
/// socket file when dropped.
pub(crate) enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener and the socket path it owns.
    #[cfg(unix)]
    Unix(UnixListener, std::path::PathBuf),
}

impl Listener {
    /// Binds every address nonblocking. A Unix socket path left over
    /// from a previous run is unlinked first. Fails on an empty list.
    pub fn bind_all(addrs: &[Addr]) -> io::Result<Vec<Listener>> {
        if addrs.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no listen addresses"));
        }
        addrs.iter().map(Listener::bind).collect()
    }

    fn bind(addr: &Addr) -> io::Result<Listener> {
        match addr {
            Addr::Tcp(hp) => {
                let l = TcpListener::bind(hp.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
            #[cfg(unix)]
            Addr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
        }
    }

    /// The bound address of a TCP listener (resolves port 0).
    pub fn local_tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(..) => None,
        }
    }

    /// Accepts one pending connection; `None` once the backlog is empty
    /// (`WouldBlock`). The stream is returned as accepted — making it
    /// nonblocking is the caller's admission step.
    pub fn accept(&self) -> io::Result<Option<Stream>> {
        let accepted = match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match accepted {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(unix)]
impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_parse() {
        assert_eq!(Addr::parse("tcp:127.0.0.1:7878"), Ok(Addr::Tcp("127.0.0.1:7878".into())));
        assert_eq!(Addr::parse("localhost:80"), Ok(Addr::Tcp("localhost:80".into())));
        #[cfg(unix)]
        assert_eq!(
            Addr::parse("unix:/tmp/scc.sock"),
            Ok(Addr::Unix(std::path::PathBuf::from("/tmp/scc.sock")))
        );
        assert!(Addr::parse("justahost").is_err());
    }
}
