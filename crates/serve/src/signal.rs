//! SIGTERM/SIGINT → drain, without a libc dependency.
//!
//! The handler only stores to a static
//! [`AtomicBool`](std::sync::atomic::AtomicBool)
//! (async-signal-safe); the binary polls [`received`] from an ordinary
//! thread and triggers the server's graceful drain. On non-Unix
//! targets both functions are no-ops and drain is reachable via the
//! `shutdown` verb only.

#[cfg(unix)]
mod imp {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RECEIVED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX `signal(2)`. `sighandler_t` is pointer-sized on every
        // Unix Rust targets, so `isize` covers the return value; we
        // only need "not SIG_ERR" anyway and ignore it.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    extern "C" fn on_signal(_signum: i32) {
        RECEIVED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    pub fn received() -> bool {
        RECEIVED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
    pub fn received() -> bool {
        false
    }
}

/// Installs the SIGTERM/SIGINT flag handler (no-op off Unix).
pub fn install() {
    imp::install()
}

/// True once SIGTERM or SIGINT has arrived since [`install`].
pub fn received() -> bool {
    imp::received()
}
