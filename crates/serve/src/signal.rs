//! Process-wide shutdown and dump flags, settable from Unix signals.
//!
//! The workspace carries no `libc` crate, but every Rust binary on
//! Linux already links the C library, so `signal(2)` can be declared
//! directly. The handlers are async-signal-safe: they only store to
//! atomics. Listener and session loops poll the flags (they run with
//! short accept/read timeouts), which turns SIGINT/SIGTERM into a
//! graceful drain instead of an abrupt exit, and SIGQUIT into a
//! flight-recorder dump without stopping the service.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static DUMP: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGQUIT: i32 = 3;
const SIGTERM: i32 = 15;

extern "C" {
    // `sighandler_t signal(int, sighandler_t)`; the returned previous
    // handler is not needed, so it is left as an opaque word.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" fn on_dump_signal(_signum: i32) {
    DUMP.store(true, Ordering::SeqCst);
}

/// Routes SIGINT and SIGTERM into [`shutdown_requested`], and SIGQUIT
/// into [`take_dump_request`] (a diagnostic dump, not a shutdown — the
/// default SIGQUIT action would core-dump the daemon, which is exactly
/// the moment an operator wants the flight recorder instead).
pub fn install_handlers() {
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
        signal(SIGQUIT, on_dump_signal);
    }
}

/// Raises the shutdown flag programmatically (the protocol's `shutdown`
/// request uses the same path as the signals).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Whether a shutdown has been requested by signal or protocol.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Consumes a pending dump request, returning whether one was pending.
/// The accept loop polls this once per iteration; swap-to-false makes
/// each SIGQUIT produce exactly one dump.
pub fn take_dump_request() -> bool {
    DUMP.swap(false, Ordering::SeqCst)
}
