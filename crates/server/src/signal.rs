//! Graceful-shutdown signal handling without a libc crate.
//!
//! `std` exposes no signal API, so this module declares the C `signal(2)`
//! entry point directly (libc is already linked by `std`) and installs a
//! handler for `SIGINT`/`SIGTERM` that does the only async-signal-safe
//! thing possible: set a static [`AtomicBool`]. The serving loop polls
//! [`requested`] between accepts and drains gracefully once it flips.
//!
//! This is the single `unsafe` island of the crate — the crate root denies
//! `unsafe_code` and re-allows it for this module alone. On non-Unix
//! targets [`install`] is a no-op returning `false`.

use std::sync::atomic::{AtomicBool, Ordering};

static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether `SIGINT`/`SIGTERM` has been received since [`install`].
pub fn requested() -> bool {
    STOP_REQUESTED.load(Ordering::SeqCst)
}

/// Installs the shutdown handler for `SIGINT` and `SIGTERM`. Returns
/// whether installation succeeded (always `false` off Unix).
pub fn install() -> bool {
    imp::install()
}

#[cfg(unix)]
mod imp {
    use super::STOP_REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    /// `SIG_ERR` is `(void (*)(int)) -1`.
    const SIG_ERR: usize = usize::MAX;

    extern "C" {
        /// POSIX `signal(2)`; handler pointers travel as `usize` (same
        /// register class on every Unix ABI Rust supports).
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // The only thing a handler may safely do: one atomic store.
        STOP_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub(crate) fn install() -> bool {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is the POSIX entry point; the handler performs
        // only an atomic store, which is async-signal-safe.
        unsafe { signal(SIGINT, handler) != SIG_ERR && signal(SIGTERM, handler) != SIG_ERR }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(crate) fn install() -> bool {
        false
    }
}
