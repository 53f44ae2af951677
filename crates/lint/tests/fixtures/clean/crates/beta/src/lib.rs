//! Clean twin of the seeded fixture: same shapes, discipline respected.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Event counter.
pub static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Shared state with two independently locked counters.
pub struct State {
    /// First counter.
    pub a: Mutex<u32>,
    /// Second counter.
    pub b: Mutex<u32>,
}

/// Takes `a` then `b` — the workspace-wide order.
pub fn forward(s: &State) {
    if let Ok(ga) = s.a.lock() {
        if let Ok(gb) = s.b.lock() {
            let _ = (*ga, *gb);
        }
    }
}

/// Same order as `forward`: no inversion.
pub fn also_forward(s: &State) {
    if let Ok(ga) = s.a.lock() {
        if let Ok(gb) = s.b.lock() {
            let _ = (*gb, *ga);
        }
    }
}

/// Snapshots under the guard, then runs the callback unlocked.
pub fn notify<F: Fn(u32)>(s: &State, callback: F) {
    let mut snapshot = 0;
    if let Ok(guard) = s.a.lock() {
        snapshot = *guard;
    }
    callback(snapshot);
}

/// Explicit ordering, even on a plain event counter.
pub fn bump() {
    EVENTS.store(1, Ordering::SeqCst);
}

/// Null-checked read with its rationale spelled out.
pub fn peek(p: *const u8) -> Option<u8> {
    if p.is_null() {
        return None;
    }
    // SAFETY: null is rejected above and callers pass a live, aligned byte.
    Some(unsafe { *p })
}

/// Unit error.
pub struct Error;

/// Fallible send.
pub(crate) fn send() -> Result<(), Error> {
    Ok(())
}

/// Propagates instead of discarding.
pub fn forward_result() -> Result<(), Error> {
    send()?;
    Ok(())
}
