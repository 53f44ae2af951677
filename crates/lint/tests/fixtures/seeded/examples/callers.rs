//! Calls every seeded `pub fn` except `delta::orphan`. R9 reads
//! `examples/` for names only, so these calls reach their targets and this
//! file is never linted itself.

use std::sync::Mutex;

fn main() {
    let state = beta::State {
        a: Mutex::new(0),
        b: Mutex::new(0),
    };
    beta::forward(&state);
    beta::backward(&state);
    beta::double(&state);
    beta::notify(&state, |_| {});
    alpha::bump();
    let byte = 7u8;
    // SAFETY: `byte` is a live, aligned `u8`.
    let _ = unsafe { alpha::peek(&byte) };
    delta::fire_and_forget();
}
