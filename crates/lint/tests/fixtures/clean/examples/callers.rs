//! Calls every `pub fn` of the clean twin. R9 reads `examples/` for names
//! only, so these calls reach their targets and this file is never linted
//! itself.

use std::sync::Mutex;

fn main() {
    let state = beta::State {
        a: Mutex::new(0),
        b: Mutex::new(0),
    };
    beta::forward(&state);
    beta::also_forward(&state);
    beta::notify(&state, |_| {});
    beta::bump();
    let byte = 7u8;
    let _ = beta::peek(&byte);
    let _ = beta::forward_result();
}
