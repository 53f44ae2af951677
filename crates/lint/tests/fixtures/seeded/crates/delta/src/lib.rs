//! Seeded fixture: discarded workspace `Result`s (R8), an unreached `pub fn` (R9).

/// Unit error.
pub struct Error;

/// Fallible send.
pub(crate) fn send() -> Result<(), Error> {
    Ok(())
}

/// Discards the `Result` both ways.
pub fn fire_and_forget() {
    let _ = send();
    send();
}

/// Seeded R9 defect: only this doc comment and the unit test below name
/// `orphan`.
pub fn orphan() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    #[test]
    fn orphan_is_seven() {
        assert_eq!(super::orphan(), 7);
    }
}
