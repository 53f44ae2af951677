//! `mbus simulate` refuses the budgets `/v1/simulate` refuses, with the
//! same message, instead of printing a report.

use mbus_server::service::{self, Endpoint, ServiceLimits};
use std::process::Command;

/// The message `/v1/simulate` answers `body` with.
fn api_message(body: &str) -> String {
    let body = service::parse_body(body.as_bytes()).expect("test body parses");
    service::parse_query(Endpoint::Simulate, &body, &ServiceLimits::default())
        .expect_err("the API refuses the body")
        .message
}

/// Runs `mbus simulate <args>`, which must fail, and returns its stderr.
fn cli_failure(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mbus"))
        .arg("simulate")
        .args(args)
        .output()
        .expect("mbus runs");
    assert!(
        !out.status.success(),
        "mbus simulate {args:?} succeeded:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn zero_cycles_is_refused_like_the_api() {
    let api = api_message(r#"{"cycles": 0}"#);
    assert_eq!(cli_failure(&["--cycles", "0"]), format!("error: {api}\n"));
}

#[test]
fn zero_replications_is_refused_like_the_api() {
    let api = api_message(r#"{"replications": 0}"#);
    assert_eq!(
        cli_failure(&["--replications", "0"]),
        format!("error: {api}\n")
    );
}
