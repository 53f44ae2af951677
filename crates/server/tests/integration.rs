//! End-to-end tests: a real server on an ephemeral port, raw `TcpStream`
//! clients, bit-identical comparison against direct library calls,
//! saturation shedding, and graceful shutdown.

use mbus_server::http::Limits;
use mbus_server::service::{self, Endpoint, ServiceLimits};
use mbus_server::{Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// Binds on an ephemeral port and serves on a background thread.
fn start(config: ServerConfig) -> (SocketAddr, ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..config
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// Sends one request, returns (status, body).
fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8(response).expect("utf8 response");
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .expect("status line");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// The response body the server must produce for `endpoint` + `body`,
/// computed by calling the library directly.
fn expected_body(endpoint: Endpoint, body: &str, cached: bool) -> String {
    let parsed = mbus_server::json::parse(body).expect("test body parses");
    let query =
        service::parse_query(endpoint, &parsed, &ServiceLimits::default()).expect("test query");
    let result = service::evaluate(&query).expect("test evaluate").render();
    format!(
        "{{\"endpoint\":\"{}\",\"cached\":{cached},\"result\":{result}}}",
        endpoint.name()
    )
}

#[test]
fn responses_are_bit_identical_to_direct_library_calls() {
    let (addr, handle, join) = start(ServerConfig::default());
    let cases: [(Endpoint, &str); 4] = [
        (Endpoint::Bandwidth, r#"{"n":8,"b":4,"rate":0.5}"#),
        (Endpoint::Exact, r#"{"n":8,"b":4,"workload":"uniform"}"#),
        (
            Endpoint::Simulate,
            r#"{"n":8,"b":4,"cycles":5000,"warmup":500,"seed":11}"#,
        ),
        (Endpoint::Degraded, r#"{"n":8,"b":4,"failed_buses":[0,2]}"#),
    ];
    for (endpoint, body) in cases {
        let path = format!("/v1/{}", endpoint.name());
        // Cold: exact bytes of a direct library call, cached:false.
        let (status, got) = send(addr, "POST", &path, body);
        assert_eq!(status, 200, "{path} cold: {got}");
        assert_eq!(got, expected_body(endpoint, body, false), "{path} cold");
        // Warm: identical result, cached:true.
        let (status, got) = send(addr, "POST", &path, body);
        assert_eq!(status, 200, "{path} warm: {got}");
        assert_eq!(got, expected_body(endpoint, body, true), "{path} warm");
    }
    let stats = handle.cache_stats();
    assert_eq!(stats.hits, 4, "one warm hit per endpoint");
    assert_eq!(stats.misses, 4);
    handle.shutdown();
    join.join().expect("join").expect("clean exit");
}

#[test]
fn replicated_simulate_round_trips_and_rejects_tracing() {
    let (addr, handle, join) = start(ServerConfig::default());
    // Replicated runs are served, cached, and bit-identical to a direct
    // library call (which exercises the batched engine underneath).
    let body = r#"{"n":8,"b":4,"cycles":3000,"warmup":300,"seed":11,"replications":4}"#;
    let (status, got) = send(addr, "POST", "/v1/simulate", body);
    assert_eq!(status, 200, "cold: {got}");
    assert_eq!(got, expected_body(Endpoint::Simulate, body, false));
    assert!(got.contains("\"engine\":\"batched\""), "engine tag: {got}");
    let (status, warm) = send(addr, "POST", "/v1/simulate", body);
    assert_eq!(status, 200);
    assert_eq!(warm, expected_body(Endpoint::Simulate, body, true));
    // trace_summary + replications > 1 is a structured 422, not a trace of
    // one arbitrary replication.
    let bad = r#"{"cycles":2000,"replications":2,"trace_summary":true}"#;
    let (status, body) = send(addr, "POST", "/v1/simulate", bad);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("unsupported"), "{body}");
    handle.shutdown();
    join.join().expect("join").expect("clean exit");
}

#[test]
fn concurrent_mixed_endpoint_clients_all_succeed() {
    let (addr, handle, join) = start(ServerConfig::default());
    let results: Vec<(u16, String)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for i in 0..16 {
            joins.push(scope.spawn(move || {
                let endpoint = Endpoint::ALL[i % 4];
                let body = format!(
                    r#"{{"rate":{},"workload":"uniform"}}"#,
                    0.25 * ((i % 4) + 1) as f64
                );
                let body = if endpoint == Endpoint::Simulate {
                    format!(
                        r#"{{"rate":{},"workload":"uniform","cycles":2000}}"#,
                        0.25 * ((i % 4) + 1) as f64
                    )
                } else {
                    body
                };
                send(addr, "POST", &format!("/v1/{}", endpoint.name()), &body)
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("client"))
            .collect()
    });
    for (status, body) in &results {
        assert_eq!(
            *status, 200,
            "under capacity every request succeeds: {body}"
        );
    }
    assert_eq!(handle.server_errors(), 0, "zero 5xx under capacity");
    handle.shutdown();
    join.join().expect("join").expect("clean exit");
}

#[test]
fn metrics_endpoint_reports_traffic_and_cache() {
    let (addr, handle, join) = start(ServerConfig::default());
    let (status, _) = send(addr, "POST", "/v1/bandwidth", "{}");
    assert_eq!(status, 200);
    let (status, _) = send(addr, "POST", "/v1/bandwidth", "{}");
    assert_eq!(status, 200);
    let (status, _) = send(addr, "POST", "/v1/bandwidth", r#"{"bogus":1}"#);
    assert_eq!(status, 400);
    let (status, text) = send(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(text.contains("mbus_requests_total 3"), "{text}");
    assert!(text.contains("mbus_responses_5xx_total 0"), "{text}");
    assert!(text.contains("mbus_cache_hits 1"), "{text}");
    assert!(
        text.contains("mbus_endpoint_requests_total{endpoint=\"bandwidth\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("mbus_endpoint_errors_total{endpoint=\"bandwidth\"} 1"),
        "{text}"
    );
    // Routing sanity: wrong methods and unknown paths are structured.
    let (status, _) = send(addr, "GET", "/v1/bandwidth", "");
    assert_eq!(status, 405);
    let (status, _) = send(addr, "POST", "/metrics", "{}");
    assert_eq!(status, 405);
    let (status, body) = send(addr, "POST", "/v1/nope", "{}");
    assert_eq!(status, 404);
    assert!(body.contains("\"kind\":\"not_found\""));
    handle.shutdown();
    join.join().expect("join").expect("clean exit");
}

#[test]
fn saturation_sheds_with_429_and_drops_nothing_silently() {
    // One worker, one queue slot: concurrent slow requests must overflow.
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let slow = r#"{"cycles":300000,"workload":"uniform"}"#;
    let results: Vec<(u16, String)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..8)
            .map(|_| scope.spawn(move || send(addr, "POST", "/v1/simulate", slow)))
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client"))
            .collect()
    });
    assert_eq!(results.len(), 8, "every client got an HTTP response");
    let ok = results.iter().filter(|(s, _)| *s == 200).count();
    let shed = results.iter().filter(|(s, _)| *s == 429).count();
    assert_eq!(ok + shed, 8, "only 200s and 429s: {results:?}");
    assert!(shed >= 1, "saturation must shed: {results:?}");
    assert!(ok >= 1, "accepted requests must complete: {results:?}");
    for (status, body) in &results {
        if *status == 429 {
            assert!(body.contains("\"kind\":\"shed\""), "{body}");
        }
    }
    assert_eq!(handle.shed(), shed as u64);
    assert_eq!(handle.server_errors(), 0);
    handle.shutdown();
    join.join().expect("join").expect("clean exit");
}

#[test]
fn graceful_shutdown_finishes_in_flight_work() {
    let (addr, handle, join) = start(ServerConfig::default());
    // A request slow enough to still be in flight when shutdown arrives.
    let client = std::thread::spawn(move || {
        send(
            addr,
            "POST",
            "/v1/simulate",
            r#"{"cycles":400000,"workload":"uniform","seed":3}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();
    join.join().expect("join").expect("run returns Ok");
    let (status, body) = client.join().expect("client");
    assert_eq!(status, 200, "in-flight request completed: {body}");
    assert!(body.contains("\"bandwidth_mean\""));
    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err()
            || TcpStream::connect(addr)
                .and_then(|mut s| {
                    s.set_read_timeout(Some(Duration::from_secs(2)))?;
                    let mut buf = Vec::new();
                    s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n")?;
                    s.read_to_end(&mut buf)?;
                    Ok(buf)
                })
                .map(|buf| buf.is_empty())
                .unwrap_or(true),
        "post-shutdown connections must not be served"
    );
}

#[test]
fn run_until_stop_closure_drains_and_returns() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        http_limits: Limits::default(),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let stopped = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flag = std::sync::Arc::clone(&stopped);
    let join = std::thread::spawn(move || {
        server.run_until(|| flag.load(std::sync::atomic::Ordering::SeqCst))
    });
    let (status, _) = send(addr, "POST", "/v1/exact", "{}");
    assert_eq!(status, 200);
    stopped.store(true, std::sync::atomic::Ordering::SeqCst);
    join.join().expect("join").expect("clean exit");
}
