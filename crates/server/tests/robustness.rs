//! Robustness sweep: the parsers must be total (never panic, never hang)
//! on malformed, truncated, oversized, and adversarial inputs, and the
//! socket layer must answer every readable request with a structured
//! error — never a panic or a silently hung connection.

use mbus_server::http::{self, Limits};
use mbus_server::service::{self, Endpoint, ServiceLimits};
use mbus_server::{Server, ServerConfig};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The JSON parser is total over arbitrary byte soup.
    #[test]
    fn json_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = mbus_server::json::parse(&text);
    }

    /// Valid documents truncated at any byte either still parse (the cut
    /// fell past the end) or fail with a structured offset — no panic.
    #[test]
    fn json_parse_survives_truncation(cut in any::<u8>()) {
        let doc =
            r#"{"n":8,"rate":0.5,"scheme":"kclass","failed_buses":[0,1],"x":"\ud83d\ude00"}"#;
        let cut = usize::from(cut) % (doc.len() + 1);
        // Truncate at a char boundary (the doc is pure ASCII — the emoji
        // travels as a surrogate-pair escape — so every byte is one).
        let truncated = &doc[..cut];
        match mbus_server::json::parse(truncated) {
            Ok(_) => prop_assert_eq!(cut, doc.len()),
            Err(err) => prop_assert!(err.offset <= truncated.len()),
        }
    }

    /// Rendering is canonical: parse(render(v)) == v for parsed values.
    #[test]
    fn json_render_round_trips(a in any::<f64>(), b in any::<bool>(), n in any::<u8>()) {
        prop_assume!(a.is_finite());
        let doc = format!(r#"{{"a":{a},"b":{b},"n":{n},"s":"x\ty"}}"#);
        if let Ok(value) = mbus_server::json::parse(&doc) {
            let rendered = value.render();
            let reparsed = mbus_server::json::parse(&rendered);
            prop_assert!(reparsed.is_ok(), "render must stay parseable: {}", rendered);
            prop_assert_eq!(reparsed.ok(), Some(value));
        }
    }

    /// The HTTP head parser is total over arbitrary bytes.
    #[test]
    fn request_head_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(head) = http::parse_request_head(&bytes) {
            let _ = http::content_length(&head);
        }
    }

    /// Query parsing is total over fuzzed field values: every outcome is
    /// Ok or a structured ApiError, and Ok only for in-limit dimensions.
    #[test]
    fn query_parser_total_over_fuzzed_fields(
        n in any::<u16>(),
        b in any::<u8>(),
        rate in any::<f64>(),
        cycles in any::<u32>(),
        endpoint_pick in any::<u8>(),
    ) {
        let endpoint = Endpoint::ALL[usize::from(endpoint_pick) % 4];
        let body = format!(
            r#"{{"n":{n},"b":{b},"rate":{rate},"workload":"uniform"{}}}"#,
            if endpoint == Endpoint::Simulate {
                format!(r#","cycles":{cycles}"#)
            } else {
                String::new()
            }
        );
        prop_assume!(rate.is_finite());
        let limits = ServiceLimits::default();
        let parsed = service::parse_body(body.as_bytes());
        prop_assert!(parsed.is_ok(), "body built from a template must parse");
        if let Ok(json) = parsed {
            match service::parse_query(endpoint, &json, &limits) {
                Ok(query) => {
                    prop_assert!(usize::from(n) <= limits.max_dimension);
                    prop_assert!((0.0..=1.0).contains(&rate));
                    // A parsed query must carry a usable cache key.
                    let _ = query.key();
                }
                Err(err) => prop_assert!(
                    err.status == 400 || err.status == 422,
                    "unexpected status {} for {}", err.status, body
                ),
            }
        }
    }
}

/// Starts a server with the given HTTP limits; returns its address. The
/// server is intentionally leaked (tests are short-lived processes).
fn start(limits: Limits) -> SocketAddr {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        http_limits: limits,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    std::thread::spawn(move || server.run());
    addr
}

/// Writes `payload` raw, reads to EOF, returns the response text.
fn exchange(addr: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(payload).expect("write");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

#[test]
fn garbage_requests_get_structured_400s() {
    let addr = start(Limits::default());
    let response = exchange(addr, b"\x00\x01\x02 GARBAGE\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("\"kind\":\"bad_request\""), "{response}");
    let response = exchange(addr, b"POST /v1/bandwidth SPDY/9\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    // POST without Content-Length → 411.
    let response = exchange(addr, b"POST /v1/bandwidth HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 411 "), "{response}");
}

#[test]
fn truncated_json_bodies_get_bad_json_400() {
    let addr = start(Limits::default());
    let body = r#"{"n":8,"rate":"#; // cut mid-value
    let payload = format!(
        "POST /v1/bandwidth HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let response = exchange(addr, payload.as_bytes());
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("\"kind\":\"bad_json\""), "{response}");
}

#[test]
fn oversized_requests_get_413() {
    let addr = start(Limits {
        max_head_bytes: 1024,
        max_body_bytes: 2048,
        read_timeout: Duration::from_secs(5),
    });
    // Declared body beyond the cap: rejected before reading it.
    let payload = b"POST /v1/bandwidth HTTP/1.1\r\nHost: x\r\nContent-Length: 1000000\r\n\r\n";
    let response = exchange(addr, payload);
    assert!(response.starts_with("HTTP/1.1 413 "), "{response}");
    assert!(
        response.contains("\"kind\":\"payload_too_large\""),
        "{response}"
    );
    // Header block beyond the cap.
    let mut huge_head = b"GET /metrics HTTP/1.1\r\n".to_vec();
    for i in 0..200 {
        huge_head.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "y".repeat(64)).as_bytes());
    }
    huge_head.extend_from_slice(b"\r\n");
    let response = exchange(addr, &huge_head);
    assert!(response.starts_with("HTTP/1.1 413 "), "{response}");
}

#[test]
fn stalled_requests_time_out_with_408_not_a_hang() {
    let addr = start(Limits {
        max_head_bytes: 8 * 1024,
        max_body_bytes: 64 * 1024,
        read_timeout: Duration::from_millis(200),
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Send half a request and stall.
    stream
        .write_all(b"POST /v1/bandwidth HTTP/1.1\r\nContent-Le")
        .expect("write");
    let started = Instant::now();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let elapsed = started.elapsed();
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
    assert!(text.contains("\"kind\":\"timeout\""), "{text}");
    assert!(
        elapsed < Duration::from_secs(5),
        "worker must free itself promptly, took {elapsed:?}"
    );
}

#[test]
fn clients_closing_mid_body_do_not_wedge_the_worker() {
    let addr = start(Limits::default());
    // Declare a body, send half of it, close. The server must just drop
    // the connection — and stay healthy for the next client.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /v1/bandwidth HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"n\"")
            .expect("write");
        // stream drops here → FIN with 96 bytes missing.
    }
    // The server still answers promptly afterwards.
    let response = exchange(
        addr,
        b"POST /v1/bandwidth HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    );
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
}

#[test]
fn fuzzed_socket_payloads_never_hang_the_server() {
    let addr = start(Limits {
        max_head_bytes: 1024,
        max_body_bytes: 1024,
        read_timeout: Duration::from_millis(300),
    });
    // A deterministic spread of hostile payloads, raw on the socket.
    let payloads: Vec<Vec<u8>> = vec![
        vec![],
        vec![0xff; 700],
        b"\r\n\r\n".to_vec(),
        b"GET\r\n\r\n".to_vec(),
        b"POST /v1/simulate HTTP/1.1\r\nContent-Length: -5\r\n\r\n".to_vec(),
        b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 9999999999999999999999\r\n\r\n".to_vec(),
        b"POST /v1/exact HTTP/1.1\r\nContent-Length: 4\r\n\r\nnull".to_vec(),
        b"POST /v1/exact HTTP/1.1\r\nContent-Length: 4\r\n\r\n[[[[".to_vec(),
        {
            let body = "[".repeat(500);
            format!(
                "POST /v1/bandwidth HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .into_bytes()
        },
    ];
    for payload in payloads {
        let started = Instant::now();
        let response = exchange(addr, &payload);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "no payload may hang the connection"
        );
        // Empty responses are allowed only for unreadable requests (the
        // connection died); anything answered must be a structured 4xx.
        if !response.is_empty() {
            assert!(response.starts_with("HTTP/1.1 4"), "{response}");
            assert!(response.contains("\"error\""), "{response}");
        }
    }
}
