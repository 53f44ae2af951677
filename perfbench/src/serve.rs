//! `serve_hot` and `serve_cold`: an in-process server driven by a closed
//! loop of `nproc` clients over loopback TCP.

use crate::gen::{self, Query};
use crate::report::{self, median, quantile, summarize, Outcome, Sample, FAILED_LATENCY_NS};
use crate::trace::{layer_table, Span, SpanLog};
use mbus_core::stats::cache::{CacheStats, MemoCache};
use mbus_server::http::{self, Response};
use mbus_server::service::{self, Endpoint, QueryKey, ServiceLimits};
use mbus_server::{Server, ServerConfig, ServerHandle};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Server setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests per sub-window when summarizing a serving window.
const PER_WINDOW: usize = 250;
/// Client socket timeout; a request still unanswered after it fails.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Repeated grid keys, all cache hits after warm-up.
    Hot,
    /// Distinct keys, every request evaluated.
    Cold,
}

/// A server running on a background thread.
struct Running {
    addr: String,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Binds an ephemeral loopback port and serves on a background thread
    /// with the default worker count and cache capacity.
    fn start() -> Result<Running, String> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run_until(|| false));
        Ok(Running {
            addr,
            handle,
            thread,
        })
    }

    /// Graceful shutdown; waits for the serving thread to end.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

/// A parsed HTTP reply.
struct Reply {
    status: u16,
    cached: bool,
    /// The envelope's `result` JSON (or the whole body when there is no
    /// envelope, e.g. an error).
    result: String,
}

/// Splits `{"endpoint":…,"cached":B,"result":R}` into `(B, R)`.
fn split_envelope(body: &str) -> Option<(bool, &str)> {
    let rest = body.strip_prefix("{\"endpoint\":\"")?;
    let (_, rest) = rest.split_once("\",\"cached\":")?;
    let (cached, rest) = match rest.strip_prefix("true") {
        Some(rest) => (true, rest),
        None => (false, rest.strip_prefix("false")?),
    };
    Some((
        cached,
        rest.strip_prefix(",\"result\":")?.strip_suffix('}')?,
    ))
}

fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let text = std::str::from_utf8(raw).ok()?;
    let status = text.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()?;
    let (_, body) = text.split_once("\r\n\r\n")?;
    let (cached, result) = split_envelope(body).unwrap_or((false, body));
    Some(Reply {
        status,
        cached,
        result: result.to_owned(),
    })
}

/// One request from connect to the last response byte. Returns the
/// latency in ns and the reply, `None` on a transport failure.
fn issue(addr: &str, bytes: &[u8], log: &mut SpanLog, request: u64) -> (u64, Option<Reply>) {
    let root = log.open();
    let t_root = log.mark();
    let start = Instant::now();
    let t = log.mark();
    let stream = TcpStream::connect(addr);
    log.close(0, "client.connect", t, root, request);
    let reply = stream.ok().and_then(|mut stream| {
        stream.set_read_timeout(Some(CLIENT_TIMEOUT)).ok()?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT)).ok()?;
        let t = log.mark();
        let sent = stream.write_all(bytes);
        log.close(0, "client.write", t, root, request);
        sent.ok()?;
        let t = log.mark();
        let mut raw = Vec::with_capacity(1024);
        let read = stream.read_to_end(&mut raw);
        log.close(0, "client.read", t, root, request);
        read.ok()?;
        parse_reply(&raw)
    });
    let latency = start.elapsed().as_nanos() as u64;
    log.close(root, "client.request", t_root, 0, request);
    (latency, reply)
}

/// `GET /metrics` from the running server.
fn scrape_metrics(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("metrics: {e}"))?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| format!("metrics: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
        .map_err(|e| format!("metrics: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("metrics: {e}"))?;
    Ok(raw
        .split_once("\r\n\r\n")
        .map_or(raw.clone(), |(_, b)| b.to_owned()))
}

/// The server's own median latency, µs: the request-weighted median of
/// the per-endpoint p50s in `/metrics`.
pub fn server_p50_us(metrics: &str) -> Option<f64> {
    let value = |prefix: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .and_then(|v| v.trim().parse::<f64>().ok())
    };
    let mut rows: Vec<(f64, f64)> = Endpoint::ALL
        .iter()
        .filter_map(|e| {
            let name = e.name();
            let requests = value(&format!(
                "mbus_endpoint_requests_total{{endpoint=\"{name}\"}} "
            ))?;
            let p50 = value(&format!(
                "mbus_endpoint_latency_us{{endpoint=\"{name}\",quantile=\"0.5\"}} "
            ))?;
            Some((p50, requests))
        })
        .filter(|(_, requests)| *requests > 0.0)
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = rows.iter().map(|r| r.1).sum();
    let mut seen = 0.0;
    rows.into_iter().find_map(|(p50, requests)| {
        seen += requests;
        (seen >= total / 2.0).then_some(p50)
    })
}

/// What one client thread saw during a window.
struct ClientRecord {
    latencies: Vec<Sample>,
    failed: u64,
    not_cached: u64,
    mismatched: Vec<String>,
    /// `serve_cold` replies kept for verification: (k, result digest).
    replies: Vec<(u64, u64)>,
    log: SpanLog,
}

/// The inputs of one workload.
struct Inputs {
    mode: Mode,
    seed: u64,
    /// `serve_hot`: request bytes of each grid key.
    grid_bytes: Vec<Vec<u8>>,
    /// `serve_hot`: expected `result` of each grid key.
    expected: Vec<String>,
    /// `serve_cold`: next request index.
    next: AtomicU64,
}

/// Results of one measurement window.
struct Window {
    latencies: Vec<Sample>,
    seconds: f64,
    failed: u64,
    not_cached: u64,
    mismatched: Vec<String>,
    replies: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

impl Window {
    fn attempted(&self) -> u64 {
        self.latencies.len() as u64
    }

    fn req_per_s(&self) -> f64 {
        self.attempted() as f64 / self.seconds
    }

    /// Latencies over the whole window, ascending.
    fn sorted_ns(&self) -> Vec<u64> {
        let mut ns: Vec<u64> = self.latencies.iter().map(|s| s.latency_ns).collect();
        ns.sort_unstable();
        ns
    }
}

fn client(
    c: usize,
    inputs: &Inputs,
    addr: &str,
    (start, deadline): (Instant, Instant),
    log: SpanLog,
) -> ClientRecord {
    let order = gen::hot_order(inputs.seed, c);
    let mut record = ClientRecord {
        latencies: Vec::new(),
        failed: 0,
        not_cached: 0,
        mismatched: Vec::new(),
        replies: Vec::new(),
        log,
    };
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let owned;
        let (bytes, request, key) = match inputs.mode {
            Mode::Hot => {
                let i = order[seq as usize % order.len()];
                (
                    &inputs.grid_bytes[i][..],
                    ((c as u64) << 32) | seq,
                    i as u64,
                )
            }
            Mode::Cold => {
                let k = inputs.next.fetch_add(1, Ordering::Relaxed);
                owned = gen::cold_query(inputs.seed, k).request_bytes();
                (&owned[..], k, k)
            }
        };
        seq += 1;
        let (latency, reply) = issue(addr, bytes, &mut record.log, request);
        let end_ns = start.elapsed().as_nanos() as u64;
        let ok = matches!(&reply, Some(r) if r.status == 200);
        record.latencies.push(Sample {
            end_ns,
            latency_ns: if ok { latency } else { FAILED_LATENCY_NS },
        });
        match reply {
            Some(reply) if reply.status == 200 => {
                if !reply.cached {
                    record.not_cached += 1;
                }
                match inputs.mode {
                    Mode::Hot => {
                        if reply.result != inputs.expected[key as usize] {
                            record.mismatched.push(format!("grid key {key}"));
                        }
                    }
                    Mode::Cold => record.replies.push((key, result_digest(&reply.result))),
                }
            }
            _ => record.failed += 1,
        }
    }
    record
}

/// Runs the closed loop of `nproc` clients for `seconds`.
fn drive(inputs: &Inputs, addr: &str, seconds: f64, traced: bool, epoch: Instant) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let records: Vec<ClientRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..report::nproc())
            .map(|c| {
                let log = SpanLog::new(traced, epoch, 1 + c as u64);
                scope.spawn(move || client(c, inputs, addr, (start, deadline), log))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut window = Window {
        latencies: Vec::new(),
        seconds,
        failed: 0,
        not_cached: 0,
        mismatched: Vec::new(),
        replies: Vec::new(),
        spans: Vec::new(),
    };
    for r in records {
        window.latencies.extend(r.latencies);
        window.failed += r.failed;
        window.not_cached += r.not_cached;
        window.mismatched.extend(r.mismatched);
        window.replies.extend(r.replies);
        window.spans.extend(r.log.spans);
    }
    window
}

/// Binds, starts and warms a server: every grid key is requested once,
/// from `nproc` clients.
fn setup(grid_bytes: &[Vec<u8>]) -> Result<Running, String> {
    let running = Running::start()?;
    let next = AtomicUsize::new(0);
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..report::nproc() {
            scope.spawn(|| {
                let mut log = SpanLog::new(false, Instant::now(), 0);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(bytes) = grid_bytes.get(i) else {
                        break;
                    };
                    let (_, reply) = issue(&running.addr, bytes, &mut log, i as u64);
                    if reply.is_none_or(|r| r.status != 200) {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    match failures.load(Ordering::Relaxed) {
        0 => Ok(running),
        n => {
            running.stop()?;
            Err(format!("{n} warm-up requests failed"))
        }
    }
}

/// A 64-bit digest of a reply's `result`, so a run keeps 16 bytes per
/// `serve_cold` reply instead of the body.
fn result_digest(result: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    result.hash(&mut h);
    h.finish()
}

/// The library's answer for `query`, as the server would render it.
fn library_result(query: &Query) -> Result<String, String> {
    let body = service::parse_body(query.body.as_bytes()).map_err(|e| e.message)?;
    let parsed = service::parse_query(query.endpoint, &body, &ServiceLimits::default())
        .map_err(|e| e.message)?;
    Ok(service::evaluate(&parsed).map_err(|e| e.message)?.render())
}

fn evaluate_span_name(endpoint: Endpoint) -> &'static str {
    match endpoint {
        Endpoint::Bandwidth => "service.evaluate.bandwidth",
        Endpoint::Exact => "service.evaluate.exact",
        Endpoint::Simulate => "service.evaluate.simulate",
        Endpoint::Degraded => "service.evaluate.degraded",
        Endpoint::Fabric => "service.evaluate.fabric",
    }
}

/// Checks every `serve_cold` reply against the library on `nproc` threads;
/// returns the mismatches and (when traced) one evaluate span per reply.
fn verify_cold(
    seed: u64,
    replies: &[(u64, u64)],
    traced: bool,
    epoch: Instant,
) -> (Vec<String>, Vec<Span>) {
    let next = AtomicUsize::new(0);
    let parts: Vec<(Vec<String>, SpanLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..report::nproc())
            .map(|t| {
                let next = &next;
                scope.spawn(move || {
                    let mut log = SpanLog::new(traced, epoch, 100 + t as u64);
                    let mut bad = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((k, got)) = replies.get(i) else {
                            break;
                        };
                        let query = gen::cold_query(seed, *k);
                        let t0 = log.mark();
                        let want = library_result(&query);
                        log.close(0, evaluate_span_name(query.endpoint), t0, 0, *k);
                        match want {
                            Ok(want) if result_digest(&want) == *got => {}
                            Ok(_) => {
                                bad.push(format!("cold request {k}: body differs from the library"))
                            }
                            Err(e) => bad.push(format!("cold request {k}: library error {e}")),
                        }
                    }
                    (bad, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier threads do not panic"))
            .collect()
    });
    let mut bad = Vec::new();
    let mut spans = Vec::new();
    for (b, log) in parts {
        bad.extend(b);
        spans.extend(log.spans);
    }
    (bad, spans)
}

/// Median per-call time, µs, of `f` over `items`: each item is timed over
/// `batch` back-to-back calls.
fn probe<T>(items: &[T], batch: u32, mut f: impl FnMut(&T)) -> f64 {
    let per_call: Vec<f64> = items
        .iter()
        .map(|item| {
            f(item);
            let start = Instant::now();
            for _ in 0..batch {
                f(item);
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(batch)
        })
        .collect();
    median(&per_call)
}

/// The layer probes: each of the serving layers' public functions called
/// on the workload's own request bytes and bodies.
fn probe_layers(queries: &[Query], out: &mut Outcome) -> Result<(), String> {
    let limits = ServiceLimits::default();
    let requests: Vec<Vec<u8>> = queries.iter().map(Query::request_bytes).collect();
    let heads: Vec<&[u8]> = requests
        .iter()
        .map(|r| {
            let end = r
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .unwrap_or(r.len());
            &r[..end]
        })
        .collect();
    out.set(
        "http.parse_head_us",
        probe(&heads, 200, |head| {
            let parsed = http::parse_request_head(black_box(head)).ok();
            black_box(parsed.as_ref().map(http::content_length).map(|c| c.ok()));
        }),
    );
    let mut keys: Vec<QueryKey> = Vec::with_capacity(queries.len());
    let mut envelopes = Vec::with_capacity(queries.len());
    for q in queries {
        let body = service::parse_body(q.body.as_bytes()).map_err(|e| e.message)?;
        let parsed = service::parse_query(q.endpoint, &body, &limits).map_err(|e| e.message)?;
        keys.push(parsed.key());
        let result = library_result(q)?;
        envelopes.push(format!(
            "{{\"endpoint\":\"{}\",\"cached\":true,\"result\":{result}}}",
            q.endpoint.name()
        ));
    }
    out.set(
        "service.parse_us",
        probe(queries, 20, |q| {
            let key = service::parse_body(black_box(q.body.as_bytes()))
                .and_then(|body| service::parse_query(q.endpoint, &body, &limits))
                .map(|parsed| parsed.key());
            black_box(key.ok());
        }),
    );
    // Same shard count and per-shard capacity as the server's cache.
    let cache: MemoCache<QueryKey, String> = MemoCache::new(4, 64);
    for (key, envelope) in keys.iter().zip(&envelopes) {
        cache.get_or_insert_with(key.clone(), || envelope.clone());
    }
    out.set(
        "cache.get_hit_us",
        probe(&keys, 200, |key| {
            black_box(cache.get(black_box(key)));
        }),
    );
    out.set(
        "http.render_us",
        probe(&envelopes, 200, |envelope| {
            black_box(Response::json(200, black_box(envelope).clone()).to_bytes());
        }),
    );
    Ok(())
}

fn finish_window(out: &mut Outcome, w: &Window) {
    out.attempted += w.attempted();
    out.failed += w.failed;
    for m in w.mismatched.iter().take(5) {
        out.fail_gate(m.clone());
    }
    if w.mismatched.len() > 5 {
        out.fail_gate(format!(
            "{} mismatched responses in all",
            w.mismatched.len()
        ));
    }
}

/// Runs a serving workload; `seconds` is the measured window.
pub fn run(
    mode: Mode,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Outcome, Vec<Span>), String> {
    let grid = gen::grid();
    let grid_bytes: Vec<Vec<u8>> = grid.iter().map(Query::request_bytes).collect();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let epoch = Instant::now();

    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut running = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        let start = Instant::now();
        let fresh = setup(&grid_bytes)?;
        setup_times.push(start.elapsed().as_secs_f64());
        if let Some(old) = running.replace(fresh) {
            Running::stop(old)?;
        }
    }
    let running = running.expect("at least one setup ran");
    let expected = match mode {
        Mode::Hot => grid
            .iter()
            .map(library_result)
            .collect::<Result<Vec<_>, _>>()?,
        Mode::Cold => Vec::new(),
    };
    let inputs = Inputs {
        mode,
        seed,
        grid_bytes,
        expected,
        next: AtomicU64::new(0),
    };

    let mut spans = Vec::new();
    if !traced {
        let mut w = drive(&inputs, &running.addr, seconds, false, epoch);
        running.stop()?;
        finish_window(&mut out, &w);
        let (bad, _) = verify_cold(seed, &w.replies, false, epoch);
        for b in bad.iter().take(5) {
            out.fail_gate(b.clone());
        }
        let summary = summarize(&mut w.latencies, PER_WINDOW).ok_or("no requests completed")?;
        out.check_tail("latency p99", &summary.p99);
        out.notes.push(format!(
            "latency p99 {:.1} us; {} sub-windows of {PER_WINDOW} requests",
            summary.p99.us, summary.windows
        ));
        out.set("setup_s", median(&setup_times));
        out.set("req_per_s", summary.req_per_s);
        out.set("latency_p50_us", summary.p50.us);
        out.set(
            "ok_frac",
            1.0 - w.failed as f64 / w.attempted().max(1) as f64,
        );
        if mode == Mode::Hot && w.not_cached > 0 {
            out.notes.push(format!(
                "{} serve_hot replies were not cache hits",
                w.not_cached
            ));
        }
        return Ok((out, spans));
    }

    // Traced run: a traced window, a scrape of the server's own view, then
    // an untraced window of the same length for the overhead.
    let before: CacheStats = running.handle.cache_stats();
    let traced_w = drive(&inputs, &running.addr, seconds / 2.0, true, epoch);
    let after = running.handle.cache_stats();
    let metrics_text = scrape_metrics(&running.addr)?;
    let plain_w = drive(&inputs, &running.addr, seconds / 2.0, false, epoch);
    running.stop()?;
    finish_window(&mut out, &traced_w);
    finish_window(&mut out, &plain_w);
    let mut replies = traced_w.replies.clone();
    replies.extend(plain_w.replies.iter().copied());
    let (bad, eval_spans) = verify_cold(seed, &replies, true, epoch);
    for b in bad.iter().take(5) {
        out.fail_gate(b.clone());
    }

    let traced_ns = traced_w.sorted_ns();
    let client_p50 = quantile(&traced_ns, 0.5).ok_or("no requests completed")?;
    let p99 = quantile(&plain_w.sorted_ns(), 0.99).ok_or("no requests completed")?;
    let server_p50 = server_p50_us(&metrics_text).ok_or("no latency quantiles in /metrics")?;
    out.set("server.handle_p50_us", server_p50);
    out.set("server.unseen_wait_us", client_p50.us - server_p50);
    out.set("latency.p99_us", p99.us);
    out.set("latency.p99_tail_samples", p99.beyond as f64);
    out.set(
        "trace.overhead_frac",
        1.0 - traced_w.req_per_s() / plain_w.req_per_s(),
    );

    spans.extend(traced_w.spans.iter().copied());
    spans.extend(eval_spans);
    let table = layer_table(&spans);
    let p50_of = |name: &str| table.get(name).map_or(0.0, |row| row.p50_us);
    out.set("client.connect_us", p50_of("client.connect"));
    for e in Endpoint::ALL {
        let metric = match e {
            Endpoint::Bandwidth => "service.evaluate_us.bandwidth",
            Endpoint::Exact => "service.evaluate_us.exact",
            Endpoint::Simulate => "service.evaluate_us.simulate",
            Endpoint::Degraded => "service.evaluate_us.degraded",
            Endpoint::Fabric => "service.evaluate_us.fabric",
        };
        out.set(metric, p50_of(evaluate_span_name(e)));
    }

    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let inserts = after.inserts - before.inserts;
    out.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("cache.inserts", inserts as f64);
    out.set(
        "cache.dropped_at_capacity",
        misses.saturating_sub(inserts) as f64,
    );

    let sample: Vec<Query> = match mode {
        Mode::Hot => grid,
        Mode::Cold => (0..gen::GRID_KEYS as u64)
            .map(|k| gen::cold_query(seed, k))
            .collect(),
    };
    probe_layers(&sample, &mut out)?;
    out.set("trace.spans", spans.len() as f64);
    Ok((out, spans))
}
