//! The serving loop: bounded queue, worker pool, memoization, shedding.
//!
//! Architecture (one paragraph): the accept thread runs a non-blocking
//! `accept` poll so it can observe shutdown requests between connections;
//! accepted sockets go into a bounded [`VecDeque`] guarded by a mutex +
//! condvar, and a fixed pool of scoped worker threads pops from it. When
//! the queue is full the accept thread answers `429 Too Many Requests`
//! (with `Retry-After`) inline and drops the connection — load is shed
//! with a well-formed response, never a hang or a silent close. On
//! shutdown (signal, [`ServerHandle::shutdown`], or the `stop` closure)
//! the accept loop stops, the queue is marked closed, and workers drain
//! every already-accepted connection before exiting, so no accepted
//! request is ever dropped.
//!
//! Results are memoized in a sharded [`MemoCache`] keyed by
//! [`QueryKey`] (endpoint + canonical network + workload fingerprint +
//! rate bits + extras). The cache stores the rendered `result` JSON
//! string; the envelope (`endpoint`, `cached`) is stamped per response.

use crate::http::{self, Limits, Request, Response};
use crate::metrics::Metrics;
use crate::service::{self, ApiError, Endpoint, Query, QueryKey, ServiceLimits};
use mbus_core::exact;
use mbus_stats::cache::{CacheStats, MemoCache};
use mbus_stats::parallel::available_workers;
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long shed clients are told to back off.
const RETRY_AFTER_SECONDS: u32 = 1;
/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Cap on concurrent shed-responder threads; beyond it (an extreme flood)
/// excess connections are dropped without a response.
const MAX_SHED_RESPONDERS: u64 = 64;

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7700` (port 0 for an ephemeral port).
    pub addr: String,
    /// Worker thread count (minimum 1).
    pub workers: usize,
    /// Total memoization-cache capacity (entries across all shards).
    pub cache_capacity: usize,
    /// Bounded accept-queue length; connections beyond it are shed.
    pub queue_capacity: usize,
    /// HTTP framing limits.
    pub http_limits: Limits,
    /// Engine workload limits.
    pub service_limits: ServiceLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7700".to_owned(),
            workers: available_workers(),
            cache_capacity: 256,
            queue_capacity: 64,
            http_limits: Limits::default(),
            service_limits: ServiceLimits::default(),
        }
    }
}

/// Cache shard count (fixed; capacity is divided across shards).
const CACHE_SHARDS: usize = 4;

/// Accept queue + close flag, guarded by one mutex.
#[derive(Debug, Default)]
struct Queue {
    connections: VecDeque<TcpStream>,
    closed: bool,
}

/// State shared by the accept loop, the workers, and [`ServerHandle`]s.
#[derive(Debug)]
struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
    stop: AtomicBool,
    metrics: Metrics,
    cache: MemoCache<QueryKey, String>,
    http_limits: Limits,
    service_limits: ServiceLimits,
    shed_responders: std::sync::atomic::AtomicU64,
}

/// A bound, ready-to-run server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    workers: usize,
    queue_capacity: usize,
    shared: Arc<Shared>,
}

/// A clonable remote control for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Requests a graceful shutdown: the accept loop stops, queued and
    /// in-flight requests finish, then `run` returns.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Counter snapshot of the query cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Total responses written so far (shed included).
    pub fn responses(&self) -> u64 {
        self.shared.metrics.total()
    }

    /// Load-shed (429) responses written so far.
    pub fn shed(&self) -> u64 {
        self.shared.metrics.shed()
    }

    /// 5xx responses written so far.
    pub fn server_errors(&self) -> u64 {
        self.shared.metrics.server_errors()
    }
}

impl Server {
    /// Binds the listener and prepares the shared state.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let per_shard = (config.cache_capacity / CACHE_SHARDS).max(1);
        let metrics = Metrics::new();
        let workers = config.workers.max(1);
        metrics.set_workers(workers);
        Ok(Server {
            listener,
            workers,
            queue_capacity: config.queue_capacity.max(1),
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue::default()),
                available: Condvar::new(),
                stop: AtomicBool::new(false),
                metrics,
                cache: MemoCache::new(CACHE_SHARDS, per_shard),
                http_limits: config.http_limits,
                service_limits: config.service_limits,
                shed_responders: std::sync::atomic::AtomicU64::new(0),
            }),
        })
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote control usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until a [`ServerHandle::shutdown`] arrives.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn run(self) -> std::io::Result<()> {
        self.run_until(|| false)
    }

    /// Serves until `stop()` returns true (polled every few milliseconds)
    /// or a [`ServerHandle::shutdown`] arrives, then drains gracefully.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn run_until(self, stop: impl Fn() -> bool) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let shared = &self.shared;
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| worker_loop(shared));
            }
            while !stop() && !shared.stop.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => enqueue(&self.shared, self.queue_capacity, stream),
                    Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                    // Transient accept failures (e.g. per-connection
                    // resets) must not kill the server.
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.closed = true;
            drop(queue);
            shared.available.notify_all();
        });
        Ok(())
    }
}

/// Enqueues an accepted connection, or sheds it with a 429 when the queue
/// is at capacity.
fn enqueue(shared: &Arc<Shared>, capacity: usize, stream: TcpStream) {
    let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
    if queue.connections.len() >= capacity {
        drop(queue);
        shared.metrics.record_shed();
        // Answering a shed connection properly means *reading* its request
        // first — closing with unread bytes in flight turns into a TCP
        // reset that can destroy the 429 before the client sees it. That
        // read must not block the accept loop, so a short-lived responder
        // thread drains and answers; a bounded pool of them caps the cost
        // under a flood (beyond it, excess connections are just dropped).
        let before = shared.shed_responders.fetch_add(1, Ordering::SeqCst);
        if before >= MAX_SHED_RESPONDERS {
            shared.shed_responders.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let responder_shared = Arc::clone(shared);
        std::thread::spawn(move || {
            answer_shed(stream, &responder_shared.http_limits);
            responder_shared
                .shed_responders
                .fetch_sub(1, Ordering::SeqCst);
        });
        return;
    }
    queue.connections.push_back(stream);
    drop(queue);
    shared.available.notify_one();
}

/// Drains the shed connection's request (best-effort, bounded by the HTTP
/// limits) and answers `429` + `Retry-After`.
fn answer_shed(mut stream: TcpStream, limits: &Limits) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    // Outcome ignored: even a malformed or oversized request gets the 429,
    // and the read itself is what prevents the reset race.
    // lint:allow(unchecked_result, best-effort drain; the 429 below is the answer either way)
    let _ = http::read_request(&mut stream, limits);
    let body = ApiError {
        status: 429,
        kind: "shed",
        message: format!("server at capacity; retry after {RETRY_AFTER_SECONDS}s"),
    }
    .to_body();
    let response = Response::json(429, body).with_retry_after(RETRY_AFTER_SECONDS);
    // lint:allow(unchecked_result, shed path; a client that hung up loses nothing)
    let _ = response.write_to(&mut stream);
}

/// Worker body: pop connections until the queue is closed *and* empty.
fn worker_loop(shared: &Shared) {
    loop {
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let stream = loop {
            if let Some(stream) = queue.connections.pop_front() {
                break stream;
            }
            if queue.closed {
                return;
            }
            queue = shared
                .available
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(queue);
        shared.metrics.worker_busy();
        handle_connection(shared, stream);
        shared.metrics.worker_idle();
    }
}

/// Reads one request, routes it, writes one response, closes.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let start = Instant::now();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    match http::read_request(&mut stream, &shared.http_limits) {
        Ok(request) => {
            let (endpoint, cache_hit, response) = route(shared, &request);
            // lint:allow(unchecked_result, a write failure means the peer vanished; metrics still record)
            let _ = response.write_to(&mut stream);
            shared
                .metrics
                .record_response(endpoint, response.status, cache_hit, start.elapsed());
        }
        Err(err) => {
            let Some(status) = err.status() else {
                // The connection died mid-request; nothing to answer.
                return;
            };
            let api = ApiError {
                status,
                kind: match status {
                    408 => "timeout",
                    411 => "length_required",
                    413 => "payload_too_large",
                    _ => "bad_request",
                },
                message: err.reason(),
            };
            // lint:allow(unchecked_result, error-path courtesy response; peer may already be gone)
            let _ = Response::json(status, api.to_body()).write_to(&mut stream);
            shared
                .metrics
                .record_response(None, status, false, start.elapsed());
        }
    }
}

/// Dispatches a parsed request to `/metrics` or a query endpoint.
fn route(shared: &Shared, request: &Request) -> (Option<Endpoint>, bool, Response) {
    if request.path == "/metrics" {
        if request.method != "GET" {
            return (None, false, method_not_allowed("GET"));
        }
        let text = shared.metrics.render_text(&[
            ("mbus_cache", shared.cache.stats()),
            ("mbus_exact_pmf_cache", exact::transform::pmf_cache_stats()),
            (
                "mbus_exact_served_table_cache",
                exact::memo::served_table_cache_stats(),
            ),
        ]);
        return (None, false, Response::text(200, text));
    }
    let Some(endpoint) = Endpoint::from_path(&request.path) else {
        let api = ApiError {
            status: 404,
            kind: "not_found",
            message: format!("no such endpoint: {}", request.path),
        };
        return (None, false, Response::json(404, api.to_body()));
    };
    if request.method != "POST" {
        return (Some(endpoint), false, method_not_allowed("POST"));
    }
    match answer(shared, endpoint, &request.body) {
        Ok((cache_hit, body)) => (Some(endpoint), cache_hit, Response::json(200, body)),
        Err(api) => (
            Some(endpoint),
            false,
            Response::json(api.status, api.to_body()),
        ),
    }
}

fn method_not_allowed(allowed: &str) -> Response {
    let api = ApiError {
        status: 405,
        kind: "method_not_allowed",
        message: format!("use {allowed}"),
    };
    Response::json(405, api.to_body())
}

/// Parses, memoizes, and evaluates one endpoint request. Returns the
/// cache-hit flag and the response body.
fn answer(shared: &Shared, endpoint: Endpoint, body: &[u8]) -> Result<(bool, String), ApiError> {
    let parsed = service::parse_body(body)?;
    let query: Query = service::parse_query(endpoint, &parsed, &shared.service_limits)?;
    let key = query.key();
    let (cache_hit, result) = match shared.cache.get(&key) {
        Some(hit) => (true, hit),
        None => {
            let result = service::evaluate(&query)?.render();
            (false, shared.cache.get_or_insert_with(key, move || result))
        }
    };
    Ok((cache_hit, envelope(endpoint, cache_hit, &result)))
}

/// The response envelope around a (possibly cached) rendered result.
fn envelope(endpoint: Endpoint, cached: bool, result: &str) -> String {
    format!(
        "{{\"endpoint\":\"{}\",\"cached\":{},\"result\":{}}}",
        endpoint.name(),
        cached,
        result
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_wraps_the_result_verbatim() {
        let body = envelope(Endpoint::Bandwidth, true, "{\"bandwidth\":3.5}");
        let parsed = crate::json::parse(&body).unwrap();
        assert_eq!(parsed.get("endpoint").unwrap().as_str(), Some("bandwidth"));
        assert_eq!(parsed.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            parsed
                .get("result")
                .unwrap()
                .get("bandwidth")
                .unwrap()
                .as_f64(),
            Some(3.5)
        );
    }

    #[test]
    fn answer_hits_the_cache_on_repeat() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        })
        .unwrap();
        let shared = &server.shared;
        let (hit1, body1) = answer(shared, Endpoint::Bandwidth, b"{}").unwrap();
        let (hit2, body2) = answer(shared, Endpoint::Bandwidth, b"{\"n\": 8}").unwrap();
        assert!(!hit1);
        assert!(
            hit2,
            "explicit default must hit the implicit default's entry"
        );
        assert_eq!(
            body1.replace("\"cached\":false", ""),
            body2.replace("\"cached\":true", "")
        );
        let stats = shared.cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn answer_propagates_structured_errors() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        })
        .unwrap();
        let err = answer(&server.shared, Endpoint::Bandwidth, b"not json").unwrap_err();
        assert_eq!((err.status, err.kind), (400, "bad_json"));
        let err = answer(
            &server.shared,
            Endpoint::Simulate,
            b"{\"cycles\": 9999999999}",
        )
        .unwrap_err();
        assert_eq!(err.status, 422);
    }
}
