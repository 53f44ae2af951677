//! `mbus-server` — a concurrent bandwidth-query service over the
//! multibus engines, plus the load generator that benchmarks it.
//!
//! The workspace's analytical, exact, simulated, and degraded-mode
//! engines answer one question each; this crate puts them behind a
//! dependency-free HTTP/1.1 JSON service (`std::net` only — the build
//! environment is fully offline) so sweeps and dashboards can query a
//! long-lived process that amortizes its caches across requests:
//!
//! | route | engine |
//! |---|---|
//! | `POST /v1/bandwidth` | closed-form analysis |
//! | `POST /v1/exact` | subset-transform / closed-form exact |
//! | `POST /v1/simulate` | bounded-cycle simulation |
//! | `POST /v1/degraded` | fault-mask degraded-mode analysis |
//! | `GET /metrics` | Prometheus-style counters and latency quantiles |
//!
//! Robustness is the design center, in layers:
//!
//! * **Framing** ([`http`]) — size-capped heads and bodies, socket read
//!   timeouts, structured 4xx for every malformed input; parsing is pure
//!   and proptested against garbage bytes.
//! * **Validation** ([`service`]) — CLI-identical fields and defaults,
//!   unknown-field rejection, dimension and cycle-budget caps, every
//!   engine error mapped to a JSON error body. No code path panics; the
//!   workspace `mbus lint` no-panic gate covers this crate.
//! * **Backpressure** ([`server`]) — a bounded accept queue ahead of a
//!   fixed worker pool; overflow is answered `429` + `Retry-After`
//!   inline, and graceful shutdown (SIGTERM/SIGINT via [`signal`], or a
//!   [`ServerHandle`]) drains every accepted connection before exit.
//! * **Memoization** — results cached in a sharded
//!   [`MemoCache`](mbus_stats::cache::MemoCache) keyed by workload
//!   fingerprint + canonical network + rate bits; `/metrics` exposes the
//!   hit/miss/insert counters.
//!
//! [`loadgen::grid_request`] is the deterministic mixed-endpoint query
//! grid that perfbench's `serve_hot` and `serve_cold` workloads drive
//! against an in-process [`Server`]; perfbench is the one load generator.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod server;
pub mod service;
#[allow(unsafe_code)] // the one unsafe island: the POSIX signal(2) shim
pub mod signal;

pub use server::{Server, ServerConfig, ServerHandle};
pub use service::{ApiError, Endpoint, ServiceLimits};
