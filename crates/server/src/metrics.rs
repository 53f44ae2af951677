//! Server-side observability: lock-light counters and latency histograms.
//!
//! Every counter is a relaxed [`AtomicU64`] — the request path pays a
//! handful of uncontended atomic increments plus one short mutex hold to
//! record the latency sample. `GET /metrics` renders the whole state as a
//! Prometheus-style text document, folding in the memo-cache counters
//! ([`CacheStats`]) supplied by the server: the query cache and the exact
//! engine's process-wide served-table cache.

use crate::service::Endpoint;
use mbus_stats::cache::CacheStats;
use mbus_stats::Histogram;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Latency samples are recorded in microseconds; samples beyond one second
/// saturate. A saturated sample is *counted* (the
/// `mbus_endpoint_latency_saturated_total` counter) but **excluded** from
/// the histogram: folding it in at `MAX_LATENCY_US` would report the clamp
/// value as a real quantile, silently under-reporting tail latency. The
/// bound also keeps the dense histogram vector from growing unboundedly.
pub(crate) const MAX_LATENCY_US: u64 = 1_000_000;

/// Per-endpoint counters and latency distribution.
#[derive(Debug, Default)]
struct EndpointMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    latency_saturated: AtomicU64,
    latency_us: Mutex<Histogram>,
}

/// Process-wide serving metrics. One instance is shared by every worker.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    total: AtomicU64,
    shed: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    workers: AtomicU64,
    busy_workers: AtomicU64,
    per_endpoint: [EndpointMetrics; 5],
}

impl Metrics {
    /// Fresh all-zero metrics.
    pub(crate) fn new() -> Self {
        Metrics::default()
    }

    /// Records the configured worker count (a gauge set once at startup).
    pub(crate) fn set_workers(&self, workers: usize) {
        self.workers.store(
            u64::try_from(workers).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// Marks a worker as busy; pair with [`Metrics::worker_idle`].
    pub(crate) fn worker_busy(&self) {
        self.busy_workers.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a worker as idle again.
    pub(crate) fn worker_idle(&self) {
        self.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a load-shed connection (answered 429 without dispatch).
    pub(crate) fn record_shed(&self) {
        self.total.fetch_add(1, Ordering::Relaxed);
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.responses_4xx.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed response: overall counters, the status class,
    /// and — when the request reached an endpoint — that endpoint's count,
    /// error count, cache-hit count, and latency sample.
    pub(crate) fn record_response(
        &self,
        endpoint: Option<Endpoint>,
        status: u16,
        cache_hit: bool,
        latency: Duration,
    ) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if (400..500).contains(&status) {
            self.responses_4xx.fetch_add(1, Ordering::Relaxed);
        } else if status >= 500 {
            self.responses_5xx.fetch_add(1, Ordering::Relaxed);
        }
        let Some(endpoint) = endpoint else { return };
        let slot = &self.per_endpoint[endpoint.index()];
        slot.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            slot.errors.fetch_add(1, Ordering::Relaxed);
        }
        if cache_hit {
            slot.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        if us > MAX_LATENCY_US {
            slot.latency_saturated.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut histogram = slot
            .latency_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Bounded by MAX_LATENCY_US above, which fits usize on every
        // supported platform.
        histogram.record(us as usize);
    }

    /// Total responses written (shed included).
    pub(crate) fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Load-shed responses written.
    pub(crate) fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// 5xx responses written (must stay 0 under capacity).
    pub(crate) fn server_errors(&self) -> u64 {
        self.responses_5xx.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus-style text document served at `/metrics`.
    /// `caches` pairs each memo cache's metric-name prefix with its counter
    /// snapshot; each renders as `{prefix}_{hits,misses,inserts,entries}`.
    pub(crate) fn render_text(&self, caches: &[(&str, CacheStats)]) -> String {
        let mut out = String::with_capacity(1024);
        let mut line = |name: &str, value: u64| {
            let _ = writeln!(out, "{name} {value}");
        };
        line("mbus_requests_total", self.total.load(Ordering::Relaxed));
        line("mbus_shed_total", self.shed.load(Ordering::Relaxed));
        line(
            "mbus_responses_4xx_total",
            self.responses_4xx.load(Ordering::Relaxed),
        );
        line(
            "mbus_responses_5xx_total",
            self.responses_5xx.load(Ordering::Relaxed),
        );
        line("mbus_workers", self.workers.load(Ordering::Relaxed));
        line(
            "mbus_workers_busy",
            self.busy_workers.load(Ordering::Relaxed),
        );
        for (prefix, cache) in caches {
            line(&format!("{prefix}_hits"), cache.hits);
            line(&format!("{prefix}_misses"), cache.misses);
            line(&format!("{prefix}_inserts"), cache.inserts);
            line(&format!("{prefix}_entries"), cache.len);
        }
        for endpoint in Endpoint::ALL {
            let slot = &self.per_endpoint[endpoint.index()];
            let name = endpoint.name();
            let _ = writeln!(
                out,
                "mbus_endpoint_requests_total{{endpoint=\"{name}\"}} {}",
                slot.requests.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "mbus_endpoint_errors_total{{endpoint=\"{name}\"}} {}",
                slot.errors.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "mbus_endpoint_cache_hits_total{{endpoint=\"{name}\"}} {}",
                slot.cache_hits.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "mbus_endpoint_latency_saturated_total{{endpoint=\"{name}\"}} {}",
                slot.latency_saturated.load(Ordering::Relaxed)
            );
            let histogram = slot
                .latency_us
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                if let Some(value) = histogram.quantile(q) {
                    let _ = writeln!(
                        out,
                        "mbus_endpoint_latency_us{{endpoint=\"{name}\",quantile=\"{label}\"}} {value}"
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let metrics = Metrics::new();
        metrics.set_workers(4);
        metrics.worker_busy();
        metrics.record_response(
            Some(Endpoint::Bandwidth),
            200,
            false,
            Duration::from_micros(150),
        );
        metrics.record_response(
            Some(Endpoint::Bandwidth),
            200,
            true,
            Duration::from_micros(50),
        );
        metrics.record_response(Some(Endpoint::Exact), 422, false, Duration::from_micros(10));
        metrics.record_response(None, 404, false, Duration::from_micros(5));
        metrics.record_shed();
        metrics.worker_idle();

        assert_eq!(metrics.total(), 5);
        assert_eq!(metrics.shed(), 1);
        assert_eq!(metrics.server_errors(), 0);

        let query = CacheStats {
            hits: 1,
            misses: 2,
            inserts: 2,
            len: 2,
        };
        let served = CacheStats {
            hits: 5,
            misses: 6,
            inserts: 6,
            len: 2,
        };
        let text = metrics.render_text(&[
            ("mbus_cache", query),
            ("mbus_exact_served_table_cache", served),
        ]);
        assert!(text.contains("mbus_requests_total 5"));
        assert!(text.contains("mbus_shed_total 1"));
        assert!(text.contains("mbus_responses_4xx_total 3"));
        assert!(text.contains("mbus_responses_5xx_total 0"));
        assert!(text.contains("mbus_workers 4"));
        assert!(text.contains("mbus_workers_busy 0"));
        assert!(text.contains("mbus_cache_hits 1"));
        assert!(text.contains("mbus_cache_entries 2"));
        assert!(text.contains("mbus_exact_served_table_cache_hits 5"));
        assert!(text.contains("mbus_exact_served_table_cache_misses 6"));
        assert!(text.contains("mbus_exact_served_table_cache_inserts 6"));
        assert!(text.contains("mbus_exact_served_table_cache_entries 2"));
        assert!(text.contains("mbus_endpoint_requests_total{endpoint=\"bandwidth\"} 2"));
        assert!(text.contains("mbus_endpoint_cache_hits_total{endpoint=\"bandwidth\"} 1"));
        assert!(text.contains("mbus_endpoint_errors_total{endpoint=\"exact\"} 1"));
        assert!(text.contains("endpoint=\"bandwidth\",quantile=\"0.5\""));
    }

    #[test]
    fn saturated_latencies_are_counted_not_quantiled() {
        let metrics = Metrics::new();
        metrics.record_response(
            Some(Endpoint::Simulate),
            200,
            false,
            Duration::from_secs(3600),
        );
        let text = metrics.render_text(&[]);
        // The saturated sample increments the counter …
        assert!(text.contains("mbus_endpoint_latency_saturated_total{endpoint=\"simulate\"} 1"));
        // … and stays out of the histogram, so no quantile line claims the
        // clamp value was a real observation.
        assert!(!text.contains("endpoint=\"simulate\",quantile="));

        // A fast request after the outlier: quantiles reflect only it.
        metrics.record_response(
            Some(Endpoint::Simulate),
            200,
            false,
            Duration::from_micros(120),
        );
        let text = metrics.render_text(&[]);
        assert!(
            text.contains("mbus_endpoint_latency_us{endpoint=\"simulate\",quantile=\"0.99\"} 120")
        );
        assert!(!text.contains(&MAX_LATENCY_US.to_string()));
    }

    #[test]
    fn exact_one_second_latency_is_still_a_sample() {
        let metrics = Metrics::new();
        metrics.record_response(
            Some(Endpoint::Exact),
            200,
            false,
            Duration::from_micros(MAX_LATENCY_US),
        );
        let text = metrics.render_text(&[]);
        assert!(text.contains("mbus_endpoint_latency_saturated_total{endpoint=\"exact\"} 0"));
        assert!(text.contains(&format!(
            "mbus_endpoint_latency_us{{endpoint=\"exact\",quantile=\"0.5\"}} {MAX_LATENCY_US}"
        )));
    }
}
