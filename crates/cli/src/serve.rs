//! `mbus serve` — the serving layer's CLI face.
//!
//! Binds the [`mbus_server::Server`] on a TCP address and runs it until
//! SIGTERM/SIGINT (graceful drain: accepted connections finish, the cache
//! and metrics are reported on the way out). Load is generated by
//! perfbench's `serve_hot` and `serve_cold` workloads, not by the CLI.

use crate::args::Args;
use mbus_core::stats::parallel::available_workers;
use mbus_server::server::{Server, ServerConfig};
use mbus_server::service::ServiceLimits;
use mbus_server::signal;

/// `mbus serve`.
pub(crate) fn serve(args: &Args) -> Result<(), String> {
    let config = ServerConfig {
        addr: args.get_or("addr", "127.0.0.1:7700".to_owned())?,
        workers: args.get_or("workers", available_workers())?,
        cache_capacity: args.get_or("cache-cap", 256usize)?,
        queue_capacity: args.get_or("queue-cap", 64usize)?,
        service_limits: ServiceLimits {
            max_cycles: args.get_or("max-cycles", ServiceLimits::default().max_cycles)?,
            ..ServiceLimits::default()
        },
        ..ServerConfig::default()
    };
    if config.workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }

    let server =
        Server::bind(config.clone()).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot resolve local address: {e}"))?;
    let handle = server.handle();

    println!(
        "mbus serve: listening on {addr} ({} workers, queue {}, cache {} entries)",
        config.workers, config.queue_capacity, config.cache_capacity
    );
    println!("endpoints: POST /v1/{{bandwidth,exact,simulate,degraded,fabric}}, GET /metrics");
    if signal::install() {
        println!("stop with SIGTERM or ctrl-c (graceful drain)");
    } else {
        println!("note: no signal handler on this platform; stop by killing the process");
    }

    server
        .run_until(signal::requested)
        .map_err(|e| format!("server failed: {e}"))?;

    let stats = handle.cache_stats();
    println!(
        "mbus serve: drained and stopped — {} responses ({} shed, {} 5xx), cache {:.1}% hit rate ({} entries)",
        handle.responses(),
        handle.shed(),
        handle.server_errors(),
        stats.hit_rate() * 100.0,
        stats.len
    );
    Ok(())
}
