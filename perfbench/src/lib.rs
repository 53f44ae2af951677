//! The repository benchmark: three workloads, end-to-end metrics from an
//! untraced run and a per-layer breakdown from a separate traced run.
//! See `perfbench/README.md` for the workloads, the metrics and the map
//! of which layer metric should move which end-to-end metric.

pub mod gen;
pub mod report;
pub mod serve;
pub mod sim;
pub mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use trace::Span;

/// Runs `workload` for `seconds` of measurement. An untraced run reports
/// every end-to-end metric; a traced run every per-layer metric (0 for a
/// layer the workload does not exercise) plus the spans it recorded.
///
/// # Errors
///
/// An unknown workload, or a failure that leaves no result to report
/// (the server cannot bind, a warm-up request fails, nothing completed).
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Outcome, Vec<Span>), String> {
    let ticks = report::cpu_ticks();
    let (mut out, spans) = match workload {
        "serve_hot" => serve::run(serve::Mode::Hot, seed, seconds, traced)?,
        "serve_cold" => serve::run(serve::Mode::Cold, seed, seconds, traced)?,
        "sim_replicate" => sim::run(seed, seconds, traced)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks, report::cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        out.notes.push(format!(
            "host steal {:.2}% of CPU time during the run",
            share * 100.0
        ));
    }
    if traced {
        out.zero_fill(PER_LAYER);
    } else {
        out.set("peak_rss_mb", report::peak_rss_mb());
        if let Some((missing, _)) = END_TO_END
            .iter()
            .find(|(n, _)| !out.metrics.contains_key(n))
        {
            return Err(format!("{workload} did not report `{missing}`"));
        }
    }
    Ok((out, spans))
}
