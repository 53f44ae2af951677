//! Metric registry, latency quantiles, run record, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics (reported by every workload from its untraced run):
/// name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (reported by every workload from its traced run; a
/// layer the workload does not exercise reads 0): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.unseen_wait_us", "us"),
    ("server.handle_p50_us", "us"),
    ("client.connect_us", "us"),
    ("http.parse_head_us", "us"),
    ("service.parse_us", "us"),
    ("cache.get_hit_us", "us"),
    ("http.render_us", "us"),
    ("service.evaluate_us.bandwidth", "us"),
    ("service.evaluate_us.exact", "us"),
    ("service.evaluate_us.simulate", "us"),
    ("service.evaluate_us.degraded", "us"),
    ("service.evaluate_us.fabric", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.inserts", "count"),
    ("cache.dropped_at_capacity", "count"),
    ("workload.matrix_build_us", "us"),
    ("system.new_us", "us"),
    ("sim.lane_cycles_per_s", "1/s"),
    ("sim.exact_rel_gap", "ratio"),
    ("sim.batched_swar_ns_per_lane_cycle", "ns"),
    ("sim.batched_table_ns_per_lane_cycle", "ns"),
    ("sim.batched_vs_scalar.swar", "x"),
    ("sim.batched_vs_scalar.table", "x"),
    ("stats.parallel.speedup", "x"),
    ("latency.p99_us", "us"),
    ("latency.p99_tail_samples", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// The three workloads.
pub const WORKLOADS: &[&str] = &["serve_hot", "serve_cold", "sim_replicate"];

/// A request that failed (shed, non-200, transport or engine error) is
/// recorded with this latency: it misses any latency limit and is never
/// dropped from the quantiles.
pub const FAILED_LATENCY_NS: u64 = 30_000_000_000;

/// Fewer samples than this beyond a reported percentile flags the run.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank quantile summary of a latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The quantile value, µs.
    pub us: f64,
    /// Samples strictly after the quantile's rank.
    pub beyond: usize,
}

/// Nearest-rank quantile `q` of `sorted_ns` (ascending, nanoseconds).
/// Returns `None` for an empty sample.
pub fn quantile(sorted_ns: &[u64], q: f64) -> Option<Quantile> {
    if sorted_ns.is_empty() {
        return None;
    }
    let n = sorted_ns.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        us: sorted_ns[rank - 1] as f64 / 1e3,
        beyond: n - rank,
    })
}

/// Median of a sample (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One completed (or failed) request: when it ended and how long it took,
/// both in ns; the end is measured from the start of the window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// End time, ns since the window started.
    pub end_ns: u64,
    /// Latency, ns ([`FAILED_LATENCY_NS`] for a failure).
    pub latency_ns: u64,
}

/// Throughput and latency of a measurement window.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median sub-window throughput, requests per second.
    pub req_per_s: f64,
    /// Median sub-window p50 (`beyond` is the smallest over sub-windows).
    pub p50: Quantile,
    /// p99 over the whole window.
    pub p99: Quantile,
    /// Sub-windows summarized.
    pub windows: usize,
}

/// Splits the samples, in completion order, into consecutive sub-windows
/// of `per_window` requests and reports the median over sub-windows of
/// each one's throughput and p50. A trailing partial sub-window is left
/// out unless there is no full one. When another tenant takes the CPU for
/// a second, that moves a few sub-windows but not the median. The p99 is
/// taken over the whole window, so it has enough samples beyond it.
pub fn summarize(samples: &mut [Sample], per_window: usize) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by_key(|s| s.end_ns);
    let full = samples.len() / per_window;
    let chunks: Vec<&[Sample]> = if full == 0 {
        vec![&samples[..]]
    } else {
        samples.chunks_exact(per_window).collect()
    };
    let mut rates = Vec::with_capacity(chunks.len());
    let mut p50s = Vec::with_capacity(chunks.len());
    let mut beyond = usize::MAX;
    let mut window_start = 0u64;
    for chunk in &chunks {
        let window_end = chunk.last().map_or(window_start, |s| s.end_ns);
        let span = window_end.saturating_sub(window_start).max(1);
        rates.push(chunk.len() as f64 / (span as f64 / 1e9));
        window_start = window_end;
        let mut ns: Vec<u64> = chunk.iter().map(|s| s.latency_ns).collect();
        ns.sort_unstable();
        let q50 = quantile(&ns, 0.5)?;
        p50s.push(q50.us);
        beyond = beyond.min(q50.beyond);
    }
    let mut all: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    all.sort_unstable();
    Some(Summary {
        req_per_s: median(&rates),
        p50: Quantile {
            us: median(&p50s),
            beyond,
        },
        p99: quantile(&all, 0.99)?,
        windows: chunks.len(),
    })
}

/// Outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Requests (or design points) attempted.
    pub attempted: u64,
    /// Attempts that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable findings (gate failures, flags).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed correctness gate.
    pub fn fail_gate(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("GATE FAILED: {why}"));
    }

    /// Flags a percentile with too few samples beyond it.
    pub fn check_tail(&mut self, label: &str, q: &Quantile) {
        if q.beyond < MIN_TAIL_SAMPLES {
            self.notes.push(format!(
                "FLAG: {label} has only {} samples beyond it (want >= {MIN_TAIL_SAMPLES})",
                q.beyond
            ));
        }
    }

    /// Fills the metrics of `registry` that the workload did not set with
    /// 0 (layers it does not exercise).
    pub fn zero_fill(&mut self, registry: &[(&'static str, &str)]) {
        for (name, _) in registry {
            self.metrics.entry(name).or_insert(0.0);
        }
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the metrics being those of `registry`.
    pub fn result_line(&self, registry: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = registry
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// What every run records about where and how it ran.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run or not.
    pub trace: bool,
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// `rustc -V` output.
    pub rustc: String,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
}

impl RunInfo {
    /// Gathers the host facts for a run.
    pub fn gather(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        RunInfo {
            workload: workload.to_owned(),
            seed,
            seconds,
            trace,
            nproc: nproc(),
            cpu: cpu_model(),
            rustc: rustc_version(),
            commit: commit(),
        }
    }

    /// One JSON object (the spans file header).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.nproc,
            escape(&self.cpu),
            escape(&self.rustc),
            escape(&self.commit)
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .map(|c| if c == '"' || c == '\\' { '_' } else { c })
        .collect()
}

/// Worker and client count: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit of the checkout the benchmark was built in, read from its
/// `.git` directory; `unknown` outside a git checkout.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Cumulative (steal, total) CPU ticks of the host from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
