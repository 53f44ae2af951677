//! In-memory span log for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (name, start, end, parent span, request id), kept in per-thread logs,
//! and written out as JSON lines when the run ends. An untraced log
//! records nothing and never reads the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, unique within the run (`0` is never used).
    pub id: u64,
    /// Parent span id, `0` for a root span.
    pub parent: u64,
    /// Request (or design point) the span belongs to.
    pub request: u64,
    /// Layer boundary name, e.g. `client.connect`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span log.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log for thread number `thread`; disabled logs record nothing.
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> Self {
        SpanLog {
            enabled,
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reads the clock when tracing, so untraced runs pay nothing.
    pub fn mark(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Reserves a span id for a span whose children close before it does.
    pub fn open(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        (self.thread << 40) | self.next
    }

    /// Records span `id` (from [`SpanLog::open`], or `0` to allocate one)
    /// from `start` to now. Returns the span's id.
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        start: Option<Instant>,
        parent: u64,
        request: u64,
    ) -> u64 {
        let Some(start) = start else { return 0 };
        let end = Instant::now();
        let id = if id == 0 { self.open() } else { id };
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }
}

/// Per-name span statistics: count, median duration, total and self time
/// (duration minus the part covered by child spans).
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    /// Spans with this name.
    pub count: u64,
    /// Median duration, µs.
    pub p50_us: f64,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time, ms.
    pub self_ms: f64,
}

/// Builds the per-layer table from a span log.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(span.parent).or_default() += span.duration_ns();
    }
    let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for span in spans {
        let d = span.duration_ns();
        durations.entry(span.name).or_default().push(d);
        let row = rows.entry(span.name).or_default();
        row.count += 1;
        row.total_ms += d as f64 / 1e6;
        let children = child_ns.get(&span.id).copied().unwrap_or(0);
        row.self_ms += d.saturating_sub(children) as f64 / 1e6;
    }
    for (name, mut ds) in durations {
        ds.sort_unstable();
        if let Some(row) = rows.get_mut(name) {
            row.p50_us = ds[ds.len() / 2] as f64 / 1e3;
        }
    }
    rows
}

/// Writes `header` (one JSON object) then one JSON object per span.
///
/// # Errors
///
/// Propagates file-system failures.
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
