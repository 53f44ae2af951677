//! Text and markdown renderers for [`TraceAnalysis`] (the
//! `mbus trace analyze` output). The `--json` document is built by the
//! `mbus_server::service::trace_json`, the same object `/v1/simulate` attaches
//! as its `trace` field.

use crate::analyze::TraceAnalysis;
use mbus_stats::Histogram;

fn rate(part: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        part as f64 / cycles as f64
    }
}

fn quantile_cell(h: &Histogram, q: f64) -> String {
    match h.quantile(q) {
        Some(v) => v.to_string(),
        None => "—".to_owned(),
    }
}

/// Renders the analysis as an aligned plain-text report.
pub fn render_text(a: &TraceAnalysis) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} — N = {}, M = {}, B = {}, resubmission = {}\n",
        a.header.scheme.kind(),
        a.header.processors,
        a.header.memories,
        a.header.buses,
        a.header.resubmission,
    ));
    out.push_str(&format!(
        "cycles {}   issued {:.4}/cyc   served {:.4}/cyc   blocked {:.4}/cyc   unreachable {:.4}/cyc\n",
        a.cycles,
        rate(a.issued, a.cycles),
        rate(a.served, a.cycles),
        rate(a.blocked_total, a.cycles),
        rate(a.unreachable, a.cycles),
    ));
    out.push_str(&format!(
        "waits: mean {:.4}  p50 {}  p90 {}  p99 {}  max {}\n",
        a.wait_histogram.mean(),
        quantile_cell(&a.wait_histogram, 0.5),
        quantile_cell(&a.wait_histogram, 0.9),
        quantile_cell(&a.wait_histogram, 0.99),
        a.wait_histogram.max_value().unwrap_or(0),
    ));
    out.push_str("\n  bus      busy     alive    util  blocked-share  pressure\n");
    for (bus, stats) in a.buses.iter().enumerate() {
        out.push_str(&format!(
            "  {bus:>3} {:>9} {:>9}  {:.4} {:>14.2}    {:.4}\n",
            stats.busy_cycles,
            stats.alive_cycles,
            stats.utilization,
            stats.blocked_share,
            stats.pressure,
        ));
    }
    if a.bottlenecks.is_empty() {
        out.push_str("\nbottlenecks: none (crossbar — no shared buses)\n");
    } else {
        out.push_str(&format!(
            "\nbottlenecks (by pressure): {}\n",
            a.bottlenecks
                .iter()
                .map(|bus| format!("bus {bus} ({:.4})", a.buses[*bus].pressure))
                .collect::<Vec<_>>()
                .join(" > "),
        ));
    }
    let mut blocked: Vec<(usize, u64)> = a
        .memories
        .iter()
        .enumerate()
        .filter(|(_, m)| m.blocked > 0)
        .map(|(j, m)| (j, m.blocked))
        .collect();
    blocked.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    if !blocked.is_empty() {
        out.push_str("backpressure (blocked requests by memory): ");
        out.push_str(
            &blocked
                .iter()
                .take(8)
                .map(|(j, b)| format!("m{j}:{b}"))
                .collect::<Vec<_>>()
                .join("  "),
        );
        if blocked.len() > 8 {
            out.push_str(&format!("  (+{} more)", blocked.len() - 8));
        }
        out.push('\n');
    }
    out
}

/// Renders the analysis as a markdown section (per-bus table + ranking).
pub fn render_markdown(a: &TraceAnalysis) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Scheme: {} — N = {}, M = {}, B = {}, {} cycles, resubmission = {}\n\n",
        a.header.scheme.kind(),
        a.header.processors,
        a.header.memories,
        a.header.buses,
        a.cycles,
        a.header.resubmission,
    ));
    out.push_str(
        "| bus | busy | alive | utilization | blocked share | pressure |\n\
         |-----|------|-------|-------------|---------------|----------|\n",
    );
    for (bus, stats) in a.buses.iter().enumerate() {
        out.push_str(&format!(
            "| {bus} | {} | {} | {:.4} | {:.2} | {:.4} |\n",
            stats.busy_cycles,
            stats.alive_cycles,
            stats.utilization,
            stats.blocked_share,
            stats.pressure,
        ));
    }
    out.push_str(&format!(
        "\nServed {:.4}/cycle, blocked {:.4}/cycle, unreachable {:.4}/cycle; \
         waits mean {:.4} (p99 {}, max {}).\n",
        rate(a.served, a.cycles),
        rate(a.blocked_total, a.cycles),
        rate(a.unreachable, a.cycles),
        a.wait_histogram.mean(),
        quantile_cell(&a.wait_histogram, 0.99),
        a.wait_histogram.max_value().unwrap_or(0),
    ));
    if a.bottlenecks.is_empty() {
        out.push_str("No bus ranking: the crossbar has no shared buses.\n");
    } else {
        out.push_str(&format!(
            "Bottleneck ranking: {}.\n",
            a.bottlenecks
                .iter()
                .map(|bus| format!("bus {bus}"))
                .collect::<Vec<_>>()
                .join(" > "),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::reader::TraceReader;
    use crate::writer::{TraceGrant, TraceWriter};
    use mbus_topology::{BusNetwork, ConnectionScheme};

    fn sample() -> TraceAnalysis {
        let scheme = ConnectionScheme::balanced_single(4, 2).unwrap();
        let net = BusNetwork::new(4, 4, 2, scheme).unwrap();
        let mut writer = TraceWriter::new(Vec::new(), &net, false);
        for _ in 0..4 {
            writer.record_cycle(
                3,
                3,
                0,
                [],
                [(0, 2), (3, 1)],
                [
                    TraceGrant {
                        bus: Some(0),
                        memory: 0,
                        processor: 0,
                        wait: 1,
                    },
                    TraceGrant {
                        bus: Some(1),
                        memory: 3,
                        processor: 2,
                        wait: 0,
                    },
                ],
            );
        }
        let bytes = writer.finish().unwrap();
        analyze(&mut TraceReader::new(bytes.as_slice()).unwrap()).unwrap()
    }

    #[test]
    fn text_report_names_the_bottleneck() {
        let text = render_text(&sample());
        assert!(text.contains("single bus-memory connection"));
        assert!(text.contains("bottlenecks (by pressure): bus 0"));
        assert!(text.contains("m0:4"));
    }

    #[test]
    fn markdown_has_one_row_per_bus() {
        let md = render_markdown(&sample());
        assert!(md.contains("| 0 | 4 | 4 | 1.0000 |"));
        assert!(md.contains("| 1 | 4 | 4 | 1.0000 |"));
        assert!(md.contains("Bottleneck ranking: bus 0 > bus 1."));
    }
}
