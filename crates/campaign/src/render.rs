//! The markdown renderer for [`CampaignReport`]: the degradation table
//! of EXPERIMENTS.md and `mbus faults`. No JSON is written here: the CLI
//! builds `mbus faults --json` as a `mbus_server::json::Json` value, the
//! one JSON writer of the workspace.

use crate::CampaignReport;

fn fmt_mask(mask: &[usize]) -> String {
    if mask.is_empty() {
        "—".to_owned()
    } else {
        mask.iter()
            .map(|bus| bus.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Renders the campaign as a markdown section: the per-level degradation
/// table, the availability-weighted summary line, and (for K-class
/// networks) the per-class decay table.
pub fn render_markdown(report: &CampaignReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Scheme: {} — N = {}, M = {}, B = {}, r = {}\n\n",
        report.scheme, report.processors, report.memories, report.buses, report.rate
    ));
    out.push_str(
        "| f | combos | mode | mean BW | min BW | max BW | mean reach | min reach |\n\
         |---|--------|------|---------|--------|--------|------------|-----------|\n",
    );
    for level in &report.levels {
        out.push_str(&format!(
            "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.3} | {:.3} |\n",
            level.failures,
            level.combos_evaluated,
            if level.exhaustive { "exact" } else { "sampled" },
            level.mean_bandwidth,
            level.min_bandwidth,
            level.max_bandwidth,
            level.mean_accessible_fraction,
            level.min_accessible_fraction,
        ));
    }
    out.push_str(&format!(
        "\nHealthy bandwidth {:.4}; availability-weighted expected bandwidth \
         {:.4} at per-bus failure probability q = {} ({:.1}% of healthy).\n",
        report.healthy_bandwidth,
        report.expected_bandwidth,
        report.bus_failure_prob,
        if report.healthy_bandwidth > 0.0 {
            100.0 * report.expected_bandwidth / report.healthy_bandwidth
        } else {
            0.0
        },
    ));
    if let Some(worst) = report.levels.iter().rev().find(|level| level.failures > 0) {
        out.push_str(&format!(
            "Worst observed mask at f = {}: buses {{{}}} → bandwidth {:.4}.\n",
            worst.failures,
            fmt_mask(&worst.worst_mask),
            worst.min_bandwidth,
        ));
    }
    if let Some(decay) = &report.per_class_decay {
        let classes = decay.first().map_or(0, Vec::len);
        out.push_str("\nPer-class bandwidth under worst-case (lowest-bus-first) failures:\n\n");
        out.push_str("| f |");
        for c in 0..classes {
            out.push_str(&format!(" C{} |", c + 1));
        }
        out.push_str("\n|---|");
        for _ in 0..classes {
            out.push_str("----|");
        }
        out.push('\n');
        for (f, row) in decay.iter().enumerate() {
            out.push_str(&format!("| {f} |"));
            for &bw in row {
                out.push_str(&format!(" {bw:.4} |"));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureLevelSummary;

    fn sample_report(per_class: bool) -> CampaignReport {
        CampaignReport {
            scheme: "full bus-memory connection".to_owned(),
            processors: 8,
            memories: 8,
            buses: 2,
            rate: 1.0,
            bus_failure_prob: 0.05,
            healthy_bandwidth: 2.0,
            levels: vec![
                FailureLevelSummary {
                    failures: 0,
                    combos_evaluated: 1,
                    exhaustive: true,
                    mean_bandwidth: 2.0,
                    min_bandwidth: 2.0,
                    max_bandwidth: 2.0,
                    mean_accessible_fraction: 1.0,
                    min_accessible_fraction: 1.0,
                    worst_mask: vec![],
                },
                FailureLevelSummary {
                    failures: 1,
                    combos_evaluated: 2,
                    exhaustive: true,
                    mean_bandwidth: 1.0,
                    min_bandwidth: 0.9,
                    max_bandwidth: 1.1,
                    mean_accessible_fraction: 0.5,
                    min_accessible_fraction: 0.5,
                    worst_mask: vec![1],
                },
            ],
            expected_bandwidth: 1.9,
            per_class_decay: per_class.then(|| vec![vec![0.5, 0.7], vec![0.0, 0.6]]),
        }
    }

    #[test]
    fn markdown_has_one_row_per_level() {
        let md = render_markdown(&sample_report(false));
        assert!(md.contains("| 0 | 1 | exact | 2.0000 |"));
        assert!(md.contains("| 1 | 2 | exact | 1.0000 | 0.9000 | 1.1000 |"));
        assert!(md.contains("Worst observed mask at f = 1: buses {1}"));
        assert!(md.contains("95.0% of healthy"));
        assert!(!md.contains("Per-class"));
    }

    #[test]
    fn markdown_renders_class_decay_table() {
        let md = render_markdown(&sample_report(true));
        assert!(md.contains("| f | C1 | C2 |"));
        assert!(md.contains("| 1 | 0.0000 | 0.6000 |"));
    }
}
