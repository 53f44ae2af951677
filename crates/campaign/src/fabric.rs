//! Fabric fault campaign: degraded-mode sweeps that fail **uplinks**.
//!
//! The flat campaign grades a single bus pool; a hierarchical fabric's
//! availability story is dominated by its uplinks — each one is the sole
//! escape path of a whole subtree, so an uplink failure severs every
//! cross-cluster flow through it while the cluster's *local* traffic keeps
//! flowing. [`run_fabric_campaign`] runs the flat campaign's sweep over the
//! uplinks, each its own type, and evaluates every `f`-uplink failure mask
//! through [`mbus_fabric::analyze_fabric`] on the same pool. It reports the
//! same exhaustive or sampled levels, mean/min/max bandwidth summaries and
//! availability-weighted expected bandwidth (for a per-uplink failure
//! probability `q`), plus the unreachable-rate mass severed routes shed and
//! a **per-cluster decay table**: each leaf cluster's delivered rate under
//! worst-case lowest-uplink-first failures. At locality 0 that table is a
//! death law (cluster `i` stops delivering once its uplink is down); at
//! higher locality it shows the graceful floor local traffic provides.

use crate::{CampaignConfig, CampaignError, Outcome};
use mbus_fabric::{analyze_fabric, ClusteredBuses, LinkId, LinkKind};
use mbus_workload::RequestMatrix;
use serde::{Deserialize, Serialize};

/// Aggregates of one uplink-failure level (a fixed failure count `f`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricFailureLevel {
    /// Number of failed uplinks at this level.
    pub failures: usize,
    /// Masks evaluated at this level.
    pub combos_evaluated: usize,
    /// Whether every `C(U, f)` combination was evaluated (vs sampled).
    pub exhaustive: bool,
    /// Mean delivered bandwidth over the evaluated masks.
    pub mean_bandwidth: f64,
    /// Worst-case bandwidth over the evaluated masks.
    pub min_bandwidth: f64,
    /// Best-case bandwidth over the evaluated masks.
    pub max_bandwidth: f64,
    /// Mean offered rate dropped at issue because its route is severed.
    pub mean_unreachable: f64,
    /// Worst-case unreachable rate over the evaluated masks.
    pub max_unreachable: f64,
    /// The failed uplink link ids of the minimum-bandwidth mask.
    pub worst_mask: Vec<LinkId>,
}

/// The full result of a fabric uplink-failure campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricCampaignReport {
    /// Branching factors of the cluster tree.
    pub ks: Vec<usize>,
    /// Processor (= memory) count.
    pub processors: usize,
    /// Total links (local groups + uplinks).
    pub links: usize,
    /// Uplinks subject to failure.
    pub uplinks: usize,
    /// Request rate `r`.
    pub rate: f64,
    /// Per-uplink failure probability `q` used for availability weighting.
    pub uplink_failure_prob: f64,
    /// Healthy (no-failure) analytic bandwidth.
    pub healthy_bandwidth: f64,
    /// One summary per uplink-failure count, `f = 0` first.
    pub levels: Vec<FabricFailureLevel>,
    /// Availability-weighted expected bandwidth
    /// `Σ_f C(U,f)·q^f·(1−q)^(U−f)·mean_bw(f)`; missing truncated tail
    /// counted as zero bandwidth, making this a lower bound.
    pub expected_bandwidth: f64,
    /// `cluster_decay[f][c]`: leaf cluster `c`'s delivered rate after the
    /// worst-case first `f` uplinks (lowest link id first) have failed.
    pub cluster_decay: Vec<Vec<f64>>,
}

/// Runs an uplink-failure campaign over `topo`: analytic degraded
/// bandwidth of every (or a sample of every) f-uplink combination for
/// `f = 0..=max_failures`, plus the worst-case per-cluster decay table.
///
/// [`CampaignConfig`] is reused from the flat campaign;
/// `bus_failure_prob` is read as the per-**uplink** failure probability,
/// `max_failures` counts uplinks (`None` = all of them) and `workers`
/// sizes the evaluation pool. Depth-1 fabrics have no uplinks and yield a
/// single healthy level.
///
/// # Errors
///
/// * invalid `config` → [`CampaignError::BadConfig`];
/// * analytic failures (dimension mismatch, bad rate) →
///   [`CampaignError::Fabric`].
pub fn run_fabric_campaign(
    topo: &ClusteredBuses,
    matrix: &RequestMatrix,
    rate: f64,
    config: &CampaignConfig,
) -> Result<FabricCampaignReport, CampaignError> {
    let uplink_ids: Vec<LinkId> = topo
        .links()
        .iter()
        .enumerate()
        .filter(|(_, link)| matches!(link.kind, LinkKind::Uplink { .. }))
        .map(|(id, _)| id)
        .collect();
    // Every uplink is its own type: each severs different flows, so no mask
    // stands for another.
    let u = uplink_ids.len();
    let (levels, expected_bandwidth, cluster_decay) =
        crate::sweep("uplink", (0..u).collect(), config, true, |failed| {
            let failed: Vec<LinkId> = failed.iter().map(|&i| uplink_ids[i]).collect();
            let analysis =
                analyze_fabric(topo, matrix, rate, &failed).map_err(CampaignError::Fabric)?;
            Ok(Outcome {
                bandwidth: analysis.bandwidth,
                other: analysis.unreachable_rate,
                decay: analysis.cluster_bandwidth,
            })
        })?;
    let levels: Vec<FabricFailureLevel> = (levels.into_iter())
        .map(|level| FabricFailureLevel {
            failures: level.failures,
            combos_evaluated: level.combos_evaluated,
            exhaustive: level.exhaustive,
            mean_bandwidth: level.bandwidth.mean,
            min_bandwidth: level.bandwidth.min,
            max_bandwidth: level.bandwidth.max,
            mean_unreachable: level.other.mean,
            max_unreachable: level.other.max,
            worst_mask: level.worst_mask.iter().map(|&i| uplink_ids[i]).collect(),
        })
        .collect();

    Ok(FabricCampaignReport {
        ks: topo.hierarchy().branching_factors().to_vec(),
        processors: topo.processors(),
        links: topo.links().len(),
        uplinks: u,
        rate,
        uplink_failure_prob: config.bus_failure_prob,
        healthy_bandwidth: levels[0].mean_bandwidth,
        levels,
        expected_bandwidth,
        cluster_decay,
    })
}

/// Renders the fabric campaign as a markdown section.
pub fn render_fabric_markdown(report: &FabricCampaignReport) -> String {
    let ks = report
        .ks
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("x");
    let mut out = String::new();
    out.push_str(&format!(
        "Fabric {} — N = M = {}, {} links ({} uplinks), r = {}\n\n",
        ks, report.processors, report.links, report.uplinks, report.rate
    ));
    out.push_str(
        "| f | combos | mode | mean BW | min BW | max BW | mean unreach | max unreach |\n\
         |---|--------|------|---------|--------|--------|--------------|-------------|\n",
    );
    for level in &report.levels {
        out.push_str(&format!(
            "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} |\n",
            level.failures,
            level.combos_evaluated,
            if level.exhaustive { "exact" } else { "sampled" },
            level.mean_bandwidth,
            level.min_bandwidth,
            level.max_bandwidth,
            level.mean_unreachable,
            level.max_unreachable,
        ));
    }
    out.push_str(&format!(
        "\nHealthy bandwidth {:.4}; availability-weighted expected bandwidth \
         {:.4} at per-uplink failure probability q = {} ({:.1}% of healthy).\n",
        report.healthy_bandwidth,
        report.expected_bandwidth,
        report.uplink_failure_prob,
        if report.healthy_bandwidth > 0.0 {
            100.0 * report.expected_bandwidth / report.healthy_bandwidth
        } else {
            0.0
        },
    ));
    if let Some(worst) = report.levels.iter().rev().find(|level| level.failures > 0) {
        let mask = worst
            .worst_mask
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "Worst observed mask at f = {}: links {{{mask}}} → bandwidth {:.4}.\n",
            worst.failures, worst.min_bandwidth,
        ));
    }
    let clusters = report.cluster_decay.first().map_or(0, Vec::len);
    if clusters > 0 && report.cluster_decay.len() > 1 {
        out.push_str(
            "\nPer-cluster delivered rate under worst-case (lowest-uplink-first) failures:\n\n",
        );
        out.push_str("| f |");
        for c in 0..clusters {
            out.push_str(&format!(" L{c} |"));
        }
        out.push_str("\n|---|");
        for _ in 0..clusters {
            out.push_str("----|");
        }
        out.push('\n');
        for (f, row) in report.cluster_decay.iter().enumerate() {
            out.push_str(&format!("| {f} |"));
            for bw in row {
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
    use mbus_fabric::FabricSpec;

    fn fabric(ks: &[usize], locality: f64) -> (ClusteredBuses, RequestMatrix) {
        FabricSpec {
            ks: ks.to_vec(),
            local_buses: 2,
            uplink_width: 1,
            locality,
        }
        .build()
        .unwrap()
    }

    #[test]
    fn uplink_levels_cover_all_combinations() {
        let (topo, matrix) = fabric(&[4, 4], 0.6);
        let report = run_fabric_campaign(&topo, &matrix, 0.5, &CampaignConfig::default()).unwrap();
        assert_eq!(report.uplinks, 4);
        assert_eq!(report.levels.len(), 5);
        // C(4, f) combos per level, all exhaustive at the default limit.
        for (f, expected) in [1usize, 4, 6, 4, 1].iter().enumerate() {
            assert_eq!(report.levels[f].combos_evaluated, *expected, "f={f}");
            assert!(report.levels[f].exhaustive);
        }
        // Unreachable mass grows with failures; at f = 0 nothing is severed.
        assert_eq!(report.levels[0].mean_unreachable, 0.0);
        for pair in report.levels.windows(2) {
            assert!(pair[0].mean_unreachable <= pair[1].mean_unreachable + 1e-12);
        }
        assert!(report.expected_bandwidth > 0.0);
    }

    #[test]
    fn pure_remote_fabric_obeys_the_uplink_death_law() {
        // Locality 0: every request crosses an uplink, so failing all
        // uplinks kills delivery entirely, and the worst-case decay table
        // zeroes cluster c once uplink c is down.
        let (topo, matrix) = fabric(&[4, 4], 0.0);
        let report = run_fabric_campaign(&topo, &matrix, 0.5, &CampaignConfig::default()).unwrap();
        let dead = report.levels.last().unwrap();
        assert!(dead.mean_bandwidth.abs() < 1e-12);
        assert!((dead.mean_unreachable - report.rate * 16.0).abs() < 1e-9);
        // Availability-weighted expectation sits strictly below healthy.
        assert!(report.expected_bandwidth < report.healthy_bandwidth);
        // Decay table: after f lowest-first uplink failures, clusters
        // 0..f deliver (and receive) nothing; a surviving cluster stays
        // alive only while it has a live *peer* to exchange with (all its
        // traffic is remote, so it needs at least one other live uplink).
        for (f, row) in report.cluster_decay.iter().enumerate() {
            for (c, &bw) in row.iter().enumerate() {
                if c < f || report.uplinks - f < 2 {
                    assert!(bw.abs() < 1e-12, "f={f} cluster {c} should be dead");
                } else {
                    assert!(bw > 0.0, "f={f} cluster {c} should be alive");
                }
            }
        }
    }

    #[test]
    fn depth_one_fabric_has_no_uplinks() {
        let (topo, matrix) = fabric(&[8], 1.0);
        let report = run_fabric_campaign(&topo, &matrix, 0.5, &CampaignConfig::default()).unwrap();
        assert_eq!(report.uplinks, 0);
        assert_eq!(report.levels.len(), 1);
        assert_eq!(report.expected_bandwidth, report.healthy_bandwidth);
    }

    #[test]
    fn bad_fabric_configs_are_rejected() {
        let (topo, matrix) = fabric(&[4, 4], 0.6);
        let config = CampaignConfig {
            max_failures: Some(5),
            ..CampaignConfig::default()
        };
        assert!(matches!(
            run_fabric_campaign(&topo, &matrix, 0.5, &config),
            Err(CampaignError::BadConfig { .. })
        ));
        assert!(matches!(
            run_fabric_campaign(&topo, &matrix, 1.5, &CampaignConfig::default()),
            Err(CampaignError::Fabric(_))
        ));
    }

    #[test]
    fn renderers_cover_the_report() {
        let (topo, matrix) = fabric(&[2, 2], 0.5);
        let report = run_fabric_campaign(&topo, &matrix, 0.8, &CampaignConfig::default()).unwrap();
        let md = render_fabric_markdown(&report);
        assert!(md.contains("Fabric 2x2"));
        assert!(md.contains("availability-weighted"));
        assert!(md.contains("Per-cluster delivered rate"));
    }
}
