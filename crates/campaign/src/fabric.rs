//! Fabric fault campaign: degraded-mode sweeps that fail **uplinks**.
//!
//! The flat campaign grades a single bus pool; a hierarchical fabric's
//! availability story is dominated by its uplinks — each one is the sole
//! escape path of a whole subtree, so an uplink failure severs every
//! cross-cluster flow through it while the cluster's *local* traffic keeps
//! flowing. This module sweeps `f`-uplink failure combinations through
//! [`mbus_fabric::analyze_fabric`] (exhaustively while `C(U, f)` is small,
//! seeded Monte-Carlo beyond [`CampaignConfig::exhaustive_limit`]) and
//! aggregates the same mean/min/max bandwidth summaries as the flat sweep,
//! plus the unreachable-rate mass those severed routes shed.
//!
//! Two fabric-specific artifacts come out:
//!
//! * the **availability-weighted expected bandwidth**
//!   `Σ_f C(U,f)·q^f·(1−q)^(U−f) · mean_bw(f)` for a per-uplink failure
//!   probability `q` — the long-run bandwidth of a fabric whose uplinks
//!   are each up with probability `1 − q`;
//! * a **per-cluster decay table**: under worst-case lowest-uplink-first
//!   failures, each leaf cluster's delivered rate per failure count. At
//!   locality 0 this is a death law (cluster `i` stops delivering once its
//!   uplink is down); at higher locality it shows the graceful floor local
//!   traffic provides.

use crate::{CampaignConfig, CampaignError};
use mbus_fabric::{analyze_fabric, ClusteredBuses, FabricTopology, LinkId, LinkKind};
use mbus_stats::prob::{choose, choose_f64};
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
/// `bus_failure_prob` is read as the per-**uplink** failure probability
/// and `max_failures` counts uplinks (`None` = all of them). Depth-1
/// fabrics have no uplinks and yield a single healthy level.
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
    if config.samples == 0 || config.exhaustive_limit == 0 {
        return Err(CampaignError::BadConfig {
            reason: "samples and exhaustive_limit must be positive".into(),
        });
    }
    let q = config.uplink_failure_prob();
    if !q.is_finite() || !(0.0..=1.0).contains(&q) {
        return Err(CampaignError::BadConfig {
            reason: format!("uplink failure probability {q} outside [0, 1]"),
        });
    }
    let uplink_ids: Vec<LinkId> = topo
        .links()
        .iter()
        .enumerate()
        .filter(|(_, link)| matches!(link.kind, LinkKind::Uplink { .. }))
        .map(|(id, _)| id)
        .collect();
    let u = uplink_ids.len();
    let max_failures = config.max_failures.unwrap_or(u);
    if max_failures > u {
        return Err(CampaignError::BadConfig {
            reason: format!("max_failures {max_failures} exceeds uplink count {u}"),
        });
    }

    let mut levels = Vec::with_capacity(max_failures + 1);
    for f in 0..=max_failures {
        let count = choose(u as u64, f as u64);
        let exhaustive = matches!(count, Some(c) if c <= config.exhaustive_limit);
        let masks = if exhaustive {
            crate::all_combinations(u, f)
        } else {
            crate::sampled_combinations(u, f, config.samples, config.seed.wrapping_add(f as u64))
        };
        let n = masks.len();
        let mut mean_bw = 0.0;
        let mut min_bw = f64::INFINITY;
        let mut max_bw = f64::NEG_INFINITY;
        let mut mean_unreachable = 0.0;
        let mut max_unreachable: f64 = 0.0;
        let mut worst_mask = Vec::new();
        for mask in masks {
            let failed: Vec<LinkId> = mask.iter().map(|&i| uplink_ids[i]).collect();
            let analysis =
                analyze_fabric(topo, matrix, rate, &failed).map_err(CampaignError::Fabric)?;
            mean_bw += analysis.bandwidth;
            mean_unreachable += analysis.unreachable_rate;
            max_bw = max_bw.max(analysis.bandwidth);
            max_unreachable = max_unreachable.max(analysis.unreachable_rate);
            if analysis.bandwidth < min_bw {
                min_bw = analysis.bandwidth;
                worst_mask = failed;
            }
        }
        levels.push(FabricFailureLevel {
            failures: f,
            combos_evaluated: n,
            exhaustive,
            mean_bandwidth: mean_bw / n as f64,
            min_bandwidth: min_bw,
            max_bandwidth: max_bw,
            mean_unreachable: mean_unreachable / n as f64,
            max_unreachable,
            worst_mask,
        });
    }

    let expected_bandwidth = levels
        .iter()
        .map(|level| {
            let f = level.failures as u64;
            let weight =
                choose_f64(u as u64, f) * q.powi(f as i32) * (1.0 - q).powi((u as u64 - f) as i32);
            weight * level.mean_bandwidth
        })
        .sum();

    // Worst-case decay: fail the first f uplinks (lowest link id first) and
    // record every leaf cluster's delivered rate.
    let mut cluster_decay = Vec::with_capacity(max_failures + 1);
    for f in 0..=max_failures {
        let failed: Vec<LinkId> = uplink_ids[..f].to_vec();
        let analysis =
            analyze_fabric(topo, matrix, rate, &failed).map_err(CampaignError::Fabric)?;
        cluster_decay.push(analysis.cluster_bandwidth);
    }

    Ok(FabricCampaignReport {
        ks: topo.hierarchy().branching_factors().to_vec(),
        processors: topo.processors(),
        links: topo.links().len(),
        uplinks: u,
        rate,
        uplink_failure_prob: q,
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
        let report =
            run_fabric_campaign(&topo, &matrix, 0.5, &CampaignConfig::default()).unwrap();
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
        let report =
            run_fabric_campaign(&topo, &matrix, 0.5, &CampaignConfig::default()).unwrap();
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
        let report =
            run_fabric_campaign(&topo, &matrix, 0.5, &CampaignConfig::default()).unwrap();
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
        let report =
            run_fabric_campaign(&topo, &matrix, 0.8, &CampaignConfig::default()).unwrap();
        let md = render_fabric_markdown(&report);
        assert!(md.contains("Fabric 2x2"));
        assert!(md.contains("availability-weighted"));
        assert!(md.contains("Per-cluster delivered rate"));
    }
}
