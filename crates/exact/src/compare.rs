//! Quantifying the paper's independence approximation against the exact
//! models.

use crate::{enumerate, ExactError};
use mbus_analysis::memory_bandwidth;
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::RequestModel;
use serde::{Deserialize, Serialize};

/// One row of an approximation-error report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproximationRow {
    /// Number of buses.
    pub buses: usize,
    /// The paper's (binomial bus-interference) bandwidth.
    pub approximate: f64,
    /// The exact bandwidth.
    pub exact: f64,
    /// Signed relative error `(approx − exact) / exact`.
    pub relative_error: f64,
}

impl ApproximationRow {
    fn new(buses: usize, approximate: f64, exact: f64) -> Self {
        let relative_error = if exact != 0.0 {
            (approximate - exact) / exact
        } else {
            0.0
        };
        Self {
            buses,
            approximate,
            exact,
            relative_error,
        }
    }
}

/// Compares approximate and exact bandwidth for *every* scheme on a small
/// network (enumeration-based; `M ≤ 20`).
///
/// # Errors
///
/// Propagates enumeration and analysis errors.
pub fn all_schemes_error_report(
    n: usize,
    b: usize,
    model: &dyn RequestModel,
    r: f64,
) -> Result<Vec<(String, ApproximationRow)>, ExactError> {
    let matrix = model.matrix();
    let schemes: Vec<ConnectionScheme> = vec![
        ConnectionScheme::Full,
        ConnectionScheme::balanced_single(n, b).map_err(|_| ExactError::UnsupportedShape {
            reason: "invalid single assignment",
        })?,
        ConnectionScheme::PartialGroups { groups: 2 },
        ConnectionScheme::uniform_classes(n, b).map_err(|_| ExactError::UnsupportedShape {
            reason: "invalid class split",
        })?,
        ConnectionScheme::Crossbar,
    ];
    schemes
        .into_iter()
        .map(|scheme| {
            let net =
                BusNetwork::new(n, n, b, scheme).map_err(|_| ExactError::UnsupportedShape {
                    reason: "invalid network in error report",
                })?;
            let approx = memory_bandwidth(&net, &matrix, r)?;
            let exact = enumerate::exact_bandwidth(&net, &matrix, r)?;
            Ok((
                net.kind().to_string(),
                ApproximationRow::new(b, approx, exact),
            ))
        })
        .collect()
}

/// Placement sensitivity of the single-connection network: the paper's
/// Table IV assumes only "N/B memory modules per bus", leaving the
/// *assignment* open. Under hierarchical traffic the choice matters: the
/// contiguous (cluster-aligned) placement concentrates a cluster's 0.9
/// aggregate share on one bus, while the strided placement decorrelates it.
/// Returns `(placement name, row)` pairs.
///
/// # Errors
///
/// Propagates enumeration and analysis errors.
pub fn single_placement_report(
    n: usize,
    b: usize,
    model: &dyn RequestModel,
    r: f64,
) -> Result<Vec<(String, ApproximationRow)>, ExactError> {
    let matrix = model.matrix();
    let placements = [
        (
            "aligned (contiguous)",
            ConnectionScheme::balanced_single(n, b),
        ),
        ("strided (j mod B)", ConnectionScheme::strided_single(n, b)),
    ];
    placements
        .into_iter()
        .map(|(name, scheme)| {
            let scheme = scheme.map_err(|_| ExactError::UnsupportedShape {
                reason: "invalid single placement",
            })?;
            let net =
                BusNetwork::new(n, n, b, scheme).map_err(|_| ExactError::UnsupportedShape {
                    reason: "invalid network in placement report",
                })?;
            let approx = memory_bandwidth(&net, &matrix, r)?;
            let exact = enumerate::exact_bandwidth(&net, &matrix, r)?;
            Ok((name.to_owned(), ApproximationRow::new(b, approx, exact)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_workload::HierarchicalModel;

    fn model(n: usize) -> HierarchicalModel {
        HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1]).unwrap()
    }

    #[test]
    fn placement_report_shows_alignment_effect() {
        // Under hierarchical traffic, aligned placement *helps* the true
        // bandwidth (a cluster's whole request mass keeps its bus busy) and
        // the approximation misses it; strided placement behaves closer to
        // the homogeneous assumption.
        let m = model(8);
        let report = single_placement_report(8, 4, &m, 1.0).unwrap();
        assert_eq!(report.len(), 2);
        let aligned = &report[0].1;
        let strided = &report[1].1;
        // The approximation is identical for both placements (it only sees
        // per-memory X and the per-bus module counts)…
        assert!((aligned.approximate - strided.approximate).abs() < 1e-9);
        // …but the exact bandwidths differ, aligned winning.
        assert!(aligned.exact > strided.exact + 0.05);
        assert!(aligned.relative_error < strided.relative_error);
    }

    #[test]
    fn all_schemes_report_is_complete_and_sane() {
        let m = model(8);
        let report = all_schemes_error_report(8, 4, &m, 1.0).unwrap();
        assert_eq!(report.len(), 5);
        for (scheme, row) in &report {
            // Cluster-aligned single placement peaks near 6% (see
            // EXPERIMENTS.md); every other scheme stays under 5%.
            assert!(
                row.relative_error.abs() < 0.08,
                "{scheme}: error {}",
                row.relative_error
            );
        }
        // The crossbar is exact in expectation (E[D] = Σ X_j is linear);
        // every bus-limited scheme, including single connection, carries
        // some independence-approximation error.
        let xbar = report.iter().find(|(s, _)| s.contains("crossbar")).unwrap();
        assert!(xbar.1.relative_error.abs() < 1e-10);
        let single = report.iter().find(|(s, _)| s.contains("single")).unwrap();
        assert!(single.1.relative_error.abs() > 1e-9);
    }
}
