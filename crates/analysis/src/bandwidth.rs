//! Healthy-mode bandwidth for arbitrary (possibly heterogeneous) traffic.
//!
//! The paper assumes every memory module is requested with one common
//! probability `X`; under favorite-memory traffic or `N ≠ M` this breaks
//! down. This module computes the exact per-memory probabilities `X_j` from
//! a request matrix and evaluates the network through the degraded model
//! ([`crate::degraded`]) under the all-alive mask, with Poisson-binomial bus
//! interference. There is one per-scheme model: a healthy network is the
//! degraded case with no failed bus. With homogeneous `X_j` it reproduces
//! the paper's equations to machine precision (asserted in the tests).

use crate::degraded::masked_bandwidth;
use crate::AnalysisError;
use mbus_topology::{BusNetwork, FaultMask, SchemeKind};
use mbus_workload::RequestMatrix;
use serde::{Deserialize, Serialize};

/// A bandwidth result with its derived quantities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthBreakdown {
    /// Effective memory bandwidth: expected successful requests per cycle.
    pub bandwidth: f64,
    /// Offered load `N·r`: expected issued requests per cycle.
    pub offered_load: f64,
    /// Probability a request is accepted, `bandwidth / offered_load`
    /// (1 when nothing is offered).
    pub acceptance: f64,
    /// Per-bus busy probabilities where the scheme assigns buses
    /// deterministically (single and K-class networks); `None` for schemes
    /// whose round-robin arbiter spreads load symmetrically.
    pub per_bus_busy: Option<Vec<f64>>,
}

/// Effective memory bandwidth of `net` under the workload `matrix` at
/// request rate `r`.
///
/// # Errors
///
/// * network/workload dimension mismatch →
///   [`AnalysisError::DimensionMismatch`];
/// * `r ∉ [0, 1]` → [`AnalysisError::InvalidRate`].
pub fn memory_bandwidth(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
) -> Result<f64, AnalysisError> {
    Ok(analyze(net, matrix, r)?.bandwidth)
}

/// Full breakdown version of [`memory_bandwidth`]: the degraded model under
/// the all-alive mask, without its per-class decomposition.
///
/// # Errors
///
/// Same as [`memory_bandwidth`].
pub fn analyze(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
) -> Result<BandwidthBreakdown, AnalysisError> {
    let core = masked_bandwidth(net, matrix, r, &FaultMask::none(net.buses()))?;
    let per_bus_busy = matches!(net.kind(), SchemeKind::Single | SchemeKind::KClasses)
        .then_some(core.per_bus_busy);
    Ok(BandwidthBreakdown {
        bandwidth: core.bandwidth,
        offered_load: core.offered_load,
        acceptance: core.acceptance,
        per_bus_busy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use mbus_topology::ConnectionScheme;
    use mbus_workload::{FavoriteModel, HierarchicalModel, RequestModel, UniformModel};

    fn hier_matrix(n: usize) -> RequestMatrix {
        HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix()
    }

    #[test]
    fn full_matches_paper_equation_on_homogeneous_traffic() {
        for n in [8usize, 12, 16] {
            let matrix = hier_matrix(n);
            let x = matrix.memory_request_prob(0, 1.0).unwrap();
            for b in 1..=n {
                let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).unwrap();
                let general = memory_bandwidth(&net, &matrix, 1.0).unwrap();
                let closed = paper::eq4_full_bandwidth(n, b, x).unwrap();
                assert!(
                    (general - closed).abs() < 1e-9,
                    "N={n} B={b}: {general} vs {closed}"
                );
            }
        }
    }

    #[test]
    fn single_matches_paper_equation() {
        let n = 16;
        let matrix = hier_matrix(n);
        let x = matrix.memory_request_prob(0, 0.5).unwrap();
        for b in [1, 2, 4, 8, 16] {
            let net =
                BusNetwork::new(n, n, b, ConnectionScheme::balanced_single(n, b).unwrap()).unwrap();
            let general = memory_bandwidth(&net, &matrix, 0.5).unwrap();
            let closed = paper::eq6_single_bandwidth(&vec![n / b; b], x).unwrap();
            assert!((general - closed).abs() < 1e-9, "B={b}");
        }
    }

    #[test]
    fn partial_matches_paper_equation() {
        let n = 32;
        let matrix = hier_matrix(n);
        let x = matrix.memory_request_prob(0, 1.0).unwrap();
        for b in [2, 4, 8, 16, 32] {
            let net =
                BusNetwork::new(n, n, b, ConnectionScheme::PartialGroups { groups: 2 }).unwrap();
            let general = memory_bandwidth(&net, &matrix, 1.0).unwrap();
            let closed = paper::eq9_partial_bandwidth(n, b, 2, x).unwrap();
            assert!((general - closed).abs() < 1e-9, "B={b}");
        }
    }

    #[test]
    fn kclass_matches_paper_equation() {
        let n = 16;
        let matrix = hier_matrix(n);
        let x = matrix.memory_request_prob(0, 1.0).unwrap();
        for b in [2, 4, 8] {
            let net =
                BusNetwork::new(n, n, b, ConnectionScheme::uniform_classes(n, b).unwrap()).unwrap();
            let general = memory_bandwidth(&net, &matrix, 1.0).unwrap();
            let closed = paper::eq12_kclass_bandwidth(&vec![n / b; b], b, x).unwrap();
            assert!((general - closed).abs() < 1e-9, "B={b}");
        }
    }

    #[test]
    fn crossbar_is_sum_of_request_probs() {
        let matrix = UniformModel::new(8, 8).unwrap().matrix();
        let net = BusNetwork::new(8, 8, 8, ConnectionScheme::Crossbar).unwrap();
        let bw = memory_bandwidth(&net, &matrix, 1.0).unwrap();
        let expected = 8.0 * paper::uniform_request_probability(8, 8, 1.0).unwrap();
        assert!((bw - expected).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_traffic_shifts_bandwidth() {
        // 8 processors all favoring low memories: the K-class network with
        // hot modules in the *high* (well-connected) classes should beat the
        // one with hot modules in the low classes. Class order is fixed
        // (C_1 first), so we steer the heat by choosing favorites.
        let n = 8;
        let b = 4;
        let net =
            BusNetwork::new(n, n, b, ConnectionScheme::uniform_classes(n, b).unwrap()).unwrap();
        // Hot memories 6, 7 (class C_4, 4 buses) vs hot memories 0, 1
        // (class C_1, 1 bus).
        let hot_high = RequestMatrix::from_rows(vec![
            {
                let mut row = vec![0.02; n];
                row[6] = 0.44;
                row[7] = 0.44;
                row
            };
            n
        ])
        .unwrap();
        let hot_low = RequestMatrix::from_rows(vec![
            {
                let mut row = vec![0.02; n];
                row[0] = 0.44;
                row[1] = 0.44;
                row
            };
            n
        ])
        .unwrap();
        let bw_high = memory_bandwidth(&net, &hot_high, 1.0).unwrap();
        let bw_low = memory_bandwidth(&net, &hot_low, 1.0).unwrap();
        assert!(
            bw_high > bw_low,
            "hot modules on more buses must win: {bw_high} vs {bw_low}"
        );
    }

    #[test]
    fn favorite_model_with_unequal_counts() {
        // N = 12 processors, M = 8 memories: heterogeneous X_j exercise the
        // Poisson-binomial path end to end.
        let model = FavoriteModel::new(12, 8, 0.4).unwrap();
        let matrix = model.matrix();
        let net = BusNetwork::new(12, 8, 4, ConnectionScheme::Full).unwrap();
        let breakdown = analyze(&net, &matrix, 0.8).unwrap();
        assert!(breakdown.bandwidth > 0.0 && breakdown.bandwidth <= 4.0);
        assert!((breakdown.offered_load - 9.6).abs() < 1e-12);
        assert!(breakdown.acceptance <= 1.0);
    }

    #[test]
    fn breakdown_reports_per_bus_busy_for_deterministic_schemes() {
        let n = 8;
        let matrix = hier_matrix(n);
        let single =
            BusNetwork::new(n, n, 4, ConnectionScheme::balanced_single(n, 4).unwrap()).unwrap();
        let b1 = analyze(&single, &matrix, 1.0).unwrap();
        let busy = b1.per_bus_busy.unwrap();
        assert_eq!(busy.len(), 4);
        assert!((busy.iter().sum::<f64>() - b1.bandwidth).abs() < 1e-12);

        let kclass =
            BusNetwork::new(n, n, 4, ConnectionScheme::uniform_classes(n, 4).unwrap()).unwrap();
        let b2 = analyze(&kclass, &matrix, 1.0).unwrap();
        let busy = b2.per_bus_busy.unwrap();
        assert_eq!(busy.len(), 4);
        // Low buses are connected to more classes, so they are busier.
        assert!(busy[0] >= busy[3]);

        let full = BusNetwork::new(n, n, 4, ConnectionScheme::Full).unwrap();
        assert!(analyze(&full, &matrix, 1.0).unwrap().per_bus_busy.is_none());
    }

    #[test]
    fn zero_rate_yields_zero_bandwidth() {
        let matrix = hier_matrix(8);
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let breakdown = analyze(&net, &matrix, 0.0).unwrap();
        assert_eq!(breakdown.bandwidth, 0.0);
        assert_eq!(breakdown.acceptance, 1.0);
    }

    #[test]
    fn validation_errors() {
        let matrix = hier_matrix(8);
        let wrong_net = BusNetwork::new(4, 8, 4, ConnectionScheme::Full).unwrap();
        assert!(matches!(
            memory_bandwidth(&wrong_net, &matrix, 1.0),
            Err(AnalysisError::DimensionMismatch { .. })
        ));
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        assert!(matches!(
            memory_bandwidth(&net, &matrix, 2.0),
            Err(AnalysisError::InvalidRate { .. })
        ));
    }

    #[test]
    fn scheme_ordering_full_beats_partial_beats_single() {
        // §IV's qualitative conclusion at equal N, B.
        let n = 16;
        let b = 8;
        let matrix = hier_matrix(n);
        let bw = |scheme| {
            memory_bandwidth(&BusNetwork::new(n, n, b, scheme).unwrap(), &matrix, 1.0).unwrap()
        };
        let full = bw(ConnectionScheme::Full);
        let partial = bw(ConnectionScheme::PartialGroups { groups: 2 });
        let kclass = bw(ConnectionScheme::uniform_classes(n, b).unwrap());
        let single = bw(ConnectionScheme::balanced_single(n, b).unwrap());
        assert!(full >= partial && partial >= single);
        assert!(full >= kclass && kclass >= single);
    }
}
