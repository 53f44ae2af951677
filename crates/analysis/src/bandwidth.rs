//! Generalized bandwidth computation for arbitrary (possibly heterogeneous)
//! traffic.
//!
//! The paper assumes every memory module is requested with one common
//! probability `X`; under favorite-memory traffic, `N ≠ M`, or bus failures
//! this breaks down. This module computes the exact per-memory probabilities
//! `X_j` from a request matrix and evaluates every scheme with
//! Poisson-binomial bus interference. With homogeneous `X_j` it reproduces
//! the paper's equations to machine precision (asserted in the tests).

use crate::paper::kclass_bandwidth_from_pmfs;
use crate::AnalysisError;
use mbus_stats::prob::{check, PoissonBinomial};
use mbus_topology::{BusNetwork, ConnectionScheme};
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

pub(crate) fn validate(net: &BusNetwork, matrix: &RequestMatrix) -> Result<(), AnalysisError> {
    if net.processors() != matrix.processors() {
        return Err(AnalysisError::DimensionMismatch {
            what: "processors",
            network: net.processors(),
            workload: matrix.processors(),
        });
    }
    if net.memories() != matrix.memories() {
        return Err(AnalysisError::DimensionMismatch {
            what: "memories",
            network: net.memories(),
            workload: matrix.memories(),
        });
    }
    Ok(())
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

/// Full breakdown version of [`memory_bandwidth`].
///
/// # Errors
///
/// Same as [`memory_bandwidth`].
pub fn analyze(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
) -> Result<BandwidthBreakdown, AnalysisError> {
    validate(net, matrix)?;
    if !r.is_finite() || !(0.0..=1.0).contains(&r) {
        return Err(AnalysisError::InvalidRate { value: r });
    }
    let xs = matrix.memory_request_probs(r)?;
    let (bandwidth, per_bus_busy) = bandwidth_from_probs(net, &xs)?;
    let offered_load = matrix.offered_load(r);
    let acceptance = if offered_load > 0.0 {
        bandwidth / offered_load
    } else {
        1.0
    };
    check::assert_probability("request acceptance probability", acceptance);
    check::assert_bandwidth_bounds(bandwidth, net.capacity(), net.processors(), net.memories());
    if let Some(busy) = &per_bus_busy {
        check::assert_probabilities("per-bus busy probabilities", busy);
    }
    Ok(BandwidthBreakdown {
        bandwidth,
        offered_load,
        acceptance,
        per_bus_busy,
    })
}

pub(crate) fn poisson_binomial(xs: &[f64]) -> Result<PoissonBinomial, AnalysisError> {
    PoissonBinomial::new(xs).map_err(|_| AnalysisError::InvalidProbability {
        name: "per-memory request probability",
        value: f64::NAN,
    })
}

#[allow(clippy::type_complexity)]
fn bandwidth_from_probs(
    net: &BusNetwork,
    xs: &[f64],
) -> Result<(f64, Option<Vec<f64>>), AnalysisError> {
    if xs.len() != net.memories() {
        return Err(AnalysisError::DimensionMismatch {
            what: "memories",
            network: net.memories(),
            workload: xs.len(),
        });
    }
    for &x in xs {
        if !x.is_finite() || !(0.0..=1.0).contains(&x) {
            return Err(AnalysisError::InvalidProbability {
                name: "per-memory request probability",
                value: x,
            });
        }
    }
    let b = net.buses();
    match net.scheme() {
        // Crossbar: every requested module is served.
        ConnectionScheme::Crossbar => Ok((xs.iter().sum(), None)),
        // Full connection: E[min(D, B)] with D the number of requested
        // modules — Poisson-binomial over the X_j.
        ConnectionScheme::Full => {
            let pb = poisson_binomial(xs)?;
            Ok((pb.expected_min_with(b), None))
        }
        // Single connection: bus i is busy iff any of its modules is
        // requested. Like the paper's eq (5), the modules of a bus are
        // treated as independently requested — exact when each bus owns one
        // module (B = M), a close approximation otherwise.
        ConnectionScheme::Single { .. } => {
            let busy: Vec<f64> = (0..b)
                .map(|bus| {
                    let idle: f64 = net.memories_of_bus(bus).map(|j| 1.0 - xs[j]).product();
                    1.0 - idle
                })
                .collect();
            Ok((busy.iter().sum(), Some(busy)))
        }
        // Partial groups: independent subnetworks, E[min(D_q, B/g)] each.
        ConnectionScheme::PartialGroups { groups } => {
            let g = *groups;
            let per_group_mem = net.memories() / g;
            let mut total = 0.0;
            for q in 0..g {
                let slice = &xs[q * per_group_mem..(q + 1) * per_group_mem];
                let pb = poisson_binomial(slice)?;
                total += pb.expected_min_with(b / g);
            }
            Ok((total, None))
        }
        // K classes: per-class requested-count pmfs fed into the paper's
        // equation (12) structure; per-bus busy probabilities via eq (11).
        ConnectionScheme::KClasses { class_sizes } => {
            let k = class_sizes.len();
            let mut pmfs = Vec::with_capacity(k);
            for c in 0..k {
                // lint:allow(no_panic, class ranges exist for every class index; BusNetwork::new validated the K-class layout)
                let range = net.memories_of_class(c).expect("validated K-class");
                let pb = poisson_binomial(&xs[range])?;
                pmfs.push(pb.pmf_slice().to_vec());
            }
            let busy: Vec<f64> = (1..=b)
                .map(|i| {
                    let a = i as isize + k as isize - b as isize;
                    let mut idle = 1.0;
                    for j in 1..=k as isize {
                        if j < a {
                            continue;
                        }
                        let allowance = (j - a) as usize;
                        let partial: f64 = pmfs[(j - 1) as usize].iter().take(allowance + 1).sum();
                        idle *= partial.min(1.0);
                    }
                    1.0 - idle
                })
                .collect();
            let total = kclass_bandwidth_from_pmfs(&pmfs, b);
            debug_assert!((total - busy.iter().sum::<f64>()).abs() < 1e-9);
            Ok((total, Some(busy)))
        }
        // `ConnectionScheme` is non-exhaustive; future variants must be
        // wired up here explicitly.
        other => Err(AnalysisError::UnsupportedScheme {
            scheme: other.kind().to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
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
