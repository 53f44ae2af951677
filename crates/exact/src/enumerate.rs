//! Exhaustive enumeration of request outcomes (exact for any workload).
//!
//! One cycle of the synchronous model is fully described by *which set of
//! memories receives at least one request*: the per-memory arbiters collapse
//! duplicate requests (stage 1), and every scheme's stage-2 service count is
//! a deterministic function of the requested set
//! ([`served_given_requested`]). The dynamic program below walks processors
//! one at a time, maintaining the probability of every reachable
//! requested-set bitmask — `O(N · 2^M · M)` time, `O(2^M)` space — and takes
//! the expectation of the service count at the end.
//!
//! Since the subset-transform engine landed ([`crate::transform`],
//! `O(G · 2^M + 2^M · M)` for `G` distinct workload rows), the public
//! entry point [`exact_bandwidth`] delegates to it; the DP survives as
//! [`requested_set_pmf_dp`] / [`exact_bandwidth_dp`] — an independent
//! derivation the differential tests (`tests/differential.rs`) compare
//! against.

use crate::{memo, transform, ExactError};
use mbus_stats::prob::check;
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::RequestMatrix;

/// Maximum number of memories supported by the bitmask enumeration
/// (`2^20` probability slots ≈ 8 MiB).
pub const MAX_MEMORIES: usize = 20;

// The enumeration and the served-set table must agree on the mask width.
const _: () = assert!(MAX_MEMORIES == mbus_topology::MAX_TABLE_MEMORIES);

/// The number of requests served in one cycle, given the set of memories
/// with at least one pending request — the deterministic outcome of the
/// two-stage arbitration for every scheme:
///
/// * crossbar: every requested module is served;
/// * full: `min(requested, B)` (B-of-M arbiter);
/// * single: one service per bus that has a requested module;
/// * partial groups: `min(requested_q, B/g)` per group;
/// * K classes: the §III-D bus-assignment procedure — bus `i` is busy iff
///   some class `j ≥ i+K−B` has more requested modules than buses above `i`.
///
/// # Panics
///
/// Panics if `requested.len() != net.memories()`.
pub fn served_given_requested(net: &BusNetwork, requested: &[bool]) -> usize {
    assert_eq!(
        requested.len(),
        net.memories(),
        "requested vector must cover every memory"
    );
    let b = net.buses();
    let count = requested.iter().filter(|&&r| r).count();
    match net.scheme() {
        ConnectionScheme::Crossbar => count,
        ConnectionScheme::Full => count.min(b),
        ConnectionScheme::Single { .. } => (0..b)
            .filter(|&bus| net.memories_of_bus(bus).any(|j| requested[j]))
            .count(),
        ConnectionScheme::PartialGroups { groups } => {
            let g = *groups;
            let per_mem = net.memories() / g;
            let per_bus = b / g;
            (0..g)
                .map(|q| {
                    let in_group = requested[q * per_mem..(q + 1) * per_mem]
                        .iter()
                        .filter(|&&r| r)
                        .count();
                    in_group.min(per_bus)
                })
                .sum()
        }
        ConnectionScheme::KClasses { class_sizes } => {
            let k = class_sizes.len();
            // R_j: requested modules per class (1-based j in the math).
            let counts: Vec<usize> = (0..k)
                .map(|c| {
                    // lint:allow(no_panic, class ranges exist for every class index; BusNetwork::new validated the K-class layout)
                    let range = net.memories_of_class(c).expect("validated K-class");
                    requested[range].iter().filter(|&&r| r).count()
                })
                .collect();
            // Bus i (1-based) is busy iff some class j (≥ max(i+K−B, 1)) has
            // R_j ≥ (j+B−K) − i + 1 requested modules — i.e. enough to spill
            // down from its top bus to bus i.
            (1..=b)
                .filter(|&i| {
                    (1..=k).any(|j| {
                        let top = j + b - k;
                        top >= i && counts[j - 1] > top - i
                    })
                })
                .count()
        }
        // lint:allow(no_panic, ConnectionScheme is non_exhaustive but BusNetwork::new rejects schemes outside the paper's five)
        other => unreachable!("unsupported scheme {:?}", other.kind()),
    }
}

/// Exact effective memory bandwidth of `net` under `matrix` at rate `r`.
///
/// Delegates to the subset-transform engine
/// ([`transform::transform_bandwidth`]), which computes the same
/// expectation in `O(G · 2^M + 2^M · M)` instead of the DP's
/// `O(N · 2^M · M)`; the retained DP ([`exact_bandwidth_dp`]) is the
/// differential reference.
///
/// # Errors
///
/// * more than [`MAX_MEMORIES`] memories → [`ExactError::TooLarge`];
/// * dimension mismatches or invalid `r` → [`ExactError::Analysis`] /
///   [`ExactError::Workload`].
pub fn exact_bandwidth(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
) -> Result<f64, ExactError> {
    transform::transform_bandwidth(net, matrix, r)
}

/// Exact pmf over requested-set bitmasks (length `2^M`) by the retained
/// per-processor dynamic program — `O(N · 2^M · M)`. Kept as the
/// independent reference implementation the transform engine is
/// differential-tested against; new callers should prefer
/// [`transform::requested_set_pmf`].
///
/// # Errors
///
/// Same guards as [`exact_bandwidth`] (size and rate).
pub fn requested_set_pmf_dp(matrix: &RequestMatrix, r: f64) -> Result<Vec<f64>, ExactError> {
    let m = matrix.memories();
    if m > MAX_MEMORIES {
        return Err(ExactError::TooLarge {
            memories: m,
            limit: MAX_MEMORIES,
        });
    }
    if !r.is_finite() || !(0.0..=1.0).contains(&r) {
        return Err(ExactError::Analysis(
            mbus_analysis::AnalysisError::InvalidRate { value: r },
        ));
    }

    // dp[mask] = P(the set of requested memories so far is exactly `mask`).
    let mut dp = vec![0.0f64; 1 << m];
    dp[0] = 1.0;
    let mut next = vec![0.0f64; 1 << m];
    for p in 0..matrix.processors() {
        next.iter_mut().for_each(|v| *v = 0.0);
        let row = matrix.row(p);
        for (mask, &prob) in dp.iter().enumerate() {
            if prob == 0.0 {
                continue;
            }
            // Processor idle.
            next[mask] += prob * (1.0 - r);
            // Processor requests memory j.
            if r > 0.0 {
                for (j, &pj) in row.iter().enumerate() {
                    if pj > 0.0 {
                        next[mask | (1 << j)] += prob * r * pj;
                    }
                }
            }
        }
        std::mem::swap(&mut dp, &mut next);
    }
    check::assert_distribution_sums_to_one("requested-set mask distribution", &dp);
    Ok(dp)
}

/// [`exact_bandwidth`] computed by the retained DP enumerator instead of
/// the subset transform — the slow independent reference used by the
/// differential tests (`tests/differential.rs`).
///
/// # Errors
///
/// Same contract as [`exact_bandwidth`].
pub fn exact_bandwidth_dp(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
) -> Result<f64, ExactError> {
    let m = net.memories();
    if net.processors() != matrix.processors() || m != matrix.memories() {
        return Err(ExactError::Analysis(
            mbus_analysis::AnalysisError::DimensionMismatch {
                what: "memories",
                network: m,
                workload: matrix.memories(),
            },
        ));
    }
    let dp = requested_set_pmf_dp(matrix, r)?;

    // Fold the expectation through the tabulated served counts: one `u8`
    // load per mask instead of rebuilding a boolean vector and re-deriving
    // the scheme outcome (`M ≤ MAX_MEMORIES` guarantees the table fits, so
    // this map_err is unreachable in practice — but propagating keeps the
    // path panic-free).
    let table = memo::served_table(net).map_err(|_| ExactError::TooLarge {
        memories: m,
        limit: MAX_MEMORIES,
    })?;
    let expectation: f64 = dp
        .iter()
        .zip(table.as_slice())
        .map(|(&prob, &served)| prob * served as f64)
        .sum();
    check::assert_bandwidth_bounds(expectation, net.capacity(), net.processors(), m);
    Ok(expectation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_analysis::memory_bandwidth;
    use mbus_workload::{HierarchicalModel, RequestModel, UniformModel};

    fn hier8() -> RequestMatrix {
        HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix()
    }

    #[test]
    fn served_oracle_full_and_crossbar() {
        let full = BusNetwork::new(8, 8, 3, ConnectionScheme::Full).unwrap();
        let xbar = BusNetwork::new(8, 8, 3, ConnectionScheme::Crossbar).unwrap();
        let mut req = vec![false; 8];
        req[0] = true;
        req[4] = true;
        req[5] = true;
        req[7] = true;
        assert_eq!(served_given_requested(&full, &req), 3);
        assert_eq!(served_given_requested(&xbar, &req), 4);
    }

    #[test]
    fn served_oracle_single() {
        let net =
            BusNetwork::new(8, 8, 4, ConnectionScheme::balanced_single(8, 4).unwrap()).unwrap();
        // Memories 0, 1 share bus 0: only one service.
        let mut req = vec![false; 8];
        req[0] = true;
        req[1] = true;
        assert_eq!(served_given_requested(&net, &req), 1);
        req[7] = true; // bus 3
        assert_eq!(served_given_requested(&net, &req), 2);
    }

    #[test]
    fn served_oracle_partial_groups() {
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap();
        // Three requests in group 0 (cap 2), one in group 1 (cap 2).
        let mut req = vec![false; 8];
        req[0] = true;
        req[1] = true;
        req[2] = true;
        req[5] = true;
        assert_eq!(served_given_requested(&net, &req), 3);
    }

    #[test]
    fn served_oracle_kclass_spilldown() {
        // B = 4, K = 3, sizes [2, 2, 2]: C_1 on buses 1–2, C_2 on 1–3,
        // C_3 on 1–4 (1-based).
        let net =
            BusNetwork::new(6, 6, 4, ConnectionScheme::uniform_classes(6, 3).unwrap()).unwrap();
        // Both C_1 modules requested: they occupy buses 2 and 1.
        let mut req = vec![false; 6];
        req[0] = true;
        req[1] = true;
        assert_eq!(served_given_requested(&net, &req), 2);
        // Add one C_3 module: it takes bus 4.
        req[4] = true;
        assert_eq!(served_given_requested(&net, &req), 3);
        // All six requested: every bus busy, 4 served.
        let req = vec![true; 6];
        assert_eq!(served_given_requested(&net, &req), 4);
        // One module of C_2 only: it sits on bus 3 (its top bus).
        let mut req = vec![false; 6];
        req[2] = true;
        assert_eq!(served_given_requested(&net, &req), 1);
    }

    #[test]
    fn kclass_oracle_agrees_with_eq11_structure() {
        // Cross-check: busy-bus count from the oracle equals B minus the
        // number of buses satisfying the idle condition of eq (11), for
        // every requested set of a 6-memory network.
        let net =
            BusNetwork::new(6, 6, 4, ConnectionScheme::uniform_classes(6, 3).unwrap()).unwrap();
        let b = 4usize;
        let k = 3usize;
        for mask in 0u32..(1 << 6) {
            let req: Vec<bool> = (0..6).map(|j| mask & (1 << j) != 0).collect();
            let counts: Vec<usize> = (0..3)
                .map(|c| {
                    net.memories_of_class(c)
                        .unwrap()
                        .filter(|&j| req[j])
                        .count()
                })
                .collect();
            let idle = (1..=b)
                .filter(|&i| {
                    // idle iff for all real classes j ≥ a: R_j ≤ j − a.
                    (1..=k).all(|j| {
                        let a = i as isize + k as isize - b as isize;
                        (j as isize) < a || counts[j - 1] as isize <= j as isize - a
                    })
                })
                .count();
            assert_eq!(
                served_given_requested(&net, &req),
                b - idle,
                "mask {mask:#b}"
            );
        }
    }

    #[test]
    fn single_connection_approximation_error() {
        // Equation (5)'s Y_i = 1 − Π(1 − X_j) treats the modules of a bus as
        // independently requested, which is only exact when each bus owns a
        // single module (B = M). Elsewhere the error is small but nonzero.
        let matrix = hier8();
        for b in [1usize, 2, 4, 8] {
            let net =
                BusNetwork::new(8, 8, b, ConnectionScheme::balanced_single(8, b).unwrap()).unwrap();
            let exact = exact_bandwidth(&net, &matrix, 1.0).unwrap();
            let approx = memory_bandwidth(&net, &matrix, 1.0).unwrap();
            let gap = (exact - approx).abs();
            if b == 8 {
                assert!(gap < 1e-10, "B=M must be exact: {exact} vs {approx}");
            } else {
                // The contiguous (cluster-aligned) placement puts a whole
                // cluster's 0.9 aggregate request mass on one bus, so the
                // approximation error peaks near 6% here — a real effect,
                // documented in EXPERIMENTS.md.
                assert!(gap < 0.3, "B={b}: gap {gap} too large");
                assert!(exact > approx, "eq (5) underestimates aligned placement");
            }
        }
    }

    #[test]
    fn exact_equals_analysis_for_crossbar() {
        let matrix = hier8();
        let net = BusNetwork::new(8, 8, 8, ConnectionScheme::Crossbar).unwrap();
        let exact = exact_bandwidth(&net, &matrix, 0.5).unwrap();
        let approx = memory_bandwidth(&net, &matrix, 0.5).unwrap();
        assert!((exact - approx).abs() < 1e-10);
    }

    #[test]
    fn approximation_error_is_small_but_real_for_full() {
        let matrix = hier8();
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let exact = exact_bandwidth(&net, &matrix, 1.0).unwrap();
        let approx = memory_bandwidth(&net, &matrix, 1.0).unwrap();
        let gap = (exact - approx).abs();
        assert!(gap > 1e-6, "independence approximation should be visible");
        assert!(gap < 0.05, "but small: {gap}");
    }

    #[test]
    fn error_vanishes_when_buses_are_plentiful() {
        // With B = N, min(D, B) = D and E[D] = M·X is exact: zero error.
        let matrix = HierarchicalModel::two_level_paired(16, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        let relative_error = |b: usize| {
            let net = BusNetwork::new(16, 16, b, ConnectionScheme::Full).unwrap();
            let exact = exact_bandwidth(&net, &matrix, 1.0).unwrap();
            let approx = memory_bandwidth(&net, &matrix, 1.0).unwrap();
            (approx - exact) / exact
        };
        assert!(relative_error(4).abs() > 1e-6);
        assert!(relative_error(16).abs() < 1e-12);
    }

    #[test]
    fn distinct_pmf_sums_to_one_and_bounds_requests() {
        // The distinct-request count is the popcount of the requested set.
        let matrix = UniformModel::new(6, 6).unwrap().matrix();
        let mut pmf = [0.0f64; 7];
        for (mask, &prob) in transform::requested_set_pmf(&matrix, 0.8)
            .unwrap()
            .iter()
            .enumerate()
        {
            pmf[mask.count_ones() as usize] += prob;
        }
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // At most 6 processors → at most 6 distinct requests; with r < 1,
        // zero requests has positive probability.
        assert!(pmf[0] > 0.0);
        // Mean distinct ≤ offered load.
        let mean: f64 = pmf.iter().enumerate().map(|(d, &p)| d as f64 * p).sum();
        assert!(mean <= 6.0 * 0.8 + 1e-12);
    }

    #[test]
    fn zero_rate_is_empty() {
        let matrix = hier8();
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        assert_eq!(exact_bandwidth(&net, &matrix, 0.0).unwrap(), 0.0);
        let pmf = transform::requested_set_pmf(&matrix, 0.0).unwrap();
        assert_eq!(pmf[0], 1.0);
    }

    #[test]
    fn size_limit_enforced() {
        let matrix = UniformModel::new(4, 24).unwrap().matrix();
        let net = BusNetwork::new(4, 24, 4, ConnectionScheme::Full).unwrap();
        assert!(matches!(
            exact_bandwidth(&net, &matrix, 1.0),
            Err(ExactError::TooLarge { .. })
        ));
    }

    #[test]
    fn deterministic_workload_has_deterministic_bandwidth() {
        // Every processor always requests its own favorite: no contention,
        // bandwidth = min(N, B) at r = 1... with full connection, all 4
        // distinct requests need buses.
        let matrix = RequestMatrix::from_rows(
            (0..4)
                .map(|p| {
                    let mut row = vec![0.0; 4];
                    row[p] = 1.0;
                    row
                })
                .collect(),
        )
        .unwrap();
        let net = BusNetwork::new(4, 4, 2, ConnectionScheme::Full).unwrap();
        assert!((exact_bandwidth(&net, &matrix, 1.0).unwrap() - 2.0).abs() < 1e-12);
        let net = BusNetwork::new(4, 4, 4, ConnectionScheme::Full).unwrap();
        assert!((exact_bandwidth(&net, &matrix, 1.0).unwrap() - 4.0).abs() < 1e-12);
    }
}
