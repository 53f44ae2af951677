//! The paper's equations, verbatim, for homogeneous traffic.
//!
//! Every function in this module corresponds to a numbered equation of
//! Chen & Sheu's §III and assumes that every memory module is requested with
//! the *same* probability `X` — exactly the paper's setting for the
//! `N × N × B` hierarchical and uniform models. The generalized
//! (heterogeneous-`X`) versions live in [`crate::bandwidth`]; the test suite
//! asserts the two agree on homogeneous inputs.

use crate::AnalysisError;
use mbus_stats::prob::{check, Binomial};
use mbus_workload::{Fractions, Hierarchy};

fn check_prob(name: &'static str, value: f64) -> Result<(), AnalysisError> {
    if !value.is_finite() || !(0.0..=1.0).contains(&value) {
        return Err(AnalysisError::InvalidProbability { name, value });
    }
    Ok(())
}

/// Equation (2): the probability `X` that at least one processor requests a
/// particular memory module in a cycle,
///
/// `X = 1 − (1 − r·m₀)^{N₀} (1 − r·m₁)^{N₁} ⋯ (1 − r·mₙ)^{Nₙ}`
///
/// where `Nᵢ` are the *requester* counts of the hierarchy (for the paper's
/// paired `N × N` hierarchy these equal formula (1); for shared-leaf
/// hierarchies the processor-side counts are used).
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidRate`] if `r ∉ [0, 1]` and
/// [`AnalysisError::Workload`] if the fractions do not match the hierarchy.
///
/// # Examples
///
/// ```
/// use mbus_analysis::paper::eq2_request_probability;
/// use mbus_workload::{Fractions, Hierarchy};
///
/// // N = 8, four clusters, shares 0.6/0.3/0.1, r = 1: X ≈ 0.7469
/// // (the crossbar row of Table II is 8·X ≈ 5.98).
/// let h = Hierarchy::two_level(8, 4)?;
/// let f = Fractions::from_aggregate_shares(&h, &[0.6, 0.3, 0.1])?;
/// let x = eq2_request_probability(&h, &f, 1.0)?;
/// assert!((8.0 * x - 5.98).abs() < 0.01);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn eq2_request_probability(
    hierarchy: &Hierarchy,
    fractions: &Fractions,
    r: f64,
) -> Result<f64, AnalysisError> {
    if !r.is_finite() || !(0.0..=1.0).contains(&r) {
        return Err(AnalysisError::InvalidRate { value: r });
    }
    if fractions.len() != hierarchy.fraction_count() {
        return Err(AnalysisError::Workload(
            mbus_workload::WorkloadError::FractionCountMismatch {
                got: fractions.len(),
                expected: hierarchy.fraction_count(),
            },
        ));
    }
    let counts = hierarchy.requester_counts();
    let mut none = 1.0;
    for (i, &count) in counts.iter().enumerate() {
        none *= (1.0 - r * fractions.get(i)).powi(count as i32);
    }
    Ok(check::checked_probability(
        "eq (2) request probability X",
        1.0 - none,
    ))
}

/// The uniform-model request probability `X = 1 − (1 − r/M)^N` — the
/// eq (2) special case with every fraction equal to `1/M`.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidRate`] for `r ∉ [0, 1]`.
pub fn uniform_request_probability(n: usize, m: usize, r: f64) -> Result<f64, AnalysisError> {
    if !r.is_finite() || !(0.0..=1.0).contains(&r) {
        return Err(AnalysisError::InvalidRate { value: r });
    }
    Ok(check::checked_probability(
        "uniform request probability X",
        1.0 - (1.0 - r / m as f64).powi(n as i32),
    ))
}

/// Equations (3)–(4): bandwidth of the multiple bus network with **full**
/// bus–memory connection,
///
/// `MBW_f = M·X − Σ_{i=B+1}^{M} (i − B)·Pf(i)`, `Pf(i) = C(M,i)·Xⁱ(1−X)^{M−i}`,
///
/// i.e. `E[min(D, B)]` where `D ~ Bin(M, X)` is the number of requested
/// modules. (The paper writes `N` where we write `M` because it analyzes
/// `N × N × B` networks; the arbiters are per *memory module*.)
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidProbability`] if `X ∉ [0, 1]`.
pub fn eq4_full_bandwidth(m: usize, b: usize, x: f64) -> Result<f64, AnalysisError> {
    check_prob("request probability X", x)?;
    let bw = Binomial::new(m as u64, x).expected_min_with(b as u64);
    check::assert_bandwidth_bounds(bw, b, m, m);
    Ok(bw)
}

/// Equations (5)–(6): bandwidth of the **single** bus–memory connection
/// network, `MBW_s = Σᵢ Yᵢ` with `Yᵢ = 1 − (1 − X)^{Mᵢ}` and `Mᵢ` the number
/// of memories on bus `i`.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidProbability`] if `X ∉ [0, 1]`.
pub fn eq6_single_bandwidth(memories_per_bus: &[usize], x: f64) -> Result<f64, AnalysisError> {
    check_prob("request probability X", x)?;
    let bw: f64 = memories_per_bus
        .iter()
        .map(|&mi| 1.0 - (1.0 - x).powi(mi as i32))
        .sum();
    let m: usize = memories_per_bus.iter().sum();
    check::assert_bandwidth_bounds(bw, memories_per_bus.len(), m, m);
    Ok(bw)
}

/// Equations (7)–(9): bandwidth of the **partial bus network** with `g`
/// groups,
///
/// `MBW_p = g · E[min(D_g, B/g)]`, `D_g ~ Bin(M/g, X)`.
///
/// # Errors
///
/// * `X ∉ [0, 1]` → [`AnalysisError::InvalidProbability`];
/// * `g` not dividing `m` and `b` → [`AnalysisError::DimensionMismatch`].
pub fn eq9_partial_bandwidth(m: usize, b: usize, g: usize, x: f64) -> Result<f64, AnalysisError> {
    check_prob("request probability X", x)?;
    if g == 0 || !m.is_multiple_of(g) || !b.is_multiple_of(g) {
        return Err(AnalysisError::DimensionMismatch {
            what: "groups",
            network: b,
            workload: g,
        });
    }
    let per_group = Binomial::new((m / g) as u64, x).expected_min_with((b / g) as u64);
    let bw = g as f64 * per_group;
    check::assert_bandwidth_bounds(bw, b, m, m);
    Ok(bw)
}

/// Equations (10)–(12): bandwidth of the **partial bus network with K
/// classes**,
///
/// `MBW_p′ = B − Σ_{i=1}^{B} Π_{j=a}^{K} Σ_{m=0}^{j−a} Q_j(m)`, `a = i+K−B`,
///
/// with `Q_j(m) = C(M_j, m)·Xᵐ(1−X)^{M_j−m}` and dummy classes (`j ≤ 0`)
/// contributing `Q(0) = 1`.
///
/// `class_sizes[c]` is `M_{c+1}` (0-based classes).
///
/// # Errors
///
/// * `X ∉ [0, 1]` → [`AnalysisError::InvalidProbability`];
/// * `K > B` or an empty class list → [`AnalysisError::DimensionMismatch`].
pub fn eq12_kclass_bandwidth(
    class_sizes: &[usize],
    b: usize,
    x: f64,
) -> Result<f64, AnalysisError> {
    check_prob("request probability X", x)?;
    let k = class_sizes.len();
    if k == 0 || k > b {
        return Err(AnalysisError::DimensionMismatch {
            what: "classes",
            network: b,
            workload: k,
        });
    }
    // Per-class pmfs of the number of requested modules.
    let pmfs: Vec<Vec<f64>> = class_sizes
        .iter()
        .map(|&mj| Binomial::new(mj as u64, x).to_pmf_vec())
        .collect();
    Ok(kclass_bandwidth_from_pmfs(&pmfs, b))
}

/// Shared core of equation (12): given each class's pmf `Q_j(·)` of
/// requested-module counts, sums the per-bus busy probabilities.
///
/// Bus `i` (1-based) idles iff class `a = i+K−B` has 0 requests, class
/// `a+1` at most 1, …, class `K` at most `B − i`; classes with `j ≤ 0` are
/// dummy (always idle contribution 1). Exposed for the heterogeneous
/// generalization in [`crate::bandwidth`], which feeds Poisson-binomial
/// pmfs instead of binomial ones.
pub fn kclass_bandwidth_from_pmfs(pmfs: &[Vec<f64>], b: usize) -> f64 {
    for pmf in pmfs {
        check::assert_distribution_sums_to_one("class request pmf Q_j", pmf);
    }
    let k = pmfs.len();
    let mut total = 0.0;
    for i in 1..=b {
        // a = i + K - B, 1-based; j runs a..=K over real classes only.
        let a = i as isize + k as isize - b as isize;
        let mut idle = 1.0;
        for j in 1..=k as isize {
            if j < a {
                continue;
            }
            // Σ_{m=0}^{j-a} Q_j(m); when a ≤ 0 the allowance j-a can exceed
            // the class size, in which case the sum saturates at 1.
            let allowance = (j - a) as usize;
            let pmf = &pmfs[(j - 1) as usize];
            let partial: f64 = pmf.iter().take(allowance + 1).sum();
            idle *= partial.min(1.0);
        }
        total += 1.0 - idle;
    }
    let m: usize = pmfs.iter().map(|pmf| pmf.len().saturating_sub(1)).sum();
    check::assert_bandwidth_bounds(total, b, m, m);
    total
}

/// The crossbar bound: with no bus interference every requested module is
/// served, so `MBW_xbar = M·X` — the `B ≥ M` limit of eq (4), where
/// `E[min(D, B)] = E[D]`.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidProbability`] if `X ∉ [0, 1]`.
pub fn crossbar_bandwidth(m: usize, x: f64) -> Result<f64, AnalysisError> {
    check_prob("request probability X", x)?;
    let bw = m as f64 * x;
    check::assert_bandwidth_bounds(bw, m, m, m);
    Ok(bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §IV hierarchical configuration for N×N networks.
    fn paper_x(n: usize, r: f64) -> f64 {
        let h = Hierarchy::two_level(n, 4).unwrap();
        let f = Fractions::from_aggregate_shares(&h, &[0.6, 0.3, 0.1]).unwrap();
        eq2_request_probability(&h, &f, r).unwrap()
    }

    #[test]
    fn table2_crossbar_row_hierarchical() {
        // Table II bottom row (crossbar = N·X), r = 1.0.
        for (n, expected) in [(8, 5.98), (12, 8.86), (16, 11.78)] {
            let mbw = crossbar_bandwidth(n, paper_x(n, 1.0)).unwrap();
            assert!((mbw - expected).abs() < 0.011, "N={n}: {mbw} vs {expected}");
        }
    }

    #[test]
    fn table2_crossbar_row_uniform() {
        for (n, expected) in [(8, 5.25), (12, 7.78), (16, 10.30)] {
            let x = uniform_request_probability(n, n, 1.0).unwrap();
            let mbw = crossbar_bandwidth(n, x).unwrap();
            assert!((mbw - expected).abs() < 0.011, "N={n}: {mbw} vs {expected}");
        }
    }

    #[test]
    fn table2_full_selected_cells() {
        // (N, B, hier, unif) cells from Table II, r = 1.0.
        let cells = [
            (8, 4, 3.97, 3.87),
            (8, 6, 5.52, 5.04),
            (12, 8, 7.73, 7.24),
            (16, 12, 11.20, 10.13),
        ];
        for (n, b, hier, unif) in cells {
            let mh = eq4_full_bandwidth(n, b, paper_x(n, 1.0)).unwrap();
            assert!((mh - hier).abs() < 0.011, "hier N={n} B={b}: {mh}");
            let xu = uniform_request_probability(n, n, 1.0).unwrap();
            let mu = eq4_full_bandwidth(n, b, xu).unwrap();
            assert!((mu - unif).abs() < 0.011, "unif N={n} B={b}: {mu}");
        }
    }

    #[test]
    fn table3_full_selected_cells_r05() {
        let cells = [(8, 4, 3.15, 2.99), (12, 6, 4.83, 4.57), (16, 8, 6.52, 6.15)];
        for (n, b, hier, unif) in cells {
            let mh = eq4_full_bandwidth(n, b, paper_x(n, 0.5)).unwrap();
            assert!((mh - hier).abs() < 0.011, "hier N={n} B={b}: {mh}");
            let xu = uniform_request_probability(n, n, 0.5).unwrap();
            let mu = eq4_full_bandwidth(n, b, xu).unwrap();
            assert!((mu - unif).abs() < 0.011, "unif N={n} B={b}: {mu}");
        }
    }

    #[test]
    fn table4_single_selected_cells() {
        // N memories over B buses, N/B each; r = 1.0 block.
        let cells = [
            (8, 4, 3.74, 3.53),
            (16, 8, 7.44, 6.99),
            (32, 16, 14.87, 13.90),
        ];
        for (n, b, hier, unif) in cells {
            let per_bus = vec![n / b; b];
            let mh = eq6_single_bandwidth(&per_bus, paper_x(n, 1.0)).unwrap();
            assert!((mh - hier).abs() < 0.011, "hier N={n} B={b}: {mh}");
            let xu = uniform_request_probability(n, n, 1.0).unwrap();
            let mu = eq6_single_bandwidth(&per_bus, xu).unwrap();
            assert!((mu - unif).abs() < 0.011, "unif N={n} B={b}: {mu}");
        }
    }

    #[test]
    fn table5_partial_selected_cells() {
        // g = 2; r = 1.0 block.
        let cells = [
            (8, 4, 3.89, 3.73),
            (16, 8, 7.92, 7.71),
            (32, 16, 15.97, 15.76),
        ];
        for (n, b, hier, unif) in cells {
            let mh = eq9_partial_bandwidth(n, b, 2, paper_x(n, 1.0)).unwrap();
            assert!((mh - hier).abs() < 0.011, "hier N={n} B={b}: {mh}");
            let xu = uniform_request_probability(n, n, 1.0).unwrap();
            let mu = eq9_partial_bandwidth(n, b, 2, xu).unwrap();
            assert!((mu - unif).abs() < 0.011, "unif N={n} B={b}: {mu}");
        }
    }

    #[test]
    fn table6_kclass_selected_cells() {
        // K = B classes of N/K modules; r = 1.0 block.
        let cells = [
            (8, 4, 3.85, 3.68),
            (16, 8, 7.71, 7.35),
            (32, 16, 15.44, 14.70),
        ];
        for (n, b, hier, unif) in cells {
            let sizes = vec![n / b; b];
            let mh = eq12_kclass_bandwidth(&sizes, b, paper_x(n, 1.0)).unwrap();
            assert!((mh - hier).abs() < 0.011, "hier N={n} B={b}: {mh}");
            let xu = uniform_request_probability(n, n, 1.0).unwrap();
            let mu = eq12_kclass_bandwidth(&sizes, b, xu).unwrap();
            assert!((mu - unif).abs() < 0.011, "unif N={n} B={b}: {mu}");
        }
    }

    #[test]
    fn partial_with_one_group_equals_full() {
        // The paper notes eq (9) with g = 1 reduces to eq (4).
        let x = 0.6;
        for (m, b) in [(8, 4), (16, 7)] {
            let full = eq4_full_bandwidth(m, b, x).unwrap();
            let partial = eq9_partial_bandwidth(m, b, 1, x).unwrap();
            assert!((full - partial).abs() < 1e-12);
        }
    }

    #[test]
    fn kclass_with_one_class_equals_full() {
        // K = 1: all modules on all B buses.
        let x = 0.45;
        let full = eq4_full_bandwidth(8, 4, x).unwrap();
        let kclass = eq12_kclass_bandwidth(&[8], 4, x).unwrap();
        assert!((full - kclass).abs() < 1e-12);
    }

    #[test]
    fn single_with_b_equals_m_is_crossbar() {
        // Paper §IV: the single-connection network with B = N matches the
        // crossbar.
        let x = 0.7469;
        let single = eq6_single_bandwidth(&[1; 8], x).unwrap();
        let xbar = crossbar_bandwidth(8, x).unwrap();
        assert!((single - xbar).abs() < 1e-12);
    }

    #[test]
    fn degenerate_x_values() {
        assert_eq!(eq4_full_bandwidth(8, 4, 0.0).unwrap(), 0.0);
        assert_eq!(eq4_full_bandwidth(8, 4, 1.0).unwrap(), 4.0);
        assert_eq!(eq6_single_bandwidth(&[2, 2], 0.0).unwrap(), 0.0);
        assert_eq!(eq6_single_bandwidth(&[2, 2], 1.0).unwrap(), 2.0);
        assert_eq!(eq12_kclass_bandwidth(&[4, 4], 4, 1.0).unwrap(), 4.0);
    }

    #[test]
    fn input_validation() {
        assert!(eq2_request_probability(
            &Hierarchy::two_level(8, 4).unwrap(),
            &Fractions::from_aggregate_shares(
                &Hierarchy::two_level(8, 4).unwrap(),
                &[0.6, 0.3, 0.1]
            )
            .unwrap(),
            1.5
        )
        .is_err());
        assert!(eq4_full_bandwidth(8, 4, 1.2).is_err());
        assert!(eq9_partial_bandwidth(8, 4, 3, 0.5).is_err());
        assert!(eq12_kclass_bandwidth(&[], 4, 0.5).is_err());
        assert!(eq12_kclass_bandwidth(&[2; 5], 4, 0.5).is_err());
        assert!(uniform_request_probability(8, 8, -0.1).is_err());
    }

    #[test]
    fn uniform_is_hierarchical_special_case() {
        // Equation (2) with all fractions 1/N equals 1 − (1 − r/N)^N.
        let h = Hierarchy::two_level(8, 4).unwrap();
        let f = Fractions::uniform(&h);
        for r in [0.25, 0.5, 1.0] {
            let via_eq2 = eq2_request_probability(&h, &f, r).unwrap();
            let direct = uniform_request_probability(8, 8, r).unwrap();
            assert!((via_eq2 - direct).abs() < 1e-12);
        }
    }

    /// The acceptance demo for the invariant layer: feeding a pmf that does
    /// not sum to one into a formula function trips the debug-time
    /// distribution check instead of silently producing a wrong bandwidth.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "fires only with debug assertions")]
    #[should_panic(expected = "sums to")]
    fn broken_class_pmf_trips_the_invariant_checker() {
        let broken = vec![vec![0.5, 0.2], vec![0.6, 0.4]];
        let _ = kclass_bandwidth_from_pmfs(&broken, 2);
    }
}
