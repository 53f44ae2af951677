//! Differential suite: the symmetry-exploiting engines against their
//! retained brute-force references.
//!
//! * the subset-transform requested-set pmf vs the per-processor DP
//!   ([`mbus_exact::enumerate::requested_set_pmf_dp`]) — the two builds are
//!   independent (containment products + Möbius inversion vs processor-by-
//!   processor convolution), so agreement over randomized workloads is a
//!   real cross-check;
//! * transform bandwidth vs DP bandwidth over randomized `N × M × B`
//!   networks and schemes;
//! * the lumped (occupancy-count) Markov chain vs the unlumped
//!   per-processor chain wherever both fit under the state budget.
//!
//! Tolerance is 1e-9 throughout — far tighter than any model error, loose
//! enough for the different summation orders.

use mbus_exact::{enumerate, lumped, markov, transform};
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::{HierarchicalModel, RequestMatrix, RequestModel, UniformModel};
use proptest::prelude::*;

const TOL: f64 = 1e-9;

/// Random row-stochastic matrices built from a pool of rows that is
/// deliberately smaller than the processor count, so the transform's
/// grouping fast path actually collapses processors.
fn random_matrix() -> impl Strategy<Value = RequestMatrix> {
    (1usize..=8, 2usize..=6)
        .prop_flat_map(|(n, m)| {
            let pool = proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, m), 1..=3);
            let picks = proptest::collection::vec(0..3usize, n);
            (pool, picks)
        })
        .prop_map(|(raw_pool, picks)| {
            let pool: Vec<Vec<f64>> = raw_pool
                .into_iter()
                .map(|raw| {
                    let total: f64 = raw.iter().sum();
                    raw.into_iter().map(|v| v / total).collect()
                })
                .collect();
            let rows: Vec<Vec<f64>> = picks
                .iter()
                .map(|&g| pool[g % pool.len()].clone())
                .collect();
            RequestMatrix::from_rows(rows).expect("normalized rows")
        })
}

fn assert_pmfs_agree(matrix: &RequestMatrix, r: f64) -> Result<(), TestCaseError> {
    let dp = enumerate::requested_set_pmf_dp(matrix, r).expect("in-range case");
    let tf = transform::requested_set_pmf(matrix, r).expect("in-range case");
    prop_assert_eq!(dp.len(), tf.len());
    for (mask, (&a, &b)) in dp.iter().zip(&tf).enumerate() {
        prop_assert!(
            (a - b).abs() < TOL,
            "mask {}: dp {} vs transform {}",
            mask,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transform vs DP on random grouped workloads over the full rate range.
    #[test]
    fn transform_pmf_matches_dp_on_random_workloads(
        matrix in random_matrix(),
        r in 0.0f64..=1.0,
    ) {
        assert_pmfs_agree(&matrix, r)?;
    }

    /// Transform vs DP on uniform workloads of every small shape.
    #[test]
    fn transform_pmf_matches_dp_on_uniform_workloads(
        n in 1usize..=10,
        m in 2usize..=6,
        r in 0.0f64..=1.0,
    ) {
        let matrix = UniformModel::new(n, m).expect("positive dims").matrix();
        assert_pmfs_agree(&matrix, r)?;
    }

    /// Transform vs DP on the paper's two-level hierarchical workloads.
    #[test]
    fn transform_pmf_matches_dp_on_hierarchical_workloads(
        clusters in 2usize..=4,
        per in 1usize..=2,
        r in 0.0f64..=1.0,
    ) {
        let n = clusters * per * 2;
        let matrix = HierarchicalModel::two_level_paired(n, clusters, [0.6, 0.3, 0.1])
            .expect("clusters divide n")
            .matrix();
        assert_pmfs_agree(&matrix, r)?;
    }

    /// Bandwidth agreement over randomized N × M × B networks and schemes.
    #[test]
    fn transform_bandwidth_matches_dp_across_networks(
        matrix in random_matrix(),
        b_raw in 1usize..=6,
        scheme_idx in 0usize..3,
        r in 0.0f64..=1.0,
    ) {
        let n = matrix.processors();
        let m = matrix.memories();
        let b = b_raw.min(m);
        let scheme = match scheme_idx {
            0 => ConnectionScheme::Full,
            1 => ConnectionScheme::Crossbar,
            _ => ConnectionScheme::PartialGroups { groups: 1 },
        };
        let b = if scheme == ConnectionScheme::Crossbar { 1 } else { b };
        let net = BusNetwork::new(n, m, b, scheme).expect("valid shape");
        let dp = enumerate::exact_bandwidth_dp(&net, &matrix, r).expect("in-range case");
        let tf = transform::transform_bandwidth(&net, &matrix, r).expect("in-range case");
        prop_assert!((dp - tf).abs() < TOL, "dp {} vs transform {}", dp, tf);
    }
}

/// Lumped vs unlumped steady states on every shape where the unlumped
/// chain fits the state budget.
#[test]
fn lumped_matches_unlumped_where_both_fit() {
    let cases: Vec<(RequestMatrix, usize)> = vec![
        (UniformModel::new(3, 3).unwrap().matrix(), 1),
        (UniformModel::new(3, 3).unwrap().matrix(), 2),
        (UniformModel::new(4, 2).unwrap().matrix(), 1),
        (
            RequestMatrix::from_rows(vec![vec![0.5, 0.3, 0.2]; 3]).unwrap(),
            1,
        ),
        (
            RequestMatrix::from_rows(vec![vec![0.5, 0.3, 0.2]; 3]).unwrap(),
            2,
        ),
        (
            RequestMatrix::from_rows(vec![vec![0.7, 0.1, 0.1, 0.1]; 4]).unwrap(),
            2,
        ),
    ];
    for (matrix, b) in cases {
        let n = matrix.processors();
        let m = matrix.memories();
        let net = BusNetwork::new(n, m, b, ConnectionScheme::Full).unwrap();
        for r in [0.2, 0.6, 0.9, 1.0] {
            let full = markov::resubmission_steady_state(&net, &matrix, r).unwrap();
            let small = lumped::lumped_steady_state(&net, &matrix, r).unwrap();
            assert!(
                small.states <= full.states,
                "{n}x{m}x{b} r={r}: lumping grew the chain"
            );
            for (label, a, b) in [
                ("throughput", full.throughput, small.throughput),
                ("mean_pending", full.mean_pending, small.mean_pending),
                ("mean_active", full.mean_active, small.mean_active),
                ("mean_wait", full.mean_wait, small.mean_wait),
            ] {
                assert!(
                    (a - b).abs() < TOL,
                    "{n}x{m} B={b} r={r} {label}: unlumped {a} vs lumped {b}"
                );
            }
        }
    }
}

/// The crossbar capacity path lumps identically too.
#[test]
fn lumped_matches_unlumped_on_crossbar() {
    let matrix = UniformModel::new(3, 3).unwrap().matrix();
    let net = BusNetwork::new(3, 3, 1, ConnectionScheme::Crossbar).unwrap();
    for r in [0.4, 1.0] {
        let full = markov::resubmission_steady_state(&net, &matrix, r).unwrap();
        let small = lumped::lumped_steady_state(&net, &matrix, r).unwrap();
        assert!((full.throughput - small.throughput).abs() < TOL);
        assert!((full.mean_wait - small.mean_wait).abs() < TOL);
    }
}
