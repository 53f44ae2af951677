//! Property-based tests for the workload models.

use mbus_workload::{
    AliasSampler, FavoriteModel, Fractions, HierarchicalModel, Hierarchy, RequestMatrix,
    RequestModel, UniformModel, WorkloadSampler,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arbitrary small paired hierarchies.
fn paired_hierarchy() -> impl Strategy<Value = Hierarchy> {
    proptest::collection::vec(2usize..=4, 1..=3)
        .prop_map(|ks| Hierarchy::paired(&ks).expect("positive factors"))
}

/// Arbitrary aggregate shares for a hierarchy (normalized simplex point).
fn shares_for(levels: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.05f64..1.0, levels).prop_map(|raw| {
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|v| v / total).collect()
    })
}

/// Arbitrary matrices built from a small pool of distinct rows duplicated
/// by a random assignment — the structure `RowGroups` must recover.
fn duplicated_row_matrix() -> impl Strategy<Value = (RequestMatrix, Vec<usize>)> {
    (2usize..=5, 1usize..=4)
        .prop_flat_map(|(m, pool)| {
            let rows = proptest::collection::vec(proptest::collection::vec(0.05f64..1.0, m), pool);
            let picks = proptest::collection::vec(0..pool, 1..=10);
            (rows, picks)
        })
        .prop_map(|(raw_rows, picks)| {
            let pool: Vec<Vec<f64>> = raw_rows
                .into_iter()
                .map(|raw| {
                    let total: f64 = raw.iter().sum();
                    raw.into_iter().map(|v| v / total).collect()
                })
                .collect();
            let rows: Vec<Vec<f64>> = picks.iter().map(|&g| pool[g].clone()).collect();
            let matrix = RequestMatrix::from_rows(rows).expect("normalized rows");
            (matrix, picks)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Hierarchy target counts always partition the memory space, and
    /// requester counts the processor space.
    #[test]
    fn hierarchy_counts_partition(h in paired_hierarchy()) {
        let targets: usize = h.target_counts().iter().sum();
        prop_assert_eq!(targets, h.memories());
        let requesters: usize = h.requester_counts().iter().sum();
        prop_assert_eq!(requesters, h.processors());
    }

    /// `fraction_level` is symmetric for paired hierarchies and consistent
    /// with the level counts from every viewpoint.
    #[test]
    fn fraction_levels_consistent(h in paired_hierarchy()) {
        let counts = h.target_counts();
        for p in 0..h.processors() {
            let mut seen = vec![0usize; h.fraction_count()];
            for j in 0..h.memories() {
                let level = h.fraction_level(p, j);
                prop_assert_eq!(level, h.fraction_level(j, p), "symmetry");
                seen[level] += 1;
            }
            prop_assert_eq!(&seen, &counts, "processor {}", p);
        }
    }

    /// Any simplex point of aggregate shares yields a validated model with
    /// row-stochastic matrix.
    #[test]
    fn aggregate_shares_always_validate(h in paired_hierarchy(),
                                        shares in shares_for(4)) {
        let shares = &shares[..h.fraction_count()];
        let total: f64 = shares.iter().sum();
        let shares: Vec<f64> = shares.iter().map(|s| s / total).collect();
        let model = HierarchicalModel::with_aggregate_shares(h.clone(), &shares).unwrap();
        let matrix = model.matrix(); // panics inside if not stochastic
        prop_assert_eq!(matrix.processors(), h.processors());
        // Per-memory request probabilities are homogeneous for paired
        // hierarchies.
        let xs = matrix.memory_request_probs(1.0).unwrap();
        for &x in &xs {
            prop_assert!((x - xs[0]).abs() < 1e-12);
        }
    }

    /// Uniform and favorite models are row-stochastic for any shape, and
    /// the favorite model's diagonal carries weight α.
    #[test]
    fn favorite_model_shape(n in 1usize..12, m in 2usize..12, alpha in 0.0f64..=1.0) {
        let model = FavoriteModel::new(n, m, alpha).unwrap();
        let matrix = model.matrix();
        for p in 0..n {
            prop_assert_eq!(matrix.prob(p, model.favorite_of(p)), alpha);
        }
        let uniform = UniformModel::new(n, m).unwrap().matrix();
        prop_assert_eq!(uniform.prob(0, m - 1), 1.0 / m as f64);
    }

    /// X_j is monotone in r for every memory of any model.
    #[test]
    fn request_prob_monotone_in_rate(n in 1usize..8, m in 2usize..8,
                                     alpha in 0.1f64..0.9, r in 0.0f64..0.95) {
        let matrix = FavoriteModel::new(n, m, alpha).unwrap().matrix();
        for j in 0..m {
            let lo = matrix.memory_request_prob(j, r).unwrap();
            let hi = matrix.memory_request_prob(j, (r + 0.05).min(1.0)).unwrap();
            prop_assert!(hi >= lo - 1e-12);
        }
    }

    /// `groups()` round-trips the matrix: rebuilding each row from its
    /// group's representative reproduces the matrix bit-for-bit, the group
    /// sizes partition the processors, and two processors share a group
    /// exactly when their rows are bit-identical.
    #[test]
    fn row_groups_round_trip_matrix((matrix, picks) in duplicated_row_matrix()) {
        let groups = matrix.groups();
        let n = matrix.processors();
        prop_assert_eq!(groups.is_empty(), false);

        // Partition: sizes sum to N; representatives strictly increase and
        // belong to their own group.
        let total: usize = (0..groups.len()).map(|g| groups.count(g)).sum();
        prop_assert_eq!(total, n);
        for g in 0..groups.len() {
            let rep = groups.representative(g);
            prop_assert_eq!(groups.group_of(rep), g);
            if g > 0 {
                prop_assert!(rep > groups.representative(g - 1));
            }
        }

        // Round trip: every row equals its representative's row, bit for bit.
        for p in 0..n {
            let rep = groups.representative(groups.group_of(p));
            let rebuilt: Vec<u64> = matrix.row(rep).iter().map(|v| v.to_bits()).collect();
            let original: Vec<u64> = matrix.row(p).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(rebuilt, original, "processor {}", p);
        }

        // Exactness: same group ⟺ same pool pick (pool rows are distinct
        // with probability 1; guard with a bit-level check so duplicate
        // random pool rows cannot produce a false failure).
        for p in 0..n {
            for q in 0..n {
                let same_bits = matrix.row(p).iter().map(|v| v.to_bits())
                    .eq(matrix.row(q).iter().map(|v| v.to_bits()));
                prop_assert_eq!(groups.group_of(p) == groups.group_of(q), same_bits,
                    "processors {} / {} (picks {:?})", p, q, &picks);
            }
        }
    }

    /// Fractions reject non-normalized vectors and accept normalized ones.
    #[test]
    fn fractions_normalization_boundary(h in paired_hierarchy(), scale in 0.5f64..2.0) {
        let uniform = Fractions::uniform(&h);
        let scaled: Vec<f64> = uniform.as_slice().iter().map(|m| m * scale).collect();
        let result = Fractions::new(&h, &scaled);
        if (scale - 1.0).abs() < 1e-12 {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
    }
}

/// Sampler distributions match their weights (statistical test, fixed
/// seeds, outside proptest to keep run time bounded).
#[test]
fn alias_sampler_statistical_agreement() {
    let model = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1]).unwrap();
    let matrix = model.matrix();
    let sampler = AliasSampler::new(matrix.row(2)).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let draws = 400_000;
    let mut counts = [0u32; 8];
    for _ in 0..draws {
        counts[sampler.sample(&mut rng)] += 1;
    }
    for (j, &c) in counts.iter().enumerate() {
        let freq = c as f64 / draws as f64;
        assert!(
            (freq - matrix.prob(2, j)).abs() < 0.005,
            "memory {j}: {freq} vs {}",
            matrix.prob(2, j)
        );
    }
}

/// The workload sampler's empirical per-memory request probability matches
/// the analytical X_j.
#[test]
fn workload_sampler_matches_analytic_x() {
    let model = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1]).unwrap();
    let matrix = model.matrix();
    let r = 0.7;
    let sampler = WorkloadSampler::new(&matrix, r).unwrap();
    let xs = matrix.memory_request_probs(r).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let cycles = 200_000;
    let mut hit = [0u32; 8];
    for _ in 0..cycles {
        let mut requested = [false; 8];
        for p in 0..8 {
            if let Some(d) = sampler.sample_processor(p, &mut rng) {
                requested[d] = true;
            }
        }
        for (j, &req) in requested.iter().enumerate() {
            hit[j] += u32::from(req);
        }
    }
    for j in 0..8 {
        let freq = hit[j] as f64 / cycles as f64;
        assert!(
            (freq - xs[j]).abs() < 0.005,
            "memory {j}: empirical {freq} vs analytic {}",
            xs[j]
        );
    }
}
