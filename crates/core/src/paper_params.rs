//! The exact experimental configuration of the paper's §IV.
//!
//! "In the two-level hierarchy, we assume that an N × N × B network is
//! partitioned into four clusters … Each processor is with probability 0.6
//! addressing to its favorite memory module, probability 0.3 addressing to
//! other memory modules within the same cluster, and probability 0.1
//! addressing to the memory modules in other clusters."

use mbus_workload::{HierarchicalModel, UniformModel, WorkloadError};

/// Number of clusters in the paper's two-level hierarchy.
pub const CLUSTERS: usize = 4;

/// Aggregate shares: favorite / same cluster / other clusters.
pub const SHARES: [f64; 3] = [0.6, 0.3, 0.1];

/// The two request rates evaluated in every table.
pub const RATES: [f64; 2] = [1.0, 0.5];

/// Network sizes of Tables II–III (full bus–memory connection).
pub const FULL_TABLE_SIZES: [usize; 3] = [8, 12, 16];

/// Network sizes of Tables IV–VI.
pub const POWER_TABLE_SIZES: [usize; 3] = [8, 16, 32];

/// The paper's §IV hierarchical model for an `N × N × B` network.
///
/// # Errors
///
/// Returns a [`WorkloadError`] when `n` is not divisible into four clusters
/// of at least two processors (the shares need a non-empty middle level).
pub fn hierarchical(n: usize) -> Result<HierarchicalModel, WorkloadError> {
    HierarchicalModel::two_level_paired(n, CLUSTERS, SHARES)
}

/// The paper's uniform baseline for an `N × N × B` network.
///
/// # Errors
///
/// Returns a [`WorkloadError`] for `n == 0`.
pub fn uniform(n: usize) -> Result<UniformModel, WorkloadError> {
    UniformModel::new(n, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_workload::RequestModel;

    #[test]
    fn paper_sizes_build() {
        for n in FULL_TABLE_SIZES.iter().chain(POWER_TABLE_SIZES.iter()) {
            let model = hierarchical(*n).unwrap();
            assert_eq!(model.processors(), *n);
            let _ = uniform(*n).unwrap();
        }
    }

    #[test]
    fn shares_are_the_papers() {
        assert_eq!(SHARES, [0.6, 0.3, 0.1]);
        let model = hierarchical(8).unwrap();
        assert_eq!(model.fraction(0), 0.6);
    }
}
