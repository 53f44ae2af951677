//! The exact experimental configuration of the paper's §IV.
//!
//! "In the two-level hierarchy, we assume that an N × N × B network is
//! partitioned into four clusters … Each processor is with probability 0.6
//! addressing to its favorite memory module, probability 0.3 addressing to
//! other memory modules within the same cluster, and probability 0.1
//! addressing to the memory modules in other clusters."

use mbus_workload::{HierarchicalModel, WorkloadError};

/// Number of clusters in the paper's two-level hierarchy.
pub(crate) const CLUSTERS: usize = 4;

/// Aggregate shares: favorite / same cluster / other clusters.
pub(crate) const SHARES: [f64; 3] = [0.6, 0.3, 0.1];

/// The two request rates evaluated in every table.
pub(crate) const RATES: [f64; 2] = [1.0, 0.5];

/// The paper's §IV hierarchical model for an `N × N × B` network.
///
/// # Errors
///
/// Returns a [`WorkloadError`] when `n` is not divisible into four clusters
/// of at least two processors (the shares need a non-empty middle level).
pub fn hierarchical(n: usize) -> Result<HierarchicalModel, WorkloadError> {
    HierarchicalModel::two_level_paired(n, CLUSTERS, SHARES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_workload::RequestModel;

    #[test]
    fn paper_sizes_build() {
        // Tables II–III (full bus–memory connection) use N ∈ {8, 12, 16};
        // Tables IV–VI use N ∈ {8, 16, 32}.
        for n in [8, 12, 16, 32] {
            let model = hierarchical(n).unwrap();
            assert_eq!(model.processors(), n);
        }
    }

    #[test]
    fn shares_are_the_papers() {
        assert_eq!(SHARES, [0.6, 0.3, 0.1]);
        let model = hierarchical(8).unwrap();
        assert_eq!(model.fraction(0), 0.6);
    }
}
