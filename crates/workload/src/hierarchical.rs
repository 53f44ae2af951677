//! The paper's hierarchical requesting model.

use crate::{Fractions, Hierarchy, RequestModel, WorkloadError};
use serde::{Deserialize, Serialize};

/// The hierarchical requesting model of Chen & Sheu §III-A: processor `p`
/// requests memory `j` with fraction `m_{level(p, j)}`, where the level is
/// determined by the deepest subcluster `p` and `j` share in a
/// [`Hierarchy`].
///
/// # Examples
///
/// The paper's §IV two-level setting for `N = 8` (four clusters of two,
/// aggregate shares 0.6 / 0.3 / 0.1):
///
/// ```
/// use mbus_workload::{HierarchicalModel, RequestModel};
///
/// let model = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])?;
/// assert_eq!(model.prob(0, 0), 0.6);        // own favorite
/// assert_eq!(model.prob(0, 1), 0.3);        // cluster mate (N1 = 1)
/// assert!((model.prob(0, 5) - 0.1 / 6.0).abs() < 1e-12); // other cluster
/// # Ok::<(), mbus_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalModel {
    hierarchy: Hierarchy,
    fractions: Fractions,
}

impl HierarchicalModel {
    /// Pairs a hierarchy with validated fractions.
    pub fn new(hierarchy: Hierarchy, fractions: Fractions) -> Self {
        Self {
            hierarchy,
            fractions,
        }
    }

    /// Builds the model from aggregate per-level shares (see
    /// [`Fractions::from_aggregate_shares`]).
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of
    /// [`Fractions::from_aggregate_shares`].
    pub fn with_aggregate_shares(
        hierarchy: Hierarchy,
        shares: &[f64],
    ) -> Result<Self, WorkloadError> {
        let fractions = Fractions::from_aggregate_shares(&hierarchy, shares)?;
        Ok(Self::new(hierarchy, fractions))
    }

    /// The paper's §IV configuration: a two-level paired (`N × N`) hierarchy
    /// of `clusters` equal clusters with aggregate shares
    /// `[favorite, same_cluster, other_clusters]`.
    ///
    /// # Errors
    ///
    /// Propagates hierarchy and fraction validation errors.
    pub fn two_level_paired(
        n: usize,
        clusters: usize,
        shares: [f64; 3],
    ) -> Result<Self, WorkloadError> {
        let hierarchy = Hierarchy::two_level(n, clusters)?;
        Self::with_aggregate_shares(hierarchy, &shares)
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The validated fractions.
    pub fn fractions(&self) -> &Fractions {
        &self.fractions
    }

    /// The probability that *some particular* memory of level `i` is
    /// requested — `mᵢ` itself.
    pub fn fraction(&self, i: usize) -> f64 {
        self.fractions.get(i)
    }
}

impl RequestModel for HierarchicalModel {
    fn processors(&self) -> usize {
        self.hierarchy.processors()
    }

    fn memories(&self) -> usize {
        self.hierarchy.memories()
    }

    fn prob(&self, p: usize, j: usize) -> f64 {
        self.fractions.get(self.hierarchy.fraction_level(p, j))
    }

    fn fill_row(&self, p: usize, row: &mut [f64]) {
        self.hierarchy
            .fill_row(p, row, |level| self.fractions.get(level));
    }

    fn name(&self) -> &str {
        "hierarchical"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_stochastic() {
        for n in [8, 12, 16] {
            let model = HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1]).unwrap();
            let matrix = model.matrix(); // from_rows validates stochasticity
            assert_eq!(matrix.processors(), n);
        }
    }

    #[test]
    fn paper_x_value_n8() {
        // Hand-checked against Table II: N = 8, r = 1 → X ≈ 0.74689,
        // so the crossbar row is 8X ≈ 5.98.
        let model = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1]).unwrap();
        let x = model.matrix().memory_request_prob(0, 1.0).unwrap();
        assert!((8.0 * x - 5.98).abs() < 0.01, "8X = {}", 8.0 * x);
    }

    #[test]
    fn three_level_model() {
        // k = (2, 2, 2), shares 0.5/0.25/0.15/0.1.
        let h = Hierarchy::paired(&[2, 2, 2]).unwrap();
        let model = HierarchicalModel::with_aggregate_shares(h, &[0.5, 0.25, 0.15, 0.1]).unwrap();
        // m0 = 0.5 (1 memory), m1 = 0.25 (1), m2 = 0.15/2, m3 = 0.1/4.
        assert_eq!(model.prob(0, 0), 0.5);
        assert_eq!(model.prob(0, 1), 0.25);
        assert!((model.prob(0, 2) - 0.075).abs() < 1e-12);
        assert!((model.prob(0, 7) - 0.025).abs() < 1e-12);
        let _ = model.matrix();
    }

    #[test]
    fn shared_leaf_model() {
        // N×M: 12 processors, 8 memories, k = (2, 2, 3) with 2 per leaf.
        let h = Hierarchy::shared(&[2, 2, 3], 2).unwrap();
        let model = HierarchicalModel::with_aggregate_shares(h, &[0.6, 0.3, 0.1]).unwrap();
        assert_eq!(model.processors(), 12);
        assert_eq!(model.memories(), 8);
        // Favorites: share 0.6 over 2 leaf memories.
        assert!((model.prob(0, 0) - 0.3).abs() < 1e-12);
        assert!((model.prob(0, 1) - 0.3).abs() < 1e-12);
        let _ = model.matrix();
    }

    #[test]
    fn all_mass_on_favorite_is_degenerate_but_legal() {
        let h = Hierarchy::two_level(8, 4).unwrap();
        let model = HierarchicalModel::with_aggregate_shares(h, &[1.0, 0.0, 0.0]).unwrap();
        assert_eq!(model.prob(3, 3), 1.0);
        assert_eq!(model.prob(3, 2), 0.0);
        // With every processor on its own favorite there is no memory
        // contention at all: X_j = r for each memory.
        let x = model.matrix().memory_request_prob(5, 0.7).unwrap();
        assert!((x - 0.7).abs() < 1e-12);
    }
}
