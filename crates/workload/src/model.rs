//! The common interface implemented by every request model.

use crate::RequestMatrix;

/// A memory-reference model: where does each processor send its requests?
///
/// Implementations must be *consistent*: [`RequestModel::matrix`] returns a
/// row-stochastic `N × M` matrix whose entry `(p, j)` equals
/// [`RequestModel::prob`]`(p, j)`.
///
/// The trait is object-safe, so heterogeneous collections of models (e.g.
/// the hierarchical/uniform pairs in the paper's tables) can be processed
/// uniformly.
pub trait RequestModel {
    /// Number of processors `N`.
    fn processors(&self) -> usize;

    /// Number of memory modules `M`.
    fn memories(&self) -> usize;

    /// Probability that processor `p`'s request (given one is issued)
    /// targets memory `j`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `p ≥ N` or `j ≥ M`.
    fn prob(&self, p: usize, j: usize) -> f64;

    /// A short human-readable name for reports ("hierarchical", "uniform",
    /// …).
    fn name(&self) -> &str;

    /// Writes processor `p`'s row, `prob(p, j)` for every memory `j`, into
    /// `row` (length `M`). Models whose rows are made of constant blocks
    /// override this with block fills; the values must stay those of
    /// [`RequestModel::prob`].
    ///
    /// # Panics
    ///
    /// Implementations panic if `p ≥ N` or `row.len() ≠ M`.
    fn fill_row(&self, p: usize, row: &mut [f64]) {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = self.prob(p, j);
        }
    }

    /// Materializes the full request matrix, one [`RequestModel::fill_row`]
    /// per processor into a row-major buffer.
    fn matrix(&self) -> RequestMatrix {
        let (n, m) = (self.processors(), self.memories());
        let mut data = vec![0.0; n * m];
        for p in 0..n {
            self.fill_row(p, &mut data[p * m..(p + 1) * m]);
        }
        RequestMatrix::from_flat(n, m, data)
            // lint:allow(no_panic, the RequestModel contract requires row-stochastic prob() rows; all workspace models validate at construction)
            .expect("request models must produce row-stochastic matrices")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FavoriteModel, HierarchicalModel, Hierarchy, UniformModel};

    /// A model over `hierarchy` whose levels all get distinct fractions
    /// (levels that hold no memory get share 0).
    fn distinct_levels(hierarchy: Hierarchy) -> HierarchicalModel {
        let weights: Vec<f64> = hierarchy
            .target_counts()
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                if count == 0 {
                    0.0
                } else {
                    1.0 / (i + 1) as f64
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let shares: Vec<f64> = weights.iter().map(|w| w / total).collect();
        HierarchicalModel::with_aggregate_shares(hierarchy, &shares).unwrap()
    }

    /// Every entry of `matrix()` is bit-identical to `prob(p, j)`, for the
    /// block fills of every hierarchy shape (paired and shared leaves, one
    /// to three levels, `k = 1` levels) and for the per-entry default.
    #[test]
    fn trait_is_object_safe_and_consistent() {
        let mut models: Vec<Box<dyn RequestModel>> = vec![
            Box::new(UniformModel::new(4, 6).unwrap()),
            Box::new(UniformModel::new(12, 5).unwrap()),
            Box::new(FavoriteModel::new(4, 4, 0.5).unwrap()),
            Box::new(FavoriteModel::new(6, 4, 0.55).unwrap()),
            Box::new(
                HierarchicalModel::with_aggregate_shares(
                    Hierarchy::shared(&[2, 2, 3], 2).unwrap(),
                    &[0.6, 0.3, 0.1],
                )
                .unwrap(),
            ),
        ];
        for n in [8, 12, 16, 32, 64] {
            models.push(Box::new(
                HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1]).unwrap(),
            ));
        }
        for ks in [
            &[4][..],
            &[1],
            &[3, 5],
            &[2, 2, 2],
            &[3, 2, 2],
            &[4, 3, 2],
            &[2, 1, 2],
            &[2, 2, 1],
        ] {
            models.push(Box::new(distinct_levels(Hierarchy::paired(ks).unwrap())));
        }
        for (ks, per_leaf) in [
            (&[3][..], 2),
            (&[2, 3], 4),
            (&[2, 2, 3], 2),
            (&[3, 2, 2], 1),
            (&[2, 1, 2], 3),
        ] {
            models.push(Box::new(distinct_levels(
                Hierarchy::shared(ks, per_leaf).unwrap(),
            )));
        }
        for model in &models {
            let matrix = model.matrix();
            assert_eq!(matrix.processors(), model.processors());
            assert_eq!(matrix.memories(), model.memories());
            for p in 0..model.processors() {
                for j in 0..model.memories() {
                    assert_eq!(
                        matrix.prob(p, j).to_bits(),
                        model.prob(p, j).to_bits(),
                        "{} {}×{} at ({p}, {j})",
                        model.name(),
                        model.processors(),
                        model.memories()
                    );
                }
            }
        }
    }
}
