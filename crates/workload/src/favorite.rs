//! Das & Bhuyan's favorite-memory model.

use crate::{RequestModel, WorkloadError};
use serde::{Deserialize, Serialize};

/// The favorite-memory model of Das & Bhuyan (*Bandwidth availability of
/// multiple-bus multiprocessors*, IEEE TC 1985), reference \[4\] of the paper:
/// each processor `p` sends a fraction `α` of its requests to one favorite
/// memory (`p mod M`) and spreads the remaining `1 − α` uniformly over the
/// other `M − 1` memories.
///
/// The uniform model is the special case `α = 1/M`. Unlike the hierarchical
/// model, per-memory request probabilities here can be *heterogeneous* when
/// `N ≠ M` (some memories are the favorite of more processors than others),
/// which is what exercises this workspace's Poisson-binomial generalization
/// of the paper's analysis.
///
/// # Examples
///
/// ```
/// use mbus_workload::{FavoriteModel, RequestModel};
///
/// let model = FavoriteModel::new(4, 4, 0.7)?;
/// assert_eq!(model.prob(2, 2), 0.7);
/// assert!((model.prob(2, 0) - 0.1).abs() < 1e-12);
/// # Ok::<(), mbus_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FavoriteModel {
    n: usize,
    m: usize,
    alpha: f64,
}

impl FavoriteModel {
    /// A favorite-memory model over `n` processors and `m` memories with
    /// favorite weight `alpha`.
    ///
    /// # Errors
    ///
    /// * zero dimensions → [`WorkloadError::ZeroDimension`];
    /// * `alpha ∉ [0, 1]` → [`WorkloadError::InvalidProbability`]. For
    ///   `m == 1`, `alpha` must be exactly 1 (there is nowhere else to go).
    pub fn new(n: usize, m: usize, alpha: f64) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(WorkloadError::ZeroDimension {
                dimension: "processors",
            });
        }
        if m == 0 {
            return Err(WorkloadError::ZeroDimension {
                dimension: "memories",
            });
        }
        if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) || (m == 1 && alpha != 1.0) {
            return Err(WorkloadError::InvalidProbability {
                name: "favorite weight alpha",
                value: alpha,
            });
        }
        Ok(Self { n, m, alpha })
    }

    /// The favorite memory of processor `p` (`p mod M`).
    pub fn favorite_of(&self, p: usize) -> usize {
        p % self.m
    }
}

impl RequestModel for FavoriteModel {
    fn processors(&self) -> usize {
        self.n
    }

    fn memories(&self) -> usize {
        self.m
    }

    fn prob(&self, p: usize, j: usize) -> f64 {
        assert!(p < self.n, "processor {p} out of range ({})", self.n);
        assert!(j < self.m, "memory {j} out of range ({})", self.m);
        if self.favorite_of(p) == j {
            self.alpha
        } else {
            (1.0 - self.alpha) / (self.m - 1) as f64
        }
    }

    fn name(&self) -> &str {
        "favorite-memory"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_stochastic() {
        let model = FavoriteModel::new(6, 4, 0.55).unwrap();
        let _ = model.matrix(); // validates
    }

    #[test]
    fn uniform_special_case() {
        let model = FavoriteModel::new(4, 8, 1.0 / 8.0).unwrap();
        for j in 0..8 {
            assert!((model.prob(1, j) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn heterogeneous_when_n_exceeds_m() {
        // 6 processors, 4 memories: memories 0 and 1 are favorites of two
        // processors each, memories 2 and 3 of one each.
        let model = FavoriteModel::new(6, 4, 0.7).unwrap();
        let matrix = model.matrix();
        let x0 = matrix.memory_request_prob(0, 1.0).unwrap();
        let x3 = matrix.memory_request_prob(3, 1.0).unwrap();
        assert!(
            x0 > x3,
            "double-favorite memory must be hotter: {x0} vs {x3}"
        );
    }

    #[test]
    fn single_memory_requires_alpha_one() {
        assert!(FavoriteModel::new(2, 1, 0.5).is_err());
        let model = FavoriteModel::new(2, 1, 1.0).unwrap();
        assert_eq!(model.prob(0, 0), 1.0);
    }

    #[test]
    fn rejects_invalid_alpha() {
        assert!(FavoriteModel::new(2, 2, -0.1).is_err());
        assert!(FavoriteModel::new(2, 2, 1.1).is_err());
        assert!(FavoriteModel::new(2, 2, f64::NAN).is_err());
    }
}
