//! Validated request-fraction vectors `m₀ … mₙ`.

use crate::{Hierarchy, WorkloadError};
use serde::{Deserialize, Serialize};

/// Tolerance for the normalization check `Σ mᵢ·Nᵢ = 1`.
const NORMALIZATION_TOL: f64 = 1e-9;

/// The per-level request fractions of the hierarchical model, validated
/// against a [`Hierarchy`]'s target counts: `Σᵢ mᵢ·Nᵢ = 1` (paper
/// formula (1)).
///
/// `mᵢ` is the probability that a processor's request (given one is issued)
/// goes to *one particular* memory of level `i`. The paper's §IV instead
/// quotes *aggregate* shares (e.g. "0.6 to its favorite, 0.3 to its cluster,
/// 0.1 elsewhere"); use [`Fractions::from_aggregate_shares`] for that form.
///
/// # Examples
///
/// ```
/// use mbus_workload::{Fractions, Hierarchy};
///
/// let h = Hierarchy::two_level(8, 4)?; // N1 = 1, N2 = 6
/// let f = Fractions::from_aggregate_shares(&h, &[0.6, 0.3, 0.1])?;
/// assert!((f.get(0) - 0.6).abs() < 1e-12);
/// assert!((f.get(1) - 0.3).abs() < 1e-12);
/// assert!((f.get(2) - 0.1 / 6.0).abs() < 1e-12);
/// # Ok::<(), mbus_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fractions {
    m: Vec<f64>,
}

impl Fractions {
    /// Validates per-memory fractions `m₀ … m_{L−1}` against `hierarchy`.
    ///
    /// # Errors
    ///
    /// * wrong length → [`WorkloadError::FractionCountMismatch`];
    /// * negative or non-finite entry → [`WorkloadError::InvalidFraction`];
    /// * `Σ mᵢ·Nᵢ ≠ 1` → [`WorkloadError::NotNormalized`].
    pub fn new(hierarchy: &Hierarchy, m: &[f64]) -> Result<Self, WorkloadError> {
        let expected = hierarchy.fraction_count();
        if m.len() != expected {
            return Err(WorkloadError::FractionCountMismatch {
                got: m.len(),
                expected,
            });
        }
        for (index, &value) in m.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(WorkloadError::InvalidFraction { index, value });
            }
        }
        let counts = hierarchy.target_counts();
        let sum: f64 = m.iter().zip(&counts).map(|(&mi, &ni)| mi * ni as f64).sum();
        if (sum - 1.0).abs() > NORMALIZATION_TOL {
            return Err(WorkloadError::NotNormalized { sum });
        }
        Ok(Self { m: m.to_vec() })
    }

    /// Builds fractions from *aggregate level shares*: `shares[i]` is the
    /// total probability mass a processor devotes to level `i`, which is
    /// split uniformly over that level's `Nᵢ` memories (`mᵢ = shares[i]/Nᵢ`).
    ///
    /// This is exactly how the paper's §IV describes its two-level
    /// configuration: shares `(0.6, 0.3, 0.1)`.
    ///
    /// # Errors
    ///
    /// * wrong length → [`WorkloadError::FractionCountMismatch`];
    /// * shares don't sum to 1 → [`WorkloadError::SharesNotNormalized`];
    /// * invalid entries → [`WorkloadError::InvalidFraction`].
    pub fn from_aggregate_shares(
        hierarchy: &Hierarchy,
        shares: &[f64],
    ) -> Result<Self, WorkloadError> {
        let expected = hierarchy.fraction_count();
        if shares.len() != expected {
            return Err(WorkloadError::FractionCountMismatch {
                got: shares.len(),
                expected,
            });
        }
        for (index, &value) in shares.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(WorkloadError::InvalidFraction { index, value });
            }
        }
        let total: f64 = shares.iter().sum();
        if (total - 1.0).abs() > NORMALIZATION_TOL {
            return Err(WorkloadError::SharesNotNormalized { sum: total });
        }
        let counts = hierarchy.target_counts();
        let m: Vec<f64> = shares
            .iter()
            .zip(&counts)
            .map(|(&share, &ni)| if ni == 0 { 0.0 } else { share / ni as f64 })
            .collect();
        Self::new(hierarchy, &m)
    }

    /// The uniform requesting model expressed as fractions: every memory
    /// requested with `1/M`.
    pub fn uniform(hierarchy: &Hierarchy) -> Self {
        let m_total = hierarchy.memories();
        let m = vec![1.0 / m_total as f64; hierarchy.fraction_count()];
        Self { m }
    }

    /// Fraction `mᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> f64 {
        self.m[i]
    }

    /// All fractions `m₀ … m_{L−1}`.
    pub fn as_slice(&self) -> &[f64] {
        &self.m
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// Whether the vector is empty (never true for validated fractions).
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h8() -> Hierarchy {
        Hierarchy::two_level(8, 4).unwrap()
    }

    #[test]
    fn validates_normalization() {
        let h = h8();
        // N = [1, 1, 6]: 0.6 + 0.3 + 6·(0.1/6) = 1.
        assert!(Fractions::new(&h, &[0.6, 0.3, 0.1 / 6.0]).is_ok());
        assert!(matches!(
            Fractions::new(&h, &[0.6, 0.3, 0.1]).unwrap_err(),
            WorkloadError::NotNormalized { .. }
        ));
    }

    #[test]
    fn rejects_wrong_arity_and_bad_values() {
        let h = h8();
        assert!(matches!(
            Fractions::new(&h, &[0.5, 0.5]).unwrap_err(),
            WorkloadError::FractionCountMismatch {
                got: 2,
                expected: 3
            }
        ));
        assert!(matches!(
            Fractions::new(&h, &[0.6, -0.3, 0.1]).unwrap_err(),
            WorkloadError::InvalidFraction { index: 1, .. }
        ));
        assert!(matches!(
            Fractions::new(&h, &[f64::NAN, 0.3, 0.1]).unwrap_err(),
            WorkloadError::InvalidFraction { index: 0, .. }
        ));
    }

    #[test]
    fn aggregate_shares_match_paper_setup() {
        // N = 16, 4 clusters: N1 = 3, N2 = 12.
        let h = Hierarchy::two_level(16, 4).unwrap();
        let f = Fractions::from_aggregate_shares(&h, &[0.6, 0.3, 0.1]).unwrap();
        assert!((f.get(0) - 0.6).abs() < 1e-12);
        assert!((f.get(1) - 0.1).abs() < 1e-12);
        assert!((f.get(2) - 0.1 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_shares_must_sum_to_one() {
        let h = h8();
        assert!(matches!(
            Fractions::from_aggregate_shares(&h, &[0.6, 0.3, 0.2]).unwrap_err(),
            WorkloadError::SharesNotNormalized { .. }
        ));
    }

    #[test]
    fn uniform_fractions_normalize() {
        let h = h8();
        let f = Fractions::uniform(&h);
        let counts = h.target_counts();
        let sum: f64 = f
            .as_slice()
            .iter()
            .zip(&counts)
            .map(|(&m, &n)| m * n as f64)
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Every memory is equally likely, so no level is favoured.
        assert!(f.as_slice().windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn shared_leaf_fraction_arity() {
        let h = Hierarchy::shared(&[2, 2, 3], 2).unwrap();
        // Shared three-level hierarchy needs 3 fractions.
        let f = Fractions::from_aggregate_shares(&h, &[0.7, 0.2, 0.1]).unwrap();
        assert_eq!(f.len(), 3);
        // N = [2, 2, 4] → m = [0.35, 0.1, 0.025].
        assert!((f.get(0) - 0.35).abs() < 1e-12);
        assert!((f.get(2) - 0.025).abs() < 1e-12);
    }
}
