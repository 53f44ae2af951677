//! The Poisson-binomial distribution: sum of independent, *heterogeneous*
//! Bernoulli variables.

use serde::{Deserialize, Serialize};

/// Distribution of the number of successes among independent Bernoulli trials
/// with per-trial probabilities `p₁, …, pₙ`.
///
/// The paper's bus-interference analysis assumes every memory module is
/// requested with the *same* probability `X` (homogeneous traffic), which
/// makes the number of requested modules binomial. Under favorite-memory
/// traffic (Das & Bhuyan) or after bus failures, per-module probabilities
/// differ, and the correct distribution is Poisson-binomial. The pmf is
/// computed by the standard `O(n²)` convolution DP, which is exact and stable
/// (all terms non-negative — no cancellation).
///
/// # Examples
///
/// ```
/// use mbus_stats::prob::PoissonBinomial;
///
/// // Homogeneous probabilities reduce to the binomial.
/// let pb = PoissonBinomial::new(&[0.5, 0.5, 0.5]).unwrap();
/// assert!((pb.pmf(1) - 0.375).abs() < 1e-12);
/// // No cap binds when at most three trials can succeed.
/// assert!((pb.expected_min_with(3) - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoissonBinomial {
    pmf: Vec<f64>,
}

/// Error returned when a Poisson-binomial is constructed from an invalid
/// probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidProbability {
    index: usize,
    value: f64,
}

impl std::fmt::Display for InvalidProbability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "probability at index {} is {}, outside [0, 1]",
            self.index, self.value
        )
    }
}

impl std::error::Error for InvalidProbability {}

impl PoissonBinomial {
    /// Builds the distribution from per-trial success probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbability`] if any probability is outside `[0, 1]`
    /// or non-finite.
    pub fn new(probs: &[f64]) -> Result<Self, InvalidProbability> {
        for (index, &value) in probs.iter().enumerate() {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(InvalidProbability { index, value });
            }
        }
        // DP over trials: after processing trial i, pmf[k] = P(k successes).
        let mut pmf = vec![0.0; probs.len() + 1];
        pmf[0] = 1.0;
        for (i, &p) in probs.iter().enumerate() {
            for k in (1..=i + 1).rev() {
                pmf[k] = pmf[k] * (1.0 - p) + pmf[k - 1] * p;
            }
            pmf[0] *= 1.0 - p;
        }
        Ok(Self { pmf })
    }

    /// `P(X = k)`; zero for `k > n`.
    pub fn pmf(&self, k: usize) -> f64 {
        self.pmf.get(k).copied().unwrap_or(0.0)
    }

    /// The full pmf as a dense slice of length `n + 1`.
    pub fn pmf_slice(&self) -> &[f64] {
        &self.pmf
    }

    /// `E[min(X, b)]` — accepted requests when at most `b` can be served.
    ///
    /// This generalizes the truncation in the paper's equation (4) to
    /// heterogeneous per-memory request probabilities.
    pub fn expected_min_with(&self, b: usize) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(k, &p)| k.min(b) as f64 * p)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::binomial_pmf;

    #[test]
    fn empty_is_point_mass_at_zero() {
        let pb = PoissonBinomial::new(&[]).unwrap();
        assert_eq!(pb.pmf(0), 1.0);
        assert_eq!(pb.pmf(1), 0.0);
        assert_eq!(pb.expected_min_with(3), 0.0);
    }

    #[test]
    fn homogeneous_matches_binomial() {
        let p = 0.37;
        let n = 11usize;
        let pb = PoissonBinomial::new(&vec![p; n]).unwrap();
        for k in 0..=n {
            let expected = binomial_pmf(n as u64, k as u64, p);
            assert!(
                (pb.pmf(k) - expected).abs() < 1e-12,
                "k={k}: {} vs {expected}",
                pb.pmf(k)
            );
        }
    }

    #[test]
    fn heterogeneous_hand_computed() {
        // p = [0.5, 0.2]:
        // P(0) = 0.5*0.8 = 0.40, P(1) = 0.5*0.8 + 0.5*0.2 = 0.50, P(2) = 0.10.
        let pb = PoissonBinomial::new(&[0.5, 0.2]).unwrap();
        assert!((pb.pmf(0) - 0.40).abs() < 1e-12);
        assert!((pb.pmf(1) - 0.50).abs() < 1e-12);
        assert!((pb.pmf(2) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn pmf_sums_to_one_and_mean_matches() {
        let probs = [0.1, 0.9, 0.33, 0.5, 0.77, 0.0, 1.0];
        let pb = PoissonBinomial::new(&probs).unwrap();
        let total: f64 = pb.pmf_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        let mean_from_pmf: f64 = pb
            .pmf_slice()
            .iter()
            .enumerate()
            .map(|(k, &p)| k as f64 * p)
            .sum();
        // E[X] = Σ pᵢ and Var[X] = Σ pᵢ(1−pᵢ).
        let mean: f64 = probs.iter().sum();
        assert!((mean_from_pmf - mean).abs() < 1e-12);
        let var_from_pmf: f64 = pb
            .pmf_slice()
            .iter()
            .enumerate()
            .map(|(k, &p)| (k as f64 - mean).powi(2) * p)
            .sum();
        let variance: f64 = probs.iter().map(|p| p * (1.0 - p)).sum();
        assert!((var_from_pmf - variance).abs() < 1e-12);
    }

    #[test]
    fn deterministic_trials() {
        let pb = PoissonBinomial::new(&[1.0, 1.0, 0.0]).unwrap();
        assert_eq!(pb.pmf(2), 1.0);
        assert_eq!(pb.pmf(0), 0.0);
        assert_eq!(pb.pmf(3), 0.0);
    }

    #[test]
    fn min_and_excess_identity() {
        // E[min(X, b)] + E[max(X − b, 0)] = E[X] = Σ pᵢ, with the excess
        // taken from the pmf.
        let probs = [0.3, 0.6, 0.9, 0.2];
        let pb = PoissonBinomial::new(&probs).unwrap();
        let mean: f64 = probs.iter().sum();
        for b in 0..=4 {
            let excess: f64 = (b + 1..=probs.len())
                .map(|k| (k - b) as f64 * pb.pmf(k))
                .sum();
            let lhs = pb.expected_min_with(b) + excess;
            assert!((lhs - mean).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_invalid_probability() {
        let err = PoissonBinomial::new(&[0.5, 1.5]).unwrap_err();
        assert!(err.to_string().contains("index 1"));
        assert!(PoissonBinomial::new(&[f64::NAN]).is_err());
        assert!(PoissonBinomial::new(&[-0.1]).is_err());
    }
}
