//! The binomial distribution, with the truncated expectations used by the
//! paper's bandwidth equations.

use super::comb::{choose_f64, ln_choose};
use serde::{Deserialize, Serialize};

/// Probability of exactly `k` successes in `n` independent trials with
/// success probability `p` — the paper's `Pf(i)` (equation (3)) and `Pg(i)`
/// (equation (7)).
///
/// Computed in log space when direct evaluation would underflow, so it is
/// accurate for all `n` the workspace uses.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use mbus_stats::prob::binomial_pmf;
///
/// assert!((binomial_pmf(4, 2, 0.5) - 0.375).abs() < 1e-12);
/// assert_eq!(binomial_pmf(4, 5, 0.5), 0.0);
/// ```
pub fn binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    // Exponents beyond i32 would wrap under `as`; force the log-space path
    // instead (any such pmf value underflows to 0 there anyway).
    let direct = match (i32::try_from(k), i32::try_from(n - k)) {
        (Ok(ke), Ok(nke)) => choose_f64(n, k) * p.powi(ke) * (1.0 - p).powi(nke),
        _ => f64::NAN,
    };
    if direct > 0.0 && direct.is_finite() {
        return direct;
    }
    (ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

/// A binomial distribution `Bin(n, p)`.
///
/// # Examples
///
/// ```
/// use mbus_stats::prob::Binomial;
///
/// let bin = Binomial::new(8, 0.25);
/// assert!((bin.mean() - 2.0).abs() < 1e-12);
/// assert!((bin.cdf(8) - 1.0).abs() < 1e-12);
/// // E[min(X, 3)] needed for bandwidth truncation:
/// let capped = bin.expected_min_with(3);
/// assert!(capped < bin.mean() && capped > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates `Bin(n, p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
        Self { n, p }
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// `E[X] = n·p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// `P(X = k)`.
    pub fn pmf(&self, k: u64) -> f64 {
        binomial_pmf(self.n, k, self.p)
    }

    /// `P(X ≤ k)`.
    pub fn cdf(&self, k: u64) -> f64 {
        (0..=k.min(self.n)).map(|i| self.pmf(i)).sum()
    }

    /// The full pmf as a dense vector of length `n + 1`.
    pub fn to_pmf_vec(&self) -> Vec<f64> {
        (0..=self.n).map(|k| self.pmf(k)).collect()
    }

    /// `E[max(X − b, 0)] = Σ_{i>b} (i − b)·P(X = i)`.
    ///
    /// This is the "lost requests" term subtracted in the paper's equations
    /// (4), (8), and (9): with `X` requested memory modules and `b` buses,
    /// `b` connections at most can be made, so `max(X − b, 0)` requests are
    /// rejected by bus interference.
    pub fn expected_excess_over(&self, b: u64) -> f64 {
        ((b + 1)..=self.n)
            .map(|i| (i - b) as f64 * self.pmf(i))
            .sum()
    }

    /// `E[min(X, b)]` — the accepted-request count under a capacity of `b`.
    ///
    /// Identity: `E[min(X, b)] = E[X] − E[max(X − b, 0)]`.
    pub fn expected_min_with(&self, b: u64) -> f64 {
        self.mean() - self.expected_excess_over(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(0u64, 0.3), (1, 0.5), (10, 0.1), (64, 0.9), (200, 0.5)] {
            let total: f64 = Binomial::new(n, p).to_pmf_vec().iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "pmf sum at ({n}, {p}) = {total}"
            );
        }
    }

    #[test]
    fn degenerate_probabilities() {
        let zero = Binomial::new(5, 0.0);
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(zero.pmf(1), 0.0);
        let one = Binomial::new(5, 1.0);
        assert_eq!(one.pmf(5), 1.0);
        assert_eq!(one.pmf(4), 0.0);
    }

    #[test]
    fn matches_hand_computed_values() {
        let bin = Binomial::new(3, 0.25);
        assert!((bin.pmf(0) - 0.421875).abs() < 1e-12);
        assert!((bin.pmf(1) - 0.421875).abs() < 1e-12);
        assert!((bin.pmf(2) - 0.140625).abs() < 1e-12);
        assert!((bin.pmf(3) - 0.015625).abs() < 1e-12);
        assert!((bin.cdf(1) - 0.84375).abs() < 1e-12);
    }

    #[test]
    fn excess_and_min_identities() {
        let bin = Binomial::new(12, 0.7);
        // Cap at n: nothing is lost.
        assert!(bin.expected_excess_over(12).abs() < 1e-12);
        assert!((bin.expected_min_with(12) - bin.mean()).abs() < 1e-12);
        // Cap at 0: everything is lost.
        assert!((bin.expected_excess_over(0) - bin.mean()).abs() < 1e-12);
        assert!(bin.expected_min_with(0).abs() < 1e-12);
        // Brute-force check against the pmf.
        for b in 0..=12u64 {
            let brute: f64 = (0..=12u64).map(|i| (i.min(b)) as f64 * bin.pmf(i)).sum();
            assert!((bin.expected_min_with(b) - brute).abs() < 1e-12);
        }
    }

    #[test]
    fn expected_min_monotone_in_cap() {
        let bin = Binomial::new(20, 0.4);
        let mut prev = 0.0;
        for b in 0..=20 {
            let v = bin.expected_min_with(b);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn log_space_path_is_finite() {
        // n large enough that direct C(n,k)·p^k·q^{n-k} underflows/overflows.
        let p = binomial_pmf(2000, 1000, 0.5);
        assert!(p.is_finite() && p > 0.0);
        // Center of Bin(2000, 0.5) ≈ 1/sqrt(π·1000).
        assert!((p - 1.0 / (std::f64::consts::PI * 1000.0).sqrt()).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_p() {
        let _ = Binomial::new(4, 1.01);
    }
}
