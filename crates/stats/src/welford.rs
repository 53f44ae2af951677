//! Streaming mean/variance accumulation (Welford's algorithm).

use serde::{Deserialize, Serialize};

/// Numerically stable streaming accumulator for mean, variance, and extrema.
///
/// Uses Welford's online algorithm, which avoids the catastrophic
/// cancellation of the naive `E[x²] − E[x]²` formula. Two accumulators can be
/// combined with [`Welford::merge`] (Chan et al.'s pairwise update), which the
/// simulator uses to fold per-thread replication results together.
///
/// # Examples
///
/// ```
/// use mbus_stats::Welford;
///
/// let acc: Welford = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(acc.count(), 8);
/// assert_eq!(acc.mean(), 5.0);
/// assert_eq!(acc.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the observations, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of the observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Unbiased sample variance (divides by `n − 1`); `0.0` for fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (divides by `n`); `0.0` when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard error of the mean (`s/√n`); `0.0` for fewer than two
    /// observations.
    pub fn standard_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.sample_variance() / self.count as f64).sqrt()
        }
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Folds another accumulator into this one, as if every observation of
    /// `other` had been pushed here.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = Welford::new();
        for x in iter {
            acc.push(x);
        }
        acc
    }
}

impl Extend<f64> for Welford {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_is_benign() {
        let acc = Welford::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.sample_variance(), 0.0);
        assert_eq!(acc.min(), None);
        assert_eq!(acc.max(), None);
    }

    #[test]
    fn single_observation() {
        let mut acc = Welford::new();
        acc.push(3.25);
        assert_eq!(acc.mean(), 3.25);
        assert_eq!(acc.sample_variance(), 0.0);
        assert_eq!(acc.min(), Some(3.25));
        assert_eq!(acc.max(), Some(3.25));
    }

    #[test]
    fn matches_two_pass_computation() {
        let data = [0.3, 1.7, -2.4, 8.8, 0.0, 5.5, -1.1];
        let acc: Welford = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((acc.mean() - mean).abs() < 1e-12);
        assert!((acc.sample_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let data = [1.0, 2.0, 3.0, 10.0, -4.0, 6.5];
        let (left, right) = data.split_at(2);
        let mut a: Welford = left.iter().copied().collect();
        let b: Welford = right.iter().copied().collect();
        a.merge(&b);
        let whole: Welford = data.iter().copied().collect();
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let data: Welford = [5.0, 7.0].iter().copied().collect();
        let mut empty = Welford::new();
        empty.merge(&data);
        assert_eq!(empty.count(), 2);
        let mut data2 = data;
        data2.merge(&Welford::new());
        assert_eq!(data2.count(), 2);
        assert_eq!(data2.mean(), 6.0);
    }

    #[test]
    fn stable_for_large_offsets() {
        // Classic failure mode of the naive formula: tiny variance around a
        // huge mean.
        let base = 1.0e9;
        let acc: Welford = [base + 4.0, base + 7.0, base + 13.0, base + 16.0]
            .iter()
            .copied()
            .collect();
        assert!((acc.mean() - (base + 10.0)).abs() < 1e-3);
        assert!((acc.sample_variance() - 30.0).abs() < 1e-6);
    }
}
