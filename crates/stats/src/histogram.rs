//! Exact histograms over small non-negative integer outcomes.

use serde::{Deserialize, Serialize};

/// An exact frequency histogram over non-negative integer values.
///
/// The simulator uses this to record per-cycle counts such as "number of
/// requests served" or "number of busy buses" — quantities bounded by the bus
/// count `B`, so dense storage is ideal.
///
/// # Examples
///
/// ```
/// use mbus_stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [0, 1, 1, 2, 2, 2, 3] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 7);
/// assert_eq!(h.frequency(2), 3);
/// assert_eq!(h.quantile(0.5), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a histogram pre-sized for values up to `max_value` (an
    /// optimization only; larger values still work).
    pub fn with_max_value(max_value: usize) -> Self {
        Self {
            counts: vec![0; max_value + 1],
            total: 0,
        }
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: usize) {
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
    }

    /// Records `n` observations of `value` at once.
    pub fn record_n(&mut self, value: usize, n: u64) {
        if n == 0 {
            return;
        }
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += n;
        self.total += n;
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Number of times `value` was recorded.
    pub fn frequency(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Mean of the recorded values; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as f64 * c as f64)
            .sum();
        weighted / self.total as f64
    }

    /// Largest recorded value; `None` when empty.
    pub fn max_value(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) under the empirical CDF, i.e. the
    /// smallest value `v` with `P(X ≤ v) ≥ q`. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
        if self.total == 0 {
            return None;
        }
        let threshold = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0;
        for (v, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= threshold {
                return Some(v);
            }
        }
        self.max_value()
    }

    /// Iterates over `(value, frequency)` pairs with nonzero frequency.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.max_value(), None);
    }

    #[test]
    fn frequencies_and_probability() {
        let mut h = Histogram::with_max_value(4);
        h.record(0);
        h.record(4);
        h.record(4);
        h.record(7); // beyond pre-sized range: must grow
        assert_eq!(h.frequency(4), 2);
        assert_eq!(h.frequency(7), 1);
        assert_eq!(h.frequency(100), 0);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_value(), Some(7));
        h.record_n(7, 2);
        h.record_n(9, 0); // zero observations record nothing
        assert_eq!(h.frequency(7), 3);
        assert_eq!(h.count(), 6);
        assert_eq!(h.max_value(), Some(7));
    }

    #[test]
    fn mean_weights_each_value() {
        let mut h = Histogram::new();
        for v in [1, 1, 3, 3] {
            h.record(v);
        }
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn quantiles_match_sorted_order() {
        let mut h = Histogram::new();
        for v in [5, 1, 3, 3, 9] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.2), Some(1));
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(0.8), Some(5));
        assert_eq!(h.quantile(1.0), Some(9));
    }

    #[test]
    fn pmf_sums_to_one() {
        let mut h = Histogram::new();
        for v in [0, 2, 2, 6] {
            h.record(v);
        }
        // The recorded frequencies account for every observation.
        assert_eq!(h.max_value(), Some(6));
        assert_eq!(h.iter().map(|(_, c)| c).sum::<u64>(), h.count());
    }
}
