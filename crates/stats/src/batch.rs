//! Batch-means confidence intervals for autocorrelated simulation output.

use crate::{student_t_quantile, ConfidenceInterval, Welford};
use serde::{Deserialize, Serialize};

/// Batch-means estimator for the steady-state mean of a (possibly
/// autocorrelated) time series.
///
/// Successive observations from a cycle-by-cycle simulator are correlated, so
/// the naive `s/√n` standard error underestimates the true uncertainty. The
/// classic remedy is to group observations into contiguous batches of length
/// `batch_len`, treat the batch means as (approximately) independent, and form
/// a Student-t interval over them.
///
/// # Examples
///
/// ```
/// use mbus_stats::BatchMeans;
///
/// let mut bm = BatchMeans::new(100);
/// for i in 0..10_000 {
///     bm.push((i % 7) as f64);
/// }
/// let ci = bm.confidence_interval(0.95).unwrap();
/// assert!(ci.contains(3.0)); // mean of 0..=6
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchMeans {
    batch_len: u64,
    current_sum: f64,
    current_count: u64,
    batches: Welford,
    overall: Welford,
}

impl BatchMeans {
    /// Creates an estimator with the given batch length.
    ///
    /// # Panics
    ///
    /// Panics if `batch_len == 0`.
    pub fn new(batch_len: u64) -> Self {
        assert!(batch_len > 0, "batch length must be positive");
        Self {
            batch_len,
            current_sum: 0.0,
            current_count: 0,
            batches: Welford::new(),
            overall: Welford::new(),
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.overall.push(x);
        self.current_sum += x;
        self.current_count += 1;
        if self.current_count == self.batch_len {
            self.batches.push(self.current_sum / self.batch_len as f64);
            self.current_sum = 0.0;
            self.current_count = 0;
        }
    }

    /// Grand mean over all observations (partial batch included).
    pub fn mean(&self) -> f64 {
        self.overall.mean()
    }

    /// Student-t confidence interval over the batch means.
    ///
    /// Returns `None` until at least two batches have completed. The trailing
    /// partial batch (if any) contributes to [`BatchMeans::mean`] but not to
    /// the variance estimate.
    pub fn confidence_interval(&self, level: f64) -> Option<ConfidenceInterval> {
        let k = self.batches.count();
        if k < 2 {
            return None;
        }
        let t = student_t_quantile(k - 1, level);
        let half = t * self.batches.standard_error();
        Some(ConfidenceInterval::new(self.batches.mean(), half, level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_two_batches() {
        let mut bm = BatchMeans::new(10);
        for _ in 0..19 {
            bm.push(1.0);
        }
        assert!(bm.confidence_interval(0.95).is_none());
        bm.push(1.0);
        assert!(bm.confidence_interval(0.95).is_some());
    }

    #[test]
    fn constant_series_has_zero_width() {
        let mut bm = BatchMeans::new(5);
        for _ in 0..100 {
            bm.push(2.5);
        }
        let ci = bm.confidence_interval(0.95).unwrap();
        assert_eq!(ci.mean(), 2.5);
        assert!(ci.half_width() < 1e-12);
    }

    #[test]
    fn partial_batch_counts_toward_mean_only() {
        let mut bm = BatchMeans::new(4);
        for x in [1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0, 100.0] {
            bm.push(x);
        }
        // Grand mean includes the 100.0 straggler…
        assert!((bm.mean() - 116.0 / 9.0).abs() < 1e-12);
        // …but the CI is centered on the completed batches (means 1 and 3).
        let ci = bm.confidence_interval(0.95).unwrap();
        assert_eq!(ci.mean(), 2.0);
    }

    #[test]
    fn interval_narrows_with_more_batches() {
        let series = |n: usize| {
            let mut bm = BatchMeans::new(10);
            for i in 0..n {
                // Period-11 series against batch length 10, so batch means
                // genuinely vary from batch to batch.
                bm.push(((i * 37) % 11) as f64);
            }
            bm.confidence_interval(0.95).unwrap().half_width()
        };
        assert!(series(10_000) < series(100));
    }

    #[test]
    #[should_panic(expected = "batch length")]
    fn zero_batch_len_rejected() {
        let _ = BatchMeans::new(0);
    }
}
