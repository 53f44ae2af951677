//! Row-stochastic request-probability matrices.

use crate::WorkloadError;
use serde::{Deserialize, Serialize};

/// Tolerance for row-stochasticity validation.
const ROW_SUM_TOL: f64 = 1e-9;

/// An `N × M` row-stochastic matrix: entry `(p, j)` is the probability that
/// processor `p`'s request (given one is issued this cycle) targets memory
/// `j`.
///
/// This is the lingua franca between workload models, the analytical crates
/// (which derive per-memory request probabilities from it), and the
/// simulator (which samples destinations from its rows).
///
/// # Examples
///
/// ```
/// use mbus_workload::RequestMatrix;
///
/// let m = RequestMatrix::from_rows(vec![
///     vec![0.5, 0.5],
///     vec![0.25, 0.75],
/// ])?;
/// assert_eq!(m.processors(), 2);
/// assert_eq!(m.memories(), 2);
/// // P(memory 1 requested) with request rate r = 1:
/// // 1 − (1 − 0.5)(1 − 0.75) = 0.875.
/// assert!((m.memory_request_prob(1, 1.0)? - 0.875).abs() < 1e-12);
/// # Ok::<(), mbus_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestMatrix {
    n: usize,
    m: usize,
    /// Row-major storage, `n * m` entries.
    data: Vec<f64>,
}

impl RequestMatrix {
    /// Builds and validates a matrix from rows.
    ///
    /// # Errors
    ///
    /// * empty matrix → [`WorkloadError::ZeroDimension`];
    /// * ragged rows → [`WorkloadError::RowNotStochastic`] is *not* used for
    ///   this; ragged input is a programming error and panics;
    /// * negative/non-finite entries → [`WorkloadError::InvalidMatrixEntry`];
    /// * rows not summing to 1 → [`WorkloadError::RowNotStochastic`].
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, WorkloadError> {
        if rows.is_empty() {
            return Err(WorkloadError::ZeroDimension {
                dimension: "processors",
            });
        }
        let m = rows[0].len();
        if m == 0 {
            return Err(WorkloadError::ZeroDimension {
                dimension: "memories",
            });
        }
        let n = rows.len();
        let mut data = Vec::with_capacity(n * m);
        for (p, row) in rows.into_iter().enumerate() {
            assert_eq!(row.len(), m, "ragged request matrix at row {p}");
            validate_row(p, &row)?;
            data.extend(row);
        }
        Ok(Self { n, m, data })
    }

    /// Builds and validates an `n × m` matrix from row-major `data` (of
    /// length `n · m`), with the checks and errors of
    /// [`RequestMatrix::from_rows`].
    pub(crate) fn from_flat(n: usize, m: usize, data: Vec<f64>) -> Result<Self, WorkloadError> {
        debug_assert_eq!(data.len(), n * m, "request matrix data is not {n} × {m}");
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
        for (p, row) in data.chunks_exact(m).enumerate() {
            validate_row(p, row)?;
        }
        Ok(Self { n, m, data })
    }

    /// Number of processors (rows).
    pub fn processors(&self) -> usize {
        self.n
    }

    /// Number of memories (columns).
    pub fn memories(&self) -> usize {
        self.m
    }

    /// Probability that processor `p` targets memory `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn prob(&self, p: usize, j: usize) -> f64 {
        assert!(p < self.n, "processor {p} out of range ({})", self.n);
        assert!(j < self.m, "memory {j} out of range ({})", self.m);
        self.data[p * self.m + j]
    }

    /// Row `p` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn row(&self, p: usize) -> &[f64] {
        assert!(p < self.n, "processor {p} out of range ({})", self.n);
        &self.data[p * self.m..(p + 1) * self.m]
    }

    /// The probability that at least one processor requests memory `j` in a
    /// cycle, with per-processor request rate `r` — the exact per-memory
    /// version of the paper's equation (2):
    ///
    /// `X_j = 1 − Π_p (1 − r·prob(p, j))`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidProbability`] if `r ∉ [0, 1]` and
    /// [`WorkloadError::IndexOutOfRange`] if `j ≥ M`.
    pub fn memory_request_prob(&self, j: usize, r: f64) -> Result<f64, WorkloadError> {
        if !(0.0..=1.0).contains(&r) || !r.is_finite() {
            return Err(WorkloadError::InvalidProbability {
                name: "request rate r",
                value: r,
            });
        }
        if j >= self.m {
            return Err(WorkloadError::IndexOutOfRange {
                kind: "memory",
                index: j,
                len: self.m,
            });
        }
        let mut none = 1.0;
        for p in 0..self.n {
            none *= 1.0 - r * self.prob(p, j);
        }
        Ok(1.0 - none)
    }

    /// [`RequestMatrix::memory_request_prob`] for every memory at once.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidProbability`] if `r ∉ [0, 1]`.
    pub fn memory_request_probs(&self, r: f64) -> Result<Vec<f64>, WorkloadError> {
        (0..self.m)
            .map(|j| self.memory_request_prob(j, r))
            .collect()
    }

    /// Total expected requests per cycle at rate `r`: `N·r`.
    pub fn offered_load(&self, r: f64) -> f64 {
        self.n as f64 * r
    }
}

/// Checks that row `p` holds finite, non-negative entries summing to 1.
fn validate_row(p: usize, row: &[f64]) -> Result<(), WorkloadError> {
    let mut sum = 0.0;
    for (j, &value) in row.iter().enumerate() {
        if !value.is_finite() || value < 0.0 {
            return Err(WorkloadError::InvalidMatrixEntry {
                processor: p,
                memory: j,
                value,
            });
        }
        sum += value;
    }
    if (sum - 1.0).abs() > ROW_SUM_TOL {
        return Err(WorkloadError::RowNotStochastic { processor: p, sum });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_rows() {
        assert!(matches!(
            RequestMatrix::from_rows(vec![]).unwrap_err(),
            WorkloadError::ZeroDimension { .. }
        ));
        assert!(matches!(
            RequestMatrix::from_rows(vec![vec![]]).unwrap_err(),
            WorkloadError::ZeroDimension { .. }
        ));
        assert!(matches!(
            RequestMatrix::from_rows(vec![vec![0.5, 0.4]]).unwrap_err(),
            WorkloadError::RowNotStochastic { processor: 0, .. }
        ));
        assert!(matches!(
            RequestMatrix::from_rows(vec![vec![1.5, -0.5]]).unwrap_err(),
            WorkloadError::InvalidMatrixEntry {
                processor: 0,
                memory: 1,
                ..
            }
        ));
    }

    #[test]
    fn flat_constructor_matches_from_rows() {
        let cases = [
            vec![vec![0.5, 0.5], vec![0.25, 0.75]],
            vec![vec![0.5, 0.5], vec![f64::NAN, 0.5]],
            vec![vec![0.5, 0.5], vec![1.5, -0.5]],
            vec![vec![0.5, 0.5], vec![0.5, 0.5 + 2e-9]],
            vec![vec![]],
        ];
        for rows in cases {
            let (n, m) = (rows.len(), rows[0].len());
            let flat = RequestMatrix::from_flat(n, m, rows.concat());
            let expected = RequestMatrix::from_rows(rows);
            // Debug text, since a NaN entry makes the errors compare unequal.
            assert_eq!(format!("{flat:?}"), format!("{expected:?}"));
        }
        assert_eq!(
            RequestMatrix::from_flat(0, 2, vec![]),
            RequestMatrix::from_rows(vec![])
        );
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = RequestMatrix::from_rows(vec![vec![1.0], vec![0.5, 0.5]]);
    }

    #[test]
    fn memory_request_prob_uniform_closed_form() {
        // Uniform 4×4: X = 1 − (1 − r/4)^4.
        let rows = vec![vec![0.25; 4]; 4];
        let m = RequestMatrix::from_rows(rows).unwrap();
        for r in [0.0, 0.5, 1.0] {
            let expected = 1.0 - (1.0 - r / 4.0f64).powi(4);
            for j in 0..4 {
                assert!((m.memory_request_prob(j, r).unwrap() - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_rate_means_no_requests() {
        let m = RequestMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert_eq!(m.memory_request_prob(0, 0.0).unwrap(), 0.0);
        assert_eq!(m.offered_load(0.0), 0.0);
    }

    #[test]
    fn rejects_bad_rate_and_index() {
        let m = RequestMatrix::from_rows(vec![vec![1.0]]).unwrap();
        assert!(m.memory_request_prob(0, 1.5).is_err());
        assert!(m.memory_request_prob(0, f64::NAN).is_err());
        assert!(m.memory_request_prob(3, 0.5).is_err());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes two parallel views
    fn probs_vector_matches_scalar() {
        let m = RequestMatrix::from_rows(vec![vec![0.7, 0.3], vec![0.2, 0.8]]).unwrap();
        let all = m.memory_request_probs(0.9).unwrap();
        for j in 0..2 {
            assert_eq!(all[j], m.memory_request_prob(j, 0.9).unwrap());
        }
    }
}
