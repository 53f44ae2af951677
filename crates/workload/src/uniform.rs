//! The uniform requesting model.

use crate::{RequestModel, WorkloadError};
use serde::{Deserialize, Serialize};

/// The classical uniform memory-reference model: every processor requests
/// every memory with probability `1/M`.
///
/// This is the baseline in every one of the paper's tables ("Unif."
/// columns), and the special case of the hierarchical model where all
/// fractions coincide.
///
/// # Examples
///
/// ```
/// use mbus_workload::{RequestModel, UniformModel};
///
/// let model = UniformModel::new(8, 4)?;
/// assert_eq!(model.prob(3, 2), 0.25);
/// # Ok::<(), mbus_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UniformModel {
    n: usize,
    m: usize,
}

impl UniformModel {
    /// A uniform model over `n` processors and `m` memories.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ZeroDimension`] if either count is zero.
    pub fn new(n: usize, m: usize) -> Result<Self, WorkloadError> {
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
        Ok(Self { n, m })
    }
}

impl RequestModel for UniformModel {
    fn processors(&self) -> usize {
        self.n
    }

    fn memories(&self) -> usize {
        self.m
    }

    fn prob(&self, p: usize, j: usize) -> f64 {
        assert!(p < self.n, "processor {p} out of range ({})", self.n);
        assert!(j < self.m, "memory {j} out of range ({})", self.m);
        1.0 / self.m as f64
    }

    fn fill_row(&self, p: usize, row: &mut [f64]) {
        assert!(p < self.n, "processor {p} out of range ({})", self.n);
        assert_eq!(row.len(), self.m, "row length is not M = {}", self.m);
        row.fill(1.0 / self.m as f64);
    }

    fn name(&self) -> &str {
        "uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dimensions() {
        assert!(UniformModel::new(0, 4).is_err());
        assert!(UniformModel::new(4, 0).is_err());
    }

    #[test]
    fn matrix_is_constant() {
        let m = UniformModel::new(3, 5).unwrap().matrix();
        for p in 0..3 {
            for j in 0..5 {
                assert_eq!(m.prob(p, j), 0.2);
            }
        }
    }

    #[test]
    fn memory_request_prob_closed_form() {
        // X = 1 − (1 − r/M)^N, the classical formula.
        let model = UniformModel::new(8, 8).unwrap();
        let x = model.matrix().memory_request_prob(0, 1.0).unwrap();
        assert!((x - (1.0 - (1.0 - 1.0 / 8.0f64).powi(8))).abs() < 1e-12);
    }
}
