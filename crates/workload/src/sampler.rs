//! Constant-time destination sampling (Walker's alias method).

use crate::{RequestMatrix, WorkloadError};
use rand::Rng;

/// Walker/Vose alias sampler: draws from a fixed discrete distribution in
/// `O(1)` per sample after `O(n)` setup.
///
/// The simulator samples one destination per requesting processor per cycle,
/// so constant-time sampling keeps large sweeps cheap.
///
/// # Examples
///
/// ```
/// use mbus_workload::AliasSampler;
/// use rand::SeedableRng;
///
/// let sampler = AliasSampler::new(&[0.5, 0.25, 0.25])?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let draw = sampler.sample(&mut rng);
/// assert!(draw < 3);
/// # Ok::<(), mbus_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AliasSampler {
    /// Per-column `(acceptance threshold, alias outcome)`. Interleaved in
    /// one vector so a draw touches a single cache line, not two arrays.
    cells: Vec<(f64, usize)>,
}

impl AliasSampler {
    /// Builds an alias table for `weights` (non-negative, at least one
    /// positive; they need not sum to 1 — they are normalized internally).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidMatrixEntry`] for negative or
    /// non-finite weights and [`WorkloadError::ZeroDimension`] for an empty
    /// or all-zero weight vector.
    pub fn new(weights: &[f64]) -> Result<Self, WorkloadError> {
        if weights.is_empty() {
            return Err(WorkloadError::ZeroDimension {
                dimension: "sampler outcomes",
            });
        }
        for (j, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(WorkloadError::InvalidMatrixEntry {
                    processor: 0,
                    memory: j,
                    value: w,
                });
            }
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(WorkloadError::ZeroDimension {
                dimension: "positive sampler weights",
            });
        }
        let n = weights.len();
        // Scale weights so the average column holds exactly 1.0.
        let scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        let mut remaining = scaled;
        for (i, &w) in remaining.iter().enumerate() {
            if w < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s] = remaining[s];
            alias[s] = l;
            remaining[l] = (remaining[l] + remaining[s]) - 1.0;
            if remaining[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are numerically 1.0.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Ok(Self {
            cells: prob.into_iter().zip(alias).collect(),
        })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the sampler has no outcomes (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Draws one outcome index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let column = rng.random_range(0..self.cells.len());
        let (threshold, alias) = self.cells[column];
        if rng.random::<f64>() < threshold {
            column
        } else {
            alias
        }
    }
}

/// Per-processor destination sampling for a whole workload: one alias table
/// per request-matrix row, plus the Bernoulli request rate `r`.
///
/// # Examples
///
/// ```
/// use mbus_workload::{RequestModel, UniformModel, WorkloadSampler};
/// use rand::SeedableRng;
///
/// let matrix = UniformModel::new(4, 4)?.matrix();
/// let sampler = WorkloadSampler::new(&matrix, 0.5)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // Each cycle, each processor requests some memory or stays idle.
/// let request = sampler.sample_processor(0, &mut rng);
/// assert!(request.is_none() || request.unwrap() < 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadSampler {
    rows: Vec<AliasSampler>,
    rate: f64,
}

impl WorkloadSampler {
    /// Builds samplers for every processor of `matrix` with request rate
    /// `r`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidProbability`] for `r ∉ [0, 1]`, and
    /// propagates [`AliasSampler::new`] errors (impossible for validated
    /// matrices).
    pub fn new(matrix: &RequestMatrix, r: f64) -> Result<Self, WorkloadError> {
        if !r.is_finite() || !(0.0..=1.0).contains(&r) {
            return Err(WorkloadError::InvalidProbability {
                name: "request rate r",
                value: r,
            });
        }
        let rows = (0..matrix.processors())
            .map(|p| AliasSampler::new(matrix.row(p)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { rows, rate: r })
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.rows.len()
    }

    /// The request rate `r`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// One cycle's decision for processor `p`: `Some(memory)` with
    /// probability `r`, `None` (idle) otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn sample_processor<R: Rng + ?Sized>(&self, p: usize, rng: &mut R) -> Option<usize> {
        let row = &self.rows[p];
        if self.rate >= 1.0 || rng.random::<f64>() < self.rate {
            Some(row.sample(rng))
        } else {
            None
        }
    }

    /// Samples every processor for one cycle into `out` (`out[p]` is the
    /// destination or `None`). `out` is cleared first.
    pub fn sample_cycle<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<Option<usize>>) {
        out.clear();
        out.extend((0..self.rows.len()).map(|p| self.sample_processor(p, rng)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_weights() {
        assert!(AliasSampler::new(&[]).is_err());
        assert!(AliasSampler::new(&[0.0, 0.0]).is_err());
        assert!(AliasSampler::new(&[0.5, -0.1]).is_err());
        assert!(AliasSampler::new(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn degenerate_distribution_always_hits() {
        let sampler = AliasSampler::new(&[0.0, 1.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng), 1);
        }
    }

    #[test]
    fn empirical_frequencies_match_weights() {
        let weights = [0.1, 0.2, 0.3, 0.4];
        let sampler = AliasSampler::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 4];
        let draws = 200_000;
        for _ in 0..draws {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let freq = counts[i] as f64 / draws as f64;
            assert!(
                (freq - w).abs() < 0.01,
                "outcome {i}: frequency {freq} vs weight {w}"
            );
        }
    }

    #[test]
    fn unnormalized_weights_are_normalized() {
        let a = AliasSampler::new(&[1.0, 3.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| a.sample(&mut rng) == 1).count();
        assert!((hits as f64 / 100_000.0 - 0.75).abs() < 0.01);
    }

    #[test]
    fn workload_sampler_respects_rate() {
        let matrix = RequestMatrix::from_rows(vec![vec![1.0]; 2]).unwrap();
        let sampler = WorkloadSampler::new(&matrix, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let cycles = 100_000;
        let mut requests = 0usize;
        for _ in 0..cycles {
            if sampler.sample_processor(0, &mut rng).is_some() {
                requests += 1;
            }
        }
        assert!((requests as f64 / cycles as f64 - 0.3).abs() < 0.01);
    }

    #[test]
    fn rate_one_always_requests() {
        let matrix = RequestMatrix::from_rows(vec![vec![0.5, 0.5]]).unwrap();
        let sampler = WorkloadSampler::new(&matrix, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert!(sampler.sample_processor(0, &mut rng).is_some());
        }
    }

    #[test]
    fn sample_cycle_covers_all_processors() {
        let matrix = RequestMatrix::from_rows(vec![vec![1.0]; 5]).unwrap();
        let sampler = WorkloadSampler::new(&matrix, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut out = Vec::new();
        sampler.sample_cycle(&mut rng, &mut out);
        assert_eq!(out, vec![Some(0); 5]);
    }

    #[test]
    fn rejects_bad_rate() {
        let matrix = RequestMatrix::from_rows(vec![vec![1.0]]).unwrap();
        assert!(WorkloadSampler::new(&matrix, 1.5).is_err());
        assert!(WorkloadSampler::new(&matrix, f64::NAN).is_err());
    }
}
