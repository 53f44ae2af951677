//! Constant-time destination sampling (Walker's alias method).
//!
//! Both samplers store each alias column as an integer threshold, so a
//! draw is two RNG words and integer compares:
//!
//! * the column is `random_range(0..M)`, which is `(u · M) >> 64` for the
//!   first 64-bit word `u`;
//! * the coin compares the second word's top 53 bits, `u >> 11`, with
//!   `ceil(t · 2^53)`, where `t` is the column's acceptance probability.
//!
//! The coin is exactly `random::<f64>() < t`: that float is
//! `(u >> 11) · 2^-53`, an integer `x < 2^53` scaled by a power of two, so
//! `x · 2^-53 < t ⟺ x < t · 2^53 ⟺ x < ceil(t · 2^53)`. A threshold
//! `t ≤ 0` (a Vose column's remaining mass can round slightly below 0)
//! saturates to 0 and never accepts; `t = 1` becomes `2^53` and always
//! does. The rate gate uses the same comparison with `ceil(r · 2^53)`.

use crate::{RequestMatrix, WorkloadError};
use rand::Rng;

/// `2^53`: the number of distinct values of `random::<f64>()`.
const UNIT_STEPS: f64 = (1u64 << 53) as f64;

/// The float `random::<f64>()` returns for the 53-bit fraction `x`.
fn unit_float(x: u64) -> f64 {
    x as f64 * (1.0 / UNIT_STEPS)
}

/// The integer form of the test `random::<f64>() < t`: the smallest
/// integer `k ≥ t · 2^53`, saturated to `0` for `t ≤ 0`, so that a draw
/// `u` passes iff `u >> 11 < k`. See the module docs for why this is
/// exact.
fn unit_threshold(t: f64) -> u64 {
    debug_assert!(t <= 1.0, "threshold {t} above 1");
    // `as` saturates: negative thresholds become 0.
    let k = (t * UNIT_STEPS).ceil() as u64;
    // The two draws on either side of the boundary decide alike under the
    // float test and the integer one; both tests are monotone in `x`.
    debug_assert!(
        k == 0 || unit_float(k - 1) < t,
        "threshold {t}: draw {} must pass",
        k - 1
    );
    debug_assert!(
        k >= 1 << 53 || unit_float(k) >= t,
        "threshold {t}: draw {k} must fail"
    );
    k
}

/// Whether the 53-bit fraction of `word` falls below `threshold` (built
/// by [`unit_threshold`]).
#[inline(always)]
fn passes(word: u64, threshold: u64) -> bool {
    word >> 11 < threshold
}

/// One alias column: accept the column when the coin passes `threshold`,
/// otherwise emit `alias`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AliasCell {
    threshold: u64,
    alias: usize,
}

/// Draws one outcome from an alias row — the one sampling routine behind
/// [`AliasSampler::sample`] and [`WorkloadSampler::sample_processor`].
#[inline(always)]
fn draw<R: Rng + ?Sized>(row: &[AliasCell], rng: &mut R) -> usize {
    let column = rng.random_range(0..row.len());
    let cell = row[column];
    if passes(rng.next_u64(), cell.threshold) {
        column
    } else {
        cell.alias
    }
}

/// Validates `weights` and returns their Walker/Vose alias columns as
/// `(acceptance probability, alias)` pairs.
fn alias_columns(weights: &[f64]) -> Result<Vec<(f64, usize)>, WorkloadError> {
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
    Ok(prob.into_iter().zip(alias).collect())
}

/// Appends the alias row of `weights` to `out`, thresholds in integer
/// form.
fn build_row(weights: &[f64], out: &mut Vec<AliasCell>) -> Result<(), WorkloadError> {
    let columns = alias_columns(weights)?;
    out.extend(columns.into_iter().map(|(t, alias)| AliasCell {
        threshold: unit_threshold(t),
        alias,
    }));
    Ok(())
}

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
    cells: Vec<AliasCell>,
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
        let mut cells = Vec::with_capacity(weights.len());
        build_row(weights, &mut cells)?;
        Ok(Self { cells })
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
        draw(&self.cells, rng)
    }
}

/// Per-processor destination sampling for a whole workload: one alias row
/// per request-matrix row, plus the Bernoulli request rate `r`.
///
/// The rows live in one row-major table (stride `M`), so a draw indexes
/// straight into it instead of chasing a per-processor allocation.
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
    /// `N × M` alias cells, processor-major.
    cells: Vec<AliasCell>,
    /// `M`, the row stride.
    memories: usize,
    rate: f64,
    /// `ceil(r · 2^53)`, or `None` when `r ≥ 1` and no gate is drawn.
    gate: Option<u64>,
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
        let memories = matrix.memories();
        let mut cells = Vec::with_capacity(matrix.processors() * memories);
        for p in 0..matrix.processors() {
            build_row(matrix.row(p), &mut cells)?;
        }
        Ok(Self {
            cells,
            memories,
            rate: r,
            gate: (r < 1.0).then(|| unit_threshold(r)),
        })
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
    #[inline]
    pub fn sample_processor<R: Rng + ?Sized>(&self, p: usize, rng: &mut R) -> Option<usize> {
        let row = &self.cells[p * self.memories..(p + 1) * self.memories];
        match self.gate {
            Some(gate) if !passes(rng.next_u64(), gate) => None,
            _ => Some(draw(row, rng)),
        }
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

    /// A generator that returns one fixed word, so a float coin and the
    /// integer coin can be compared on the same draw.
    struct Fixed(u64);

    impl rand::RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Checks that `u >> 11 < k` agrees with `random::<f64>() < t` on the
    /// draws on both sides of the boundary, `x = k − 1` and `x = k`, with
    /// the low 11 bits (which the float ignores) both clear and set.
    fn assert_coin_matches_float(t: f64) {
        let k = unit_threshold(t);
        for x in [k.checked_sub(1), Some(k)].into_iter().flatten() {
            if x >= 1 << 53 {
                continue;
            }
            for low in [0, 0x7ff] {
                let word = x << 11 | low;
                let float = Fixed(word).random::<f64>() < t;
                assert_eq!(
                    passes(word, k),
                    float,
                    "t = {t:e} ({:#x}), k = {k}, x = {x}",
                    t.to_bits()
                );
            }
        }
    }

    #[test]
    fn integer_thresholds_match_the_float_coin() {
        use crate::{FavoriteModel, HierarchicalModel, RequestModel, UniformModel};
        let step = 1.0 / UNIT_STEPS;
        for t in [0.0, step, 0.5 + step, 1.0 - step, 1.0, -1e-17, -step] {
            assert_coin_matches_float(t);
        }
        assert_eq!(unit_threshold(0.0), 0);
        assert_eq!(unit_threshold(-1e-17), 0, "negative leftovers never accept");
        assert_eq!(unit_threshold(1.0), 1 << 53, "full columns always accept");

        let matrices = [
            HierarchicalModel::two_level_paired(16, 4, [0.6, 0.3, 0.1])
                .unwrap()
                .matrix(),
            UniformModel::new(12, 12).unwrap().matrix(),
            FavoriteModel::new(24, 12, 0.7).unwrap().matrix(),
        ];
        let mut cells = 0;
        for matrix in &matrices {
            for p in 0..matrix.processors() {
                for (t, _) in alias_columns(matrix.row(p)).unwrap() {
                    assert_coin_matches_float(t);
                    cells += 1;
                }
            }
        }
        assert_eq!(cells, 16 * 16 + 12 * 12 + 24 * 12);
    }

    #[test]
    fn rejects_bad_rate() {
        let matrix = RequestMatrix::from_rows(vec![vec![1.0]]).unwrap();
        assert!(WorkloadSampler::new(&matrix, 1.5).is_err());
        assert!(WorkloadSampler::new(&matrix, f64::NAN).is_err());
    }
}
