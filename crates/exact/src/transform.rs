//! Subset-transform (Möbius) enumeration — exact, symmetry-exploiting.
//!
//! The per-processor dynamic program in [`crate::enumerate`] costs
//! `O(N · 2^M · M)`. But the quantity it builds — the distribution of the
//! *requested set* — has closed-form **containment** probabilities: under
//! the independent-cycle model behind the paper's eq (2), a processor with
//! row `q` either idles (probability `1 − r`) or requests memory `j`
//! (probability `r·q_j`), so for any memory subset `S`
//!
//! ```text
//! P(this processor's request lands inside S) = (1 − r) + r·Σ_{j∈S} q_j .
//! ```
//!
//! Processors are independent, and the hierarchical requesting model
//! (eq (1)) makes every processor of a cluster emit the *same* row, so with
//! `G` distinct rows of multiplicities `g_1 … g_G`
//!
//! ```text
//! ζ(S) = P(all requests ⊆ S) = Π_i ((1 − r) + r·Σ_{j∈S} q^{(i)}_j)^{g_i} .
//! ```
//!
//! `ζ` is the subset-sum (zeta) transform of the requested-set pmf `f`:
//! `ζ(S) = Σ_{T ⊆ S} f(T)`. One in-place Möbius inversion — the standard
//! per-bit sweep, `O(2^M · M)` — recovers `f` exactly. Total cost
//! `O(G · 2^M + 2^M · M)`: independent of `N` up to the group powers, so
//! `N = 1024` costs the same as `N = 8`.
//!
//! [`exact_bandwidth`](crate::enumerate::exact_bandwidth) and
//! [`exact_distinct_pmf`](crate::enumerate::exact_distinct_pmf) delegate
//! here; the DP survives as `requested_set_pmf_dp` for differential
//! testing.

use crate::enumerate::MAX_MEMORIES;
use crate::{memo, ExactError};
use mbus_stats::cache::MemoCache;
use mbus_stats::prob::check;
use mbus_topology::BusNetwork;
use mbus_workload::{RequestMatrix, WorkloadFingerprint};
use std::sync::{Arc, OnceLock};

/// Negative pmf entries larger than this magnitude are genuine bugs; smaller
/// ones are Möbius cancellation noise (observed ~1e-15) and are clamped.
const CANCELLATION_TOL: f64 = 1e-9;

/// Cache key for a requested-set pmf: the exact workload identity plus the
/// request-rate bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PmfKey {
    workload: WorkloadFingerprint,
    r_bits: u64,
}

/// Process-wide requested-set pmf cache. Entries are `2^M` doubles (≤ 8 MiB
/// at `M = 20`), so retention is kept small: 2 shards × 4 entries. A sweep
/// over bus counts re-uses one entry `|B|` times; overflow just recomputes.
fn pmf_cache() -> &'static MemoCache<PmfKey, Vec<f64>> {
    static CACHE: OnceLock<MemoCache<PmfKey, Vec<f64>>> = OnceLock::new();
    CACHE.get_or_init(|| MemoCache::new(2, 4))
}

fn validate_rate(r: f64) -> Result<(), ExactError> {
    if !r.is_finite() || !(0.0..=1.0).contains(&r) {
        return Err(ExactError::Analysis(
            mbus_analysis::AnalysisError::InvalidRate { value: r },
        ));
    }
    Ok(())
}

/// Exact pmf over requested-set bitmasks (length `2^M`): entry `S` is the
/// probability that the set of memories receiving at least one request this
/// cycle is exactly `S`, under the independent-cycle model of eq (2).
///
/// Computed by the containment-product / Möbius-inversion identity in the
/// [module docs](self): `O(G · 2^M + 2^M · M)` for `G` distinct workload
/// rows.
///
/// # Errors
///
/// * more than [`MAX_MEMORIES`] memories → [`ExactError::TooLarge`];
/// * invalid `r` → [`ExactError::Analysis`].
pub fn requested_set_pmf(matrix: &RequestMatrix, r: f64) -> Result<Vec<f64>, ExactError> {
    let m = matrix.memories();
    if m > MAX_MEMORIES {
        return Err(ExactError::TooLarge {
            memories: m,
            limit: MAX_MEMORIES,
        });
    }
    validate_rate(r)?;
    let size = 1usize << m;
    let groups = matrix.groups();

    // ζ(S) = Π_groups ((1 − r) + r·Σ_{j∈S} q_j)^g, with the subset sums
    // built incrementally: sum(S) = sum(S \ lsb) + q[lsb].
    let mut zeta = vec![1.0f64; size];
    let mut sums = vec![0.0f64; size];
    for (rep, count) in groups.iter() {
        let row = matrix.row(rep);
        let power = i32::try_from(count).unwrap_or(i32::MAX);
        for mask in 1..size {
            let low = mask.trailing_zeros() as usize;
            sums[mask] = sums[mask & (mask - 1)] + row[low];
        }
        let contained = sums.iter().map(|&sum| (1.0 - r) + r * sum);
        if power == 1 {
            // `x.powi(1)` is `1.0 * x`, exactly `x`: skip the libcall for
            // the multiplicity-1 rows every paired hierarchy has.
            for (z, c) in zeta.iter_mut().zip(contained) {
                *z *= c;
            }
        } else {
            for (z, c) in zeta.iter_mut().zip(contained) {
                *z *= c.powi(power);
            }
        }
    }

    // In-place Möbius inversion: f(S) = Σ_{T⊆S} (−1)^{|S\T|} ζ(T). For
    // bit `j`, every block of 2^(j+1) masks splits into the masks without
    // the bit (read only) and those with it (each less its partner).
    for j in 0..m {
        let bit = 1usize << j;
        for block in zeta.chunks_exact_mut(2 * bit) {
            let (without, with) = block.split_at_mut(bit);
            for (high, &low) in with.iter_mut().zip(without.iter()) {
                *high -= low;
            }
        }
    }

    // Tiny negative entries are cancellation noise on masks whose true
    // probability underflows the subtraction; clamp them, leave anything
    // larger for the distribution check to reject.
    for value in &mut zeta {
        if *value < 0.0 && *value > -CANCELLATION_TOL {
            *value = 0.0;
        }
    }
    check::assert_distribution_sums_to_one("requested-set pmf (transform)", &zeta);
    Ok(zeta)
}

/// [`requested_set_pmf`] through the process-wide cross-sweep cache: sweeps
/// that vary only the bus count (or scheme) re-use one transform per
/// (workload, rate) pair.
///
/// # Errors
///
/// Same contract as [`requested_set_pmf`].
pub fn cached_requested_set_pmf(
    matrix: &RequestMatrix,
    r: f64,
) -> Result<Arc<Vec<f64>>, ExactError> {
    let key = PmfKey {
        workload: matrix.fingerprint(),
        r_bits: r.to_bits(),
    };
    if let Some(hit) = pmf_cache().get(&key) {
        return Ok(hit);
    }
    let pmf = requested_set_pmf(matrix, r)?;
    Ok(pmf_cache().get_or_insert_with(key, move || pmf))
}

/// Counter snapshot of the process-wide requested-set pmf cache, which the
/// serving layer's `/metrics` renders as `mbus_exact_pmf_cache_*`.
pub fn pmf_cache_stats() -> mbus_stats::cache::CacheStats {
    pmf_cache().stats()
}

/// Exact effective memory bandwidth by the subset transform: the
/// requested-set pmf folded through the scheme's served-count table
/// (eq (4)/(8)/(9)-style expectations, computed without the paper's
/// independence approximation).
///
/// # Errors
///
/// Same contract as [`crate::enumerate::exact_bandwidth`].
pub fn transform_bandwidth(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
) -> Result<f64, ExactError> {
    let m = net.memories();
    if net.processors() != matrix.processors() || m != matrix.memories() {
        return Err(ExactError::Analysis(
            mbus_analysis::AnalysisError::DimensionMismatch {
                what: "memories",
                network: m,
                workload: matrix.memories(),
            },
        ));
    }
    let pmf = cached_requested_set_pmf(matrix, r)?;
    let table = memo::served_table(net).map_err(|_| ExactError::TooLarge {
        memories: m,
        limit: MAX_MEMORIES,
    })?;
    let expectation: f64 = pmf
        .iter()
        .zip(table.as_slice())
        .map(|(&prob, &served)| prob * served as f64)
        .sum();
    check::assert_bandwidth_bounds(expectation, net.capacity(), net.processors(), m);
    Ok(expectation)
}

/// Exact pmf of the number of distinct requested memories (length `M + 1`),
/// by aggregating the transform's requested-set pmf over popcounts — the
/// exact counterpart of the binomial approximations in eqs (3), (7), (10).
///
/// # Errors
///
/// Same contract as [`requested_set_pmf`].
pub fn transform_distinct_pmf(matrix: &RequestMatrix, r: f64) -> Result<Vec<f64>, ExactError> {
    let masks = cached_requested_set_pmf(matrix, r)?;
    let mut pmf = vec![0.0f64; matrix.memories() + 1];
    for (mask, &prob) in masks.iter().enumerate() {
        pmf[mask.count_ones() as usize] += prob;
    }
    check::assert_distribution_sums_to_one("distinct-request pmf (transform)", &pmf);
    Ok(pmf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_topology::ConnectionScheme;
    use mbus_workload::{HierarchicalModel, RequestModel, UniformModel};

    #[test]
    fn uniform_pmf_matches_closed_form() {
        // All-uniform 4×2, r = 1: by symmetry P(S) depends only on |S|, and
        // P(all 4 requests in memory 0) = (1/2)^4.
        let matrix = UniformModel::new(4, 2).unwrap().matrix();
        let pmf = requested_set_pmf(&matrix, 1.0).unwrap();
        assert_eq!(pmf.len(), 4);
        assert!((pmf[0b00] - 0.0).abs() < 1e-12);
        assert!((pmf[0b01] - 0.0625).abs() < 1e-12);
        assert!((pmf[0b10] - 0.0625).abs() < 1e-12);
        assert!((pmf[0b11] - 0.875).abs() < 1e-12);
    }

    #[test]
    fn transform_agrees_with_dp_enumeration() {
        let matrix = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        for r in [0.25, 0.5, 1.0] {
            let dp = crate::enumerate::requested_set_pmf_dp(&matrix, r).unwrap();
            let tf = requested_set_pmf(&matrix, r).unwrap();
            for (mask, (&a, &b)) in dp.iter().zip(&tf).enumerate() {
                assert!((a - b).abs() < 1e-12, "mask {mask}: dp {a} vs transform {b}");
            }
        }
    }

    #[test]
    fn bandwidth_agrees_with_dp_engine() {
        let matrix = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        let dp = crate::enumerate::exact_bandwidth_dp(&net, &matrix, 1.0).unwrap();
        let tf = transform_bandwidth(&net, &matrix, 1.0).unwrap();
        assert!((dp - tf).abs() < 1e-12, "dp {dp} vs transform {tf}");
    }

    #[test]
    fn cache_is_transparent() {
        // The global pmf cache is bounded and shared across parallel tests,
        // so retention (Arc identity) is not guaranteed here — correctness
        // is: cached lookups must agree with the uncached transform.
        let matrix = UniformModel::new(6, 4).unwrap().matrix();
        for r in [0.5, 0.75] {
            let cached = cached_requested_set_pmf(&matrix, r).unwrap();
            let fresh = requested_set_pmf(&matrix, r).unwrap();
            assert_eq!(*cached, fresh);
        }
    }

    #[test]
    fn guards_match_enumeration() {
        let matrix = UniformModel::new(4, 24).unwrap().matrix();
        assert!(matches!(
            requested_set_pmf(&matrix, 1.0),
            Err(ExactError::TooLarge { .. })
        ));
        let matrix = UniformModel::new(4, 4).unwrap().matrix();
        assert!(requested_set_pmf(&matrix, 1.5).is_err());
        let net = BusNetwork::new(8, 4, 2, ConnectionScheme::Full).unwrap();
        assert!(transform_bandwidth(&net, &matrix, 1.0).is_err());
    }
}
