//! Confidence intervals and the quantile functions backing them.

use serde::{Deserialize, Serialize};

/// A two-sided confidence interval around a point estimate.
///
/// # Examples
///
/// ```
/// use mbus_stats::ConfidenceInterval;
///
/// let ci = ConfidenceInterval::new(5.0, 0.25, 0.95);
/// assert_eq!(ci.lower(), 4.75);
/// assert_eq!(ci.upper(), 5.25);
/// assert!(ci.contains(5.2));
/// assert!(!ci.contains(5.3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    mean: f64,
    half_width: f64,
    level: f64,
}

impl ConfidenceInterval {
    /// Creates an interval `mean ± half_width` at confidence `level`
    /// (e.g. `0.95`).
    ///
    /// # Panics
    ///
    /// Panics if `half_width` is negative or `level` is outside `(0, 1)`.
    pub fn new(mean: f64, half_width: f64, level: f64) -> Self {
        assert!(half_width >= 0.0, "half_width must be non-negative");
        assert!(
            level > 0.0 && level < 1.0,
            "confidence level must lie in (0, 1), got {level}"
        );
        Self {
            mean,
            half_width,
            level,
        }
    }

    /// An interval of zero width (a point estimate treated as exact).
    pub fn degenerate(mean: f64) -> Self {
        Self::new(mean, 0.0, 0.95)
    }

    /// The point estimate at the interval's center.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Half the interval width.
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// The confidence level, e.g. `0.95`.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Lower endpoint.
    pub fn lower(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    pub fn upper(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `value` lies inside the closed interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower() && value <= self.upper()
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} ({:.0}% CI)",
            self.mean,
            self.half_width,
            self.level * 100.0
        )
    }
}

/// Inverse of the standard normal CDF (the probit function).
///
/// Uses Acklam's rational approximation, accurate to roughly `1.15e-9`
/// absolute error over `(0, 1)` — far tighter than anything a simulation
/// confidence interval needs.
///
/// # Panics
///
/// Panics if `p` is outside the open interval `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "probability must lie in (0, 1), got {p}"
    );

    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Two-sided Student-t critical value `t_{df, (1+level)/2}`.
///
/// Uses the exact normal quantile plus the Cornish–Fisher expansion in
/// `1/df` (Hill's approximation). For the degrees of freedom that arise from
/// batch-means analysis (df ≥ 5 or so) the error is below `1e-3`, which is
/// negligible relative to simulation noise.
///
/// # Panics
///
/// Panics if `df == 0` or `level` is outside `(0, 1)`.
pub fn student_t_quantile(df: u64, level: f64) -> f64 {
    assert!(df > 0, "degrees of freedom must be positive");
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must lie in (0, 1), got {level}"
    );
    let p = 0.5 + level / 2.0;
    let z = normal_quantile(p);
    let n = df as f64;
    // Cornish–Fisher expansion of the t quantile around the normal quantile.
    let z3 = z.powi(3);
    let z5 = z.powi(5);
    let z7 = z.powi(7);
    let g1 = (z3 + z) / 4.0;
    let g2 = (5.0 * z5 + 16.0 * z3 + 3.0 * z) / 96.0;
    let g3 = (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / 384.0;
    let t = z + g1 / n + g2 / (n * n) + g3 / (n * n * n);
    // The expansion under-corrects for very small df; clamp against the
    // well-known exact values so the 1- and 2-df cases are still usable.
    match df {
        1 => exact_small_df(
            level,
            &[(0.90, 6.3138), (0.95, 12.7062), (0.99, 63.6567)],
            t,
        ),
        2 => exact_small_df(level, &[(0.90, 2.9200), (0.95, 4.3027), (0.99, 9.9248)], t),
        _ => t,
    }
}

fn exact_small_df(level: f64, table: &[(f64, f64)], fallback: f64) -> f64 {
    for &(lvl, value) in table {
        if (level - lvl).abs() < 1e-9 {
            return value;
        }
    }
    fallback
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_endpoints_and_membership() {
        let ci = ConfidenceInterval::new(10.0, 2.0, 0.99);
        assert_eq!(ci.lower(), 8.0);
        assert_eq!(ci.upper(), 12.0);
        assert!(ci.contains(8.0));
        assert!(ci.contains(12.0));
        assert!(!ci.contains(12.0001));
        assert_eq!(ci.level(), 0.99);
    }

    #[test]
    fn degenerate_interval() {
        let ci = ConfidenceInterval::degenerate(3.0);
        assert_eq!(ci.half_width(), 0.0);
        assert!(ci.contains(3.0));
        assert!(!ci.contains(3.0000001));
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn rejects_bad_level() {
        let _ = ConfidenceInterval::new(0.0, 1.0, 1.5);
    }

    #[test]
    fn normal_quantile_reference_values() {
        // Reference values from standard normal tables.
        let cases = [
            (0.5, 0.0),
            (0.975, 1.959964),
            (0.995, 2.575829),
            (0.84134, 0.999998),
            (0.025, -1.959964),
            (1e-6, -4.753424),
        ];
        for (p, z) in cases {
            assert!(
                (normal_quantile(p) - z).abs() < 1e-4,
                "probit({p}) = {} != {z}",
                normal_quantile(p)
            );
        }
    }

    #[test]
    fn normal_quantile_is_symmetric() {
        for p in [0.01, 0.1, 0.3, 0.45] {
            assert!((normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-9);
        }
    }

    #[test]
    fn t_quantile_reference_values() {
        // Reference values from t tables (two-sided).
        let cases = [
            (1, 0.95, 12.7062),
            (2, 0.95, 4.3027),
            (5, 0.95, 2.5706),
            (10, 0.95, 2.2281),
            (30, 0.95, 2.0423),
            (100, 0.95, 1.9840),
            (10, 0.99, 3.1693),
            (30, 0.90, 1.6973),
        ];
        for (df, level, expected) in cases {
            let got = student_t_quantile(df, level);
            assert!(
                (got - expected).abs() / expected < 5e-3,
                "t({df}, {level}) = {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn t_quantile_decreases_with_df() {
        let mut prev = f64::INFINITY;
        for df in [1, 2, 3, 5, 10, 50, 500] {
            let t = student_t_quantile(df, 0.95);
            assert!(t < prev, "t quantile not decreasing at df={df}");
            prev = t;
        }
        // ...and converges to the normal quantile.
        assert!((student_t_quantile(100_000, 0.95) - 1.959964).abs() < 1e-3);
    }
}
