//! Binomial coefficients and log-factorials, exact where possible and
//! numerically stable otherwise.

/// Exact binomial coefficient `C(n, k)` in `u128`, or `None` on overflow.
///
/// Uses the multiplicative formula with a gcd-free ordering that keeps
/// intermediate values minimal: after each step the accumulator is exactly
/// `C(n, i)`, which is itself a binomial coefficient and therefore as small as
/// the answer allows.
///
/// # Examples
///
/// ```
/// use mbus_stats::prob::choose;
///
/// assert_eq!(choose(5, 2), Some(10));
/// assert_eq!(choose(64, 32), Some(1_832_624_140_942_590_534));
/// assert_eq!(choose(10, 11), Some(0));
/// ```
pub fn choose(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 1..=k {
        // acc = acc * (n - k + i) / i, exact at every step because
        // acc * (n - k + i) is divisible by i (it equals C(n-k+i, i) * i!
        // over (i-1)! ... ); standard multiplicative evaluation.
        acc = acc.checked_mul((n - k + i) as u128)?;
        acc /= i as u128;
    }
    Some(acc)
}

/// Binomial coefficient as `f64`, falling back to the log-space formula when
/// the exact `u128` value overflows.
///
/// # Examples
///
/// ```
/// use mbus_stats::prob::choose_f64;
///
/// assert_eq!(choose_f64(6, 3), 20.0);
/// let huge = choose_f64(500, 250);
/// assert!(huge.is_finite() && huge > 1e100);
/// ```
pub fn choose_f64(n: u64, k: u64) -> f64 {
    match choose(n, k) {
        Some(v) if v < (1u128 << 100) => v as f64,
        _ => {
            if k > n {
                0.0
            } else {
                ln_choose(n, k).exp()
            }
        }
    }
}

/// Natural log of `n!` via the Lanczos approximation of `ln Γ(n + 1)`.
///
/// Exact-table values are used for `n ≤ 20` so small factorials are
/// bit-accurate.
pub(crate) fn ln_factorial(n: u64) -> f64 {
    const EXACT: [f64; 21] = [
        1.0,
        1.0,
        2.0,
        6.0,
        24.0,
        120.0,
        720.0,
        5040.0,
        40320.0,
        362880.0,
        3628800.0,
        39916800.0,
        479001600.0,
        6227020800.0,
        87178291200.0,
        1307674368000.0,
        20922789888000.0,
        355687428096000.0,
        6402373705728000.0,
        121645100408832000.0,
        2432902008176640000.0,
    ];
    if n <= 20 {
        EXACT[n as usize].ln()
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Natural log of `C(n, k)`. Returns `f64::NEG_INFINITY` when `k > n`
/// (the coefficient is zero).
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    // g = 7, n = 9 Lanczos coefficients.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    debug_assert!(x > 0.0);
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_binomials_exact() {
        assert_eq!(choose(0, 0), Some(1));
        assert_eq!(choose(1, 0), Some(1));
        assert_eq!(choose(1, 1), Some(1));
        assert_eq!(choose(10, 5), Some(252));
        assert_eq!(choose(32, 16), Some(601_080_390));
        assert_eq!(choose(3, 5), Some(0));
    }

    #[test]
    fn pascal_rule_holds() {
        for n in 1..40u64 {
            for k in 1..n {
                let lhs = choose(n, k).unwrap();
                let rhs = choose(n - 1, k - 1).unwrap() + choose(n - 1, k).unwrap();
                assert_eq!(lhs, rhs, "Pascal rule failed at ({n}, {k})");
            }
        }
    }

    #[test]
    fn rows_sum_to_powers_of_two() {
        for n in 0..30u64 {
            let sum: u128 = (0..=n).map(|k| choose(n, k).unwrap()).sum();
            assert_eq!(sum, 1u128 << n);
        }
    }

    #[test]
    fn choose_f64_agrees_with_exact() {
        for n in 0..60u64 {
            for k in 0..=n {
                let exact = choose(n, k).unwrap() as f64;
                let approx = choose_f64(n, k);
                assert!(
                    (exact - approx).abs() / exact.max(1.0) < 1e-12,
                    "mismatch at ({n}, {k})"
                );
            }
        }
    }

    #[test]
    fn ln_choose_matches_log_of_exact() {
        for &(n, k) in &[(10u64, 3u64), (52, 5), (100, 50), (64, 1)] {
            let exact = choose(n, k).unwrap() as f64;
            assert!((ln_choose(n, k) - exact.ln()).abs() < 1e-9);
        }
        assert_eq!(ln_choose(3, 9), f64::NEG_INFINITY);
    }

    #[test]
    fn ln_factorial_reference() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        // Stirling check for a big value: ln(170!) ≈ 706.5731.
        assert!((ln_factorial(170) - 706.5731).abs() < 1e-3);
    }

    #[test]
    fn huge_choose_is_finite() {
        let v = choose_f64(1000, 500);
        assert!(v.is_finite());
        // ln C(1000, 500) ≈ 689.467.
        assert!((v.ln() - 689.467).abs() < 0.01);
    }
}
