//! Debug-time probability-invariant checks.
//!
//! The paper's equations (2)–(12) are all probability-valued, so three
//! invariants are machine-checkable at every layer: `0 ≤ p ≤ 1` for any
//! probability, `Σᵢ pᵢ = 1` for any distribution (the hierarchical model's
//! `Σ mᵢNᵢ = 1` is an instance), and `BW ≤ min(B, N, M)` for any memory
//! bandwidth. The helpers here are `debug_assert!`-backed: they vanish in
//! release builds and fire in `cargo test` (and any profile built with
//! `debug-assertions = true`), turning silent numeric drift into loud
//! failures.
//!
//! The static side of the contract is `mbus-lint`'s `invariant_wiring`
//! rule, which requires every public bandwidth/probability function in the
//! formula modules to route its result through this module.

/// Absolute tolerance for a single probability straying outside `[0, 1]`.
pub(crate) const PROB_TOL: f64 = 1e-9;

/// Absolute tolerance for a distribution's sum straying from `1`.
pub(crate) const SUM_TOL: f64 = 1e-6;

/// Asserts (in debug builds) that `p` is a probability.
#[inline]
pub fn assert_probability(name: &str, p: f64) {
    debug_assert!(
        (-PROB_TOL..=1.0 + PROB_TOL).contains(&p),
        "invariant violated: {name} = {p} is not a probability in [0, 1]",
    );
}

/// Asserts (in debug builds) that `p` is a probability, then returns it —
/// convenient for wiring a check into a `return` expression.
#[inline]
#[must_use]
pub fn checked_probability(name: &str, p: f64) -> f64 {
    assert_probability(name, p);
    p
}

/// Asserts (in debug builds) that every entry of `ps` is a probability.
#[inline]
pub fn assert_probabilities(name: &str, ps: &[f64]) {
    debug_assert!(
        ps.iter()
            .all(|&p| (-PROB_TOL..=1.0 + PROB_TOL).contains(&p)),
        "invariant violated: {name} contains an entry outside [0, 1]: {ps:?}",
    );
}

/// Asserts (in debug builds) that `pmf` is a distribution: every entry a
/// probability and the total within `SUM_TOL` of one.
#[inline]
pub fn assert_distribution_sums_to_one(name: &str, pmf: &[f64]) {
    assert_probabilities(name, pmf);
    debug_assert!(
        (pmf.iter().sum::<f64>() - 1.0).abs() <= SUM_TOL,
        "invariant violated: {name} sums to {} instead of 1",
        pmf.iter().sum::<f64>(),
    );
}

/// Asserts (in debug builds) the paper's bandwidth bound
/// `0 ≤ BW ≤ min(B, N, M)`.
///
/// Callers pass the effective bus capacity for `buses` (the crossbar's
/// capacity is `min(N, M)`, degraded networks pass their alive-bus count).
#[inline]
pub fn assert_bandwidth_bounds(bw: f64, buses: usize, processors: usize, memories: usize) {
    let cap = buses.min(processors).min(memories) as f64;
    debug_assert!(
        (-SUM_TOL..=cap + SUM_TOL).contains(&bw),
        "invariant violated: bandwidth {bw} outside [0, min(B = {buses}, N = {processors}, \
         M = {memories})]",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_values_pass() {
        assert_probability("p", 0.0);
        assert_probability("p", 1.0);
        assert_eq!(checked_probability("p", 0.25), 0.25);
        assert_probabilities("ps", &[0.1, 0.9]);
        assert_distribution_sums_to_one("pmf", &[0.25, 0.5, 0.25]);
        assert_bandwidth_bounds(3.9, 4, 8, 8);
        assert_bandwidth_bounds(0.0, 4, 8, 8);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "fires only with debug assertions")]
    #[should_panic(expected = "not a probability")]
    fn out_of_range_probability_fires() {
        assert_probability("acceptance", 1.5);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "fires only with debug assertions")]
    #[should_panic(expected = "sums to")]
    fn broken_distribution_fires() {
        assert_distribution_sums_to_one("request pmf", &[0.5, 0.2]);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "fires only with debug assertions")]
    #[should_panic(expected = "outside [0, min(B")]
    fn bandwidth_above_capacity_fires() {
        assert_bandwidth_bounds(4.2, 4, 8, 8);
    }
}
