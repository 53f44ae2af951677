//! Stress tests for the shared-queue pool behind `parallel_map`.
//!
//! These run under three harnesses: plain `cargo test`, the CI
//! `opt-checked` profile (release speed with `debug_assertions` alive),
//! and the nightly Miri job (`cargo miri test -p mbus-stats`), which runs
//! the pool's queue, batching and join under real threads.

use mbus_stats::parallel::parallel_map;

/// Miri executes a few hundred times slower than native; scale the task
/// counts down so the nightly job stays in budget.
const SCALE: usize = if cfg!(miri) { 16 } else { 1 };

#[test]
fn pool_handles_randomized_task_sizes() {
    // Deterministic pseudo-random task costs spanning ~4 orders of
    // magnitude, the regime where batches must shrink toward the tail.
    // The result must match a serial map bit for bit.
    let tasks = 512 / SCALE;
    let items: Vec<u64> = (0..tasks as u64).collect();
    let work = |x: u64| {
        let mut state = x.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let spins = (state % 10_000) as usize / SCALE;
        for _ in 0..spins {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
        }
        (x, state)
    };
    let pooled = parallel_map(items.clone(), 8, work);
    let serial: Vec<(u64, u64)> = items.into_iter().map(work).collect();
    assert_eq!(pooled, serial);
}

#[test]
fn pool_survives_repeated_small_maps() {
    // Many tiny pools in sequence: exercises setup/teardown (thread scope,
    // single-item claims, the order-restoring merge) rather than
    // steady-state draining.
    for round in 0..(60 / SCALE).max(4) {
        let n = round % 7 + 2;
        let out = parallel_map((0..n).collect::<Vec<usize>>(), 4, |x| x + round);
        assert_eq!(out, (0..n).map(|x| x + round).collect::<Vec<_>>());
    }
}
