//! Stress tests for the Chase–Lev deque and the work-stealing pool.
//!
//! These run under three harnesses: plain `cargo test`, the CI
//! `opt-checked` profile (release speed with `debug_assertions` alive),
//! and the nightly Miri job (`cargo miri test -p mbus-stats`), which
//! checks the atomics protocol against the weak memory model.

use mbus_stats::deque::{Steal, TaskDeque};
use mbus_stats::parallel::parallel_map;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Miri executes a few hundred times slower than native; scale the task
/// counts down so the nightly job stays in budget while still exercising
/// every interleaving class.
const SCALE: usize = if cfg!(miri) { 16 } else { 1 };

#[test]
fn many_thieves_partition_a_hot_deque() {
    let tasks = 4_096 / SCALE;
    let thieves = 4;
    let deque = TaskDeque::with_capacity_for(tasks);
    let taken = AtomicUsize::new(0);
    let sum = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Owner: push everything, then help drain from the bottom.
        scope.spawn(|| {
            for t in 0..tasks {
                while !deque.push(t) {
                    std::hint::spin_loop();
                }
            }
            while let Some(t) = deque.pop() {
                taken.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(t as u64, Ordering::Relaxed);
            }
        });
        for _ in 0..thieves {
            scope.spawn(|| loop {
                match deque.steal() {
                    Steal::Taken(t) => {
                        taken.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(t as u64, Ordering::Relaxed);
                    }
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => {
                        if taken.load(Ordering::Acquire) == tasks {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert_eq!(taken.load(Ordering::Relaxed), tasks);
    assert_eq!(sum.load(Ordering::Relaxed), (0..tasks as u64).sum::<u64>());
}

#[test]
fn owner_pop_races_thieves_on_sparse_deques() {
    // Repeatedly race one owner pop against several thieves over a deque
    // holding a single element: exactly one side may win each round.
    let rounds = 400 / SCALE;
    let deque = TaskDeque::with_capacity_for(4);
    for round in 0..rounds {
        assert!(deque.push(round));
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                if let Some(got) = deque.pop() {
                    assert_eq!(got, round);
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
            for _ in 0..2 {
                scope.spawn(|| loop {
                    match deque.steal() {
                        Steal::Taken(got) => {
                            assert_eq!(got, round);
                            wins.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => break,
                    }
                });
            }
        });
        assert_eq!(
            wins.load(Ordering::Relaxed),
            1,
            "round {round}: the single element must be taken exactly once"
        );
    }
}

#[test]
fn pool_handles_randomized_task_sizes() {
    // Deterministic pseudo-random task costs spanning ~4 orders of
    // magnitude, the regime the work-stealing pool exists for. The result
    // must match a serial map bit for bit.
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
    // arena claims) rather than steady-state stealing.
    for round in 0..(60 / SCALE).max(4) {
        let n = round % 7 + 2;
        let out = parallel_map((0..n).collect::<Vec<usize>>(), 4, |x| x + round);
        assert_eq!(out, (0..n).map(|x| x + round).collect::<Vec<_>>());
    }
}
