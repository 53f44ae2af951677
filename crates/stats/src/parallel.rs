//! Dependency-free data parallelism over `std::thread::scope`.
//!
//! The workspace deliberately avoids external runtime crates, so its
//! parallel layer is this one primitive: [`parallel_map`] runs a work list
//! on a Chase–Lev work-stealing pool (see [`crate::deque`]) and returns
//! results in input order. It powers the design-space sweeps in
//! `mbus-analysis`, the table regeneration in `multibus::tables`, fault
//! campaigns, and replicated simulation — anywhere many independent
//! (network, rate) points must be evaluated. Each worker drains its own
//! share LIFO and steals from stragglers FIFO, so irregular task costs
//! (memo hits vs. full solves, fault masks of wildly different weight,
//! batched vs. scalar replication chunks) do not leave fast workers idle.
//!
//! The map preserves input order in the output, runs everything on the
//! calling thread when `workers <= 1` (the guaranteed serial fallback on a
//! 1-core box), and propagates the first worker panic after all workers
//! have been joined — callers that must convert panics into errors (the
//! simulation runner's `SimError::ReplicationPanicked`) wrap their task
//! bodies in `catch_unwind` and keep the join-all semantics for free.
//!
//! # Examples
//!
//! ```
//! use mbus_stats::parallel::{available_workers, parallel_map};
//!
//! let squares = parallel_map(vec![1u64, 2, 3, 4], available_workers(), |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use crate::deque::{Steal, TaskArena, TaskDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A sensible worker count for CPU-bound sweeps: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` with work stealing, preserving input order in the
/// output.
///
/// Task indices are seeded round-robin across `workers` Chase–Lev deques;
/// each worker drains its own deque LIFO and steals FIFO from the others
/// once it runs dry, so one straggling task never strands the remaining
/// work on a single thread.
///
/// With `workers <= 1`, a single item, or an empty input, everything runs
/// serially on the calling thread — the guaranteed fallback on a 1-core
/// machine.
///
/// # Panics
///
/// Propagates the first panic raised by `f`. All workers are joined
/// before the panic resumes (remaining tasks may be skipped once a panic
/// is observed, but no thread is left running).
pub fn parallel_map<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    if len <= 1 || workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = workers.min(len);
    let arena = TaskArena::new(items);
    // Seed worker w with indices w, w + workers, …: interleaving spreads
    // any cost gradient along the input across all workers up front, so
    // stealing only has to fix residual imbalance.
    let deques: Vec<TaskDeque> = (0..workers)
        .map(|w| {
            let share = len.div_ceil(workers.max(1));
            let deque = TaskDeque::with_capacity_for(share);
            for index in (w..len).step_by(workers) {
                // Capacity covers the whole share by construction.
                let pushed = deque.push(index);
                debug_assert!(pushed, "seed share exceeds deque capacity");
            }
            deque
        })
        .collect();
    let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let aborted = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (arena, deques, f) = (&arena, &deques, &f);
            let (panic_slot, aborted) = (&panic_slot, &aborted);
            scope.spawn(move || {
                // AssertUnwindSafe: on panic the pool abandons the map and
                // re-raises after join; no partially-mutated task state is
                // ever observed by the caller.
                let run = |index: usize| match catch_unwind(AssertUnwindSafe(|| {
                    arena.run(index, f);
                })) {
                    Ok(()) => true,
                    Err(payload) => {
                        if let Ok(mut slot) = panic_slot.lock() {
                            slot.get_or_insert(payload);
                        }
                        aborted.store(true, Ordering::Release);
                        false
                    }
                };
                'drain: while !aborted.load(Ordering::Acquire) {
                    if let Some(index) = deques[w].pop() {
                        if !run(index) {
                            return;
                        }
                        continue;
                    }
                    // Own deque dry: sweep the others for work.
                    let mut contended = false;
                    for offset in 1..workers {
                        match deques[(w + offset) % workers].steal() {
                            Steal::Taken(index) => {
                                if !run(index) {
                                    return;
                                }
                                continue 'drain;
                            }
                            Steal::Retry => contended = true,
                            Steal::Empty => {}
                        }
                    }
                    if !contended {
                        // Every deque observed empty, and tasks never spawn
                        // new tasks: nothing will ever appear again.
                        return;
                    }
                    std::hint::spin_loop();
                }
            });
        }
    });
    if let Some(payload) = panic_slot.into_inner().unwrap_or(None) {
        resume_unwind(payload);
    }
    arena
        .into_outputs()
        .into_iter()
        // lint:allow(no_panic, without a recorded panic the pool ran every index exactly once)
        .map(|slot| slot.expect("each task ran exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..250usize).collect(), 7, |x| x * 3);
        assert_eq!(out, (0..250).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_singleton_and_serial() {
        let empty: Vec<usize> = parallel_map(Vec::new(), 4, |x: usize| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(vec![41usize], 4, |x| x + 1), vec![42]);
        let items: Vec<u64> = (0..37).collect();
        let serial = parallel_map(items.clone(), 1, |x| x * x + 1);
        let parallel = parallel_map(items, 16, |x| x * x + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn matches_serial_on_irregular_costs() {
        // Task cost varies by three orders of magnitude; the pool must
        // still produce the serial map's results, in order.
        let items: Vec<u64> = (0..120).collect();
        let work = |x: u64| {
            let spins = if x % 17 == 0 { 20_000 } else { 20 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        };
        assert_eq!(
            parallel_map(items.clone(), 8, work),
            items.into_iter().map(work).collect::<Vec<_>>()
        );
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = parallel_map((0..500usize).collect(), 8, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(calls.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn propagates_panics_after_joining() {
        let result = std::panic::catch_unwind(|| {
            parallel_map((0..64usize).collect(), 4, |x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("boom at 13"), "payload: {message}");
    }

    #[test]
    fn more_workers_than_items() {
        assert_eq!(
            parallel_map(vec![1usize, 2, 3], 64, |x| x + 10),
            vec![11, 12, 13]
        );
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }
}
