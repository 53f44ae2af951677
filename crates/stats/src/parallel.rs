//! Dependency-free data parallelism over `std::thread::scope`.
//!
//! The workspace deliberately avoids external runtime crates, so its
//! parallel layer is this one primitive: [`parallel_map`] runs a work list
//! on scoped threads that pull batches from one shared queue, and returns
//! results in input order. It powers the design-space sweeps in
//! `mbus-analysis`, the table regeneration in `multibus::tables`, fault
//! campaigns, and replicated simulation — anywhere many independent
//! (network, rate) points must be evaluated. A worker claims its next
//! batch only when it has finished the last one, and batches shrink with
//! the work that is left, so irregular task costs (memo hits vs. full
//! solves, fault masks of wildly different weight, batched vs. scalar
//! replication chunks) do not leave fast workers idle.
//!
//! The map preserves input order in the output, runs everything on the
//! calling thread when `workers <= 1` (the guaranteed serial fallback on a
//! 1-core box), and propagates a worker panic after all workers have
//! finished — callers that must convert panics into errors (the simulation
//! runner's `SimError::ReplicationPanicked`) wrap their task bodies in
//! `catch_unwind` and keep the join-all semantics for free.
//!
//! # Examples
//!
//! ```
//! use mbus_stats::parallel::{available_workers, parallel_map};
//!
//! let squares = parallel_map(vec![1u64, 2, 3, 4], available_workers(), |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// A sensible worker count for CPU-bound sweeps: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// How many items one claim takes when `remaining` are left in the queue:
/// at most 1/(32 · `workers`) of them, and never fewer than one. Early
/// claims are large enough to keep the lock cold on fine-grained work;
/// the tail is handed out one item at a time, so a slow last batch cannot
/// strand the other workers.
fn claim_size(remaining: usize, workers: usize) -> usize {
    (remaining / (32 * workers)).max(1)
}

/// Maps `f` over `items` on `workers` scoped threads, preserving input
/// order in the output.
///
/// The items sit in one `Mutex`-guarded queue. Each worker repeatedly
/// locks it, takes a batch of `claim_size` items together with the
/// batch's start index, unlocks, and runs `f` over the batch. When the
/// queue is empty, workers hand back their `(start, results)` batches;
/// sorting them by start restores input order.
///
/// With `workers <= 1`, a single item, or an empty input, everything runs
/// serially on the calling thread — the guaranteed fallback on a 1-core
/// machine.
///
/// # Panics
///
/// Propagates a panic raised by `f`. Every worker has finished before the
/// panic resumes (the other workers keep draining the queue meanwhile,
/// so no thread is left running).
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
    let queue = Mutex::new(items.into_iter());
    let worker = || {
        let mut batches = Vec::new();
        loop {
            let (start, batch): (usize, Vec<T>) = {
                // Only the claim runs under the lock (`f` runs unlocked),
                // and each item it takes leaves the iterator valid, so a
                // poisoned guard is still safe to reuse.
                let mut queue = queue.lock().unwrap_or_else(PoisonError::into_inner);
                let remaining = queue.len();
                let claim = claim_size(remaining, workers);
                (len - remaining, queue.by_ref().take(claim).collect())
            };
            if batch.is_empty() {
                return batches;
            }
            batches.push((start, batch.into_iter().map(&f).collect::<Vec<U>>()));
        }
    };
    // Workers hand their batches, or their panic payload, back through
    // `finished` and not through `join`: `JoinHandle::join` also waits for
    // the OS thread to exit, which the scope's own wait does not, and that
    // wait cost about 2% of replicated-simulation throughput (DESIGN §14).
    let finished = Mutex::new(Vec::with_capacity(workers));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // AssertUnwindSafe: a panicking worker's batches are
                // dropped and its payload is re-raised below; the queue
                // it shared is valid after every claim.
                let result = catch_unwind(AssertUnwindSafe(worker));
                finished
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(result);
            });
        }
    });
    let mut batches = Vec::new();
    for result in finished
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        match result {
            Ok(worker_batches) => batches.extend(worker_batches),
            Err(payload) => resume_unwind(payload),
        }
    }
    batches.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(len);
    for (_, results) in batches {
        out.extend(results);
    }
    out
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
    fn claims_stay_small_and_cover_the_queue() {
        // Pure arithmetic, but Miri runs it a few hundred times slower.
        let max_len = if cfg!(miri) { 300 } else { 10_000 };
        for workers in 2..=8 {
            for len in 1..=max_len {
                let mut remaining = len;
                let mut total = 0;
                while remaining > 0 {
                    let claim = claim_size(remaining, workers);
                    assert!(claim >= 1, "len {len}, workers {workers}");
                    assert!(
                        claim <= (remaining / (32 * workers)).max(1),
                        "claim {claim} of {remaining} with {workers} workers"
                    );
                    total += claim;
                    remaining -= claim;
                }
                assert_eq!(total, len, "workers {workers}");
            }
        }
    }

    #[test]
    fn matches_serial_on_irregular_costs() {
        // Task cost varies by three orders of magnitude: scattered heavy
        // tasks, all heavy tasks first, and all heavy tasks last. The pool
        // must still produce the serial map's results, in order.
        let shapes: [fn(u64) -> bool; 3] = [|x| x % 17 == 0, |x| x < 8, |x| x >= 112];
        let items: Vec<u64> = (0..120).collect();
        for heavy in shapes {
            let work = |x: u64| {
                let spins = if heavy(x) { 20_000 } else { 20 };
                let mut acc = x;
                for i in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                (x, acc)
            };
            assert_eq!(
                parallel_map(items.clone(), 8, work),
                items.iter().map(|&x| work(x)).collect::<Vec<_>>()
            );
        }
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
