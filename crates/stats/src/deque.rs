//! Chase–Lev work-stealing deque and the task arena behind
//! [`crate::parallel::parallel_map`].
//!
//! The workspace's heavy workloads are irregular: campaign fault masks
//! vary wildly in cost, `MemoCache` hits return instantly while misses run
//! full solves, and sweep cells straggle. Under a static split the slowest
//! chunk would set the wall clock. Instead each worker owns a
//! [`TaskDeque`] seeded with an interleaved share of the task indices,
//! drains it LIFO from the bottom, and steals FIFO from the top of other
//! workers' deques once its own runs dry.
//!
//! The deque is the classic Chase–Lev algorithm in the weak-memory
//! formulation of Lê, Pop, Cohen & Zappa Nardelli (*Correct and Efficient
//! Work-Stealing for Weak Memory Models*, PPoPP 2013), restricted to a
//! **fixed capacity**: `parallel_map` knows the task count up
//! front, so the buffer-growth half of the algorithm (and its notorious
//! reclamation hazards) is simply absent. Tasks are `usize` indices into a
//! [`TaskArena`], which owns the input/output slots and is the only place
//! in `mbus-stats` that touches `unsafe` — every site carries its
//! `// SAFETY:` argument and is inventoried by `mbus lint --unsafe-report`.
//!
//! # Memory-ordering argument (summary; DESIGN.md §14 has the full text)
//!
//! * `push` publishes the slot write with a `Release` store of `bottom`; a
//!   stealer that `Acquire`-loads `bottom` and observes the increment
//!   therefore sees the slot contents.
//! * `pop` reserves the bottom element by storing the decremented `bottom`
//!   and only then reading `top` across a `SeqCst` fence; `steal` reads
//!   `top` then `bottom` across its own `SeqCst` fence. The two fences
//!   guarantee pop and steal cannot both miss each other's reservation on
//!   the last element; the `SeqCst` CAS on `top` then decides the race.
//! * Slot cells are `AtomicUsize` accessed `Relaxed`: a stale stealer may
//!   read a slot concurrently with the owner overwriting it after wrap
//!   around, and the atomic access keeps that benign data race *defined* —
//!   the stale value is discarded when the `top` CAS fails. Ownership
//!   transfer itself is synchronized by `bottom`/`top`, never by the slot.

#![allow(unsafe_code)] // overrides the crate-level deny; every site below carries a SAFETY argument

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

/// Outcome of a [`TaskDeque::steal`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// A task index was stolen.
    Taken(usize),
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; retrying may succeed.
    Retry,
}

/// A fixed-capacity Chase–Lev work-stealing deque over `usize` task ids.
///
/// One thread is the *owner* and may call [`TaskDeque::push`] and
/// [`TaskDeque::pop`]; any number of other threads may call
/// [`TaskDeque::steal`] concurrently. The owner role is a logical
/// contract, not a type-level one: `parallel_map` hands each
/// worker exactly one deque to own. Violating the contract cannot cause
/// undefined behavior (all shared state is atomic) but can duplicate or
/// lose task ids.
#[derive(Debug)]
pub struct TaskDeque {
    /// Next slot the owner pushes into / one past the last poppable slot.
    bottom: AtomicIsize,
    /// Next slot thieves steal from.
    top: AtomicIsize,
    /// `capacity − 1`; capacity is a power of two so `index & mask` wraps.
    mask: usize,
    /// The ring buffer. Atomic so the benign stale-stealer read race is
    /// defined; see the module docs.
    slots: Box<[AtomicUsize]>,
}

impl TaskDeque {
    /// A deque that can hold `tasks` ids at once (capacity is the next
    /// power of two, minimum 1).
    pub fn with_capacity_for(tasks: usize) -> Self {
        let capacity = tasks.next_power_of_two().max(1);
        Self {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            mask: capacity - 1,
            slots: (0..capacity).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Pushes a task id at the bottom. Owner only. Returns `false` when
    /// the deque is full (the caller should run the task inline).
    pub fn push(&self, task: usize) -> bool {
        // Only the owner writes `bottom`, so its own last value needs no
        // synchronization.
        // lint:allow(atomics_ordering, owner-only counter: bottom is written by this thread alone, so Relaxed reads back the program-order value)
        let b = self.bottom.load(Ordering::Relaxed);
        // Acquire so the occupancy check observes steals that already
        // advanced `top`; a stale (smaller) value only makes the check
        // conservative.
        let t = self.top.load(Ordering::Acquire);
        // lint:allow(lossy_cast, capacity is a small power of two far below isize::MAX)
        if b.wrapping_sub(t) >= self.slots.len() as isize {
            return false;
        }
        // The Release store of `bottom` below publishes this write; no
        // thief reads the slot before observing that store.
        // lint:allow(atomics_ordering, slot publication is ordered by the Release store of bottom, not by the slot access itself)
        self.slots[(b as usize) & self.mask].store(task, Ordering::Relaxed);
        self.bottom.store(b.wrapping_add(1), Ordering::Release);
        true
    }

    /// Pops a task id from the bottom (most recently pushed). Owner only.
    pub fn pop(&self) -> Option<usize> {
        // lint:allow(atomics_ordering, owner-only counter: bottom is written by this thread alone, so Relaxed reads back the program-order value)
        let b = self.bottom.load(Ordering::Relaxed).wrapping_sub(1);
        // Reserve the bottom element before inspecting `top`. The SeqCst
        // fence orders this store before the `top` load below against the
        // mirror-image fence in `steal`, so at most one side can claim the
        // last element without going through the CAS.
        // lint:allow(atomics_ordering, the SeqCst fence on the next line orders this reservation store; the store itself needs no release payload)
        self.bottom.store(b, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        // lint:allow(atomics_ordering, ordered by the SeqCst fence above; pop never dereferences data published through top)
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            // Non-empty. The slot was written by this thread's own push.
            // lint:allow(atomics_ordering, owner reads back its own push; thieves discard stale reads when their top CAS fails)
            let task = self.slots[(b as usize) & self.mask].load(Ordering::Relaxed);
            if t == b {
                // Last element: race thieves for it via `top`.
                let won = self
                    .top
                    .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok();
                // Empty either way; restore the canonical empty shape.
                // lint:allow(atomics_ordering, owner-only restore of its reservation; thieves observe emptiness through top, not bottom)
                self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
                won.then_some(task)
            } else {
                Some(task)
            }
        } else {
            // Already empty; undo the reservation.
            // lint:allow(atomics_ordering, owner-only restore of its reservation; thieves observe emptiness through top, not bottom)
            self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            None
        }
    }

    /// Attempts to steal the task id at the top (least recently pushed).
    /// Safe from any thread.
    pub fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        // Pairs with the fence in `pop`: if this load of `bottom` misses a
        // concurrent pop's reservation, that pop's `top` load is ordered
        // after our CAS and sees our claim instead.
        std::sync::atomic::fence(Ordering::SeqCst);
        // Acquire pairs with push's Release store: observing `bottom > t`
        // makes the slot write at `t` visible.
        let b = self.bottom.load(Ordering::Acquire);
        if t < b {
            // Read before claiming: after a successful CAS the owner may
            // reuse the slot. A stale read (owner popped or another thief
            // won) is discarded below when the CAS fails.
            // lint:allow(atomics_ordering, slot visibility comes from the Acquire load of bottom; the CAS result decides whether the value is kept)
            let task = self.slots[(t as usize) & self.mask].load(Ordering::Relaxed);
            if self
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                Steal::Taken(task)
            } else {
                Steal::Retry
            }
        } else {
            Steal::Empty
        }
    }

    /// Whether the deque looked empty at the moment of the call (racy, for
    /// heuristics only).
    pub fn is_empty(&self) -> bool {
        let t = self.top.load(Ordering::Acquire);
        let b = self.bottom.load(Ordering::Acquire);
        t >= b
    }
}

/// Input/output slots for one `parallel_map` call.
///
/// Task `i` consumes `input[i]` and fills `output[i]`. The arena's safe
/// API enforces the "each index runs exactly once" invariant at runtime
/// with a per-task claim flag, so the `unsafe` interior-mutability
/// plumbing below cannot be misused from outside this module.
#[derive(Debug)]
pub struct TaskArena<T, U> {
    claimed: Box<[AtomicBool]>,
    input: Box<[UnsafeCell<Option<T>>]>,
    output: Box<[UnsafeCell<Option<U>>]>,
}

// SAFETY: the arena is shared by reference across scoped worker threads.
// All cross-thread access goes through `run`, which uses the `claimed`
// swap to hand each index's cells to exactly one thread, so the
// `UnsafeCell`s are never accessed concurrently. Values of `T` move into
// (and `U` out of) whichever thread runs the task, hence the `Send`
// bounds; no `&T`/`&U` is ever shared between threads, so `Sync` on
// `T`/`U` is not required.
unsafe impl<T: Send, U: Send> Sync for TaskArena<T, U> {}

impl<T, U> TaskArena<T, U> {
    /// An arena holding `items` as task inputs, with empty output slots.
    pub fn new(items: Vec<T>) -> Self {
        let len = items.len();
        Self {
            claimed: (0..len).map(|_| AtomicBool::new(false)).collect(),
            input: items.into_iter().map(|x| UnsafeCell::new(Some(x))).collect(),
            output: (0..len).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.input.len()
    }

    /// Whether the arena holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
    }

    /// Runs task `index`: takes its input, applies `f`, stores the output.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or was already run — the deque
    /// protocol yields each index exactly once, so a second claim is a
    /// scheduler bug, not a recoverable condition.
    pub fn run<F: Fn(T) -> U>(&self, index: usize, f: &F) {
        let was = self.claimed[index].swap(true, Ordering::AcqRel);
        assert!(!was, "task {index} scheduled twice");
        // SAFETY: the AcqRel swap above succeeded with `false`, so this
        // thread — and no other, ever — owns index's input and output
        // cells for the rest of the arena's life (a second claim panics
        // before reaching here). Exclusive access makes the raw cell
        // pointers valid for this read-modify and write.
        let item = unsafe { (*self.input[index].get()).take() };
        // lint:allow(no_panic, the claim flag guarantees the input slot is still Some on first entry)
        let item = item.expect("claimed task has its input");
        let out = f(item);
        // SAFETY: same exclusive ownership as above — the claim flag
        // ensures no other thread reads or writes this output cell until
        // `into_outputs` takes the arena by value after all workers join.
        unsafe {
            *self.output[index].get() = Some(out);
        }
    }

    /// Consumes the arena, returning the output slots in task order
    /// (`None` where a task never ran, e.g. after a panic aborted the
    /// pool). Callable only once all workers are joined, which owning
    /// `self` by value proves.
    pub fn into_outputs(self) -> Vec<Option<U>> {
        self.output
            .into_vec()
            .into_iter()
            .map(UnsafeCell::into_inner)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_push_pop_is_lifo() {
        let d = TaskDeque::with_capacity_for(8);
        assert!(d.push(1));
        assert!(d.push(2));
        assert!(d.push(3));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn steal_is_fifo_from_the_top() {
        let d = TaskDeque::with_capacity_for(4);
        for t in [10, 20, 30] {
            assert!(d.push(t));
        }
        assert_eq!(d.steal(), Steal::Taken(10));
        assert_eq!(d.steal(), Steal::Taken(20));
        assert_eq!(d.pop(), Some(30));
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn push_reports_full() {
        let d = TaskDeque::with_capacity_for(2);
        assert!(d.push(0));
        assert!(d.push(1));
        assert!(!d.push(2), "capacity 2 deque must reject a third push");
        assert_eq!(d.pop(), Some(1));
        assert!(d.push(2), "slot freed by pop is reusable");
    }

    #[test]
    fn zero_capacity_is_just_empty() {
        let d = TaskDeque::with_capacity_for(0);
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), Steal::Empty);
        assert!(d.push(7), "minimum capacity is 1");
        assert_eq!(d.steal(), Steal::Taken(7));
    }

    #[test]
    fn arena_runs_each_task_once() {
        let arena: TaskArena<u64, u64> = TaskArena::new(vec![1, 2, 3]);
        assert_eq!(arena.len(), 3);
        for i in 0..3 {
            arena.run(i, &|x| x * 10);
        }
        assert_eq!(
            arena.into_outputs(),
            vec![Some(10), Some(20), Some(30)],
        );
    }

    #[test]
    #[should_panic(expected = "scheduled twice")]
    fn arena_rejects_double_claim() {
        let arena: TaskArena<u64, u64> = TaskArena::new(vec![5]);
        arena.run(0, &|x| x);
        arena.run(0, &|x| x);
    }

    #[test]
    fn concurrent_owner_and_thieves_partition_the_tasks() {
        use std::sync::atomic::AtomicU64;
        const TASKS: usize = 2_000;
        let d = TaskDeque::with_capacity_for(TASKS);
        let sum = AtomicU64::new(0);
        let count = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            // Owner interleaves pushes with pops.
            scope.spawn(|| {
                for t in 0..TASKS {
                    while !d.push(t) {
                        std::hint::spin_loop();
                    }
                    if t % 3 == 0 {
                        if let Some(got) = d.pop() {
                            sum.fetch_add(got as u64, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                while let Some(got) = d.pop() {
                    sum.fetch_add(got as u64, Ordering::Relaxed);
                    count.fetch_add(1, Ordering::Relaxed);
                }
            });
            for _ in 0..3 {
                scope.spawn(|| loop {
                    match d.steal() {
                        Steal::Taken(got) => {
                            sum.fetch_add(got as u64, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            if count.load(Ordering::Acquire) == TASKS {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), TASKS, "every task taken once");
        let expect: u64 = (0..TASKS as u64).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expect, "no task duplicated or lost");
    }
}
