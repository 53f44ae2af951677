//! Proves the simulation hot loop is allocation-free in steady state.
//!
//! A counting global allocator wraps [`System`]; after a warmup phase that
//! lets every scratch buffer reach its high-water capacity, stepping the
//! simulator must perform **zero** allocations (and zero reallocations).
//! The RNG is seeded, so the workload — and therefore the verdict — is
//! deterministic. Only the measuring thread's allocations inside a
//! measured window count: stepping is single-threaded, and the test
//! harness's own threads may allocate at any time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mbus_sim::Simulator;
use mbus_topology::{BusNetwork, ConnectionScheme};
use mbus_workload::{HierarchicalModel, RequestModel};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread for the length of a measured window.
    /// Const-initialised and without a destructor, so reading it never
    /// allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation if this thread is inside a measured window.
fn count() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards verbatim to [`System`], which upholds the
// GlobalAlloc contract; the only extra work is a thread-local flag read and
// a Relaxed counter bump, which cannot allocate, unwind, or touch the
// returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the GlobalAlloc contract for `layout`; the
    // request is forwarded to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a matching `alloc` on this same
    // wrapper, which always delegated to `System`, so handing them back to
    // `System.dealloc` is the exact inverse.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same delegation argument as `dealloc` — the block being
    // resized was produced by `System` via this wrapper.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Opens a measured window on this thread; returns the count so far.
fn start_window() -> u64 {
    MEASURING.with(|on| on.set(true));
    allocations()
}

/// Closes the window opened at `before`; returns the allocations this
/// thread made inside it.
fn end_window(before: u64) -> u64 {
    let allocated = allocations() - before;
    MEASURING.with(|on| on.set(false));
    allocated
}

/// One test (so no parallel test thread can allocate concurrently) covering
/// every connection scheme, with and without resubmission, plus manual
/// fault/repair phases at full rate and under resubmission.
#[test]
fn steady_state_stepping_does_not_allocate() {
    let n = 16;
    let matrix = HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
        .unwrap()
        .matrix();
    let schemes: Vec<(&str, BusNetwork)> = vec![
        (
            "full",
            BusNetwork::new(n, n, 4, ConnectionScheme::Full).unwrap(),
        ),
        (
            "single",
            BusNetwork::new(n, n, 4, ConnectionScheme::balanced_single(n, 4).unwrap()).unwrap(),
        ),
        (
            "partial",
            BusNetwork::new(n, n, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap(),
        ),
        (
            "kclass",
            BusNetwork::new(n, n, 4, ConnectionScheme::uniform_classes(n, 4).unwrap()).unwrap(),
        ),
        (
            "crossbar",
            BusNetwork::new(n, n, 1, ConnectionScheme::Crossbar).unwrap(),
        ),
    ];

    for (name, net) in &schemes {
        for resubmission in [false, true] {
            let mut sim = Simulator::build(net, &matrix, 0.9).unwrap();
            sim.reset(7);
            sim.set_resubmission(resubmission);
            // Warmup: let scratch vectors grow to their high-water marks.
            for _ in 0..2_000 {
                let _ = sim.step();
            }
            let before = start_window();
            let mut grants = 0usize;
            for _ in 0..2_000 {
                grants += sim.step().grants.len();
            }
            let allocated = end_window(before);
            assert_eq!(
                allocated, 0,
                "{name} (resubmission: {resubmission}) allocated in steady state"
            );
            assert!(grants > 0, "{name}: sanity — something was served");
        }
    }

    // Fault injection between steps must not allocate either.
    let net = BusNetwork::new(n, n, 4, ConnectionScheme::Full).unwrap();
    let mut sim = Simulator::build(&net, &matrix, 0.9).unwrap();
    sim.reset(11);
    for _ in 0..2_000 {
        let _ = sim.step();
    }
    let before = start_window();
    for cycle in 0..2_000u64 {
        if cycle == 100 {
            sim.fault_mask_mut().fail(1).unwrap();
        }
        if cycle == 1_100 {
            sim.fault_mask_mut().repair(1).unwrap();
        }
        let _ = sim.step();
    }
    assert_eq!(
        end_window(before),
        0,
        "faulted stepping allocated in steady state"
    );

    // The per-processor issue pass on its own shapes: the gate-free
    // `r = 1` path, a failed bus, and resubmission through a total outage
    // (pending requests dropped as unreachable), each stepped at 8×8×4 and
    // 16×16×4 on the full scheme.
    for size in [8, 16] {
        let matrix = HierarchicalModel::two_level_paired(size, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix();
        let net = BusNetwork::new(size, size, 4, ConnectionScheme::Full).unwrap();
        for (label, rate, resubmission) in [
            ("r = 1", 1.0, false),
            ("r = 1, resubmission", 1.0, true),
            ("r = 0.8, resubmission", 0.8, true),
        ] {
            let mut sim = Simulator::build(&net, &matrix, rate).unwrap();
            sim.reset(13);
            sim.set_resubmission(resubmission);
            for _ in 0..2_000 {
                let _ = sim.step();
            }
            let before = start_window();
            let mut grants = 0usize;
            let mut unreachable = 0usize;
            for cycle in 0..3_000u64 {
                match cycle {
                    500 => sim.fault_mask_mut().fail(1).unwrap(),
                    1_000 => {
                        for bus in [0, 2, 3] {
                            sim.fault_mask_mut().fail(bus).unwrap();
                        }
                    }
                    1_200 => {
                        for bus in 0..4 {
                            sim.fault_mask_mut().repair(bus).unwrap();
                        }
                    }
                    _ => {}
                }
                let outcome = sim.step();
                grants += outcome.grants.len();
                unreachable += outcome.unreachable;
            }
            assert_eq!(
                end_window(before),
                0,
                "{size}x{size}x4 full ({label}) allocated in steady state"
            );
            assert!(grants > 0, "{label}: sanity — something was served");
            assert!(
                unreachable > 0,
                "{label}: sanity — the outage dropped requests"
            );
        }
    }
}
