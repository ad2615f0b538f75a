//! Holds `Trace::series_mut` to its warmup contract: only the first touch
//! of a series name allocates. The epoch close appends to ten named series
//! every epoch, so a per-call key allocation would multiply across every
//! run.
//!
//! This file contains exactly one test: the counting allocator is
//! shared, and a concurrent test in the same binary would pollute the
//! measurement. Only allocations made by the measured thread are counted.

use manytest_sim::trace::Trace;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-init keeps the flag itself off the heap, so reading it from
    // the allocator cannot recurse.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    // `try_with`: allocations during thread teardown must not panic.
    MEASURED.try_with(Cell::get).unwrap_or(false)
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn series_mut_allocates_only_on_first_touch() {
    MEASURED.with(|m| m.set(true));
    let names = ["power_w", "cap_w", "tdp_w", "active_tests"];
    // A bounded trace stops growing once full, so appends are warm too.
    let mut trace = Trace::bounded(16);
    for t in 0..64 {
        for name in names {
            trace.series_mut(name).push(f64::from(t), 1.0);
        }
    }

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for t in 64..1_064 {
        for name in names {
            std::hint::black_box(trace.series_mut(name)).push(f64::from(t), 2.0);
        }
    }
    let allocations = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocations, 0,
        "Trace::series_mut heap-allocated {allocations} times across 4000 \
         calls on existing names; the lookup must not build an owned key"
    );

    trace.series_mut("new_series");
    assert!(
        ALLOC_CALLS.load(Ordering::Relaxed) > before,
        "a new name must allocate its key"
    );
}
