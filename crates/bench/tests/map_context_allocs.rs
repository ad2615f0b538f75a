//! Holds `System::map_context` to its documented guarantee: zero heap
//! allocations after the first control tick. The snapshot must be rebuilt
//! every epoch for every pending app, so an allocation here multiplies
//! across the whole evaluation suite.
//!
//! This file contains exactly one test: the counting allocator is
//! shared, and a concurrent test in the same binary would pollute the
//! measurement. Only allocations made by the *measured* thread are
//! counted — the libtest harness's main thread lazily allocates its
//! channel-park context the first time it blocks waiting for the test
//! result, and that race would otherwise land inside the window.

use manytest_core::exec::CoreMode;
use manytest_core::prelude::*;
use manytest_core::store::CoreStore;
use manytest_map::context::MapContext;
use manytest_noc::{Coord, Mesh2D};
use manytest_power::{PowerBudget, VfLadder, VfLevel};
use manytest_sbst::{RoutineId, TestSession};
use manytest_workload::{AppId, TaskId};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-init keeps the flag itself off the heap: a `Cell<bool>` needs
    // no drop registration, so reading it from the allocator can't recurse.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    // `try_with` instead of `with`: allocations during thread teardown
    // (after TLS destruction) must not panic inside the allocator.
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
fn map_context_allocates_nothing_after_the_first_tick() {
    MEASURED.with(|m| m.set(true));
    let mut system = SystemBuilder::new(TechNode::N16)
        .seed(7)
        .build()
        .expect("valid config");
    // First tick: the scratch buffers size themselves to the platform.
    std::hint::black_box(system.map_context(0.0).free_count());

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let mut t = 0.0;
    for _ in 0..1_000 {
        t += 1e-4;
        std::hint::black_box(system.map_context(t).free_count());
        // Telemetry shares the guarantee: events are stack-only values and
        // a run without an event log only mints their ids, without touching
        // the heap, so emission can sit on the control loop's hot path.
        system.observe(
            t,
            SimEvent::CapAdjusted {
                cap: 100.0,
                measured: 42.0,
                headroom: 58.0,
                reservations: 3,
            },
        );
        system.observe(
            t,
            SimEvent::TestLaunched {
                core: 7,
                routine: 1,
                level: 2,
                power: 0.5,
                headroom: 57.5,
            },
        );
    }
    let allocations = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocations, 0,
        "System::map_context heap-allocated {allocations} times across \
         1000 warm refills (with event emission); the scratch-buffer and \
         null-observer guarantees are broken"
    );

    // The struct-of-arrays store shares the guarantee: every phase-loop
    // mutation patches flat arrays and maintained views in place, so the
    // control loop's per-epoch store traffic is alloc-free once warm.
    let n = 64;
    let mut store = CoreStore::new(n);
    let op = VfLadder::for_node(TechNode::N16, 5).point(VfLevel(4));
    let session = TestSession::new(RoutineId(0), VfLevel(0), 100, 1.0e9, 0.0);
    let mut budget = PowerBudget::new(10.0);
    let reservation = budget.reserve(1.0).expect("budget has headroom");

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for tick in 0..1_000usize {
        let core = tick % n;
        // One admission + teardown round trip through the flat arrays.
        store.set_mode(core, CoreMode::Idle(op), 1.0);
        store.set_owner(core, Some((AppId(1), TaskId(0))));
        store.set_mode(core, CoreMode::Busy(op), 1.0);
        store.set_owner(core, None);
        store.set_mode(core, CoreMode::Off, 0.0);
        // One test-session lifecycle.
        let gen = store.begin_session(core, session, reservation);
        std::hint::black_box(gen);
        let (s, r) = store.end_session(core);
        std::hint::black_box((s.is_some(), r.is_some()));
        store.set_accrued_since(core, tick as f64 * 1e-4);
        // The maintained views the phase loops read every epoch.
        let visited: u32 = store.testable_words().iter().map(|w| w.count_ones()).sum();
        std::hint::black_box((
            store.mappable_count(),
            store.testing_count(),
            store.testable_words().len(),
            store.dirty_marks(),
            visited,
        ));
    }
    let allocations = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocations, 0,
        "CoreStore heap-allocated {allocations} times across 1000 warm \
         mutate/scan rounds; a maintained view is reallocating on the \
         hot path"
    );

    // The incremental free-set path: admissions patch the map context in
    // place (set_free / set_criticality) and read the maintained
    // mappable count; none of it may touch the heap once built.
    let mesh = Mesh2D::new(8, 8);
    let mut ctx = MapContext::all_free(mesh);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for tick in 0..1_000usize {
        let c = Coord::new((tick % 8) as u16, (tick / 8 % 8) as u16);
        ctx.set_free(c, false);
        ctx.set_criticality(c, (tick % 7) as f64);
        std::hint::black_box(ctx.free_count());
        ctx.set_free(c, true);
    }
    let allocations = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocations, 0,
        "MapContext delta patching heap-allocated {allocations} times \
         across 1000 warm admission rounds"
    );
}
