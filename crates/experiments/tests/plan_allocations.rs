//! Pins the flat demand plan: planning `n` demands costs a constant
//! number of heap allocations, independent of `n`.
//!
//! A plan is a `Vec` of plain `Copy` values, so `DemandPlanner::plan_batch`
//! allocates exactly the one exactly-sized buffer, and `midsim::plan_run`
//! adds only the constant set-up around it (the stream name). A
//! per-demand allocation — an owned request envelope, a label string —
//! would make the counts grow with `n` and fail this test.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The
//! counter is a const-initialised thread-local, so allocations made by
//! the libtest harness threads (which run concurrently with the test
//! thread) never pollute the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wsu_experiments::midsim::plan_run;
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_workload::demand::DemandPlanner;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

thread_local! {
    // `const` initialisation: reading or bumping the counter never
    // allocates, so the allocator hooks cannot recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts an allocation on the current thread. `try_with` tolerates
/// the TLS destructor window during thread teardown.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a
// plain thread-local increment with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The allocations `f` makes on this thread, and its result.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocation_count();
    let value = f();
    (allocation_count() - before, value)
}

const SIZES: [usize; 2] = [1_000, 10_000];

#[test]
fn plan_batch_allocates_one_buffer_at_any_size() {
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run1());
    for n in SIZES {
        let mut planner = DemandPlanner::new(&gen, ExecTimeModel::paper());
        let mut rng = StreamRng::from_seed(7);
        let (allocations, plan) = allocations_of(|| planner.plan_batch(n, &mut rng));
        assert_eq!(plan.len(), n);
        assert_eq!(
            allocations, 1,
            "plan_batch({n}) made {allocations} allocations; a plan is one flat buffer"
        );
    }
}

#[test]
fn plan_run_allocations_do_not_grow_with_the_plan() {
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run3());
    let seed = MasterSeed::new(11);
    let counts: Vec<u64> = SIZES
        .iter()
        .map(|&n| {
            let (allocations, plan) = allocations_of(|| {
                plan_run(&gen, ExecTimeModel::paper(), n as u64, seed, "table5/run3")
            });
            assert_eq!(plan.len(), n);
            allocations
        })
        .collect();
    assert_eq!(
        counts[0], counts[1],
        "plan_run allocations grew with the plan: {counts:?} for n = {SIZES:?}"
    );
}
