//! Asserts the zero-steady-state-allocation contract of the incremental
//! engines: once a `PosteriorUpdater`/`BlackBoxUpdater` exists, applying
//! monotone count deltas, rebasing from total counts and reading
//! marginal views must not touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator. This
//! file deliberately contains a single `#[test]` — the counter is
//! process-global, and a concurrently running test would add its own
//! allocations to the window under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wsu_bayes::beta::ScaledBeta;
use wsu_bayes::blackbox::BlackBoxInference;
use wsu_bayes::counts::JointCounts;
use wsu_bayes::whitebox::{CoincidencePrior, Resolution, WhiteBoxInference};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a
// relaxed atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_updates_do_not_allocate() {
    // --- White-box engine ---
    let engine = WhiteBoxInference::with_resolution(
        ScaledBeta::new(20.0, 20.0, 0.002).unwrap(),
        ScaledBeta::new(2.0, 3.0, 0.002).unwrap(),
        CoincidencePrior::IndifferenceUniform,
        Resolution {
            a_cells: 32,
            b_cells: 32,
            q_cells: 8,
        },
    );
    let mut updater = engine.updater();
    // Warm up: a few checkpoints so any lazy one-time work is done.
    for step in 1..=5u64 {
        let counts = JointCounts::from_raw(step * 200, step, step * 2, step * 2);
        updater.update_to(&counts);
    }

    let before = allocation_count();
    for step in 6..=40u64 {
        let counts = JointCounts::from_raw(step * 200, step, step * 2, step * 2);
        updater.update_to(&counts);
        let a99 = updater.marginal_a().percentile(0.99);
        let b99 = updater.marginal_b().percentile(0.99);
        let bc = updater.marginal_b().confidence(1e-3);
        let am = updater.marginal_a().mean();
        assert!(a99.is_finite() && b99.is_finite() && bc.is_finite() && am.is_finite());
    }
    let whitebox_allocs = allocation_count() - before;
    assert_eq!(
        whitebox_allocs, 0,
        "white-box steady state allocated {whitebox_allocs} times"
    );

    // Rebases from total counts — the managed upgrade's assessment
    // path — including pruned ones on concentrated counts and the
    // update_to that then restores the skipped cells.
    let mut pruned = false;
    let before = allocation_count();
    for step in 1..=40u64 {
        let counts = JointCounts::from_raw(step * 50_000, step, step * 60, step * 40);
        updater.rebase(&counts);
        pruned |= updater.live_blocks() < 32 * 32;
        if step % 10 == 0 {
            updater.update_to(&JointCounts::from_raw(
                counts.demands() + 500,
                step,
                step * 60 + 1,
                step * 40,
            ));
        }
        let b99 = updater.marginal_b().percentile(0.99);
        assert!(b99.is_finite());
    }
    let rebase_allocs = allocation_count() - before;
    assert!(pruned, "concentrated counts must prune some rebases");
    assert_eq!(
        rebase_allocs, 0,
        "white-box rebases allocated {rebase_allocs} times"
    );

    // --- Black-box engine ---
    let prior = ScaledBeta::new(2.0, 3.0, 0.01).unwrap();
    let inference = BlackBoxInference::new(prior, 256);
    let mut bb = inference.updater();
    for d in 1..=5u64 {
        bb.update_to(d * 100, d);
    }

    let before = allocation_count();
    for d in 6..=40u64 {
        bb.update_to(d * 100, d);
        let conf = bb.confidence(1e-2);
        let p99 = bb.percentile(0.99);
        let mean = bb.posterior_view().mean();
        assert!(conf.is_finite() && p99.is_finite() && mean.is_finite());
    }
    let blackbox_allocs = allocation_count() - before;
    assert_eq!(
        blackbox_allocs, 0,
        "black-box steady state allocated {blackbox_allocs} times"
    );
}
