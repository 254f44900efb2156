//! Peak heap while white-box grids are built and dropped in turn, as a
//! deployment that is torn down and stood up again with new priors does.
//! Each cell is written straight into its table, with no transient copy,
//! and a grid that no engine holds is released before the next one is
//! built, so the peak stays close to one grid's bytes. A build that
//! copied its tables reaches about 1.18 times that. A cache that kept
//! the old grid while it built the new one would reach twice.
//!
//! A counting `#[global_allocator]` tracks live and peak bytes. This
//! file deliberately contains a single `#[test]`: the counters are
//! process-global, and a concurrently running test would add its own
//! allocations to the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wsu_bayes::beta::ScaledBeta;
use wsu_bayes::whitebox::{CoincidencePrior, WhiteBoxInference};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System`; the counters are
// relaxed atomic updates with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before the old one goes, as a moving
        // realloc holds both.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn grids_built_in_turn_never_hold_much_more_than_one_grid() {
    let engine = |alpha: f64| {
        WhiteBoxInference::new(
            ScaledBeta::new(alpha, 20.0, 0.002).unwrap(),
            ScaledBeta::new(2.0, 3.0, 0.002).unwrap(),
            CoincidencePrior::IndifferenceUniform,
        )
    };
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut one_grid = 0;
    for alpha in [20.0, 21.0, 22.0] {
        let engine = engine(alpha);
        one_grid = one_grid.max(LIVE.load(Ordering::Relaxed) - base);
        drop(engine);
    }
    let peak = PEAK.load(Ordering::Relaxed) - base;
    // A default grid is about 12.5 MB of tables.
    assert!(
        one_grid > 12_000_000,
        "one grid added only {one_grid} bytes"
    );
    assert!(
        peak as f64 <= 1.1 * one_grid as f64,
        "peak {peak} bytes over the baseline against {one_grid} bytes for one live grid"
    );
}
