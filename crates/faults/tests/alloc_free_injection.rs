//! Pins the injector's steady state: once every reply it can give has
//! been built, injecting a fault allocates nothing, for every
//! [`FaultAction`] kind.
//!
//! A crash, a drop, a flap's down phase and a corruption answer with a
//! shared fault envelope per reason, and a wrong value with a shared
//! class template, instead of building an envelope (and copying the
//! operation name) per demand. The wrapped endpoint's own replies are
//! pooled too, so a warm injector's demand is allocation-free whether
//! it fires or not.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The
//! counter is a const-initialised thread-local, so allocations made by
//! the libtest harness threads (which run concurrently with the test
//! thread) never pollute the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wsu_faults::{FaultAction, FaultClause, FaultInjector, FaultPlan, FaultTrigger};
use wsu_simcore::dist::DelayModel;
use wsu_simcore::rng::MasterSeed;
use wsu_wstack::endpoint::{ServiceEndpoint, SyntheticService};
use wsu_wstack::message::Envelope;

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

/// One of every action kind.
fn every_action() -> [FaultAction; 10] {
    [
        FaultAction::Crash,
        FaultAction::Hang { delay_secs: 30.0 },
        FaultAction::WrongValue { evident: true },
        FaultAction::WrongValue { evident: false },
        FaultAction::LatencySpike { extra_secs: 1.5 },
        FaultAction::TimeoutBoundary {
            timeout_secs: 2.0,
            margin_secs: 0.05,
        },
        FaultAction::DropResponse,
        FaultAction::DuplicateRequest,
        FaultAction::CorruptMessage,
        // Alternating one-demand phases: the measured window sees both.
        FaultAction::Flap { period: 1 },
    ]
}

const WARM_UP: u64 = 8;
const MEASURED: u64 = 1_000;

#[test]
fn every_action_kind_injects_without_allocating_once_warm() {
    let seed = MasterSeed::new(0xA110C);
    for action in every_action() {
        let kind = action.kind();
        // The action fires on every demand. The probabilistic clause
        // after it never wins, but it draws from its own stream on every
        // demand, so the trigger scan is measured too.
        let plan = FaultPlan::new()
            .with_clause(FaultClause::new(
                kind,
                FaultTrigger::EveryNth { n: 1, phase: 0 },
                action,
            ))
            .with_clause(FaultClause::new(
                "co-crash",
                FaultTrigger::Probabilistic {
                    p: 0.01,
                    stream: "alloc/co-crash".into(),
                },
                FaultAction::Crash,
            ));
        let service = SyntheticService::builder("S", "1.0")
            .exec_time(DelayModel::constant(0.5))
            .build();
        let mut injector = FaultInjector::new(service, plan, seed);
        let request = Envelope::request("invoke");
        let mut rng = seed.stream("alloc/demands");
        for _ in 0..WARM_UP {
            injector.invoke(&request, &mut rng);
        }
        let injected = injector.injected();
        let before = allocation_count();
        for _ in 0..MEASURED {
            injector.invoke(&request, &mut rng);
        }
        let allocations = allocation_count() - before;
        assert!(
            injector.injected() > injected,
            "{kind}: nothing injected in the measured window"
        );
        assert_eq!(
            allocations, 0,
            "{kind}: {MEASURED} warm demands made {allocations} allocations"
        );
    }
}
