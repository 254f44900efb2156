//! Pins the flat demand plan and the cell loop that replays it:
//! planning `n` demands, and simulating a cell over them, each cost a
//! constant number of heap allocations, independent of `n`. A fleet
//! study's canary chain, once warm, serves its demands and assessments
//! without allocating at all, with or without a metrics registry. An
//! endpoint's response pool builds only the envelopes it hands out.
//!
//! A plan is a `Vec` of plain `Copy` values, so `DemandPlanner::plan_batch`
//! allocates exactly the one exactly-sized buffer, and `midsim::plan_run`
//! adds only the constant set-up around it (the stream name). A cell
//! hands each planned pair to the middleware, which fills one lent
//! record in place, so it copies nothing of the plan. A per-demand
//! allocation — an owned request envelope, a label string, a queue that
//! regrows as it is filled — would make the counts grow with `n` and
//! fail these tests. A capacity-study arrival holds its collected
//! responses inline, so doubling the demands adds only the few
//! regrowths of the run's buffers.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The
//! counter is a const-initialised thread-local, so allocations made by
//! the libtest harness threads (which run concurrently with the test
//! thread) never pollute the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wsu_core::composite::{CompositeEndpoint, CompositeService};
use wsu_core::fleet::{
    FleetOrchestrator, FleetPlan, ProbeRule, PromotionRule, RollbackRule, SubstitutePool,
    WeightRamp,
};
use wsu_core::manage::RecoveryStrategy;
use wsu_core::middleware::MiddlewareConfig;
use wsu_experiments::capacity::{run_capacity, CapacityConfig, Dispatch};
use wsu_experiments::midsim::{plan_run, simulate_cell};
use wsu_faults::{
    FaultAction, FaultClause, FaultInjector, FaultTrigger, FleetFaultScenario, InjectionTally,
};
use wsu_obs::SharedRegistry;
use wsu_simcore::dist::DelayModel;
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_simcore::time::SimDuration;
use wsu_workload::demand::DemandPlanner;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;
use wsu_wstack::endpoint::{ResponseTemplates, SyntheticService};
use wsu_wstack::outcome::ResponseClass;
use wsu_wstack::registry::ServiceRecord;
use wsu_wstack::wsdl::ServiceDescription;

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

#[test]
fn simulate_cell_allocations_do_not_grow_with_the_plan() {
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run1());
    let seed = MasterSeed::new(13);
    let plan = plan_run(&gen, ExecTimeModel::paper(), 10_000, seed, "table5/run1");
    let config = MiddlewareConfig::paper(2.0);
    // A warm-up cell first, so no one-time process-wide set-up lands on
    // the first measured size. (A cell without a registry builds no
    // quantile sketch; the monitor's sketches need a registry or an SLO.)
    simulate_cell(&plan[..10], config, seed);
    let counts: Vec<u64> = SIZES
        .iter()
        .map(|&n| {
            let (allocations, cell) = allocations_of(|| simulate_cell(&plan[..n], config, seed));
            assert_eq!(cell.requests, n as u64);
            allocations
        })
        .collect();
    assert_eq!(
        counts[0], counts[1],
        "simulate_cell allocations grew with the plan: {counts:?} for n = {SIZES:?}"
    );
}

#[test]
fn capacity_arrivals_do_not_allocate() {
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run2());
    for dispatch in [Dispatch::Parallel, Dispatch::Sequential] {
        let counts: Vec<u64> = [2_000, 4_000]
            .into_iter()
            .map(|demands| {
                let config = CapacityConfig {
                    arrival_rate: 0.4,
                    demands,
                    timeout: 3.0,
                    adjudication_delay: 0.1,
                };
                let seed = MasterSeed::new(71);
                let (allocations, result) = allocations_of(|| {
                    run_capacity(dispatch, &gen, ExecTimeModel::calibrated(), config, seed)
                });
                assert_eq!(result.response_time.count(), demands);
                allocations
            })
            .collect();
        assert!(
            counts[1] < counts[0] + 100,
            "{dispatch:?}: 2,000 and 4,000 demands made {counts:?} allocations"
        );
    }
}

fn fleet_service(release: &str) -> SyntheticService {
    SyntheticService::builder("Composite", release)
        .exec_time(DelayModel::constant(0.5))
        .build()
}

/// A three-release canary chain built like a fleet-study cell, with no
/// sinks: fault injectors around every release, and for the substitute
/// strategy a composite stand-in per canary stage in the registry pool.
///
/// The clauses are placed so every strategy settles by the end of the
/// warm-up yet keeps injecting both fault kinds. The first canary's
/// crash window (its demands 40–80) declares the incident each strategy
/// answers. The stable release returns an evident wrong value on every
/// second demand; it stays serving under every strategy because no
/// canary is ever promoted. A 1% coincident crash hits every release.
/// The ramp is slowed so the substitute's stand-in passes assessments and
/// ramps without reaching full weight: a promotion deploys the next
/// stage, whose posterior updater is allocated by design.
fn fleet_chain(
    strategy: RecoveryStrategy,
    seed: MasterSeed,
) -> (FleetOrchestrator, Vec<InjectionTally>) {
    let scenario = FleetFaultScenario::new("steady", 3)
        .release_clause(
            0,
            FaultClause::new(
                "persistent-wrong",
                FaultTrigger::EveryNth { n: 2, phase: 0 },
                FaultAction::WrongValue { evident: true },
            ),
        )
        .release_clause(
            1,
            FaultClause::new(
                "canary-burst",
                FaultTrigger::DemandWindow { from: 40, to: 80 },
                FaultAction::Crash,
            ),
        )
        .coincident(FaultClause::new(
            "co-crash",
            FaultTrigger::Probabilistic {
                p: 0.01,
                stream: "fleet/co-crash".into(),
            },
            FaultAction::Crash,
        ));
    let injectors: Vec<_> = scenario
        .plans
        .iter()
        .enumerate()
        .map(|(i, plan)| FaultInjector::new(fleet_service(&format!("1.{i}")), plan.clone(), seed))
        .collect();
    let tallies = injectors.iter().map(FaultInjector::tally).collect();
    let plan = FleetPlan {
        assess_interval: 100,
        ramp: WeightRamp {
            initial: 0.1,
            step: 0.001,
            full: 1.0,
        },
        promotion: PromotionRule {
            target_pfd: 0.05,
            confidence: 0.8,
            min_demands: 25,
        },
        rollback: RollbackRule {
            window: 12,
            max_fault_rate: 0.4,
        },
        probe: ProbeRule {
            window: 30,
            min_availability: 0.9,
        },
        suspend_after: 5,
        ..FleetPlan::with_strategy(strategy)
    };
    let mut injectors = injectors.into_iter();
    let mut fleet = FleetOrchestrator::new(injectors.next().expect("stable release"), plan, seed);
    for injector in injectors {
        fleet.push_stage(injector);
    }
    if strategy == RecoveryStrategy::Substitute {
        let mut pool = SubstitutePool::new();
        for stage in 1..3 {
            let name = format!("CompositeAlt{stage}");
            let composite = CompositeService::builder(name.clone())
                .component("backend", fleet_service("1.0"))
                .build();
            pool.register(
                ServiceRecord::new(
                    &name,
                    format!("http://standby/{name}"),
                    "composite-equivalent",
                    ServiceDescription::new(&name, "sub-1.0"),
                ),
                Box::new(CompositeEndpoint::new(composite, "sub-1.0")),
            );
        }
        fleet.set_substitutes(pool, "composite-equivalent");
    }
    (fleet, tallies)
}

/// Injections of `kind` across the chain's releases.
fn injected(tallies: &[InjectionTally], kind: &str) -> u64 {
    tallies
        .iter()
        .flat_map(InjectionTally::by_kind)
        .filter(|(k, _)| *k == kind)
        .map(|(_, n)| n)
        .sum()
}

#[test]
fn warm_fleet_demands_and_assessments_do_not_allocate() {
    const WARM_UP: u64 = 2_500;
    const INTERVALS: u64 = 20;
    // Each strategy without sinks, then with a metrics registry
    // attached: the fleet gauges resolve every series on its first
    // write, during the warm-up.
    for (strategy, attached) in RecoveryStrategy::all()
        .into_iter()
        .flat_map(|strategy| [(strategy, false), (strategy, true)])
    {
        let label = if attached {
            format!("{} with a registry", strategy.label())
        } else {
            strategy.label().to_owned()
        };
        let (mut fleet, tallies) = fleet_chain(strategy, MasterSeed::new(0xF1EE7));
        let registry = SharedRegistry::new();
        if attached {
            fleet.attach_metrics(&registry);
        }
        fleet.run_demands(WARM_UP);
        let crashes = injected(&tallies, "crash");
        let wrong = injected(&tallies, "wrong-evident");
        let before = fleet.status();
        let (allocations, ()) = allocations_of(|| fleet.run_demands(INTERVALS * 100));
        let after = fleet.status();
        assert!(
            injected(&tallies, "crash") > crashes,
            "{label}: no crash injected in the measured window"
        );
        assert!(
            injected(&tallies, "wrong-evident") > wrong,
            "{label}: no wrong value injected in the measured window"
        );
        assert_eq!(
            (
                after.stats.promotions,
                after.stats.substitutions,
                after.releases.len()
            ),
            (
                before.stats.promotions,
                before.stats.substitutions,
                before.releases.len()
            ),
            "{label}: the chain was still changing in the measured window"
        );
        if strategy == RecoveryStrategy::Substitute {
            let canary = after.canary.expect("the stand-in is the canary");
            let served = canary.demands - before.canary.expect("stand-in bound").demands;
            assert_eq!(after.releases[canary.id.index()].service, "CompositeAlt1");
            assert!(served > 0, "the stand-in served nothing in the window");
            assert!(
                canary.weight > before.canary.unwrap().weight,
                "the stand-in never ramped"
            );
        }
        assert_eq!(
            allocations, 0,
            "{label}: {INTERVALS} warm assessment intervals made {allocations} allocations"
        );
        if attached {
            let rendered = registry.render_snapshot();
            for series in ["wsu_fleet_weight", "wsu_fleet_incidents_total"] {
                assert!(
                    rendered.contains(series),
                    "{label}: no {series} in {rendered}"
                );
            }
        }
    }
}

/// The first invoke copies the operation name (one allocation) and
/// builds the correct envelope (five: the `Rc`, the operation, the part
/// list and the part's name and value), not the two failure envelopes
/// as well.
#[test]
fn a_response_pool_builds_only_the_class_it_hands_out() {
    let mut templates = ResponseTemplates::new();
    let mut invoke =
        |class| allocations_of(|| templates.invocation("getQuote", class, SimDuration::ZERO)).0;
    assert_eq!(invoke(ResponseClass::Correct), 6, "first invoke");
    assert_eq!(invoke(ResponseClass::Correct), 0, "a pooled class");
    assert_eq!(
        invoke(ResponseClass::EvidentFailure),
        3,
        "a second class builds only its own envelope"
    );
    assert_eq!(invoke(ResponseClass::EvidentFailure), 0, "a pooled class");
}
