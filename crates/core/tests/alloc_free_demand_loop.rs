//! Asserts the zero-steady-state-allocation contract of the demand
//! loop: a closed-loop simulation — engine, middleware, monitor — with
//! a trace recorder *and* a metrics registry attached (quantile
//! sketches and SLO window included), and a live `/metrics` exporter
//! serving in the background, must not touch the heap once warm.
//!
//! The warm-up phase routes every outcome pattern the measured window
//! replays (all response classes per release, timeouts, every system
//! verdict), so all metric series are resolved, all scratch buffers
//! have grown to size, the event queue's heap has reached its deepest
//! backlog, and the recorder's backing storage is pre-reserved.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The
//! counter is a const-initialised thread-local, so allocations made by
//! the libtest harness threads (which run concurrently with the test
//! thread) never pollute the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wsu_core::middleware::{MiddlewareConfig, UpgradeMiddleware};
use wsu_core::monitor::MonitoringSubsystem;
use wsu_obs::{http_get, MetricsExporter, SharedRecorder, SharedRegistry, SloConfig};
use wsu_simcore::engine::{Engine, Handler};
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_simcore::time::{SimDuration, SimTime};
use wsu_wstack::endpoint::{PlannedResponse, ScriptedEndpoint};
use wsu_wstack::message::Envelope;
use wsu_wstack::outcome::ResponseClass;

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

const WARMUP: u64 = 200;
const MEASURED: u64 = 1200;
const TIMEOUT_SECS: f64 = 2.0;

/// Deterministic outcome pattern for demand `i`. Every branch fires
/// within the first `WARMUP` demands, so the measured window only
/// replays series and code paths the warm-up has already visited.
fn planned_pair(i: u64) -> ((ResponseClass, f64), (ResponseClass, f64)) {
    use ResponseClass::{Correct, EvidentFailure, NonEvidentFailure};
    if i % 29 == 28 {
        ((Correct, 0.4), (Correct, 9.0)) // release 2 times out
    } else if i % 23 == 22 {
        ((Correct, 0.4), (EvidentFailure, 0.3))
    } else if i % 19 == 18 {
        ((NonEvidentFailure, 0.5), (NonEvidentFailure, 0.6)) // NER verdict
    } else if i % 17 == 16 {
        ((EvidentFailure, 0.3), (EvidentFailure, 0.4)) // ER verdict
    } else if i % 13 == 12 {
        ((Correct, 9.0), (Correct, 9.5)) // both late: unavailable
    } else if i % 11 == 10 {
        ((Correct, 9.0), (Correct, 0.5)) // release 1 times out
    } else if i % 7 == 6 {
        ((Correct, 0.5), (NonEvidentFailure, 0.8)) // random selection
    } else if i % 5 == 4 {
        ((EvidentFailure, 0.3), (Correct, 0.7))
    } else {
        ((Correct, 0.4), (Correct, 0.6))
    }
}

fn planned(class: ResponseClass, secs: f64) -> PlannedResponse {
    PlannedResponse {
        class,
        exec_time: SimDuration::from_secs(secs),
    }
}

/// The closed-loop demand event.
#[derive(Debug)]
struct NextDemand;

struct World {
    middleware: UpgradeMiddleware,
    monitor: MonitoringSubsystem,
    remaining: u64,
    request: Envelope,
    mw_rng: StreamRng,
    mon_rng: StreamRng,
}

impl Handler<NextDemand> for World {
    fn handle(&mut self, engine: &mut Engine<NextDemand>, _event: NextDemand) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.middleware.set_virtual_time(engine.now().as_secs());
        let record = self
            .middleware
            .process(&self.request, &mut self.mw_rng)
            .expect("releases deployed");
        let wait = record.system.response_time;
        self.monitor.observe(&record, &mut self.mon_rng);
        self.middleware.recycle(record);
        if self.remaining > 0 {
            engine.schedule_in(wait, NextDemand);
        }
    }
}

#[test]
fn steady_state_demand_loop_does_not_allocate() {
    let mut rel1 = ScriptedEndpoint::new("Component", "1.0");
    let mut rel2 = ScriptedEndpoint::new("Component", "1.1");
    for i in 0..WARMUP + MEASURED {
        let (a, b) = planned_pair(i);
        rel1.push(planned(a.0, a.1));
        rel2.push(planned(b.0, b.1));
    }

    let mut middleware = UpgradeMiddleware::new(MiddlewareConfig::paper(TIMEOUT_SECS));
    middleware.deploy(rel1);
    middleware.deploy(rel2);
    let recorder = SharedRecorder::new();
    middleware.set_recorder(recorder.clone());
    let registry = SharedRegistry::new();
    let mut monitor = MonitoringSubsystem::new(0);
    monitor.set_metrics(registry.clone());
    // Short windows so the measured run cycles the SLO ring many times:
    // slot reuse must be allocation-free too.
    monitor.configure_slo(SloConfig {
        window_secs: 10.0,
        windows: 16,
        latency_threshold: TIMEOUT_SECS,
    });

    // A live exporter serving on its own thread. Its allocations land on
    // that thread's counter; the demand loop must stay at zero with the
    // server running.
    let exporter = MetricsExporter::bind("127.0.0.1:0").expect("bind exporter");
    exporter.publish_metrics("# warming up\n");

    let seed = MasterSeed::new(97);
    let mut world = World {
        middleware,
        monitor,
        remaining: WARMUP,
        request: Envelope::request("invoke"),
        mw_rng: seed.stream("alloc/middleware"),
        mon_rng: seed.stream("alloc/monitor"),
    };
    let mut engine = Engine::new();
    engine.schedule_at(SimTime::ZERO, NextDemand);
    engine.run(&mut world);
    assert_eq!(world.remaining, 0, "warm-up drained");

    // Room for the measured window's trace events (at most 5 per
    // demand: dispatch, two responses/timeouts, verdict, span).
    recorder.reserve(5 * MEASURED as usize + 16);

    let before = allocation_count();
    world.remaining = MEASURED;
    engine.schedule_in(SimDuration::from_secs(0.1), NextDemand);
    engine.run(&mut world);
    let allocs = allocation_count() - before;

    assert_eq!(world.remaining, 0, "measured window drained");
    assert_eq!(
        allocs, 0,
        "steady-state demand loop allocated {allocs} times over {MEASURED} demands"
    );

    // The loop really did the work it claims to have measured.
    assert_eq!(world.middleware.demands(), WARMUP + MEASURED);
    assert_eq!(world.monitor.demands(), WARMUP + MEASURED);
    assert_eq!(recorder.len(), 5 * (WARMUP + MEASURED) as usize);
    registry.with(|r| {
        assert_eq!(r.counter("wsu_demands_total", &[]), WARMUP + MEASURED);
        assert_eq!(
            r.sketch("wsu_response_time_quantiles", &[])
                .unwrap()
                .count(),
            WARMUP + MEASURED
        );
    });
    let snap = world
        .monitor
        .dependability_snapshot()
        .expect("SLO configured");
    assert_eq!(snap.demands, WARMUP + MEASURED);
    let slo = world.monitor.slo().expect("SLO configured");
    assert!(slo.complete_windows() > 0, "{snap:?}");

    // The exporter serves the rendered snapshot byte for byte.
    let rendered = registry.with(|r| r.snapshot());
    exporter.publish_metrics(&rendered);
    exporter.publish_snapshot(&snap.to_json());
    let addr = exporter.local_addr();
    let resp = http_get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body, rendered,
        "served /metrics must match in-process rendering"
    );
    let resp = http_get(addr, "/snapshot").expect("GET /snapshot");
    assert_eq!(resp.body, snap.to_json());
    exporter.shutdown();
}

/// The plan-fed demand path — the closed loop of a Table 5/6 cell, with
/// a trace recorder and a metrics registry attached — fills the
/// middleware's one lent record in place and must not allocate once
/// warm.
#[test]
fn planned_demand_loop_does_not_allocate() {
    let plan: Vec<[PlannedResponse; 2]> = (0..WARMUP + MEASURED)
        .map(|i| {
            let (a, b) = planned_pair(i);
            [planned(a.0, a.1), planned(b.0, b.1)]
        })
        .collect();
    let mut middleware = UpgradeMiddleware::new(MiddlewareConfig::paper(TIMEOUT_SECS));
    let recorder = SharedRecorder::new();
    middleware.set_recorder(recorder.clone());
    let registry = SharedRegistry::new();
    let mut monitor = MonitoringSubsystem::new(0);
    monitor.set_metrics(registry.clone());
    let seed = MasterSeed::new(96);
    let mut mw_rng = seed.stream("alloc/planned");
    let mut mon_rng = seed.stream("alloc/planned-monitor");
    let mut clock = 0.0;
    let mut run = |pairs: &[[PlannedResponse; 2]]| {
        for pair in pairs {
            middleware.set_virtual_time(clock);
            let record = middleware
                .process_planned(pair, &mut mw_rng)
                .expect("a planned pair");
            clock += record.system.response_time.as_secs();
            monitor.observe(record, &mut mon_rng);
        }
    };
    let (warmup, measured) = plan.split_at(WARMUP as usize);
    run(warmup);
    recorder.reserve(5 * MEASURED as usize + 16);

    let before = allocation_count();
    run(measured);
    let allocs = allocation_count() - before;
    assert_eq!(
        allocs, 0,
        "plan-fed demand loop allocated {allocs} times over {MEASURED} demands"
    );

    assert_eq!(middleware.demands(), WARMUP + MEASURED);
    assert_eq!(monitor.demands(), WARMUP + MEASURED);
    assert_eq!(recorder.len(), 5 * (WARMUP + MEASURED) as usize);
    registry.with(|r| {
        assert_eq!(r.counter("wsu_demands_total", &[]), WARMUP + MEASURED);
    });
}

/// Every parallel mode and selection policy adjudicates the responses
/// in place: each configuration's plan-fed loop, measured after its own
/// warm-up, must not allocate.
#[test]
fn planned_demand_loop_does_not_allocate_in_any_parallel_mode() {
    use wsu_core::adjudicate::{Adjudicator, SelectionPolicy};
    use wsu_core::modes::OperatingMode;

    let plan: Vec<[PlannedResponse; 2]> = (0..WARMUP + MEASURED)
        .map(|i| {
            let (a, b) = planned_pair(i);
            [planned(a.0, a.1), planned(b.0, b.1)]
        })
        .collect();
    let (warmup, measured) = plan.split_at(WARMUP as usize);
    for mode in [
        OperatingMode::ParallelReliability,
        OperatingMode::ParallelResponsiveness,
        OperatingMode::ParallelDynamic { quorum: 1 },
        OperatingMode::ParallelDynamic { quorum: 2 },
    ] {
        for policy in [
            SelectionPolicy::Random,
            SelectionPolicy::Fastest,
            SelectionPolicy::Majority,
        ] {
            let mut middleware = UpgradeMiddleware::new(MiddlewareConfig {
                mode,
                adjudicator: Adjudicator::new(policy),
                ..MiddlewareConfig::paper(TIMEOUT_SECS)
            });
            let mut monitor = MonitoringSubsystem::new(0);
            let seed = MasterSeed::new(95);
            let mut mw_rng = seed.stream("alloc/modes");
            let mut mon_rng = seed.stream("alloc/modes-monitor");
            let mut clock = 0.0;
            let mut run = |pairs: &[[PlannedResponse; 2]]| {
                for pair in pairs {
                    middleware.set_virtual_time(clock);
                    let record = middleware
                        .process_planned(pair, &mut mw_rng)
                        .expect("a planned pair");
                    clock += record.system.response_time.as_secs();
                    monitor.observe(record, &mut mon_rng);
                }
            };
            run(warmup);
            let before = allocation_count();
            run(measured);
            let allocs = allocation_count() - before;
            assert_eq!(
                allocs, 0,
                "{mode:?} {policy:?}: plan-fed demand loop allocated {allocs} times over {MEASURED} demands"
            );
            assert_eq!(middleware.demands(), WARMUP + MEASURED);
            assert_eq!(monitor.demands(), WARMUP + MEASURED);
        }
    }
}

/// The weighted-fleet demand path must be allocation-free too: routing
/// draws one uniform and walks the pre-computed cumulative-weight
/// table — no per-demand `Vec`, no rebuilt state. Four releases at
/// 40/30/20/10 weights, with timeouts mixed in so both verdict
/// branches replay in the measured window.
#[test]
fn weighted_fleet_demand_loop_does_not_allocate() {
    use wsu_core::modes::OperatingMode;
    use wsu_core::release::ReleaseId;

    const FLEET: usize = 4;
    let mut middleware = UpgradeMiddleware::new(MiddlewareConfig {
        mode: OperatingMode::WeightedFleet,
        ..MiddlewareConfig::paper(TIMEOUT_SECS)
    });
    let weights = [0.4, 0.3, 0.2, 0.1];
    for (index, weight) in weights.iter().enumerate() {
        let mut endpoint = ScriptedEndpoint::new("Component", &format!("1.{index}"));
        for i in 0..WARMUP + MEASURED {
            // Every 13th routed invocation hangs past the timeout, so
            // the unavailable branch is warm before measurement.
            let secs = if i % 13 == 12 { 9.0 } else { 0.4 };
            endpoint.push(planned(ResponseClass::Correct, secs));
        }
        let id = middleware.deploy(endpoint);
        // Weight writes (and the cumulative-table rebuild they trigger)
        // happen before the measured window only.
        middleware
            .releases_mut()
            .set_weight(id, *weight)
            .expect("weight is valid");
    }
    let registry = SharedRegistry::new();
    let mut monitor = MonitoringSubsystem::new(0);
    monitor.set_metrics(registry.clone());

    let seed = MasterSeed::new(98);
    let mut rng = seed.stream("alloc/fleet");
    let mut mon_rng = seed.stream("alloc/fleet-monitor");
    let request = Envelope::request("invoke");
    let mut counts = [0u64; FLEET];
    let mut clock = 0.0;
    let mut run = |middleware: &mut UpgradeMiddleware,
                   monitor: &mut MonitoringSubsystem,
                   counts: &mut [u64; FLEET],
                   clock: &mut f64,
                   demands: u64| {
        for _ in 0..demands {
            middleware.set_virtual_time(*clock);
            let record = middleware
                .process(&request, &mut rng)
                .expect("fleet serves");
            if let Some(source) = record.system.source {
                counts[source.index()] += 1;
            }
            *clock += record.system.response_time.as_secs();
            monitor.observe(&record, &mut mon_rng);
            middleware.recycle(record);
        }
    };
    run(
        &mut middleware,
        &mut monitor,
        &mut counts,
        &mut clock,
        WARMUP,
    );

    let before = allocation_count();
    run(
        &mut middleware,
        &mut monitor,
        &mut counts,
        &mut clock,
        MEASURED,
    );
    let allocs = allocation_count() - before;
    assert_eq!(
        allocs, 0,
        "weighted-fleet demand loop allocated {allocs} times over {MEASURED} demands"
    );

    assert_eq!(middleware.demands(), WARMUP + MEASURED);
    // Every release of the fleet took traffic, heaviest first.
    assert!(counts.iter().all(|&c| c > 0), "counts: {counts:?}");
    assert!(counts[0] > counts[3], "counts: {counts:?}");
    // The cumulative table still matches the configured weights.
    let releases = middleware.releases();
    for (index, weight) in weights.iter().enumerate() {
        assert_eq!(releases.weight(ReleaseId::new(index)), Ok(*weight));
    }
    registry.with(|r| {
        assert_eq!(r.counter("wsu_demands_total", &[]), WARMUP + MEASURED);
    });
}

/// The managed upgrade's demand path — recovery sweep, middleware,
/// monitor (with its recent-record ring full), span profile and, every
/// interval, the white-box assessment with its metrics — must not
/// allocate once warm. The criterion is out of reach, so the upgrade
/// stays transitional and every interval assesses.
#[test]
fn managed_upgrade_demands_do_not_allocate() {
    use wsu_bayes::whitebox::Resolution;
    use wsu_core::manage::SwitchCriterion;
    use wsu_core::upgrade::{DetectorKind, ManagedUpgrade, UpgradeConfig, UpgradePhase};
    use wsu_wstack::endpoint::SyntheticService;
    use wsu_wstack::outcome::OutcomeProfile;

    const INTERVAL: u64 = 100;
    let old = SyntheticService::builder("QuoteService", "1.0")
        .outcomes(OutcomeProfile::new(0.99, 0.005, 0.005))
        .exec_time_mean(0.2)
        .build();
    let new = SyntheticService::builder("QuoteService", "1.1")
        .outcomes(OutcomeProfile::new(0.995, 0.0025, 0.0025))
        .exec_time_mean(0.2)
        .build();
    let config = UpgradeConfig::default()
        .with_criterion(SwitchCriterion::reach_target(1e-9, 0.99))
        .with_detector(DetectorKind::BackToBackThenOmission(0.15))
        .with_resolution(Resolution {
            a_cells: 24,
            b_cells: 24,
            q_cells: 8,
        })
        .with_assess_interval(INTERVAL);
    let mut upgrade = ManagedUpgrade::new(old, new, config, MasterSeed::new(99));
    let registry = SharedRegistry::new();
    upgrade.attach_metrics(&registry);
    let run = |upgrade: &mut ManagedUpgrade, demands: u64| {
        for _ in 0..demands {
            let record = upgrade.run_demand();
            upgrade.middleware_mut().recycle(record);
        }
    };
    // Long enough to fill the monitor's ring and to resolve every
    // metric series the measured window writes.
    run(&mut upgrade, 20 * INTERVAL);

    let before = allocation_count();
    run(&mut upgrade, 10 * INTERVAL);
    let allocs = allocation_count() - before;
    assert_eq!(
        allocs, 0,
        "managed-upgrade demands allocated {allocs} times over 10 assessment intervals"
    );

    assert_eq!(upgrade.phase(), UpgradePhase::Transitional);
    assert_eq!(upgrade.demands(), 30 * INTERVAL);
    registry.with(|r| {
        assert_eq!(r.counter("wsu_assessments_total", &[]), 30);
        assert_eq!(r.counter("wsu_demands_total", &[]), 30 * INTERVAL);
    });
}
