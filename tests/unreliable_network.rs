//! Integration: the managed-upgrade middleware over an unreliable,
//! latency-adding network, with injected faults on one release —
//! wstack's transport layer and the fault injector composed under
//! core's middleware and monitoring.

use wsu_core::middleware::{MiddlewareConfig, UpgradeMiddleware};
use wsu_core::monitor::MonitoringSubsystem;
use wsu_core::release::ReleaseId;
use wsu_faults::{FaultAction, FaultClause, FaultInjector, FaultPlan, FaultTrigger};
use wsu_simcore::dist::DelayModel;
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_wstack::endpoint::SyntheticService;
use wsu_wstack::message::Envelope;
use wsu_wstack::outcome::OutcomeProfile;
use wsu_wstack::transport::TransportLink;

fn service(er: f64) -> SyntheticService {
    SyntheticService::builder("Svc", "1.0")
        .outcomes(OutcomeProfile::new(1.0 - er, er, 0.0))
        .exec_time(DelayModel::constant(0.2))
        .build()
}

fn run(mw: &mut UpgradeMiddleware, demands: u32, seed: MasterSeed) -> MonitoringSubsystem {
    let mut monitor = MonitoringSubsystem::new(0);
    let mut rng = seed.stream("demands");
    let mut mon_rng = seed.stream("monitor");
    let request = Envelope::request("invoke");
    for _ in 0..demands {
        let record = mw.process(&request, &mut rng).expect("active releases");
        monitor.observe(&record, &mut mon_rng);
    }
    monitor
}

/// A plan whose one clause crashes the wrapped release with probability
/// `p` on each demand.
fn crashes(p: f64) -> FaultPlan {
    FaultPlan::new().with_clause(FaultClause::new(
        "crash",
        FaultTrigger::Probabilistic {
            p,
            stream: "crash".into(),
        },
        FaultAction::Crash,
    ))
}

#[test]
fn message_loss_shows_up_as_nrdt_and_redundancy_masks_it() {
    let seed = MasterSeed::new(404);
    let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(2.0));
    // Both releases perfect, but each behind a 10%-lossy link.
    for _ in 0..2 {
        mw.deploy(
            TransportLink::new(service(0.0))
                .with_latency(DelayModel::constant(0.05))
                .with_loss_probability(0.10),
        );
    }
    let monitor = run(&mut mw, 5_000, seed);

    for idx in 0..2 {
        let stats = monitor.release_stats(ReleaseId::new(idx)).unwrap();
        let demands = stats.total_responses() + stats.nrdt();
        let loss = stats.nrdt() as f64 / demands as f64;
        assert!((loss - 0.10).abs() < 0.02, "release {idx} loss {loss}");
    }
    // 1-out-of-2 over independent links: the composite loses a demand
    // only when both links drop it (~1%).
    let sys = monitor.system_stats();
    let sys_loss = sys.nrdt() as f64 / (sys.total_responses() + sys.nrdt()) as f64;
    assert!(sys_loss < 0.03, "system loss {sys_loss}");
    assert!(sys.availability() > 0.97);
}

#[test]
fn stacked_layers_compose() {
    // Transport over fault injector over service: the full onion, still
    // a plain ServiceEndpoint to the middleware.
    let seed = MasterSeed::new(406);
    let injector = FaultInjector::new(service(0.3), crashes(0.1), seed);
    let tally = injector.tally();
    let onion = TransportLink::new(injector)
        .with_latency(DelayModel::constant(0.02))
        .with_loss_probability(0.05);
    let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(3.0));
    mw.deploy(onion);
    mw.deploy(service(0.0));
    let monitor = run(&mut mw, 3_000, seed);
    // Every layer shows through: the injector's crashes and the link's
    // losses as NRDT, the service's evident failures as responses.
    assert!(tally.total() > 200, "injected {}", tally.total());
    let onion_stats = monitor.release_stats(ReleaseId::new(0)).unwrap();
    assert!(onion_stats.nrdt() > tally.total() + 50);
    let evident = wsu_wstack::outcome::ResponseClass::EvidentFailure;
    assert!(onion_stats.count(evident) > 500);
    let sys = monitor.system_stats();
    // The clean second release keeps the composite essentially perfect.
    assert!(sys.availability() > 0.999);
    let correct = sys.count(wsu_wstack::outcome::ResponseClass::Correct);
    assert!(correct as f64 / sys.total_responses() as f64 > 0.99);
}

#[test]
fn determinism_across_the_full_stack() {
    let build = || {
        let seed = MasterSeed::new(407);
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(2.0));
        mw.deploy(
            TransportLink::new(FaultInjector::new(service(0.1), crashes(0.05), seed))
                .with_latency(DelayModel::exponential(0.05))
                .with_loss_probability(0.02),
        );
        mw.deploy(service(0.05));
        let monitor = run(&mut mw, 1_000, seed);
        (
            monitor.system_stats().mean_response_time(),
            monitor.system_stats().availability(),
            monitor
                .release_stats(ReleaseId::new(0))
                .unwrap()
                .total_responses(),
        )
    };
    assert_eq!(build(), build());
}

#[test]
fn rng_streams_do_not_collide_between_layers() {
    // Two distinct stream derivations from one master seed stay distinct
    // through heavy interleaved consumption.
    let seed = MasterSeed::new(408);
    let mut a = seed.stream("layer/a");
    let mut b = seed.stream("layer/b");
    let mut collisions = 0;
    for _ in 0..10_000 {
        if a.next_u64() == b.next_u64() {
            collisions += 1;
        }
    }
    assert_eq!(collisions, 0);
    let _ = StreamRng::from_seed(1); // the raw constructor stays public
}
