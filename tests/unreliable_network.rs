//! Integration: the managed-upgrade middleware over an unreliable
//! network — each release behind a fault injector that loses its
//! responses — composed under core's middleware and monitoring.

use wsu_core::middleware::{MiddlewareConfig, UpgradeMiddleware};
use wsu_core::monitor::MonitoringSubsystem;
use wsu_core::release::ReleaseId;
use wsu_faults::{FaultAction, FaultClause, FaultInjector, FaultPlan, FaultTrigger};
use wsu_simcore::dist::DelayModel;
use wsu_simcore::rng::MasterSeed;
use wsu_wstack::endpoint::SyntheticService;
use wsu_wstack::message::Envelope;
use wsu_wstack::outcome::OutcomeProfile;

fn perfect_service() -> SyntheticService {
    SyntheticService::builder("Svc", "1.0")
        .outcomes(OutcomeProfile::always_correct())
        .exec_time(DelayModel::constant(0.2))
        .build()
}

/// A plan whose one clause loses the wrapped release's response with
/// probability `p` on each demand, drawn from `stream`.
fn lossy_link(p: f64, stream: &str) -> FaultPlan {
    FaultPlan::new().with_clause(FaultClause::new(
        "message-loss",
        FaultTrigger::Probabilistic {
            p,
            stream: stream.into(),
        },
        FaultAction::DropResponse,
    ))
}

#[test]
fn message_loss_shows_up_as_nrdt_and_redundancy_masks_it() {
    let seed = MasterSeed::new(404);
    let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(2.0));
    // Both releases perfect, but each behind its own 10%-lossy link.
    for stream in ["link/0", "link/1"] {
        mw.deploy(FaultInjector::new(
            perfect_service(),
            lossy_link(0.10, stream),
            seed,
        ));
    }
    let mut monitor = MonitoringSubsystem::new(0);
    let mut rng = seed.stream("demands");
    let mut mon_rng = seed.stream("monitor");
    let request = Envelope::request("invoke");
    for _ in 0..5_000 {
        let record = mw.process(&request, &mut rng).expect("active releases");
        monitor.observe(&record, &mut mon_rng);
    }

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
