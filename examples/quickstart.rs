//! Quickstart: a managed online upgrade from release 1.0 to 1.1.
//!
//! Deploys two releases of a component Web Service behind the upgrade
//! middleware, runs consumer demands through the adjudicated pair, and
//! watches the Bayesian confidence until the switching criterion fires.
//!
//! Run with: `cargo run --release --example quickstart`

use composite_ws_upgrade::core::manage::SwitchCriterion;
use composite_ws_upgrade::core::upgrade::{
    DetectorKind, ManagedUpgrade, UpgradeConfig, UpgradePhase,
};
use composite_ws_upgrade::obs::{SharedRecorder, TraceEvent};
use composite_ws_upgrade::simcore::rng::MasterSeed;
use composite_ws_upgrade::wstack::endpoint::SyntheticService;
use composite_ws_upgrade::wstack::outcome::OutcomeProfile;

fn main() {
    // The old release has been in service for a while: pfd ~ 2e-3.
    let old = SyntheticService::builder("QuoteService", "1.0")
        .outcomes(OutcomeProfile::new(0.998, 0.001, 0.001))
        .exec_time_mean(0.2)
        .build();
    // The new release fixes bugs: pfd ~ 5e-4 (but nobody knows that yet).
    let new = SyntheticService::builder("QuoteService", "1.1")
        .outcomes(OutcomeProfile::new(0.9995, 0.00025, 0.00025))
        .exec_time_mean(0.2)
        .build();

    let config = UpgradeConfig::default()
        // Switch once we are 95% confident the new release is no worse
        // than the old one (the paper's criterion 3).
        .with_criterion(SwitchCriterion::better_than_old(0.95))
        // Score the releases back-to-back plus imperfect oracles.
        .with_detector(DetectorKind::BackToBackThenOmission(0.15))
        .with_assess_interval(500);

    let mut upgrade = ManagedUpgrade::new(old, new, config, MasterSeed::new(2024));
    // The management decisions are trace events; record them.
    let recorder = SharedRecorder::new();
    upgrade.attach_recorder(recorder.clone());

    println!("demands  old P99 pfd   new P99 pfd   criterion met  phase");
    for round in 1..=20 {
        upgrade.run_demands(500);
        let report = upgrade.confidence_report();
        let phase = match upgrade.phase() {
            UpgradePhase::Transitional => "transitional".to_owned(),
            UpgradePhase::Switched { at_demand } => format!("switched@{at_demand}"),
            UpgradePhase::Aborted { at_demand } => format!("aborted@{at_demand}"),
        };
        println!(
            "{:>7}  {:.4e}    {:.4e}    {:<13}  {}",
            round * 500,
            report.old_release_p99,
            report.new_release_p99,
            report.criterion_met,
            phase
        );
        if let UpgradePhase::Switched { .. } = upgrade.phase() {
            break;
        }
    }

    println!("\ncomposite service through the upgrade:");
    let sys = upgrade.monitor().system_stats();
    println!(
        "  availability {:.4}, mean response time {:.3}s, correct {}/{}",
        sys.availability(),
        sys.mean_response_time(),
        sys.count(composite_ws_upgrade::wstack::outcome::ResponseClass::Correct),
        sys.total_responses()
    );
    println!("\n{}", upgrade.monitor().render_report());
    println!("management decisions:");
    for event in recorder.snapshot() {
        if let TraceEvent::SwitchDecision {
            t,
            demand,
            decision,
            reason,
        } = event
        {
            println!("  [demand {demand}, t={t:.1}s] {decision}: {reason}");
        }
    }
}
