//! A payment gateway with an explicit dependability target, sequential
//! execution for minimal server capacity, and automatic recovery.
//!
//! Banking is one of the critical WS applications the paper motivates
//! with. This gateway:
//!
//! * runs the two releases in **sequential mode** (Section 4.2, mode 4)
//!   to halve back-end load — the second release is tried only when the
//!   first response is evidently incorrect or times out;
//! * switches only on **criterion 2**: 99% confidence that the new
//!   release's pfd is at or below an explicit `5e-3` target;
//! * **suspends and restarts** a release that produces a streak of
//!   evident failures (an injected outage).
//!
//! Run with: `cargo run --release --example bank_gateway`

use composite_ws_upgrade::core::manage::{RecoveryPolicy, SwitchCriterion};
use composite_ws_upgrade::core::middleware::MiddlewareConfig;
use composite_ws_upgrade::core::modes::{OperatingMode, SequentialOrder};
use composite_ws_upgrade::core::upgrade::{ManagedUpgrade, UpgradeConfig, UpgradePhase};
use composite_ws_upgrade::obs::{SharedRecorder, TraceEvent};
use composite_ws_upgrade::simcore::dist::DelayModel;
use composite_ws_upgrade::simcore::rng::{MasterSeed, StreamRng};
use composite_ws_upgrade::simcore::time::SimDuration;
use composite_ws_upgrade::wstack::endpoint::{Invocation, ServiceEndpoint, SyntheticService};
use composite_ws_upgrade::wstack::message::Envelope;
use composite_ws_upgrade::wstack::outcome::{OutcomeProfile, ResponseClass};
use composite_ws_upgrade::wstack::wsdl::ServiceDescription;

/// The old release, with an outage injected between demands 2,000 and
/// 2,200: every response in that window is an evident failure.
struct FlakyGateway {
    inner: SyntheticService,
    served: u64,
    outage: std::ops::Range<u64>,
}

impl ServiceEndpoint for FlakyGateway {
    fn describe(&self) -> &ServiceDescription {
        self.inner.describe()
    }

    fn invoke(&mut self, request: &Envelope, rng: &mut StreamRng) -> Invocation {
        let n = self.served;
        self.served += 1;
        if self.outage.contains(&n) {
            return Invocation::from_class(
                request.operation(),
                ResponseClass::EvidentFailure,
                SimDuration::from_secs(0.05),
            );
        }
        self.inner.invoke(request, rng)
    }
}

fn main() {
    let old = FlakyGateway {
        inner: SyntheticService::builder("PaymentGateway", "3.4")
            .outcomes(OutcomeProfile::new(0.995, 0.003, 0.002))
            .exec_time(DelayModel::exponential(0.15))
            .build(),
        served: 0,
        outage: 2_000..2_200,
    };
    let new = SyntheticService::builder("PaymentGateway", "3.5")
        .outcomes(OutcomeProfile::new(0.9990, 0.0005, 0.0005))
        .exec_time(DelayModel::exponential(0.12))
        .build();

    let mut middleware_config = MiddlewareConfig::paper(1.0);
    middleware_config.mode = OperatingMode::Sequential {
        order: SequentialOrder::Deployment,
    };

    let config = UpgradeConfig::default()
        .with_middleware(middleware_config)
        .with_criterion(SwitchCriterion::reach_target(5e-3, 0.99))
        .with_operation("authorizePayment")
        .with_assess_interval(500);

    let mut upgrade = ManagedUpgrade::new(old, new, config, MasterSeed::new(31337));
    upgrade
        .manager_mut()
        .set_recovery_policy(Some(RecoveryPolicy {
            suspend_after: 5,
            auto_restart: true,
        }));
    // Recovery actions and the switch are trace events; record them.
    let recorder = SharedRecorder::new();
    upgrade.attach_recorder(recorder.clone());

    println!("processing 10,000 payment authorizations in sequential mode ...");
    upgrade.run_demands(10_000);

    match upgrade.phase() {
        UpgradePhase::Switched { at_demand } => {
            println!("switched to gateway 3.5 after {at_demand} authorizations");
        }
        UpgradePhase::Aborted { at_demand } => {
            println!("upgrade aborted after {at_demand} demands");
        }
        UpgradePhase::Transitional => {
            println!("criterion 2 not yet met; still running both releases");
        }
    }

    let report = upgrade.confidence_report();
    println!(
        "P(pfd_new <= 5e-3) target met: {}; new release P99 pfd {:.3e}",
        report.criterion_met, report.new_release_p99
    );

    // Sequential mode back-end savings: how often was the second release
    // actually consulted?
    let old_stats = upgrade.monitor().release_stats(upgrade.old_release());
    let new_stats = upgrade.monitor().release_stats(upgrade.new_release());
    if let (Some(old_stats), Some(new_stats)) = (old_stats, new_stats) {
        let old_invocations = old_stats.total_responses() + old_stats.nrdt();
        let new_invocations = new_stats.total_responses() + new_stats.nrdt();
        println!(
            "back-end load: old release invoked {old_invocations} times, new release only {new_invocations}",
        );
    }

    // The injected outage should show up as recovery actions.
    println!("\nrecovery/decision events:");
    for event in recorder.snapshot() {
        match event {
            TraceEvent::ReleaseSuspended {
                t,
                demand,
                release,
                action,
            } => println!("  [demand {demand}, t={t:.1}s] release {release} {action}"),
            TraceEvent::SwitchDecision {
                t,
                demand,
                decision,
                reason,
            } => println!("  [demand {demand}, t={t:.1}s] {decision}: {reason}"),
            _ => {}
        }
    }

    let sys = upgrade.monitor().system_stats();
    println!(
        "\ncomposite gateway: availability {:.4}, mean authorization latency {:.3}s",
        sys.availability(),
        sys.mean_response_time()
    );
}
