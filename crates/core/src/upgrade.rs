//! The managed-upgrade orchestrator.
//!
//! [`ManagedUpgrade`] wires the whole architecture of Fig. 5 together:
//! the upgrading middleware running the old and the new release side by
//! side, the monitoring subsystem scoring both, the Bayesian assessment,
//! and the management subsystem that switches the composite service to
//! the new release when the configured criterion is met — then phases
//! the old release out.
//!
//! It is the programmatic equivalent of the paper's test harness
//! (Section 6.1): callers can change operating mode, adjudicator,
//! criterion and detector at run time, and read back the confidence
//! associated with each release.

use wsu_bayes::beta::ScaledBeta;
use wsu_bayes::whitebox::{CoincidencePrior, Resolution};
use wsu_detect::back2back::BackToBackDetector;
use wsu_detect::oracle::{
    ChainDetector, FailureDetector, FalseAlarmOracle, OmissionOracle, PerfectOracle,
};
use wsu_obs::{NullRecorder, Recorder, SharedRegistry, SloConfig, TraceEvent};
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_wstack::endpoint::ServiceEndpoint;
use wsu_wstack::message::Envelope;
use wsu_wstack::registry::PublishedConfidence;

use crate::error::CoreError;
use crate::manage::{
    Assessment, ManagementSubsystem, RecoveryAction, SwitchCriterion, SwitchDecision,
};
use crate::middleware::{DemandRecord, MiddlewareConfig, UpgradeMiddleware};
use crate::monitor::MonitoringSubsystem;
use crate::release::ReleaseId;

/// Which failure-detection mechanism scores the release pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorKind {
    /// Perfect oracles.
    Perfect,
    /// Omission oracles missing each failure with the given probability.
    Omission(f64),
    /// Back-to-back comparison under the pessimistic identical-coincident
    /// assumption.
    BackToBack,
    /// Back-to-back comparison followed by omission oracles.
    BackToBackThenOmission(f64),
    /// False-alarm oracles flagging good responses with the given
    /// probability.
    FalseAlarm(f64),
}

impl DetectorKind {
    fn build(self) -> Box<dyn FailureDetector> {
        match self {
            DetectorKind::Perfect => Box::new(PerfectOracle),
            DetectorKind::Omission(p) => Box::new(OmissionOracle::new(p)),
            DetectorKind::BackToBack => Box::new(BackToBackDetector::pessimistic()),
            DetectorKind::BackToBackThenOmission(p) => Box::new(
                ChainDetector::new()
                    .then(BackToBackDetector::pessimistic())
                    .then(OmissionOracle::new(p)),
            ),
            DetectorKind::FalseAlarm(p) => Box::new(FalseAlarmOracle::new(p)),
        }
    }
}

/// Configuration of a managed upgrade.
#[derive(Debug, Clone, PartialEq)]
pub struct UpgradeConfig {
    /// Middleware configuration (mode, timeout, adjudicator).
    pub middleware: MiddlewareConfig,
    /// Prior over the old release's pfd.
    pub prior_a: ScaledBeta,
    /// Prior over the new release's pfd.
    pub prior_b: ScaledBeta,
    /// Conditional prior of coincident failure.
    pub coincidence: CoincidencePrior,
    /// The switching criterion.
    pub criterion: SwitchCriterion,
    /// The failure detector scoring the pair.
    pub detector: DetectorKind,
    /// Grid resolution of the inference.
    pub resolution: Resolution,
    /// Reassess (and possibly switch) every this many demands.
    pub assess_interval: u64,
    /// How many recent demand records the monitor retains.
    pub recent_capacity: usize,
    /// The operation invoked on the releases.
    pub operation: String,
    /// Whether the orchestrator switches automatically when the
    /// criterion is met (disable to only observe).
    pub auto_switch: bool,
    /// Optional rollback guard: abort the upgrade (phase the *new*
    /// release out) when the evidence says it is worse than the old one.
    pub abort: Option<crate::manage::AbortPolicy>,
}

impl Default for UpgradeConfig {
    /// Paper-flavoured defaults: parallel-reliability middleware with a
    /// 2 s timeout, weakly informative priors on `[0, 0.01]`, the
    /// indifference coincidence prior, criterion 3 at 99%, perfect
    /// detection, assessment every 500 demands.
    fn default() -> UpgradeConfig {
        UpgradeConfig {
            middleware: MiddlewareConfig::default(),
            prior_a: ScaledBeta::new(1.0, 10.0, 0.01).expect("valid default prior"),
            prior_b: ScaledBeta::new(2.0, 3.0, 0.01).expect("valid default prior"),
            coincidence: CoincidencePrior::IndifferenceUniform,
            criterion: SwitchCriterion::better_than_old(0.99),
            detector: DetectorKind::Perfect,
            resolution: Resolution::default(),
            assess_interval: 500,
            recent_capacity: 128,
            operation: "invoke".to_owned(),
            auto_switch: true,
            abort: None,
        }
    }
}

impl UpgradeConfig {
    /// Sets the priors (builder style).
    pub fn with_priors(mut self, prior_a: ScaledBeta, prior_b: ScaledBeta) -> UpgradeConfig {
        self.prior_a = prior_a;
        self.prior_b = prior_b;
        self
    }

    /// Sets the switching criterion.
    pub fn with_criterion(mut self, criterion: SwitchCriterion) -> UpgradeConfig {
        self.criterion = criterion;
        self
    }

    /// Sets the middleware configuration.
    pub fn with_middleware(mut self, middleware: MiddlewareConfig) -> UpgradeConfig {
        self.middleware = middleware;
        self
    }

    /// Sets the failure detector.
    pub fn with_detector(mut self, detector: DetectorKind) -> UpgradeConfig {
        self.detector = detector;
        self
    }

    /// Sets the assessment cadence (in demands).
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn with_assess_interval(mut self, interval: u64) -> UpgradeConfig {
        assert!(interval > 0, "assessment interval must be positive");
        self.assess_interval = interval;
        self
    }

    /// Sets the inference grid resolution.
    pub fn with_resolution(mut self, resolution: Resolution) -> UpgradeConfig {
        self.resolution = resolution;
        self
    }

    /// Sets the invoked operation name.
    pub fn with_operation(mut self, operation: impl Into<String>) -> UpgradeConfig {
        self.operation = operation.into();
        self
    }

    /// Enables or disables automatic switching.
    pub fn with_auto_switch(mut self, auto_switch: bool) -> UpgradeConfig {
        self.auto_switch = auto_switch;
        self
    }

    /// Enables the rollback guard.
    pub fn with_abort(mut self, abort: crate::manage::AbortPolicy) -> UpgradeConfig {
        self.abort = Some(abort);
        self
    }
}

/// The lifecycle phase of the managed upgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradePhase {
    /// Both releases run; the composite service still answers from the
    /// adjudicated pair.
    Transitional,
    /// The criterion was met at the recorded demand count; the old
    /// release has been phased out.
    Switched {
        /// The demand count at which the switch happened.
        at_demand: u64,
    },
    /// The rollback guard fired: the new release has been phased out and
    /// the composite service continues on the old release alone.
    Aborted {
        /// The demand count at which the upgrade was aborted.
        at_demand: u64,
    },
}

/// A compact, consumer-facing confidence summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceReport {
    /// Demands observed so far.
    pub demands: u64,
    /// 99% percentile of the old release's posterior pfd.
    pub old_release_p99: f64,
    /// 99% percentile of the new release's posterior pfd.
    pub new_release_p99: f64,
    /// Posterior mean pfd of the old release.
    pub old_release_mean: f64,
    /// Posterior mean pfd of the new release.
    pub new_release_mean: f64,
    /// Whether the switching criterion is currently met.
    pub criterion_met: bool,
}

/// The managed upgrade of one component WS from an old to a new release.
///
/// Lifecycle decisions reach an attached recorder as trace events:
/// `SwitchDecision` (`switch-to-new`, `abort-upgrade`) and
/// `ReleaseSuspended` for each recovery action.
pub struct ManagedUpgrade {
    middleware: UpgradeMiddleware,
    monitor: MonitoringSubsystem,
    manager: ManagementSubsystem,
    phase: UpgradePhase,
    old: ReleaseId,
    new: ReleaseId,
    /// The one request envelope every demand sends, built once so the
    /// demand path does not allocate.
    request: Envelope,
    assess_interval: u64,
    auto_switch: bool,
    abort: Option<crate::manage::AbortPolicy>,
    demand_rng: StreamRng,
    monitor_rng: StreamRng,
    /// The orchestrator's own trace sink (lifecycle events); the
    /// middleware holds its clone for per-demand events.
    recorder: Box<dyn Recorder>,
    /// Accumulated virtual time: the sum of consumer-visible response
    /// times of all demands processed so far, per the paper's eq. (8)
    /// timing model with back-to-back demands.
    virtual_time: f64,
}

impl ManagedUpgrade {
    /// Deploys `old` and `new` behind the middleware and starts the
    /// managed upgrade in the transitional phase.
    pub fn new(
        old: impl ServiceEndpoint + 'static,
        new: impl ServiceEndpoint + 'static,
        config: UpgradeConfig,
        seed: MasterSeed,
    ) -> ManagedUpgrade {
        let mut middleware = UpgradeMiddleware::new(config.middleware);
        let old_id = middleware.deploy(old);
        let new_id = middleware.deploy(new);
        let mut monitor = MonitoringSubsystem::new(config.recent_capacity);
        monitor.track_pair_with(old_id, new_id, BoxedDetector(config.detector.build()));
        // A consumer wait beyond the middleware timeout is the natural
        // latency SLO: served demands stay under it, timeout-bound ones
        // exceed it.
        monitor.configure_slo(SloConfig {
            latency_threshold: middleware.config().timeout.as_secs(),
            ..SloConfig::default()
        });
        let manager = ManagementSubsystem::with_resolution(
            config.prior_a,
            config.prior_b,
            config.coincidence,
            config.criterion,
            config.resolution,
        );
        ManagedUpgrade {
            middleware,
            monitor,
            manager,
            phase: UpgradePhase::Transitional,
            old: old_id,
            new: new_id,
            request: Envelope::request(config.operation),
            assess_interval: config.assess_interval,
            auto_switch: config.auto_switch,
            abort: config.abort,
            demand_rng: seed.stream("managed-upgrade/demands"),
            monitor_rng: seed.stream("managed-upgrade/monitor"),
            recorder: Box::new(NullRecorder),
            virtual_time: 0.0,
        }
    }

    /// Attaches a trace recorder to the orchestrator *and* its
    /// middleware. The recorder must be cloneable so both append to one
    /// sink — [`wsu_obs::SharedRecorder`] is the intended choice.
    pub fn attach_recorder<R: Recorder + Clone + 'static>(&mut self, recorder: R) {
        self.middleware.set_recorder(recorder.clone());
        self.recorder = Box::new(recorder);
    }

    /// Routes monitoring and management metrics into `registry`.
    pub fn attach_metrics(&mut self, registry: &SharedRegistry) {
        self.monitor.set_metrics(registry.clone());
        self.manager.set_metrics(registry.clone());
    }

    /// Accumulated virtual time (seconds): the sum of consumer-visible
    /// response times of all demands processed so far.
    pub fn virtual_time(&self) -> f64 {
        self.virtual_time
    }

    /// Processes one consumer demand end to end, updating monitoring and
    /// (on assessment boundaries) possibly switching to the new release.
    ///
    /// # Panics
    ///
    /// Panics if no release is active — which cannot happen unless the
    /// recovery policy is disabled and every release has been suspended
    /// manually.
    pub fn run_demand(&mut self) -> DemandRecord {
        // Recovery sweep first, so suspended releases can come back
        // before the demand is dispatched.
        let actions = self
            .manager
            .apply_recovery(self.middleware.releases_mut())
            .expect("recovery over known releases");
        if self.recorder.enabled() {
            for action in actions {
                let (release, act) = match action {
                    RecoveryAction::Suspended(id) => (id.index(), "suspended"),
                    RecoveryAction::Restarted(id) => (id.index(), "restarted"),
                };
                self.recorder.record(TraceEvent::ReleaseSuspended {
                    t: self.virtual_time,
                    demand: self.middleware.demands(),
                    release,
                    action: act.to_string(),
                });
            }
        }
        self.middleware.set_virtual_time(self.virtual_time);
        let record = self
            .middleware
            .process(&self.request, &mut self.demand_rng)
            .expect("at least one active release");
        self.monitor.observe(&record, &mut self.monitor_rng);
        // Demands are back to back: the clock advances by what the
        // consumer waited.
        self.virtual_time += record.system.response_time.as_secs();

        if self.phase == UpgradePhase::Transitional
            && self.monitor.demands().is_multiple_of(self.assess_interval)
            && (self.auto_switch || self.abort.is_some())
        {
            // Incremental assessment: the posterior is rebased in place to
            // the cumulative counts, recomputing only the grid blocks that
            // can still carry mass — no per-interval grid allocation.
            let counts = self
                .monitor
                .pair()
                .map(|p| p.observed())
                .unwrap_or_default();
            let abort = self.abort;
            let recording = self.recorder.enabled();
            let (p99s, decision, abort_now) = {
                let assessment = self.manager.assess_incremental(&counts);
                (
                    // Only the trace reads the p99s.
                    recording.then(|| {
                        (
                            assessment.marginal_a.percentile(0.99),
                            assessment.marginal_b.percentile(0.99),
                        )
                    }),
                    assessment.decision,
                    abort.is_some_and(|policy| {
                        policy.should_abort(&assessment.marginal_a, &assessment.marginal_b)
                    }),
                )
            };
            if let Some((old_p99, new_p99)) = p99s {
                self.recorder.record(TraceEvent::ConfidenceUpdated {
                    t: self.virtual_time,
                    demand: self.monitor.demands(),
                    old_p99,
                    new_p99,
                    criterion: self.manager.criterion().label(),
                    satisfied: decision == SwitchDecision::SwitchToNew,
                });
            }
            if abort_now {
                self.abort_upgrade();
            } else if self.auto_switch && decision == SwitchDecision::SwitchToNew {
                self.switch_to_new();
            }
        }
        record
    }

    /// Runs `n` demands.
    pub fn run_demands(&mut self, n: u64) {
        for _ in 0..n {
            self.run_demand();
        }
    }

    /// A fresh assessment from the currently observed joint counts.
    pub fn assessment(&self) -> Assessment {
        let counts = self
            .monitor
            .pair()
            .map(|p| p.observed())
            .unwrap_or_default();
        self.manager.assess(&counts)
    }

    /// Forces the switch to the new release immediately (the vendor's
    /// prerogative in Section 3.3). The old release is phased out.
    pub fn switch_to_new(&mut self) {
        if self.phase != UpgradePhase::Transitional {
            return;
        }
        let at_demand = self.monitor.demands();
        self.middleware
            .releases_mut()
            .phase_out(self.old)
            .expect("old release can be phased out once");
        self.phase = UpgradePhase::Switched { at_demand };
        self.manager.count_decision("switch");
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::SwitchDecision {
                t: self.virtual_time,
                demand: at_demand,
                decision: "switch-to-new".to_string(),
                reason: format!(
                    "criterion {} met after {at_demand} demands",
                    self.manager.criterion().label()
                ),
            });
        }
    }

    /// Aborts the upgrade: the *new* release is phased out and the
    /// composite service continues on the old release (the rollback the
    /// [`AbortPolicy`](crate::manage::AbortPolicy) guard triggers
    /// automatically). A no-op once switched or already aborted.
    pub fn abort_upgrade(&mut self) {
        if self.phase != UpgradePhase::Transitional {
            return;
        }
        let at_demand = self.monitor.demands();
        self.middleware
            .releases_mut()
            .phase_out(self.new)
            .expect("new release can be phased out once");
        self.phase = UpgradePhase::Aborted { at_demand };
        self.manager.count_decision("abort");
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::SwitchDecision {
                t: self.virtual_time,
                demand: at_demand,
                decision: "abort-upgrade".to_string(),
                reason: format!("new release judged worse after {at_demand} demands"),
            });
        }
    }

    /// The current phase.
    pub fn phase(&self) -> UpgradePhase {
        self.phase
    }

    /// Demands processed.
    pub fn demands(&self) -> u64 {
        self.monitor.demands()
    }

    /// The old release's id.
    pub fn old_release(&self) -> ReleaseId {
        self.old
    }

    /// The new release's id.
    pub fn new_release(&self) -> ReleaseId {
        self.new
    }

    /// The monitoring subsystem.
    pub fn monitor(&self) -> &MonitoringSubsystem {
        &self.monitor
    }

    /// The management subsystem.
    pub fn manager(&self) -> &ManagementSubsystem {
        &self.manager
    }

    /// Mutable access to the management subsystem (run-time
    /// reconfiguration).
    pub fn manager_mut(&mut self) -> &mut ManagementSubsystem {
        &mut self.manager
    }

    /// The middleware (e.g. for mode changes).
    pub fn middleware(&self) -> &UpgradeMiddleware {
        &self.middleware
    }

    /// Mutable access to the middleware.
    pub fn middleware_mut(&mut self) -> &mut UpgradeMiddleware {
        &mut self.middleware
    }

    /// A consumer-facing confidence summary (Section 6.1: "the user can
    /// read back the confidence associated with each of the deployed
    /// releases").
    pub fn confidence_report(&self) -> ConfidenceReport {
        let assessment = self.assessment();
        ConfidenceReport {
            demands: assessment.demands,
            old_release_p99: assessment.marginal_a.percentile(0.99),
            new_release_p99: assessment.marginal_b.percentile(0.99),
            old_release_mean: assessment.marginal_a.mean(),
            new_release_mean: assessment.marginal_b.mean(),
            criterion_met: assessment.decision == SwitchDecision::SwitchToNew,
        }
    }

    /// The confidence that the *new* release's pfd is at or below
    /// `target`, in a form ready for publication in a registry record.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `target` is outside
    /// `(0, 1)`.
    pub fn publishable_confidence(&self, target: f64) -> Result<PublishedConfidence, CoreError> {
        if !(target > 0.0 && target < 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "pfd target {target} not in (0, 1)"
            )));
        }
        let assessment = self.assessment();
        Ok(PublishedConfidence::new(
            target,
            assessment.marginal_b.confidence(target),
        ))
    }
}

impl std::fmt::Debug for ManagedUpgrade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagedUpgrade")
            .field("phase", &self.phase)
            .field("demands", &self.monitor.demands())
            .field("criterion", &self.manager.criterion())
            .finish()
    }
}

/// Adapter: `Box<dyn FailureDetector>` as a detector by value.
struct BoxedDetector(Box<dyn FailureDetector>);

impl FailureDetector for BoxedDetector {
    fn name(&self) -> String {
        self.0.name()
    }

    fn observe(
        &mut self,
        truth: wsu_detect::oracle::DemandOutcome,
        rng: &mut StreamRng,
    ) -> wsu_detect::oracle::DemandOutcome {
        self.0.observe(truth, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_wstack::endpoint::SyntheticService;
    use wsu_wstack::outcome::OutcomeProfile;

    fn small_res() -> Resolution {
        Resolution {
            a_cells: 32,
            b_cells: 32,
            q_cells: 8,
        }
    }

    /// The `decision` labels of the recorded `SwitchDecision` events.
    fn decisions(recorder: &wsu_obs::SharedRecorder) -> Vec<String> {
        recorder
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::SwitchDecision { decision, .. } => Some(decision),
                _ => None,
            })
            .collect()
    }

    fn upgrade_with(
        old_profile: OutcomeProfile,
        new_profile: OutcomeProfile,
        config: UpgradeConfig,
    ) -> ManagedUpgrade {
        let old = SyntheticService::builder("Svc", "1.0")
            .outcomes(old_profile)
            .exec_time_mean(0.1)
            .build();
        let new = SyntheticService::builder("Svc", "1.1")
            .outcomes(new_profile)
            .exec_time_mean(0.1)
            .build();
        ManagedUpgrade::new(old, new, config, MasterSeed::new(99))
    }

    #[test]
    fn switches_when_new_release_is_clean() {
        let config = UpgradeConfig::default()
            .with_resolution(small_res())
            .with_assess_interval(200)
            .with_criterion(SwitchCriterion::better_than_old(0.9));
        // Old release visibly failing, new release clean: the posterior
        // comparison favours B quickly.
        let mut upgrade = upgrade_with(
            OutcomeProfile::new(0.95, 0.03, 0.02),
            OutcomeProfile::always_correct(),
            config,
        );
        let recorder = wsu_obs::SharedRecorder::new();
        upgrade.attach_recorder(recorder.clone());
        upgrade.run_demands(2_000);
        match upgrade.phase() {
            UpgradePhase::Switched { at_demand } => {
                assert!(at_demand <= 2_000);
                assert!(at_demand >= 200);
            }
            other => panic!("expected a switch, got {other:?}"),
        }
        // Old release was phased out.
        let infos = upgrade.middleware().release_infos();
        assert_eq!(infos[0].state, crate::release::ReleaseState::PhasedOut);
        assert_eq!(infos[1].state, crate::release::ReleaseState::Active);
        // The decision was traced.
        assert_eq!(decisions(&recorder), ["switch-to-new"]);
    }

    #[test]
    fn does_not_switch_when_new_release_is_bad() {
        let config = UpgradeConfig::default()
            .with_resolution(small_res())
            .with_assess_interval(200)
            .with_criterion(SwitchCriterion::better_than_old(0.9));
        // New release fails often: criterion 3 must not fire.
        let mut upgrade = upgrade_with(
            OutcomeProfile::always_correct(),
            OutcomeProfile::new(0.9, 0.05, 0.05),
            config,
        );
        upgrade.run_demands(1_000);
        assert_eq!(upgrade.phase(), UpgradePhase::Transitional);
        let report = upgrade.confidence_report();
        assert!(!report.criterion_met);
        assert!(report.new_release_p99 > report.old_release_p99);
    }

    #[test]
    fn auto_switch_can_be_disabled() {
        let config = UpgradeConfig::default()
            .with_resolution(small_res())
            .with_assess_interval(100)
            .with_auto_switch(false)
            .with_criterion(SwitchCriterion::better_than_old(0.5));
        let mut upgrade = upgrade_with(
            OutcomeProfile::new(0.9, 0.05, 0.05),
            OutcomeProfile::always_correct(),
            config,
        );
        upgrade.run_demands(500);
        assert_eq!(upgrade.phase(), UpgradePhase::Transitional);
        // But the assessment itself says switch.
        assert_eq!(upgrade.assessment().decision, SwitchDecision::SwitchToNew);
        // Manual switch works.
        upgrade.switch_to_new();
        assert!(matches!(upgrade.phase(), UpgradePhase::Switched { .. }));
        // Idempotent.
        upgrade.switch_to_new();
    }

    #[test]
    fn continues_serving_after_switch() {
        let config = UpgradeConfig::default()
            .with_resolution(small_res())
            .with_assess_interval(100)
            .with_criterion(SwitchCriterion::better_than_old(0.5));
        let mut upgrade = upgrade_with(
            OutcomeProfile::new(0.9, 0.05, 0.05),
            OutcomeProfile::always_correct(),
            config,
        );
        upgrade.run_demands(300);
        upgrade.switch_to_new();
        let before = upgrade.demands();
        upgrade.run_demands(50);
        assert_eq!(upgrade.demands(), before + 50);
        // Only the new release serves now.
        let record = upgrade.run_demand();
        assert_eq!(record.per_release.len(), 1);
        assert_eq!(record.per_release[0].release, upgrade.new_release());
    }

    #[test]
    fn confidence_report_is_consistent() {
        let config = UpgradeConfig::default().with_resolution(small_res());
        let mut upgrade = upgrade_with(
            OutcomeProfile::always_correct(),
            OutcomeProfile::always_correct(),
            config,
        );
        upgrade.run_demands(100);
        let report = upgrade.confidence_report();
        assert_eq!(report.demands, 100);
        assert!(report.new_release_p99 > report.new_release_mean);
        assert!(report.old_release_p99 > 0.0);
    }

    #[test]
    fn publishable_confidence() {
        let config = UpgradeConfig::default().with_resolution(small_res());
        let mut upgrade = upgrade_with(
            OutcomeProfile::always_correct(),
            OutcomeProfile::always_correct(),
            config,
        );
        upgrade.run_demands(100);
        let published = upgrade.publishable_confidence(5e-3).unwrap();
        assert_eq!(published.pfd_target, 5e-3);
        assert!(published.confidence > 0.0 && published.confidence <= 1.0);
        assert!(upgrade.publishable_confidence(0.0).is_err());
    }

    #[test]
    fn detector_kind_wiring() {
        for kind in [
            DetectorKind::Perfect,
            DetectorKind::Omission(0.15),
            DetectorKind::BackToBack,
            DetectorKind::BackToBackThenOmission(0.15),
            DetectorKind::FalseAlarm(0.05),
        ] {
            let config = UpgradeConfig::default()
                .with_resolution(small_res())
                .with_detector(kind);
            let mut upgrade = upgrade_with(
                OutcomeProfile::always_correct(),
                OutcomeProfile::always_correct(),
                config,
            );
            upgrade.run_demands(10);
            assert_eq!(upgrade.monitor().pair().unwrap().observed().demands(), 10);
        }
    }

    #[test]
    fn abort_guard_rolls_back_a_bad_release() {
        use crate::manage::AbortPolicy;
        let config = UpgradeConfig::default()
            .with_resolution(small_res())
            .with_assess_interval(200)
            .with_abort(AbortPolicy::new(0.9));
        // Old release excellent, new release terrible.
        let mut upgrade = upgrade_with(
            OutcomeProfile::always_correct(),
            OutcomeProfile::new(0.8, 0.1, 0.1),
            config,
        );
        let recorder = wsu_obs::SharedRecorder::new();
        upgrade.attach_recorder(recorder.clone());
        upgrade.run_demands(3_000);
        let UpgradePhase::Aborted { at_demand } = upgrade.phase() else {
            panic!("expected an abort, got {:?}", upgrade.phase());
        };
        assert!(at_demand % 200 == 0);
        // Only the old release serves now.
        let record = upgrade.run_demand();
        assert_eq!(record.per_release.len(), 1);
        assert_eq!(record.per_release[0].release, upgrade.old_release());
        // The decision was traced.
        assert_eq!(decisions(&recorder), ["abort-upgrade"]);
    }

    #[test]
    fn abort_guard_spares_a_good_release() {
        use crate::manage::AbortPolicy;
        let config = UpgradeConfig::default()
            .with_resolution(small_res())
            .with_assess_interval(200)
            .with_criterion(SwitchCriterion::better_than_old(0.9))
            .with_abort(AbortPolicy::new(0.9));
        let mut upgrade = upgrade_with(
            OutcomeProfile::new(0.97, 0.02, 0.01),
            OutcomeProfile::always_correct(),
            config,
        );
        upgrade.run_demands(3_000);
        assert!(
            matches!(upgrade.phase(), UpgradePhase::Switched { .. }),
            "good release must switch, not abort: {:?}",
            upgrade.phase()
        );
    }

    #[test]
    fn manual_abort_is_idempotent_and_exclusive_with_switch() {
        let config = UpgradeConfig::default()
            .with_resolution(small_res())
            .with_auto_switch(false);
        let mut upgrade = upgrade_with(
            OutcomeProfile::always_correct(),
            OutcomeProfile::always_correct(),
            config,
        );
        upgrade.run_demands(100);
        upgrade.abort_upgrade();
        assert!(matches!(upgrade.phase(), UpgradePhase::Aborted { .. }));
        upgrade.abort_upgrade(); // no-op
        upgrade.switch_to_new(); // also a no-op now
        assert!(matches!(upgrade.phase(), UpgradePhase::Aborted { .. }));
    }

    #[test]
    fn trace_captures_the_switch_exactly_once() {
        use wsu_obs::SharedRecorder;
        let config = UpgradeConfig::default()
            .with_resolution(small_res())
            .with_assess_interval(200)
            .with_criterion(SwitchCriterion::better_than_old(0.9));
        let mut upgrade = upgrade_with(
            OutcomeProfile::new(0.95, 0.03, 0.02),
            OutcomeProfile::always_correct(),
            config,
        );
        let recorder = SharedRecorder::new();
        let registry = wsu_obs::SharedRegistry::new();
        upgrade.attach_recorder(recorder.clone());
        upgrade.attach_metrics(&registry);
        upgrade.run_demands(2_000);
        assert!(matches!(upgrade.phase(), UpgradePhase::Switched { .. }));
        let events = recorder.snapshot();
        let switches = events
            .iter()
            .filter(|e| e.kind() == "SwitchDecision")
            .count();
        assert_eq!(switches, 1);
        assert!(events.iter().any(|e| e.kind() == "ConfidenceUpdated"));
        assert!(events.iter().any(|e| e.kind() == "DemandDispatched"));
        // Virtual time is non-decreasing across the whole trace.
        let mut last = 0.0;
        for event in &events {
            assert!(event.virtual_time() >= last, "clock went backwards");
            last = event.virtual_time();
        }
        assert!(upgrade.virtual_time() > 0.0);
        // Metrics mirrored the run.
        registry.with(|r| {
            assert_eq!(r.counter("wsu_demands_total", &[]), 2_000);
            assert!(r.counter("wsu_assessments_total", &[]) > 0);
            assert_eq!(
                r.counter("wsu_switch_decisions_total", &[("decision", "switch")]),
                1
            );
        });
    }

    #[test]
    fn slo_telemetry_sees_every_demand() {
        let config = UpgradeConfig::default().with_resolution(small_res());
        let mut upgrade = upgrade_with(
            OutcomeProfile::always_correct(),
            OutcomeProfile::always_correct(),
            config,
        );
        upgrade.run_demands(100);
        // The SLO telemetry `new` configures saw every demand.
        let monitor = upgrade.monitor();
        assert_eq!(monitor.response_quantiles().map(|s| s.count()), Some(100));
        assert_eq!(
            monitor.dependability_snapshot().map(|s| s.demands),
            Some(100)
        );
    }

    #[test]
    fn accessors_and_debug() {
        let config = UpgradeConfig::default().with_resolution(small_res());
        let upgrade = upgrade_with(
            OutcomeProfile::always_correct(),
            OutcomeProfile::always_correct(),
            config,
        );
        assert_eq!(upgrade.old_release().index(), 0);
        assert_eq!(upgrade.new_release().index(), 1);
        assert_eq!(upgrade.phase(), UpgradePhase::Transitional);
        assert!(format!("{upgrade:?}").contains("Transitional"));
        assert_eq!(upgrade.manager().criterion().label(), "criterion-3(c=0.99)");
    }
}
