//! The management subsystem: switching criteria, assessment and
//! reconfiguration (paper Sections 4.4 and 5.1.1.2).
//!
//! The key decision the managed upgrade must take is *when to switch*
//! from the old release (A) to the new one (B). The paper studies three
//! criteria, all expressed over Bayesian posteriors:
//!
//! * **Criterion 1** — B reaches the dependability level the *prior*
//!   credited to A at deployment time: if `P(P_A ≤ X) = c` held a priori,
//!   wait until `P(P_B ≤ X) ≥ c`.
//! * **Criterion 2** — B reaches an explicit target with a given
//!   confidence: `P(P_B ≤ target) ≥ c`.
//! * **Criterion 3** — with a given confidence B is better than A *now*:
//!   the posterior percentiles satisfy `T_B(c) ≤ T_A(c)`.

use std::cell::Cell;

use wsu_bayes::beta::ScaledBeta;
use wsu_bayes::counts::JointCounts;
use wsu_bayes::posterior::{GridPosterior, MarginalView, PosteriorQueries};
use wsu_bayes::whitebox::{CoincidencePrior, PosteriorUpdater, Resolution, WhiteBoxInference};
use wsu_obs::{CounterId, GaugeId, SharedRegistry};

use crate::error::CoreError;
use crate::release::{ReleaseId, ReleaseSet, ReleaseState};

/// A switching criterion (Section 5.1.1.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchCriterion {
    /// Criterion 1: B reaches the dependability the prior credited to A.
    ReachPriorOfOld {
        /// The confidence level `c` (e.g. 0.99).
        confidence: f64,
    },
    /// Criterion 2: B meets an explicit pfd target with confidence `c`.
    ReachTarget {
        /// The pfd target (e.g. `1e-3`).
        target: f64,
        /// The confidence level `c`.
        confidence: f64,
    },
    /// Criterion 3: with confidence `c`, B is no worse than A.
    BetterThanOld {
        /// The confidence level `c`.
        confidence: f64,
    },
}

impl SwitchCriterion {
    /// Criterion 1 at the given confidence.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not in `(0, 1)`.
    pub fn reach_prior_of_old(confidence: f64) -> SwitchCriterion {
        check_confidence(confidence);
        SwitchCriterion::ReachPriorOfOld { confidence }
    }

    /// Criterion 2 at the given target and confidence.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not in `(0, 1)` or `target` not in
    /// `(0, 1)`.
    pub fn reach_target(target: f64, confidence: f64) -> SwitchCriterion {
        check_confidence(confidence);
        assert!(
            target > 0.0 && target < 1.0,
            "pfd target {target} not in (0, 1)"
        );
        SwitchCriterion::ReachTarget { target, confidence }
    }

    /// Criterion 3 at the given confidence.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not in `(0, 1)`.
    pub fn better_than_old(confidence: f64) -> SwitchCriterion {
        check_confidence(confidence);
        SwitchCriterion::BetterThanOld { confidence }
    }

    /// Evaluates the criterion against the assessment inputs. Accepts
    /// any posterior shape — owned grids or the incremental updater's
    /// borrowed views.
    pub fn satisfied(
        &self,
        prior_a: &ScaledBeta,
        marginal_a: &impl PosteriorQueries,
        marginal_b: &impl PosteriorQueries,
    ) -> bool {
        match *self {
            SwitchCriterion::ReachPriorOfOld { confidence } => {
                let x = prior_a.quantile(confidence);
                marginal_b.confidence(x) >= confidence
            }
            SwitchCriterion::ReachTarget { target, confidence } => {
                marginal_b.confidence(target) >= confidence
            }
            SwitchCriterion::BetterThanOld { confidence } => {
                marginal_b.percentile(confidence) <= marginal_a.percentile(confidence)
            }
        }
    }

    /// A short label used in experiment reports.
    pub fn label(&self) -> String {
        match self {
            SwitchCriterion::ReachPriorOfOld { confidence } => {
                format!("criterion-1(c={confidence})")
            }
            SwitchCriterion::ReachTarget { target, confidence } => {
                format!("criterion-2(target={target}, c={confidence})")
            }
            SwitchCriterion::BetterThanOld { confidence } => {
                format!("criterion-3(c={confidence})")
            }
        }
    }
}

fn check_confidence(confidence: f64) {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence {confidence} not in (0, 1)"
    );
}

/// The decision produced by one assessment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchDecision {
    /// Keep running the managed upgrade.
    KeepTransitional,
    /// The criterion is met: switch to the new release.
    SwitchToNew,
}

/// A guard that *aborts* the upgrade when the evidence says the new
/// release is worse than the old one — the rollback counterpart of the
/// switching criteria. (The paper only switches *forward*; modern
/// canary systems make this guard explicit, and the architecture
/// supports it for free: the middleware simply phases the new release
/// out instead of the old.)
///
/// The test is deliberately conservative: abort only when B's *lower*
/// `(1 − c)` percentile exceeds A's *upper* `c` percentile — i.e. with
/// confidence at least `c` on each side, B's pfd exceeds A's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbortPolicy {
    /// The confidence level `c` (e.g. 0.99).
    pub confidence: f64,
}

impl AbortPolicy {
    /// Creates an abort policy.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not in `(0, 1)`.
    pub fn new(confidence: f64) -> AbortPolicy {
        check_confidence(confidence);
        AbortPolicy { confidence }
    }

    /// Returns `true` if the upgrade should be aborted.
    pub fn should_abort(
        &self,
        marginal_a: &impl PosteriorQueries,
        marginal_b: &impl PosteriorQueries,
    ) -> bool {
        marginal_b.percentile(1.0 - self.confidence) > marginal_a.percentile(self.confidence)
    }
}

/// One assessment of the managed upgrade's state.
#[derive(Debug, Clone)]
pub struct Assessment {
    /// Demands the assessment is based on.
    pub demands: u64,
    /// Posterior marginal over the old release's pfd.
    pub marginal_a: GridPosterior,
    /// Posterior marginal over the new release's pfd.
    pub marginal_b: GridPosterior,
    /// The decision under the configured criterion.
    pub decision: SwitchDecision,
}

/// A borrowed assessment from the incremental engine: the marginals are
/// views over the updater's cached buffers, so producing one performs no
/// heap allocation. Materialise with [`AssessmentView::to_owned`] when
/// the marginals must outlive the subsystem borrow.
#[derive(Debug, Clone, Copy)]
pub struct AssessmentView<'a> {
    /// Demands the assessment is based on.
    pub demands: u64,
    /// Posterior marginal over the old release's pfd.
    pub marginal_a: MarginalView<'a>,
    /// Posterior marginal over the new release's pfd.
    pub marginal_b: MarginalView<'a>,
    /// The decision under the configured criterion.
    pub decision: SwitchDecision,
}

impl AssessmentView<'_> {
    /// Materialises the borrowed marginals into an owned [`Assessment`]
    /// that can outlive the subsystem borrow.
    pub fn to_owned(&self) -> Assessment {
        Assessment {
            demands: self.demands,
            marginal_a: self.marginal_a.to_posterior(),
            marginal_b: self.marginal_b.to_posterior(),
            decision: self.decision,
        }
    }
}

/// Automatic recovery of failed releases (Section 4.1's "recovery of the
/// failed releases").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Suspend a release after this many consecutive evident failures.
    pub suspend_after: u32,
    /// Restart suspended releases automatically on the next sweep.
    pub auto_restart: bool,
}

impl Default for RecoveryPolicy {
    /// Suspend after 10 consecutive evident failures; restart
    /// automatically.
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            suspend_after: 10,
            auto_restart: true,
        }
    }
}

/// A recovery action taken during a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The release was suspended.
    Suspended(ReleaseId),
    /// The release was restarted.
    Restarted(ReleaseId),
}

/// What a fleet orchestrator does with a release that keeps failing,
/// *beyond* the per-sweep suspend/restart of [`RecoveryPolicy`].
///
/// [`RecoveryPolicy`] handles transient streaks; the strategy decides
/// what to do when an incident is declared (streak threshold hit, or
/// the canary's windowed fault rate degrades past its rollback rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryStrategy {
    /// Suspend the failing release and restart it in place — the
    /// paper's own "recovery of the failed releases" (Section 4.1).
    /// Cheap, but a persistent fault keeps reopening the incident.
    RestartInPlace,
    /// Phase the failing canary out permanently and restore the
    /// upstream stable release's traffic weight. The canary chain halts
    /// at the demoted stage.
    DemoteAndRollback,
    /// Phase the failing canary out and bind a functionally-equivalent
    /// substitute from the service registry as a stand-in release for
    /// the same stage (atomic replacement, à la Saboohi & Kareem).
    /// Falls back to [`RecoveryStrategy::DemoteAndRollback`] when no
    /// substitute is available.
    Substitute,
}

impl RecoveryStrategy {
    /// A short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryStrategy::RestartInPlace => "restart",
            RecoveryStrategy::DemoteAndRollback => "rollback",
            RecoveryStrategy::Substitute => "substitute",
        }
    }

    /// All strategies, in table order.
    pub fn all() -> [RecoveryStrategy; 3] {
        [
            RecoveryStrategy::RestartInPlace,
            RecoveryStrategy::DemoteAndRollback,
            RecoveryStrategy::Substitute,
        ]
    }
}

/// The management subsystem: owns the inference engine, the switching
/// criterion and the recovery policy.
#[derive(Debug, Clone)]
pub struct ManagementSubsystem {
    inference: WhiteBoxInference,
    /// Incremental engine for the per-interval assessment hot path; the
    /// batch [`ManagementSubsystem::assess`] stays available for ad-hoc
    /// queries.
    updater: PosteriorUpdater,
    criterion: SwitchCriterion,
    recovery: Option<RecoveryPolicy>,
    metrics: Option<SharedRegistry>,
    handles: AssessmentMetricHandles,
}

/// Lazily resolved ids of the per-assessment metric series. Each id is
/// resolved on the first write that creates its series, so the exported
/// series — and their order in rendered snapshots — match the
/// String-keyed writes exactly; afterwards a write is an array index.
/// Cells, because the batch [`ManagementSubsystem::assess`] records
/// through `&self`.
#[derive(Debug, Clone, Default)]
struct AssessmentMetricHandles {
    assessments: Cell<Option<CounterId>>,
    /// `wsu_posterior_p99` for the old and the new release.
    p99: [Cell<Option<GaugeId>>; 2],
    /// `wsu_criterion_evaluations_total` for `switch` and `keep`.
    evaluations: [Cell<Option<CounterId>>; 2],
}

/// The id in `slot`, resolving it with `resolve` on first use.
fn resolved<T: Copy>(slot: &Cell<Option<T>>, resolve: impl FnOnce() -> T) -> T {
    if let Some(id) = slot.get() {
        return id;
    }
    let id = resolve();
    slot.set(Some(id));
    id
}

impl ManagementSubsystem {
    /// Creates a management subsystem with the default grid resolution.
    pub fn new(
        prior_a: ScaledBeta,
        prior_b: ScaledBeta,
        coincidence: CoincidencePrior,
        criterion: SwitchCriterion,
    ) -> ManagementSubsystem {
        ManagementSubsystem::with_resolution(
            prior_a,
            prior_b,
            coincidence,
            criterion,
            Resolution::default(),
        )
    }

    /// Creates a management subsystem with an explicit grid resolution.
    pub fn with_resolution(
        prior_a: ScaledBeta,
        prior_b: ScaledBeta,
        coincidence: CoincidencePrior,
        criterion: SwitchCriterion,
        resolution: Resolution,
    ) -> ManagementSubsystem {
        let inference =
            WhiteBoxInference::with_resolution(prior_a, prior_b, coincidence, resolution);
        let updater = inference.updater();
        ManagementSubsystem {
            inference,
            updater,
            criterion,
            recovery: Some(RecoveryPolicy::default()),
            metrics: None,
            handles: AssessmentMetricHandles::default(),
        }
    }

    /// Routes assessment metrics into a shared registry
    /// (`wsu_assessments_total`, `wsu_criterion_evaluations_total` and
    /// the `wsu_posterior_p99` gauges).
    pub fn set_metrics(&mut self, metrics: SharedRegistry) {
        self.metrics = Some(metrics);
        // Resolved ids index into the previous registry.
        self.handles = AssessmentMetricHandles::default();
    }

    /// Counts an *executed* switching decision (a switch or an abort)
    /// in the attached registry, if any.
    pub fn count_decision(&self, decision: &str) {
        if let Some(metrics) = &self.metrics {
            metrics.inc_counter("wsu_switch_decisions_total", &[("decision", decision)]);
        }
    }

    /// The configured criterion.
    pub fn criterion(&self) -> SwitchCriterion {
        self.criterion
    }

    /// Replaces the switching criterion (a run-time knob of the test
    /// harness).
    pub fn set_criterion(&mut self, criterion: SwitchCriterion) {
        self.criterion = criterion;
    }

    /// The recovery policy, if enabled.
    pub fn recovery_policy(&self) -> Option<RecoveryPolicy> {
        self.recovery
    }

    /// Enables, replaces or disables the recovery policy.
    pub fn set_recovery_policy(&mut self, policy: Option<RecoveryPolicy>) {
        self.recovery = policy;
    }

    /// The inference engine (for custom queries).
    pub fn inference(&self) -> &WhiteBoxInference {
        &self.inference
    }

    /// Assesses the upgrade against the observed joint counts by
    /// rebuilding the posterior from scratch (the batch path).
    pub fn assess(&self, counts: &JointCounts) -> Assessment {
        let posterior = self.inference.posterior(counts);
        let marginal_a = posterior.marginal_a();
        let marginal_b = posterior.marginal_b();
        let decision =
            if self
                .criterion
                .satisfied(&self.inference.prior_a(), &marginal_a, &marginal_b)
            {
                SwitchDecision::SwitchToNew
            } else {
                SwitchDecision::KeepTransitional
            };
        self.record_assessment_metrics(marginal_a.as_view(), marginal_b.as_view(), decision);
        Assessment {
            demands: counts.demands(),
            marginal_a,
            marginal_b,
            decision,
        }
    }

    /// Assesses the upgrade via the incremental engine: the posterior is
    /// recomputed in place into the updater's reusable buffers and the
    /// returned marginals are borrowed views — no per-assessment grid
    /// allocation. This is the hot path [`crate::upgrade::ManagedUpgrade`]
    /// uses on its assessment cadence.
    ///
    /// Assessments drive switch/abort decisions by comparing percentiles
    /// against thresholds, so this uses the exact [`PosteriorUpdater::rebase`]
    /// recompute rather than the delta path: a near-threshold seed must
    /// decide bit-for-bit identically to the batch `assess`.
    pub fn assess_incremental(&mut self, counts: &JointCounts) -> AssessmentView<'_> {
        self.updater.rebase(counts);
        let (marginal_a, marginal_b) = (self.updater.marginal_a(), self.updater.marginal_b());
        let decision =
            if self
                .criterion
                .satisfied(&self.inference.prior_a(), &marginal_a, &marginal_b)
            {
                SwitchDecision::SwitchToNew
            } else {
                SwitchDecision::KeepTransitional
            };
        self.record_assessment_metrics(marginal_a, marginal_b, decision);
        AssessmentView {
            demands: counts.demands(),
            marginal_a,
            marginal_b,
            decision,
        }
    }

    /// Counts the assessment and publishes both marginals' p99s, which
    /// are computed only when a registry is attached.
    fn record_assessment_metrics(
        &self,
        marginal_a: MarginalView<'_>,
        marginal_b: MarginalView<'_>,
        decision: SwitchDecision,
    ) {
        let Some(metrics) = &self.metrics else {
            return;
        };
        let handles = &self.handles;
        let id = resolved(&handles.assessments, || {
            metrics.counter_id("wsu_assessments_total", &[])
        });
        metrics.inc_counter_id(id);
        let p99s = [
            ("old", marginal_a.percentile(0.99)),
            ("new", marginal_b.percentile(0.99)),
        ];
        for (slot, (release, p99)) in handles.p99.iter().zip(p99s) {
            let id = resolved(slot, || {
                metrics.gauge_id("wsu_posterior_p99", &[("release", release)])
            });
            metrics.set_gauge_id(id, p99);
        }
        let (slot, label) = match decision {
            SwitchDecision::SwitchToNew => (&handles.evaluations[0], "switch"),
            SwitchDecision::KeepTransitional => (&handles.evaluations[1], "keep"),
        };
        let id = resolved(slot, || {
            metrics.counter_id("wsu_criterion_evaluations_total", &[("decision", label)])
        });
        metrics.inc_counter_id(id);
    }

    /// Applies the recovery policy to the release set, suspending
    /// releases with long evident-failure streaks and restarting
    /// suspended ones (when `auto_restart`).
    ///
    /// # Errors
    ///
    /// Propagates release-set errors (none are expected for ids obtained
    /// from the set itself).
    pub fn apply_recovery(
        &self,
        releases: &mut ReleaseSet,
    ) -> Result<Vec<RecoveryAction>, CoreError> {
        let Some(policy) = self.recovery else {
            return Ok(Vec::new());
        };
        let mut actions = Vec::new();
        // By index rather than through `infos()`: this sweep runs before
        // every demand and must not allocate when there is nothing to do.
        for id in (0..releases.len()).map(ReleaseId::new) {
            match releases.state(id)? {
                ReleaseState::Active => {
                    let streak = releases.consecutive_evident_failures(id)?;
                    if streak >= policy.suspend_after {
                        releases.suspend(id)?;
                        actions.push(RecoveryAction::Suspended(id));
                    }
                }
                ReleaseState::Suspended if policy.auto_restart => {
                    releases.restart(id)?;
                    actions.push(RecoveryAction::Restarted(id));
                }
                _ => {}
            }
        }
        // Recovery must never leave the middleware unable to serve: if
        // the sweep just suspended the last active release(s) — e.g. a
        // correlated burst after an abort already phased one release out
        // — restart the suspended ones immediately instead of waiting a
        // demand.
        if policy.auto_restart && releases.active_slice().is_empty() {
            for id in (0..releases.len()).map(ReleaseId::new) {
                if releases.state(id)? == ReleaseState::Suspended {
                    releases.restart(id)?;
                    actions.push(RecoveryAction::Restarted(id));
                }
            }
        }
        Ok(actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_bayes::whitebox::Resolution;
    use wsu_wstack::endpoint::SyntheticService;
    use wsu_wstack::outcome::OutcomeProfile;

    fn small_res() -> Resolution {
        Resolution {
            a_cells: 40,
            b_cells: 40,
            q_cells: 10,
        }
    }

    fn scenario1_manager(criterion: SwitchCriterion) -> ManagementSubsystem {
        ManagementSubsystem::with_resolution(
            ScaledBeta::new(20.0, 20.0, 0.002).unwrap(),
            ScaledBeta::new(2.0, 3.0, 0.002).unwrap(),
            CoincidencePrior::IndifferenceUniform,
            criterion,
            small_res(),
        )
    }

    #[test]
    fn criterion1_needs_evidence() {
        let mgr = scenario1_manager(SwitchCriterion::reach_prior_of_old(0.99));
        // No evidence: prior of B is too loose to match A's tight prior.
        let a0 = mgr.assess(&JointCounts::new());
        assert_eq!(a0.decision, SwitchDecision::KeepTransitional);
        // Long clean run: B's posterior tightens below A's prior P99.
        let clean = JointCounts::from_raw(100_000, 0, 0, 0);
        let a1 = mgr.assess(&clean);
        assert_eq!(a1.decision, SwitchDecision::SwitchToNew);
        assert_eq!(a1.demands, 100_000);
    }

    #[test]
    fn criterion2_tracks_explicit_target() {
        let mgr = scenario1_manager(SwitchCriterion::reach_target(1e-3, 0.99));
        assert_eq!(
            mgr.assess(&JointCounts::new()).decision,
            SwitchDecision::KeepTransitional
        );
        // Many failures of B keep the criterion unmet.
        let dirty = JointCounts::from_raw(20_000, 0, 0, 200);
        assert_eq!(
            mgr.assess(&dirty).decision,
            SwitchDecision::KeepTransitional
        );
        // A long clean run meets it.
        let clean = JointCounts::from_raw(100_000, 0, 0, 0);
        assert_eq!(mgr.assess(&clean).decision, SwitchDecision::SwitchToNew);
    }

    #[test]
    fn criterion3_compares_percentiles() {
        let mgr = scenario1_manager(SwitchCriterion::better_than_old(0.99));
        let clean = JointCounts::from_raw(60_000, 0, 0, 0);
        let assessment = mgr.assess(&clean);
        assert!(assessment.marginal_b.percentile(0.99) <= assessment.marginal_a.percentile(0.99));
        assert_eq!(assessment.decision, SwitchDecision::SwitchToNew);
        // B failing often: criterion unmet.
        let dirty = JointCounts::from_raw(10_000, 0, 0, 300);
        assert_eq!(
            mgr.assess(&dirty).decision,
            SwitchDecision::KeepTransitional
        );
    }

    #[test]
    fn criterion_labels() {
        assert!(SwitchCriterion::reach_prior_of_old(0.99)
            .label()
            .contains("criterion-1"));
        assert!(SwitchCriterion::reach_target(1e-3, 0.99)
            .label()
            .contains("criterion-2"));
        assert!(SwitchCriterion::better_than_old(0.9)
            .label()
            .contains("criterion-3"));
    }

    #[test]
    fn criterion_setters() {
        let mut mgr = scenario1_manager(SwitchCriterion::better_than_old(0.99));
        mgr.set_criterion(SwitchCriterion::reach_target(1e-3, 0.9));
        assert_eq!(
            mgr.criterion(),
            SwitchCriterion::ReachTarget {
                target: 1e-3,
                confidence: 0.9
            }
        );
        assert!(mgr.recovery_policy().is_some());
        mgr.set_recovery_policy(None);
        assert!(mgr.recovery_policy().is_none());
    }

    #[test]
    fn assessment_metrics_flow_into_the_registry() {
        let mut mgr = scenario1_manager(SwitchCriterion::better_than_old(0.99));
        let registry = SharedRegistry::new();
        mgr.set_metrics(registry.clone());
        mgr.assess(&JointCounts::new());
        mgr.assess(&JointCounts::from_raw(60_000, 0, 0, 0));
        mgr.count_decision("switch");
        registry.with(|r| {
            assert_eq!(r.counter("wsu_assessments_total", &[]), 2);
            assert_eq!(
                r.counter("wsu_criterion_evaluations_total", &[("decision", "keep")]),
                1
            );
            assert_eq!(
                r.counter("wsu_criterion_evaluations_total", &[("decision", "switch")]),
                1
            );
            assert_eq!(
                r.counter("wsu_switch_decisions_total", &[("decision", "switch")]),
                1
            );
            let old = r.gauge("wsu_posterior_p99", &[("release", "old")]).unwrap();
            let new = r.gauge("wsu_posterior_p99", &[("release", "new")]).unwrap();
            assert!(old > 0.0 && new > 0.0);
        });
    }

    #[test]
    fn recovery_suspends_and_restarts() {
        let mut mgr = scenario1_manager(SwitchCriterion::better_than_old(0.99));
        mgr.set_recovery_policy(Some(RecoveryPolicy {
            suspend_after: 3,
            auto_restart: true,
        }));
        let mut releases = ReleaseSet::new();
        let bad = releases.deploy(
            SyntheticService::builder("Svc", "1.0")
                .outcomes(OutcomeProfile::new(0.0, 1.0, 0.0))
                .build(),
        );
        // A healthy second release keeps the set serving while `bad` is
        // suspended (a lone release would be restarted immediately).
        let _good = releases.deploy(SyntheticService::builder("Svc", "2.0").build());
        let mut rng = wsu_simcore::rng::StreamRng::from_seed(1);
        for _ in 0..3 {
            releases
                .invoke(
                    bad,
                    &wsu_wstack::message::Envelope::request("invoke"),
                    0.0,
                    &mut rng,
                )
                .unwrap();
        }
        let actions = mgr.apply_recovery(&mut releases).unwrap();
        assert_eq!(actions, vec![RecoveryAction::Suspended(bad)]);
        assert_eq!(releases.state(bad).unwrap(), ReleaseState::Suspended);
        // Next sweep restarts it.
        let actions = mgr.apply_recovery(&mut releases).unwrap();
        assert_eq!(actions, vec![RecoveryAction::Restarted(bad)]);
        assert_eq!(releases.state(bad).unwrap(), ReleaseState::Active);
    }

    #[test]
    fn recovery_never_strands_the_release_set() {
        let mut mgr = scenario1_manager(SwitchCriterion::better_than_old(0.99));
        mgr.set_recovery_policy(Some(RecoveryPolicy {
            suspend_after: 3,
            auto_restart: true,
        }));
        let mut releases = ReleaseSet::new();
        let bad = releases.deploy(
            SyntheticService::builder("Svc", "1.0")
                .outcomes(OutcomeProfile::new(0.0, 1.0, 0.0))
                .build(),
        );
        let mut rng = wsu_simcore::rng::StreamRng::from_seed(1);
        for _ in 0..3 {
            releases
                .invoke(
                    bad,
                    &wsu_wstack::message::Envelope::request("invoke"),
                    0.0,
                    &mut rng,
                )
                .unwrap();
        }
        // Suspending the only active release would leave nothing to
        // serve the next demand, so the same sweep restarts it.
        let actions = mgr.apply_recovery(&mut releases).unwrap();
        assert_eq!(
            actions,
            vec![
                RecoveryAction::Suspended(bad),
                RecoveryAction::Restarted(bad)
            ]
        );
        assert_eq!(releases.state(bad).unwrap(), ReleaseState::Active);
    }

    /// Deploys `n` releases that fail every demand with an evident
    /// error, then drives `streak` demands through each so every one of
    /// them carries a suspension-worthy failure streak.
    fn burst_fleet(n: usize, streak: u32) -> (ReleaseSet, Vec<ReleaseId>) {
        let mut releases = ReleaseSet::new();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                releases.deploy(
                    SyntheticService::builder("Svc", &format!("1.{i}"))
                        .outcomes(OutcomeProfile::new(0.0, 1.0, 0.0))
                        .build(),
                )
            })
            .collect();
        let mut rng = wsu_simcore::rng::StreamRng::from_seed(7);
        for &id in &ids {
            for _ in 0..streak {
                releases
                    .invoke(
                        id,
                        &wsu_wstack::message::Envelope::request("invoke"),
                        0.0,
                        &mut rng,
                    )
                    .unwrap();
            }
        }
        (releases, ids)
    }

    #[test]
    fn correlated_burst_on_a_three_fleet_restarts_every_release() {
        // Regression: the zero-active rescue path used to be exercised
        // only with a single release. A correlated burst that earns all
        // three releases a suspension in the same sweep must restart
        // all of them — deterministically, in deployment order — not
        // panic or bring back only index 0.
        let mut mgr = scenario1_manager(SwitchCriterion::better_than_old(0.99));
        mgr.set_recovery_policy(Some(RecoveryPolicy {
            suspend_after: 3,
            auto_restart: true,
        }));
        let (mut releases, ids) = burst_fleet(3, 3);
        let actions = mgr.apply_recovery(&mut releases).unwrap();
        let expected: Vec<RecoveryAction> = ids
            .iter()
            .map(|&id| RecoveryAction::Suspended(id))
            .chain(ids.iter().map(|&id| RecoveryAction::Restarted(id)))
            .collect();
        assert_eq!(actions, expected);
        for &id in &ids {
            assert_eq!(releases.state(id).unwrap(), ReleaseState::Active);
        }
    }

    #[test]
    fn zero_active_rescue_restarts_all_survivors_not_just_the_first() {
        // 4-release fleet where one release was already phased out (an
        // aborted upgrade): a burst suspending the remaining three must
        // restart exactly those three and leave the phased-out release
        // untouched.
        let mut mgr = scenario1_manager(SwitchCriterion::better_than_old(0.99));
        mgr.set_recovery_policy(Some(RecoveryPolicy {
            suspend_after: 3,
            auto_restart: true,
        }));
        let (mut releases, ids) = burst_fleet(4, 3);
        releases.phase_out(ids[1]).unwrap();
        let survivors = [ids[0], ids[2], ids[3]];
        let actions = mgr.apply_recovery(&mut releases).unwrap();
        let expected: Vec<RecoveryAction> = survivors
            .iter()
            .map(|&id| RecoveryAction::Suspended(id))
            .chain(survivors.iter().map(|&id| RecoveryAction::Restarted(id)))
            .collect();
        assert_eq!(actions, expected);
        for &id in &survivors {
            assert_eq!(releases.state(id).unwrap(), ReleaseState::Active);
        }
        assert_eq!(releases.state(ids[1]).unwrap(), ReleaseState::PhasedOut);
        assert_eq!(releases.active_slice().len(), 3);
    }

    #[test]
    fn zero_active_rescue_without_auto_restart_leaves_the_fleet_suspended() {
        // The rescue is explicitly gated on `auto_restart`: a policy
        // without it suspends all three and stops — no panic, no
        // implicit restart.
        let mut mgr = scenario1_manager(SwitchCriterion::better_than_old(0.99));
        mgr.set_recovery_policy(Some(RecoveryPolicy {
            suspend_after: 3,
            auto_restart: false,
        }));
        let (mut releases, ids) = burst_fleet(3, 3);
        let actions = mgr.apply_recovery(&mut releases).unwrap();
        let expected: Vec<RecoveryAction> = ids
            .iter()
            .map(|&id| RecoveryAction::Suspended(id))
            .collect();
        assert_eq!(actions, expected);
        assert!(releases.active_slice().is_empty());
        for &id in &ids {
            assert_eq!(releases.state(id).unwrap(), ReleaseState::Suspended);
        }
    }

    #[test]
    fn recovery_disabled_is_a_no_op() {
        let mut mgr = scenario1_manager(SwitchCriterion::better_than_old(0.99));
        mgr.set_recovery_policy(None);
        let mut releases = ReleaseSet::new();
        releases.deploy(SyntheticService::builder("Svc", "1.0").build());
        assert!(mgr.apply_recovery(&mut releases).unwrap().is_empty());
    }

    #[test]
    fn recovery_strategy_labels() {
        assert_eq!(RecoveryStrategy::RestartInPlace.label(), "restart");
        assert_eq!(RecoveryStrategy::DemoteAndRollback.label(), "rollback");
        assert_eq!(RecoveryStrategy::Substitute.label(), "substitute");
        assert_eq!(RecoveryStrategy::all().len(), 3);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn rejects_bad_confidence() {
        let _ = SwitchCriterion::better_than_old(1.0);
    }

    #[test]
    #[should_panic(expected = "target")]
    fn rejects_bad_target() {
        let _ = SwitchCriterion::reach_target(0.0, 0.9);
    }
}
