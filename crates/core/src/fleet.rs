//! Staged canary fleets: N concurrent releases with weighted routing,
//! ramped promotion, automatic rollback and pluggable recovery.
//!
//! The paper's architecture explicitly allows "one or more old releases
//! being kept operational". This module generalises the two-release
//! managed upgrade ([`crate::upgrade::ManagedUpgrade`]) to an N-release
//! **canary chain**: a stable release serves most of the traffic while
//! one in-flight canary takes a small weighted slice
//! ([`crate::modes::OperatingMode::WeightedFleet`]); the canary's pfd
//! posterior (black-box Bayes, [`wsu_bayes::blackbox`]) gates a weight
//! ramp, and reaching full weight **promotes** it to stable — at which
//! point the next pending stage is deployed as the new canary.
//!
//! When a canary degrades instead — an evident-failure streak or a
//! windowed fault rate past the rollback rule — the configured
//! [`RecoveryStrategy`] decides what happens:
//!
//! * **restart-in-place** — the paper's own recovery: suspend, restart,
//!   keep ramping (cheap, but a persistent fault re-opens the incident);
//! * **demote-and-rollback** — phase the canary out permanently and
//!   restore the stable release's full weight (the chain halts);
//! * **substitute** — phase the canary out and bind a
//!   functionally-equivalent stand-in from the service registry
//!   ([`SubstitutePool`]) as a replacement canary for the same stage —
//!   atomic replacement, à la Saboohi & Kareem.
//!
//! Every incident opens a **recovery probe** over the next
//! [`ProbeRule::window`] demands; the incident counts as *recovered* iff
//! the probe's availability reaches the threshold and no further
//! incident lands inside the probe. `recovered / incidents` is the
//! recovery probability the `fleetstudy` experiment tabulates per
//! (fleet size × recovery strategy) cell.
//!
//! Determinism contract: given a [`MasterSeed`], a fleet run is
//! bit-reproducible — demands draw from one derived stream, promotion
//! and rollback decisions are pure functions of observed counts, and
//! substitution picks registry candidates in key order.

use std::collections::VecDeque;
use std::sync::OnceLock;

use wsu_bayes::beta::ScaledBeta;
use wsu_bayes::blackbox::{BlackBoxInference, BlackBoxUpdater};
use wsu_obs::fleet::FleetGauges;
use wsu_obs::{NullRecorder, Recorder, SharedRegistry, TraceEvent};
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_wstack::endpoint::ServiceEndpoint;
use wsu_wstack::message::Envelope;
use wsu_wstack::outcome::ResponseClass;
use wsu_wstack::registry::{Registry, ServiceKey, ServiceRecord};

use crate::adjudicate::SystemVerdict;
use crate::manage::RecoveryStrategy;
use crate::middleware::{MiddlewareConfig, UpgradeMiddleware};
use crate::modes::OperatingMode;
use crate::release::{ReleaseId, ReleaseInfo, ReleaseState};

/// How a canary's traffic weight grows while it proves itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightRamp {
    /// The canary's starting weight share (e.g. `0.1`).
    pub initial: f64,
    /// Weight added on each passing assessment.
    pub step: f64,
    /// The share at which the canary is promoted to stable.
    pub full: f64,
}

impl Default for WeightRamp {
    /// 10% initial, +15% per passing assessment, promote at 100%.
    fn default() -> WeightRamp {
        WeightRamp {
            initial: 0.1,
            step: 0.15,
            full: 1.0,
        }
    }
}

/// When a canary's assessment passes: confidence that its pfd is at or
/// below `target_pfd` must reach `confidence`, with at least
/// `min_demands` canary demands observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PromotionRule {
    /// The pfd target the canary must meet (e.g. `1e-2`).
    pub target_pfd: f64,
    /// Required posterior confidence `P(pfd ≤ target) ≥ confidence`.
    pub confidence: f64,
    /// Minimum canary demands before any assessment can pass.
    pub min_demands: u64,
}

impl Default for PromotionRule {
    /// `P(pfd ≤ 0.02) ≥ 0.9` after at least 50 canary demands.
    fn default() -> PromotionRule {
        PromotionRule {
            target_pfd: 0.02,
            confidence: 0.9,
            min_demands: 50,
        }
    }
}

/// When a canary is forcibly recovered: its fault rate over the last
/// `window` canary demands exceeds `max_fault_rate` (checked once the
/// window has filled), or its evident-failure streak reaches the
/// orchestrator's `suspend_after`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollbackRule {
    /// Size of the sliding canary-demand window.
    pub window: u64,
    /// Fault-rate threshold over the window.
    pub max_fault_rate: f64,
}

impl Default for RollbackRule {
    /// More than 25% faults over the last 40 canary demands.
    fn default() -> RollbackRule {
        RollbackRule {
            window: 40,
            max_fault_rate: 0.25,
        }
    }
}

/// How an incident's recovery is judged: over the `window` demands after
/// the recovery action, system availability must reach
/// `min_availability` and no further incident may land.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRule {
    /// Probe length, in demands.
    pub window: u64,
    /// Required availability inside the probe.
    pub min_availability: f64,
}

impl Default for ProbeRule {
    /// 95% availability over the 50 demands after the incident.
    fn default() -> ProbeRule {
        ProbeRule {
            window: 50,
            min_availability: 0.95,
        }
    }
}

/// The default [`FleetPlan::posterior_cells`].
const DEFAULT_POSTERIOR_CELLS: usize = 400;

/// The full description of a staged canary chain: middleware settings,
/// ramp/promotion/rollback rules, the recovery strategy and the
/// assessment cadence. Endpoints are supplied separately to
/// [`FleetOrchestrator::new`] (they are not `Clone`).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// Middleware settings; the mode is forced to
    /// [`OperatingMode::WeightedFleet`].
    pub middleware: MiddlewareConfig,
    /// Demands between canary assessments.
    pub assess_interval: u64,
    /// The canary weight ramp.
    pub ramp: WeightRamp,
    /// The per-stage promotion criterion.
    pub promotion: PromotionRule,
    /// The canary rollback rule.
    pub rollback: RollbackRule,
    /// The recovery probe rule.
    pub probe: ProbeRule,
    /// What to do with a degraded canary.
    pub strategy: RecoveryStrategy,
    /// Suspend any release after this many (at least one) consecutive
    /// evident failures: the paper's recovery threshold, fleet-wide.
    pub suspend_after: u32,
    /// Phase the demoted stable out on promotion instead of keeping it
    /// as a zero-weight hot standby.
    pub retire_on_promote: bool,
    /// Grid cells for the canary's black-box posterior.
    pub posterior_cells: usize,
}

impl Default for FleetPlan {
    fn default() -> FleetPlan {
        FleetPlan {
            middleware: MiddlewareConfig {
                mode: OperatingMode::WeightedFleet,
                ..MiddlewareConfig::default()
            },
            assess_interval: 100,
            ramp: WeightRamp::default(),
            promotion: PromotionRule::default(),
            rollback: RollbackRule::default(),
            probe: ProbeRule::default(),
            strategy: RecoveryStrategy::RestartInPlace,
            suspend_after: 10,
            retire_on_promote: false,
            posterior_cells: DEFAULT_POSTERIOR_CELLS,
        }
    }
}

impl FleetPlan {
    /// The default plan with the given recovery strategy.
    pub fn with_strategy(strategy: RecoveryStrategy) -> FleetPlan {
        FleetPlan {
            strategy,
            ..FleetPlan::default()
        }
    }
}

/// A pool of functionally-equivalent stand-in releases, backed by the
/// UDDI-like registry: each candidate is a published [`ServiceRecord`]
/// *plus* the live endpoint to bind if it is acquired. Acquisition
/// consults [`Registry::find_equivalent`] — same category, different
/// service name, key order — so substitution is deterministic.
#[derive(Default)]
pub struct SubstitutePool {
    registry: Registry,
    stash: Vec<(ServiceKey, Box<dyn ServiceEndpoint>)>,
}

impl SubstitutePool {
    /// An empty pool.
    pub fn new() -> SubstitutePool {
        SubstitutePool::default()
    }

    /// Publishes a candidate record and stashes its endpoint.
    pub fn register(
        &mut self,
        record: ServiceRecord,
        endpoint: Box<dyn ServiceEndpoint>,
    ) -> ServiceKey {
        let key = self.registry.publish(record);
        self.stash.push((key, endpoint));
        key
    }

    /// The backing registry (for lookups and confidence publishing).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Candidates still available.
    pub fn available(&self) -> usize {
        self.stash.len()
    }

    /// Acquires the first (key-ordered) equivalent candidate: same
    /// `category`, service name differing from `exclude_name`. The
    /// record is withdrawn from the registry and the endpoint handed to
    /// the caller.
    pub fn acquire(
        &mut self,
        category: &str,
        exclude_name: &str,
    ) -> Option<(ServiceRecord, Box<dyn ServiceEndpoint>)> {
        let key = self
            .registry
            .find_equivalent(category, exclude_name)
            .iter()
            .map(|(k, _)| *k)
            .find(|k| self.stash.iter().any(|(sk, _)| sk == k))?;
        let record = self.registry.withdraw(key).expect("candidate is published");
        let at = self
            .stash
            .iter()
            .position(|(sk, _)| *sk == key)
            .expect("stash tracks published candidates");
        let (_, endpoint) = self.stash.remove(at);
        Some((record, endpoint))
    }
}

impl std::fmt::Debug for SubstitutePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubstitutePool")
            .field("available", &self.available())
            .finish()
    }
}

/// Fleet-level counters, snapshotable at any time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Demands served.
    pub demands: u64,
    /// Demands answered within the timeout.
    pub available: u64,
    /// Demands answered correctly.
    pub correct: u64,
    /// Incidents declared (streak or windowed fault rate).
    pub incidents: u64,
    /// Incidents whose recovery probe succeeded.
    pub recovered: u64,
    /// Canary promotions.
    pub promotions: u64,
    /// Canary demotions (rollbacks), including substitute fallbacks.
    pub rollbacks: u64,
    /// Atomic substitutions bound.
    pub substitutions: u64,
}

impl FleetStats {
    /// Fraction of demands answered within the timeout.
    pub fn availability(&self) -> f64 {
        if self.demands == 0 {
            return 1.0;
        }
        self.available as f64 / self.demands as f64
    }

    /// `recovered / incidents`; `None` when no incident was declared.
    /// Probes still open when the run ends count as not recovered.
    pub fn recovery_probability(&self) -> Option<f64> {
        if self.incidents == 0 {
            return None;
        }
        Some(self.recovered as f64 / self.incidents as f64)
    }
}

/// The canary's public state within a [`FleetStatus`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanaryStatus {
    /// The canary's release id.
    pub id: ReleaseId,
    /// Its chain stage (the initial stable release is stage 0).
    pub stage: usize,
    /// Its current traffic weight share.
    pub weight: f64,
    /// Demands routed to it so far.
    pub demands: u64,
    /// Failures (any non-correct outcome or timeout) among those.
    pub failures: u64,
}

/// A snapshot of the whole fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStatus {
    /// The current stable release.
    pub stable: ReleaseId,
    /// The stable release's traffic weight share.
    pub stable_weight: f64,
    /// The in-flight canary, if any.
    pub canary: Option<CanaryStatus>,
    /// Stages not yet deployed.
    pub pending_stages: usize,
    /// `true` once a rollback has halted the chain.
    pub chain_halted: bool,
    /// Fleet counters.
    pub stats: FleetStats,
    /// Per-release metadata, in deployment order.
    pub releases: Vec<ReleaseInfo>,
    /// Virtual time, in seconds.
    pub virtual_time: f64,
}

/// The consumer-visible outcome of one fleet demand (`Copy`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetDemand {
    /// Demand sequence number.
    pub seq: u64,
    /// The release the demand was routed to.
    pub release: ReleaseId,
    /// The adjudicated verdict.
    pub verdict: SystemVerdict,
    /// `true` if the routed release's response counted as a failure
    /// (non-correct class or timeout).
    pub failed: bool,
    /// The consumer's virtual wait, in seconds.
    pub response_time: f64,
}

/// Private per-canary tracking: its posterior updater and the sliding
/// fault window (a fixed ring, allocated once per canary).
struct Canary {
    id: ReleaseId,
    stage: usize,
    weight: f64,
    updater: BlackBoxUpdater,
    demands: u64,
    failures: u64,
    window: Vec<bool>,
    cursor: usize,
    filled: usize,
    window_fails: u64,
}

impl Canary {
    fn observe(&mut self, failed: bool) {
        self.demands += 1;
        if failed {
            self.failures += 1;
        }
        let len = self.window.len();
        if len == 0 {
            return;
        }
        if self.filled == len {
            if self.window[self.cursor] {
                self.window_fails -= 1;
            }
        } else {
            self.filled += 1;
        }
        self.window[self.cursor] = failed;
        if failed {
            self.window_fails += 1;
        }
        self.cursor = (self.cursor + 1) % len;
    }

    fn reset_window(&mut self) {
        self.cursor = 0;
        self.filled = 0;
        self.window_fails = 0;
    }

    fn window_rate(&self) -> Option<f64> {
        if self.filled < self.window.len() || self.window.is_empty() {
            return None;
        }
        Some(self.window_fails as f64 / self.filled as f64)
    }
}

/// An open recovery probe.
struct Probe {
    remaining: u64,
    demands: u64,
    available: u64,
}

/// Per-release running tallies.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    demands: u64,
    failures: u64,
}

/// The canary's black-box engine over `cells` cells: an indifference
/// prior over the full pfd range, so the canary must *earn* its
/// confidence from canary traffic. The default resolution's engine is
/// built once per process and shared (its tables are immutable), so an
/// orchestrator does not recompute the prior's 400 cell masses.
fn uniform_inference(cells: usize) -> BlackBoxInference {
    static DEFAULT: OnceLock<BlackBoxInference> = OnceLock::new();
    let build = || {
        let prior = ScaledBeta::standard(1.0, 1.0).expect("uniform prior is valid");
        BlackBoxInference::new(prior, cells)
    };
    if cells == DEFAULT_POSTERIOR_CELLS {
        DEFAULT.get_or_init(build).clone()
    } else {
        build()
    }
}

/// The fleet orchestrator: drives a staged canary chain demand by
/// demand, mirroring [`crate::upgrade::ManagedUpgrade`]'s closed loop
/// (virtual time advances by each consumer wait; assessments run on a
/// demand cadence at zero virtual cost).
pub struct FleetOrchestrator {
    middleware: UpgradeMiddleware,
    plan: FleetPlan,
    inference: BlackBoxInference,
    demand_rng: StreamRng,
    request: Envelope,
    virtual_time: f64,
    stable: ReleaseId,
    stable_weight: f64,
    canary: Option<Canary>,
    pending: VecDeque<Box<dyn ServiceEndpoint>>,
    substitutes: SubstitutePool,
    /// Registry category + service name used for equivalence lookups.
    category: String,
    service_name: String,
    tallies: Vec<Tally>,
    stats: FleetStats,
    probe: Option<Probe>,
    next_stage: usize,
    chain_halted: bool,
    recorder: Box<dyn Recorder>,
    gauges: Option<FleetGauges>,
}

impl FleetOrchestrator {
    /// Creates an orchestrator serving `stable` (stage 0 at full
    /// weight). Push canary stages with
    /// [`push_stage`](FleetOrchestrator::push_stage); the first pending
    /// stage deploys on the next demand.
    ///
    /// # Panics
    ///
    /// Panics if `plan.suspend_after` is 0: every streak would be an incident.
    pub fn new(
        stable: impl ServiceEndpoint + 'static,
        plan: FleetPlan,
        seed: MasterSeed,
    ) -> FleetOrchestrator {
        assert!(plan.suspend_after > 0, "suspend_after must be positive");
        let mut config = plan.middleware;
        config.mode = OperatingMode::WeightedFleet;
        let mut middleware = UpgradeMiddleware::new(config);
        let description = stable.describe();
        let service_name = description.service().to_owned();
        let stable_id = middleware.deploy(stable);
        let inference = uniform_inference(plan.posterior_cells);
        FleetOrchestrator {
            middleware,
            plan,
            inference,
            demand_rng: seed.stream("fleet/demands"),
            request: Envelope::request("invoke"),
            virtual_time: 0.0,
            stable: stable_id,
            stable_weight: 1.0,
            canary: None,
            pending: VecDeque::new(),
            substitutes: SubstitutePool::new(),
            category: "equivalent".to_owned(),
            service_name,
            tallies: vec![Tally::default()],
            stats: FleetStats::default(),
            probe: None,
            next_stage: 1,
            chain_halted: false,
            recorder: Box::new(NullRecorder),
            gauges: None,
        }
    }

    /// Queues the next chain stage; it deploys as the in-flight canary
    /// as soon as no canary is ahead of it.
    pub fn push_stage(&mut self, endpoint: impl ServiceEndpoint + 'static) {
        self.pending.push_back(Box::new(endpoint));
    }

    /// Supplies the substitute pool and the registry category used for
    /// equivalence lookups (see [`RecoveryStrategy::Substitute`]).
    pub fn set_substitutes(&mut self, pool: SubstitutePool, category: &str) {
        self.substitutes = pool;
        self.category = category.to_owned();
    }

    /// Attaches a trace recorder to the orchestrator *and* its
    /// middleware (both append to one sink).
    pub fn attach_recorder<R: Recorder + Clone + 'static>(&mut self, recorder: R) {
        self.middleware.set_recorder(recorder.clone());
        self.recorder = Box::new(recorder);
    }

    /// Publishes fleet gauges into a shared metrics registry.
    pub fn attach_metrics(&mut self, registry: &SharedRegistry) {
        let gauges = FleetGauges::new(registry.clone());
        gauges.set_weight(self.stable.index(), self.stable_weight);
        gauges.set_stage(self.stable.index(), 0);
        self.gauges = Some(gauges);
    }

    /// The middleware (e.g. for deploying fault-injecting endpoints in
    /// tests before the run starts).
    pub fn middleware(&self) -> &UpgradeMiddleware {
        &self.middleware
    }

    /// A snapshot of the fleet's state.
    pub fn status(&self) -> FleetStatus {
        FleetStatus {
            stable: self.stable,
            stable_weight: self.stable_weight,
            canary: self.canary.as_ref().map(|c| CanaryStatus {
                id: c.id,
                stage: c.stage,
                weight: c.weight,
                demands: c.demands,
                failures: c.failures,
            }),
            pending_stages: self.pending.len(),
            chain_halted: self.chain_halted,
            stats: self.stats,
            releases: self.middleware.release_infos(),
            virtual_time: self.virtual_time,
        }
    }

    /// Fleet counters so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Demands served.
    pub fn demands(&self) -> u64 {
        self.stats.demands
    }

    /// The virtual clock, in seconds.
    pub fn virtual_time(&self) -> f64 {
        self.virtual_time
    }

    /// Runs `n` demands.
    pub fn run_demands(&mut self, n: u64) {
        for _ in 0..n {
            self.run_demand();
        }
    }

    /// Serves one demand end to end: deploy a due canary, route, score,
    /// detect incidents, recover per the strategy, and (on the
    /// assessment cadence) ramp or promote the canary.
    ///
    /// # Panics
    ///
    /// Panics if the release set has been emptied externally — the
    /// orchestrator itself never strands the fleet (the zero-active
    /// sweep restarts suspended releases first).
    pub fn run_demand(&mut self) -> FleetDemand {
        let outcome = self.serve();
        self.detect_and_recover(outcome.release);
        if self.stats.demands.is_multiple_of(self.plan.assess_interval) {
            self.assess_canary();
        }
        outcome
    }

    /// Deploys a due canary, routes one demand and scores it into the
    /// counters, the canary window and the open probe.
    fn serve(&mut self) -> FleetDemand {
        self.deploy_due_canary();
        self.ensure_serving();
        self.middleware.set_virtual_time(self.virtual_time);
        let record = self
            .middleware
            .process(&self.request, &mut self.demand_rng)
            .expect("fleet keeps at least one active release");
        let obs = record.per_release[0];
        let id = obs.release;
        let failed = !obs.within_timeout || obs.class != ResponseClass::Correct;
        let available = record.system.verdict != SystemVerdict::Unavailable;
        let correct = record.system.verdict.is_correct();
        let outcome = FleetDemand {
            seq: record.seq,
            release: id,
            verdict: record.system.verdict,
            failed,
            response_time: record.system.response_time.as_secs(),
        };
        self.virtual_time += outcome.response_time;
        self.middleware.recycle(record);

        self.stats.demands += 1;
        if available {
            self.stats.available += 1;
        }
        if correct {
            self.stats.correct += 1;
        }
        if id.index() >= self.tallies.len() {
            self.tallies.resize(id.index() + 1, Tally::default());
        }
        self.tallies[id.index()].demands += 1;
        if failed {
            self.tallies[id.index()].failures += 1;
        }
        if let Some(canary) = &mut self.canary {
            if canary.id == id {
                canary.observe(failed);
            }
        }
        if let Some(probe) = &mut self.probe {
            probe.demands += 1;
            if available {
                probe.available += 1;
            }
            probe.remaining -= 1;
            if probe.remaining == 0 {
                let rate = probe.available as f64 / probe.demands as f64;
                if rate >= self.plan.probe.min_availability {
                    self.stats.recovered += 1;
                    if let Some(gauges) = &self.gauges {
                        gauges.recovered(self.plan.strategy.label());
                    }
                }
                self.probe = None;
            }
        }
        outcome
    }

    /// Deploys the next pending stage as the in-flight canary when no
    /// canary is ahead of it (at most one canary per stage is in
    /// flight) and the chain has not halted.
    fn deploy_due_canary(&mut self) {
        if self.canary.is_some() || self.chain_halted {
            return;
        }
        let Some(endpoint) = self.pending.pop_front() else {
            return;
        };
        let stage = self.next_stage;
        self.next_stage += 1;
        self.bind_canary(endpoint, stage);
    }

    /// Deploys `endpoint` as the canary for `stage` at the ramp's
    /// initial weight.
    fn bind_canary(&mut self, endpoint: Box<dyn ServiceEndpoint>, stage: usize) {
        let id = self.middleware.deploy_boxed(endpoint);
        let weight = self.plan.ramp.initial.min(self.plan.ramp.full);
        self.canary = Some(Canary {
            id,
            stage,
            weight,
            updater: self.inference.updater(),
            demands: 0,
            failures: 0,
            window: vec![false; self.plan.rollback.window as usize],
            cursor: 0,
            filled: 0,
            window_fails: 0,
        });
        self.stable_weight = (1.0 - weight).max(0.0);
        self.apply_weights();
        if let Some(gauges) = &self.gauges {
            gauges.set_stage(id.index(), stage);
        }
    }

    /// Writes the stable/canary weight split into the release set and
    /// the gauges.
    fn apply_weights(&mut self) {
        let releases = self.middleware.releases_mut();
        releases
            .set_weight(self.stable, self.stable_weight)
            .expect("stable release is deployed");
        if let Some(canary) = &self.canary {
            releases
                .set_weight(canary.id, canary.weight)
                .expect("canary release is deployed");
        }
        if let Some(gauges) = &self.gauges {
            gauges.set_weight(self.stable.index(), self.stable_weight);
            if let Some(canary) = &self.canary {
                gauges.set_weight(canary.id.index(), canary.weight);
            }
        }
    }

    /// Streak/window incident detection after a demand served by
    /// `served`, and the zero-active safety sweep — the fleet
    /// generalisation of
    /// [`crate::manage::ManagementSubsystem::apply_recovery`].
    fn detect_and_recover(&mut self, served: ReleaseId) {
        // Only the served release's streak moved. Every other active
        // release is below `suspend_after`: each incident leaves its
        // release restarted with a zero streak or phased out.
        let streak = self
            .middleware
            .releases()
            .consecutive_evident_failures(served)
            .expect("release is deployed");
        if streak >= self.plan.suspend_after {
            self.declare_incident(served);
        }
        // Windowed canary fault rate.
        if let Some(canary) = &self.canary {
            let id = canary.id;
            let over = canary
                .window_rate()
                .is_some_and(|rate| rate > self.plan.rollback.max_fault_rate);
            let still_active = self.middleware.releases().state(id) == Ok(ReleaseState::Active);
            if over && still_active {
                self.declare_incident(id);
            }
        }
        // Zero-active safety: a correlated burst may have suspended the
        // whole fleet; restart everything suspended, in deployment
        // order, so the next demand can be served. No release is
        // favoured — all of them come back.
        if self.middleware.releases().active_slice().is_empty() {
            self.restart_all_suspended();
        }
    }

    /// Restarts every suspended release, in deployment order.
    fn restart_all_suspended(&mut self) {
        let len = self.middleware.releases().len();
        for index in 0..len {
            let id = ReleaseId::new(index);
            if self.middleware.releases().state(id) == Ok(ReleaseState::Suspended) {
                self.middleware
                    .releases_mut()
                    .restart(id)
                    .expect("suspended release restarts");
                self.emit_release_event(id, "restarted");
            }
        }
    }

    /// Declares an incident on `id` and applies the recovery strategy.
    /// Stable (non-canary) releases always restart in place — the
    /// strategy governs the *canary*.
    fn declare_incident(&mut self, id: ReleaseId) {
        self.stats.incidents += 1;
        if let Some(gauges) = &self.gauges {
            gauges.incident(self.plan.strategy.label());
        }
        // A new incident inside an open probe fails that probe.
        self.probe = Some(Probe {
            remaining: self.plan.probe.window.max(1),
            demands: 0,
            available: 0,
        });
        let is_canary = self.canary.as_ref().is_some_and(|c| c.id == id);
        if !is_canary || self.plan.strategy == RecoveryStrategy::RestartInPlace {
            self.restart_in_place(id);
            return;
        }
        match self.plan.strategy {
            RecoveryStrategy::DemoteAndRollback => self.demote_canary("rollback"),
            RecoveryStrategy::Substitute => self.substitute_canary(),
            RecoveryStrategy::RestartInPlace => unreachable!("handled above"),
        }
    }

    /// Suspend + immediate restart (the paper's recovery), resetting
    /// the canary's window so one burst is not counted twice.
    fn restart_in_place(&mut self, id: ReleaseId) {
        self.middleware
            .releases_mut()
            .suspend(id)
            .expect("active release suspends");
        self.emit_release_event(id, "suspended");
        self.middleware
            .releases_mut()
            .restart(id)
            .expect("suspended release restarts");
        self.emit_release_event(id, "restarted");
        if let Some(canary) = &mut self.canary {
            if canary.id == id {
                canary.reset_window();
            }
        }
    }

    /// Phases the canary out and restores the stable release's full
    /// weight. The chain halts.
    fn demote_canary(&mut self, decision: &str) {
        let Some(canary) = self.canary.take() else {
            return;
        };
        let releases = self.middleware.releases_mut();
        releases
            .set_weight(canary.id, 0.0)
            .expect("canary is deployed");
        releases.phase_out(canary.id).expect("canary phases out");
        self.stable_weight = 1.0;
        self.apply_weights();
        if let Some(gauges) = &self.gauges {
            gauges.set_weight(canary.id.index(), 0.0);
            gauges.rollback();
        }
        self.chain_halted = true;
        self.stats.rollbacks += 1;
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::SwitchDecision {
                t: self.virtual_time,
                demand: self.stats.demands,
                decision: decision.to_string(),
                reason: format!(
                    "canary stage {} demoted after {} demands",
                    canary.stage, canary.demands
                ),
            });
        }
    }

    /// Phases the canary out and binds a functionally-equivalent
    /// stand-in from the pool as the stage's replacement canary. Falls
    /// back to demote-and-rollback when the pool has no candidate.
    fn substitute_canary(&mut self) {
        let Some((record, endpoint)) = self.substitutes.acquire(&self.category, &self.service_name)
        else {
            self.demote_canary("rollback-no-substitute");
            return;
        };
        let Some(canary) = self.canary.take() else {
            return;
        };
        let stage = canary.stage;
        let releases = self.middleware.releases_mut();
        releases
            .set_weight(canary.id, 0.0)
            .expect("canary is deployed");
        releases.phase_out(canary.id).expect("canary phases out");
        if let Some(gauges) = &self.gauges {
            gauges.set_weight(canary.id.index(), 0.0);
            gauges.substitution();
        }
        self.stats.substitutions += 1;
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::SwitchDecision {
                t: self.virtual_time,
                demand: self.stats.demands,
                decision: "substitute".to_string(),
                reason: format!(
                    "stage {stage} canary replaced by registry stand-in `{}`",
                    record.name
                ),
            });
        }
        self.bind_canary(endpoint, stage);
    }

    /// Promotes the canary to stable: full weight for the canary, the
    /// old stable demoted to a zero-weight hot standby (or phased out
    /// under `retire_on_promote`), and the next pending stage deploys
    /// on the next demand.
    fn promote_canary(&mut self) {
        let Some(canary) = self.canary.take() else {
            return;
        };
        let old_stable = self.stable;
        self.stable = canary.id;
        self.stable_weight = 1.0;
        let releases = self.middleware.releases_mut();
        releases
            .set_weight(old_stable, 0.0)
            .expect("old stable is deployed");
        if self.plan.retire_on_promote {
            releases
                .phase_out(old_stable)
                .expect("old stable phases out");
        }
        self.apply_weights();
        if let Some(gauges) = &self.gauges {
            gauges.set_weight(old_stable.index(), 0.0);
            gauges.set_stage(canary.id.index(), canary.stage);
            gauges.promotion();
        }
        self.stats.promotions += 1;
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::SwitchDecision {
                t: self.virtual_time,
                demand: self.stats.demands,
                decision: "promote".to_string(),
                reason: format!(
                    "stage {} canary promoted after {} canary demands",
                    canary.stage, canary.demands
                ),
            });
        }
    }

    /// The per-interval canary assessment: update the black-box
    /// posterior from the canary's (demands, failures) and ramp the
    /// weight on a pass; promote at full weight.
    fn assess_canary(&mut self) {
        let Some(canary) = &mut self.canary else {
            return;
        };
        if canary.demands == 0 {
            return;
        }
        canary.updater.update_to(canary.demands, canary.failures);
        let confidence = canary.updater.confidence(self.plan.promotion.target_pfd);
        let satisfied = canary.demands >= self.plan.promotion.min_demands
            && confidence >= self.plan.promotion.confidence;
        let stage = canary.stage;
        if self.recorder.enabled() {
            let new_p99 = canary.updater.percentile(0.99);
            // The stable release's empirical failure rate stands in for
            // "old" in the pairwise event shape.
            let stable_tally = self.tallies[self.stable.index()];
            let old_rate = if stable_tally.demands == 0 {
                0.0
            } else {
                stable_tally.failures as f64 / stable_tally.demands as f64
            };
            self.recorder.record(TraceEvent::ConfidenceUpdated {
                t: self.virtual_time,
                demand: self.stats.demands,
                old_p99: old_rate,
                new_p99,
                criterion: format!(
                    "stage-{stage}(target={}, c={})",
                    self.plan.promotion.target_pfd, self.plan.promotion.confidence
                ),
                satisfied,
            });
        }
        if !satisfied {
            return;
        }
        let canary = self.canary.as_mut().expect("canary checked above");
        canary.weight = (canary.weight + self.plan.ramp.step).min(self.plan.ramp.full);
        let full = canary.weight >= self.plan.ramp.full;
        self.stable_weight = (1.0 - canary.weight).max(0.0);
        self.apply_weights();
        if full {
            self.promote_canary();
        }
    }

    /// If every deployed release has been phased out except suspended
    /// ones, bring the suspended ones back (belt and braces before a
    /// demand is dispatched).
    fn ensure_serving(&mut self) {
        if self.middleware.releases().active_slice().is_empty() {
            self.restart_all_suspended();
        }
    }

    fn emit_release_event(&mut self, id: ReleaseId, action: &str) {
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent::ReleaseSuspended {
                t: self.virtual_time,
                demand: self.stats.demands,
                release: id.index(),
                action: action.to_string(),
            });
        }
    }
}

impl std::fmt::Debug for FleetOrchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetOrchestrator")
            .field("stable", &self.stable)
            .field("stable_weight", &self.stable_weight)
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_simcore::dist::DelayModel;
    use wsu_wstack::endpoint::SyntheticService;
    use wsu_wstack::outcome::OutcomeProfile;
    use wsu_wstack::wsdl::ServiceDescription;

    fn good(version: &str) -> SyntheticService {
        SyntheticService::builder("Quote", version)
            .outcomes(OutcomeProfile::always_correct())
            .exec_time(DelayModel::constant(0.3))
            .build()
    }

    fn bad(version: &str) -> SyntheticService {
        SyntheticService::builder("Quote", version)
            .outcomes(OutcomeProfile::new(0.0, 1.0, 0.0))
            .exec_time(DelayModel::constant(0.3))
            .build()
    }

    fn quick_plan(strategy: RecoveryStrategy) -> FleetPlan {
        FleetPlan {
            assess_interval: 25,
            promotion: PromotionRule {
                target_pfd: 0.05,
                confidence: 0.8,
                min_demands: 20,
            },
            rollback: RollbackRule {
                window: 10,
                max_fault_rate: 0.4,
            },
            probe: ProbeRule {
                window: 20,
                min_availability: 0.9,
            },
            suspend_after: 5,
            ..FleetPlan::with_strategy(strategy)
        }
    }

    #[test]
    fn healthy_chain_promotes_through_every_stage() {
        let mut fleet = FleetOrchestrator::new(
            good("1.0"),
            quick_plan(RecoveryStrategy::RestartInPlace),
            MasterSeed::new(11),
        );
        fleet.push_stage(good("1.1"));
        fleet.push_stage(good("1.2"));
        fleet.run_demands(4_000);
        let status = fleet.status();
        assert_eq!(status.stats.promotions, 2, "status: {status:?}");
        assert_eq!(status.stats.incidents, 0);
        assert_eq!(status.stats.rollbacks, 0);
        assert!(status.canary.is_none());
        assert_eq!(status.pending_stages, 0);
        assert_eq!(status.stable, ReleaseId::new(2));
        assert!((status.stable_weight - 1.0).abs() < 1e-12);
        assert!(!status.chain_halted);
        // Old stables are zero-weight hot standbys, still active.
        assert_eq!(status.releases[0].state, ReleaseState::Active);
        assert_eq!(status.releases[1].state, ReleaseState::Active);
        assert!(status.stats.availability() > 0.99);
    }

    #[test]
    fn weights_always_cover_the_traffic() {
        let mut fleet = FleetOrchestrator::new(
            good("1.0"),
            quick_plan(RecoveryStrategy::RestartInPlace),
            MasterSeed::new(12),
        );
        fleet.push_stage(good("1.1"));
        for _ in 0..1_000 {
            fleet.run_demand();
            let status = fleet.status();
            let canary_weight = status.canary.map(|c| c.weight).unwrap_or(0.0);
            assert!(
                (status.stable_weight + canary_weight - 1.0).abs() < 1e-9,
                "weights must sum to 1: {status:?}"
            );
        }
    }

    #[test]
    fn degraded_canary_rolls_back_and_halts_the_chain() {
        let mut fleet = FleetOrchestrator::new(
            good("1.0"),
            quick_plan(RecoveryStrategy::DemoteAndRollback),
            MasterSeed::new(13),
        );
        fleet.push_stage(bad("1.1"));
        fleet.push_stage(good("1.2"));
        fleet.run_demands(2_000);
        let status = fleet.status();
        assert_eq!(status.stats.rollbacks, 1);
        assert_eq!(status.stats.promotions, 0);
        assert!(status.chain_halted);
        assert!(status.canary.is_none());
        // The chain halted: stage 1.2 never deploys.
        assert_eq!(status.pending_stages, 1);
        assert_eq!(status.stable, ReleaseId::new(0));
        assert!((status.stable_weight - 1.0).abs() < 1e-12);
        assert_eq!(status.releases[1].state, ReleaseState::PhasedOut);
        // Rollback is a real recovery: the probe should succeed.
        assert_eq!(status.stats.recovered, status.stats.incidents);
    }

    #[test]
    fn rollback_never_resurrects_a_phased_out_release() {
        let mut fleet = FleetOrchestrator::new(
            good("1.0"),
            quick_plan(RecoveryStrategy::DemoteAndRollback),
            MasterSeed::new(14),
        );
        fleet.push_stage(bad("1.1"));
        fleet.run_demands(3_000);
        let status = fleet.status();
        assert_eq!(status.releases[1].state, ReleaseState::PhasedOut);
        // Long after the rollback, the phased-out release stays out.
        assert_eq!(status.stats.rollbacks, 1);
    }

    #[test]
    fn substitute_binds_a_registry_stand_in() {
        let mut fleet = FleetOrchestrator::new(
            good("1.0"),
            quick_plan(RecoveryStrategy::Substitute),
            MasterSeed::new(15),
        );
        fleet.push_stage(bad("1.1"));
        let mut pool = SubstitutePool::new();
        pool.register(
            ServiceRecord::new(
                "QuoteAlt",
                "http://node2/quote-alt",
                "quote-like",
                ServiceDescription::new("QuoteAlt", "1.0"),
            ),
            Box::new(good("alt-1.0")),
        );
        fleet.set_substitutes(pool, "quote-like");
        fleet.run_demands(4_000);
        let status = fleet.status();
        assert_eq!(status.stats.substitutions, 1, "status: {status:?}");
        assert_eq!(status.stats.rollbacks, 0);
        assert!(!status.chain_halted);
        // The failed canary is out; the stand-in ramped to promotion.
        assert_eq!(status.releases[1].state, ReleaseState::PhasedOut);
        assert_eq!(status.stats.promotions, 1);
        assert_eq!(status.stable, ReleaseId::new(2));
    }

    #[test]
    fn substitute_without_candidates_falls_back_to_rollback() {
        let mut fleet = FleetOrchestrator::new(
            good("1.0"),
            quick_plan(RecoveryStrategy::Substitute),
            MasterSeed::new(16),
        );
        fleet.push_stage(bad("1.1"));
        fleet.run_demands(2_000);
        let status = fleet.status();
        assert_eq!(status.stats.substitutions, 0);
        assert_eq!(status.stats.rollbacks, 1);
        assert!(status.chain_halted);
    }

    #[test]
    fn restart_in_place_keeps_reopening_incidents_on_a_persistent_fault() {
        let mut fleet = FleetOrchestrator::new(
            good("1.0"),
            quick_plan(RecoveryStrategy::RestartInPlace),
            MasterSeed::new(17),
        );
        fleet.push_stage(bad("1.1"));
        fleet.run_demands(3_000);
        let status = fleet.status();
        assert!(status.stats.incidents > 1, "status: {status:?}");
        assert_eq!(status.stats.rollbacks, 0);
        assert_eq!(status.stats.promotions, 0);
        // The persistent fault keeps failing probes: recovery
        // probability is below rollback's.
        assert!(status.stats.recovered < status.stats.incidents);
    }

    #[test]
    fn runs_are_deterministic_given_the_seed() {
        let run = |seed: u64| {
            let mut fleet = FleetOrchestrator::new(
                good("1.0"),
                quick_plan(RecoveryStrategy::DemoteAndRollback),
                MasterSeed::new(seed),
            );
            fleet.push_stage(bad("1.1"));
            fleet.push_stage(good("1.2"));
            let routes: Vec<usize> = (0..1_500)
                .map(|_| fleet.run_demand().release.index())
                .collect();
            (fleet.status().stats, routes)
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21).1, run(22).1);
    }

    #[test]
    fn at_most_one_canary_is_in_flight() {
        let mut fleet = FleetOrchestrator::new(
            good("1.0"),
            quick_plan(RecoveryStrategy::RestartInPlace),
            MasterSeed::new(23),
        );
        fleet.push_stage(good("1.1"));
        fleet.push_stage(good("1.2"));
        fleet.push_stage(good("1.3"));
        for _ in 0..3_000 {
            fleet.run_demand();
            let status = fleet.status();
            let serving_new = status
                .releases
                .iter()
                .filter(|info| info.state == ReleaseState::Active && info.id != status.stable)
                .filter(|info| status.canary.as_ref().is_some_and(|c| c.id == info.id))
                .count();
            assert!(serving_new <= 1);
        }
    }

    #[test]
    fn substitute_pool_is_deterministic_and_excludes_own_releases() {
        let mut pool = SubstitutePool::new();
        let record = |name: &str| {
            ServiceRecord::new(
                name,
                format!("http://node/{name}"),
                "cat",
                ServiceDescription::new(name, "1.0"),
            )
        };
        pool.register(record("Quote"), Box::new(good("self")));
        pool.register(record("AltB"), Box::new(good("b")));
        pool.register(record("AltC"), Box::new(good("c")));
        assert_eq!(pool.available(), 3);
        // "Quote" is excluded; "AltB" published first wins.
        let (first, _) = pool.acquire("cat", "Quote").expect("candidate");
        assert_eq!(first.name, "AltB");
        assert_eq!(pool.available(), 2);
        let (second, _) = pool.acquire("cat", "Quote").expect("candidate");
        assert_eq!(second.name, "AltC");
        assert!(pool.acquire("cat", "Quote").is_none());
        assert_eq!(pool.registry().find_by_name("Quote").len(), 1);
        assert!(!format!("{pool:?}").is_empty());
    }

    #[test]
    fn fleet_gauges_and_events_are_published() {
        use wsu_obs::SharedRecorder;
        let registry = SharedRegistry::new();
        let recorder = SharedRecorder::new();
        let mut fleet = FleetOrchestrator::new(
            good("1.0"),
            quick_plan(RecoveryStrategy::DemoteAndRollback),
            MasterSeed::new(31),
        );
        fleet.attach_metrics(&registry);
        fleet.attach_recorder(recorder.clone());
        fleet.push_stage(bad("1.1"));
        fleet.run_demands(1_000);
        registry.with(|r| {
            assert_eq!(r.gauge("wsu_fleet_weight", &[("release", "0")]), Some(1.0));
            assert_eq!(r.gauge("wsu_fleet_weight", &[("release", "1")]), Some(0.0));
            assert!(r.counter("wsu_fleet_rollbacks_total", &[]) >= 1);
            assert!(r.counter("wsu_fleet_incidents_total", &[("strategy", "rollback")]) >= 1);
        });
        let events = recorder.snapshot();
        assert!(events.iter().any(
            |e| matches!(e, TraceEvent::SwitchDecision { decision, .. } if decision == "rollback")
        ));
    }

    /// The detection every deployed release's streak once went through,
    /// kept as the reference: a deployment-order scan after each
    /// demand, then the canary window and the zero-active sweep.
    fn detect_by_scan(fleet: &mut FleetOrchestrator) {
        let len = fleet.middleware.releases().len();
        for index in 0..len {
            let id = ReleaseId::new(index);
            let releases = fleet.middleware.releases();
            if releases.state(id) != Ok(ReleaseState::Active) {
                continue;
            }
            let streak = releases
                .consecutive_evident_failures(id)
                .expect("release is deployed");
            if streak < fleet.plan.suspend_after {
                continue;
            }
            fleet.declare_incident(id);
        }
        if let Some(canary) = &fleet.canary {
            let id = canary.id;
            let over = canary
                .window_rate()
                .is_some_and(|rate| rate > fleet.plan.rollback.max_fault_rate);
            let still_active = fleet.middleware.releases().state(id) == Ok(ReleaseState::Active);
            if over && still_active {
                fleet.declare_incident(id);
            }
        }
        if fleet.middleware.releases().active_slice().is_empty() {
            fleet.restart_all_suspended();
        }
    }

    /// One fleet-study cell: a `size`-release chain of fault-injected
    /// releases (a crash burst on the first canary, evident wrong
    /// values on every second demand of the last stage, a 1% crash
    /// everywhere, and with `stable_burst` a crash burst on the stable
    /// release too) and one composite stand-in per canary stage.
    /// Returns the counters and the trace, detecting incidents with
    /// `run_demand` or, with `by_scan`, with [`detect_by_scan`].
    fn study_cell(
        size: usize,
        strategy: RecoveryStrategy,
        seed: u64,
        stable_burst: bool,
        by_scan: bool,
    ) -> (FleetStats, Vec<TraceEvent>) {
        use crate::composite::{CompositeEndpoint, CompositeService};
        use wsu_faults::FleetFaultScenario;
        use wsu_faults::{FaultAction, FaultClause, FaultInjector, FaultTrigger};
        use wsu_obs::SharedRecorder;

        let seed = MasterSeed::new(seed);
        let crash_burst = |name: &str, from, to| {
            FaultClause::new(
                name,
                FaultTrigger::DemandWindow { from, to },
                FaultAction::Crash,
            )
        };
        let mut scenario = FleetFaultScenario::new("cell", size)
            .release_clause(1, crash_burst("canary-burst", 40, 80))
            .release_clause(
                size - 1,
                FaultClause::new(
                    "persistent-wrong",
                    FaultTrigger::EveryNth { n: 2, phase: 0 },
                    FaultAction::WrongValue { evident: true },
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
        if stable_burst {
            scenario = scenario.release_clause(0, crash_burst("stable-burst", 200, 212));
        }
        let recorder = SharedRecorder::new();
        let mut injectors = scenario.plans.iter().enumerate().map(|(i, plan)| {
            let service = SyntheticService::builder("Composite", &format!("1.{i}"))
                .exec_time(DelayModel::constant(0.5))
                .build();
            FaultInjector::new(service, plan.clone(), seed).with_recorder(recorder.clone())
        });
        let plan = FleetPlan {
            assess_interval: 100,
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
        let mut fleet = FleetOrchestrator::new(injectors.next().unwrap(), plan, seed);
        for injector in injectors {
            fleet.push_stage(injector);
        }
        let mut pool = SubstitutePool::new();
        for stage in 1..size {
            let name = format!("CompositeAlt{stage}");
            let backend = SyntheticService::builder("Backend", "1.0")
                .exec_time(DelayModel::constant(0.5))
                .build();
            let composite = CompositeService::builder(name.clone())
                .component("backend", backend)
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
        fleet.attach_recorder(recorder.clone());
        for _ in 0..4_000 {
            if by_scan {
                fleet.serve();
                detect_by_scan(&mut fleet);
                if fleet
                    .stats
                    .demands
                    .is_multiple_of(fleet.plan.assess_interval)
                {
                    fleet.assess_canary();
                }
            } else {
                fleet.run_demand();
            }
        }
        (fleet.stats(), recorder.snapshot())
    }

    #[test]
    fn served_release_detection_matches_the_deployment_order_scan() {
        let mut incidents = 0;
        for seed in [0xF1EE7, 1, 2, 3, 4] {
            for size in [2, 3, 4] {
                for strategy in RecoveryStrategy::all() {
                    for stable_burst in [false, true] {
                        let cell =
                            |by_scan| study_cell(size, strategy, seed, stable_burst, by_scan);
                        let (stats, trace) = cell(false);
                        let (scan_stats, scan_trace) = cell(true);
                        let label = format!("seed {seed}, fleet{size}-{}", strategy.label());
                        assert_eq!(stats, scan_stats, "{label}, stable burst {stable_burst}");
                        assert!(trace == scan_trace, "{label}, stable burst {stable_burst}");
                        let stable_suspended = trace.iter().any(|e| {
                            matches!(e, TraceEvent::ReleaseSuspended { release: 0, action, .. }
                                if action == "suspended")
                        });
                        assert_eq!(stable_suspended, stable_burst, "{label}");
                        incidents += stats.incidents;
                    }
                }
            }
        }
        assert!(incidents > 0);
    }

    #[test]
    #[should_panic(expected = "suspend_after must be positive")]
    fn a_zero_suspension_threshold_is_rejected() {
        let plan = FleetPlan {
            suspend_after: 0,
            ..FleetPlan::default()
        };
        let _ = FleetOrchestrator::new(good("1.0"), plan, MasterSeed::new(1));
    }

    #[test]
    fn stats_ratios() {
        let stats = FleetStats {
            demands: 100,
            available: 95,
            incidents: 4,
            recovered: 3,
            ..FleetStats::default()
        };
        assert!((stats.availability() - 0.95).abs() < 1e-12);
        assert_eq!(stats.recovery_probability(), Some(0.75));
        assert_eq!(FleetStats::default().recovery_probability(), None);
        assert_eq!(FleetStats::default().availability(), 1.0);
    }
}
