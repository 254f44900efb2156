//! The upgrading middleware (paper Sections 4.1 and 5.2.1).
//!
//! [`UpgradeMiddleware`] intercepts each consumer request, relays it to
//! the deployed releases according to the configured
//! [`modes::OperatingMode`](crate::modes::OperatingMode) and collects responses
//! that arrive within the timeout, adjudicates them, and returns a single
//! response to the consumer — while recording everything the monitoring
//! subsystem needs.
//!
//! A demand's responses come from one of two sources:
//! [`process`](UpgradeMiddleware::process) invokes the deployed
//! endpoints, and [`process_planned`](UpgradeMiddleware::process_planned)
//! takes each release's response from a joint plan (the closed loop of
//! Tables 5–6). Both run the same dispatch, collection, adjudication and
//! trace code.
//!
//! ## Timing model
//!
//! Virtual time within one demand follows the paper's eq. (8):
//!
//! ```text
//! ExTime(WS) = min(TimeOut, max(ExTime(Release(i)))) + dT
//! ```
//!
//! where `dT` is the middleware's own adjudication delay. Responses whose
//! execution time exceeds the timeout are *not collected* (the release is
//! scored "no response received within TimeOut" — NRDT in the tables).

use wsu_obs::{NullRecorder, Recorder, TraceEvent};
use wsu_simcore::rng::StreamRng;
use wsu_simcore::time::SimDuration;
use wsu_wstack::endpoint::{PlannedResponse, ServiceEndpoint};
use wsu_wstack::message::Envelope;
use wsu_wstack::outcome::ResponseClass;

use crate::adjudicate::{nth_arrival, Adjudicator, Arrival, SystemVerdict, Tally};
use crate::error::CoreError;
use crate::modes::{OperatingMode, SequentialOrder};
use crate::release::{ReleaseId, ReleaseInfo, ReleaseSet};

/// Middleware configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiddlewareConfig {
    /// Operating mode (Section 4.2). Default: parallel for maximum
    /// reliability, the mode of the paper's simulation study.
    pub mode: OperatingMode,
    /// How long the middleware waits for release responses.
    pub timeout: SimDuration,
    /// `dT`: the middleware's adjudication delay (paper: 0.1 s).
    pub adjudication_delay: SimDuration,
    /// The adjudicator applied to collected responses.
    pub adjudicator: Adjudicator,
}

impl MiddlewareConfig {
    /// The paper's simulation configuration with the given timeout:
    /// parallel-reliability mode, `dT = 0.1 s`, random-valid adjudication.
    pub fn paper(timeout_secs: f64) -> MiddlewareConfig {
        MiddlewareConfig {
            mode: OperatingMode::ParallelReliability,
            timeout: SimDuration::from_secs(timeout_secs),
            adjudication_delay: SimDuration::from_secs(0.1),
            adjudicator: Adjudicator::paper(),
        }
    }
}

impl Default for MiddlewareConfig {
    /// The paper's configuration with the middle timeout (2.0 s).
    fn default() -> MiddlewareConfig {
        MiddlewareConfig::paper(2.0)
    }
}

/// What the middleware observed of one release on one demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleaseObservation {
    /// The release.
    pub release: ReleaseId,
    /// Ground-truth class of its response.
    pub class: ResponseClass,
    /// Its execution time (even if it exceeded the timeout).
    pub exec_time: SimDuration,
    /// Whether the response arrived within the timeout (`false` counts
    /// as NRDT for this release).
    pub within_timeout: bool,
}

/// What the consumer of the composite WS experienced on one demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemObservation {
    /// The adjudicated verdict.
    pub verdict: SystemVerdict,
    /// How long the consumer waited (includes `dT`).
    pub response_time: SimDuration,
    /// The release whose response was forwarded, if a specific one.
    pub source: Option<ReleaseId>,
    /// How many responses were collected within the timeout.
    pub responders: usize,
}

/// The full record of one demand, for monitoring and logging.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandRecord {
    /// Demand sequence number (assigned by the middleware).
    pub seq: u64,
    /// Dispatch instant in virtual time, in seconds (the middleware's
    /// clock when the demand arrived) — what windowed trackers key on.
    pub t: f64,
    /// Per-release observations, in the order releases were invoked.
    /// Sequential mode only contains entries for releases actually tried.
    pub per_release: Vec<ReleaseObservation>,
    /// The consumer-visible outcome.
    pub system: SystemObservation,
}

impl DemandRecord {
    /// The observation for a given release, if it was invoked.
    pub fn observation(&self, release: ReleaseId) -> Option<&ReleaseObservation> {
        self.per_release.iter().find(|o| o.release == release)
    }
}

/// The upgrading middleware.
pub struct UpgradeMiddleware {
    releases: ReleaseSet,
    config: MiddlewareConfig,
    demands: u64,
    /// Trace sink. The default [`NullRecorder`] keeps the hot path at
    /// one `enabled()` check per demand — no events are constructed.
    recorder: Box<dyn Recorder>,
    /// Virtual instant stamped on the next demand's trace events. The
    /// caller (orchestrator or simulation driver) owns the clock.
    clock: f64,
    /// The sequential visit order, reused across demands so the
    /// steady-state path does not allocate.
    order_scratch: Vec<ReleaseId>,
    /// Recycled `per_release` buffers, returned via [`recycle`].
    ///
    /// [`recycle`]: UpgradeMiddleware::recycle
    record_pool: Vec<Vec<ReleaseObservation>>,
    /// The record [`process_planned`] fills in place and lends out.
    ///
    /// [`process_planned`]: UpgradeMiddleware::process_planned
    lent: DemandRecord,
}

/// Where a demand's responses come from. Each mode's code is generic
/// over the source, so it is written once and compiled for each.
trait Responses {
    /// The `i`-th release the demand is dispatched to, in deployment
    /// order; `None` past the last.
    fn release(&self, set: &ReleaseSet, i: usize) -> Option<ReleaseId>;

    /// Release `id`'s response to the demand.
    fn respond(
        &self,
        releases: &mut ReleaseSet,
        id: ReleaseId,
        rng: &mut StreamRng,
    ) -> Result<PlannedResponse, CoreError>;
}

/// The active releases' endpoints (read in place: invoking one leaves
/// the list as it was), each invoked at the dispatch instant `now`.
struct Endpoints<'a> {
    request: &'a Envelope,
    now: f64,
}

impl Responses for Endpoints<'_> {
    fn release(&self, set: &ReleaseSet, i: usize) -> Option<ReleaseId> {
        set.active_slice().get(i).copied()
    }

    fn respond(
        &self,
        releases: &mut ReleaseSet,
        id: ReleaseId,
        rng: &mut StreamRng,
    ) -> Result<PlannedResponse, CoreError> {
        let inv = releases.invoke(id, self.request, self.now, rng)?;
        Ok(PlannedResponse {
            class: inv.class,
            exec_time: inv.exec_time,
        })
    }
}

/// A joint plan: release `k` answers with `plan[k]`.
impl Responses for [PlannedResponse] {
    fn release(&self, _: &ReleaseSet, i: usize) -> Option<ReleaseId> {
        (i < self.len()).then(|| ReleaseId::new(i))
    }

    fn respond(
        &self,
        _: &mut ReleaseSet,
        id: ReleaseId,
        _: &mut StreamRng,
    ) -> Result<PlannedResponse, CoreError> {
        Ok(self[id.index()])
    }
}

impl UpgradeMiddleware {
    /// Creates a middleware with no releases deployed.
    pub fn new(config: MiddlewareConfig) -> UpgradeMiddleware {
        UpgradeMiddleware {
            releases: ReleaseSet::new(),
            config,
            demands: 0,
            recorder: Box::new(NullRecorder),
            clock: 0.0,
            order_scratch: Vec::new(),
            record_pool: Vec::new(),
            lent: DemandRecord {
                seq: 0,
                t: 0.0,
                per_release: Vec::new(),
                system: SystemObservation {
                    verdict: SystemVerdict::Unavailable,
                    response_time: SimDuration::ZERO,
                    source: None,
                    responders: 0,
                },
            },
        }
    }

    /// Attaches a trace recorder; subsequent demands emit
    /// [`TraceEvent`]s (dispatch, per-release responses or timeouts, and
    /// the adjudicated verdict), all stamped with the demand's dispatch
    /// instant in virtual time.
    pub fn set_recorder(&mut self, recorder: impl Recorder + 'static) {
        self.recorder = Box::new(recorder);
    }

    /// Sets the virtual time stamped on subsequent trace events.
    pub fn set_virtual_time(&mut self, t: f64) {
        self.clock = t;
    }

    /// The virtual time that will stamp the next demand's events.
    pub fn virtual_time(&self) -> f64 {
        self.clock
    }

    /// Deploys a release behind the interface; returns its id.
    pub fn deploy(&mut self, endpoint: impl ServiceEndpoint + 'static) -> ReleaseId {
        self.releases.deploy(endpoint)
    }

    /// Deploys a boxed release.
    pub fn deploy_boxed(&mut self, endpoint: Box<dyn ServiceEndpoint>) -> ReleaseId {
        self.releases.deploy_boxed(endpoint)
    }

    /// The current configuration.
    pub fn config(&self) -> MiddlewareConfig {
        self.config
    }

    /// Reconfigures the middleware (mode, timeout, adjudicator — the
    /// run-time knobs of the paper's test harness, Section 6.1).
    pub fn set_config(&mut self, config: MiddlewareConfig) {
        self.config = config;
    }

    /// Access to the release set (lifecycle operations).
    pub fn releases(&self) -> &ReleaseSet {
        &self.releases
    }

    /// Mutable access to the release set.
    pub fn releases_mut(&mut self) -> &mut ReleaseSet {
        &mut self.releases
    }

    /// Release metadata, convenience for `releases().infos()`.
    pub fn release_infos(&self) -> Vec<ReleaseInfo> {
        self.releases.infos()
    }

    /// Demands processed so far.
    pub fn demands(&self) -> u64 {
        self.demands
    }

    /// Processes one consumer request end to end.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoActiveReleases`] if nothing is deployed and
    /// active.
    pub fn process(
        &mut self,
        request: &Envelope,
        rng: &mut StreamRng,
    ) -> Result<DemandRecord, CoreError> {
        let releases = self.releases.active_slice().len();
        if releases == 0 {
            return Err(CoreError::NoActiveReleases);
        }
        let seq = self.demands;
        self.demands += 1;
        let mut per_release = self.record_pool.pop().unwrap_or_default();
        per_release.clear();
        // Clock-aware endpoints (fault injectors with time windows) see
        // the dispatch instant just before they are invoked.
        let responses = Endpoints {
            request,
            now: self.clock,
        };
        let system = self.run_mode(&responses, &mut per_release, rng);
        let record = DemandRecord {
            seq,
            t: self.clock,
            per_release,
            system: system?,
        };
        if self.recorder.enabled() {
            emit_trace(self.recorder.as_mut(), &self.config, &record, releases);
        }
        Ok(record)
    }

    /// Processes one demand whose responses are planned: release `k` is
    /// `ReleaseId(k)` and answers with `planned[k]`. No endpoint is
    /// invoked and the deployed release set is not consulted; dispatch,
    /// collection, adjudication, the eq. (8) wait and the trace events
    /// are [`process`](UpgradeMiddleware::process)'s, draw for draw.
    ///
    /// The record stays inside the middleware and is lent until the
    /// next demand, so a plan-fed loop fills one record in place.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoActiveReleases`] for an empty plan and
    /// [`CoreError::InvalidConfig`] in
    /// [`OperatingMode::WeightedFleet`], whose routing needs deployed
    /// releases.
    pub fn process_planned(
        &mut self,
        planned: &[PlannedResponse],
        rng: &mut StreamRng,
    ) -> Result<&DemandRecord, CoreError> {
        if planned.is_empty() {
            return Err(CoreError::NoActiveReleases);
        }
        if self.config.mode == OperatingMode::WeightedFleet {
            return Err(CoreError::InvalidConfig(
                "weighted-fleet routing needs deployed releases".into(),
            ));
        }
        let seq = self.demands;
        self.demands += 1;
        let mut per_release = std::mem::take(&mut self.lent.per_release);
        per_release.clear();
        let system = self.run_mode(planned, &mut per_release, rng);
        self.lent.per_release = per_release;
        self.lent.system = system?;
        self.lent.seq = seq;
        self.lent.t = self.clock;
        if self.recorder.enabled() {
            emit_trace(
                self.recorder.as_mut(),
                &self.config,
                &self.lent,
                planned.len(),
            );
        }
        Ok(&self.lent)
    }

    /// Returns a processed record's per-release buffer to the pool so a
    /// later demand can reuse it instead of allocating. Closed-loop
    /// drivers call this once the record has been fully observed.
    pub fn recycle(&mut self, record: DemandRecord) {
        let mut buf = record.per_release;
        buf.clear();
        if self.record_pool.len() < 64 {
            self.record_pool.push(buf);
        }
    }

    /// Runs one demand in the configured mode, appending each invoked
    /// release's observation to `per_release`.
    fn run_mode<R: Responses + ?Sized>(
        &mut self,
        responses: &R,
        per_release: &mut Vec<ReleaseObservation>,
        rng: &mut StreamRng,
    ) -> Result<SystemObservation, CoreError> {
        match self.config.mode {
            OperatingMode::Sequential { order } => {
                self.process_sequential(responses, order, per_release, rng)
            }
            OperatingMode::WeightedFleet => self.process_weighted(responses, per_release, rng),
            _ => self.process_parallel(responses, per_release, rng),
        }
    }

    /// Release `id`'s response to the current demand, held against the
    /// timeout.
    fn observe<R: Responses + ?Sized>(
        &mut self,
        responses: &R,
        id: ReleaseId,
        rng: &mut StreamRng,
    ) -> Result<ReleaseObservation, CoreError> {
        let PlannedResponse { class, exec_time } =
            responses.respond(&mut self.releases, id, rng)?;
        Ok(ReleaseObservation {
            release: id,
            class,
            exec_time,
            within_timeout: exec_time <= self.config.timeout,
        })
    }

    /// Parallel modes: invoke everyone, then collect the responses in
    /// arrival order per the mode, adjudicate, and charge the eq. (8)
    /// wait.
    fn process_parallel<R: Responses + ?Sized>(
        &mut self,
        responses: &R,
        per_release: &mut Vec<ReleaseObservation>,
        rng: &mut StreamRng,
    ) -> Result<SystemObservation, CoreError> {
        let timeout = self.config.timeout;
        let dt = self.config.adjudication_delay;
        let mut i = 0;
        let mut latest = SimDuration::ZERO;
        while let Some(id) = responses.release(&self.releases, i) {
            let o = self.observe(responses, id, rng)?;
            latest = latest.max(o.exec_time);
            per_release.push(o);
            i += 1;
        }

        // The responses collected within the timeout, read in place and
        // in arrival order: by execution time, then by release.
        let observed: &[ReleaseObservation] = per_release;
        let n = observed.len();
        let collected = |i: usize| {
            let o = &observed[i];
            o.within_timeout.then_some(Arrival {
                key: (o.exec_time, o.release.index()),
                class: o.class,
                release: o.release,
            })
        };
        let adjudicator = self.config.adjudicator;
        Ok(match self.config.mode {
            OperatingMode::ParallelReliability => {
                let (adj, responders) = adjudicator.adjudicate_arrivals(n, collected, rng);
                // Wait for everyone or the timeout, whichever first.
                let wait = if responders == n { latest } else { timeout };
                SystemObservation {
                    verdict: adj.verdict,
                    response_time: wait + dt,
                    source: adj.source,
                    responders,
                }
            }
            OperatingMode::ParallelResponsiveness => {
                // Return the first valid response as soon as it arrives.
                let tally = Tally::of(n, collected);
                match tally.first_valid {
                    Some(first_valid) => SystemObservation {
                        verdict: SystemVerdict::Response(first_valid.class),
                        response_time: first_valid.key.0 + dt,
                        source: Some(first_valid.release),
                        responders: tally.responders,
                    },
                    None if tally.responders > 0 => SystemObservation {
                        // Only evident failures arrived; the middleware
                        // learns this for sure when the timeout expires.
                        verdict: SystemVerdict::Response(ResponseClass::EvidentFailure),
                        response_time: timeout + dt,
                        source: None,
                        responders: tally.responders,
                    },
                    None => SystemObservation {
                        verdict: SystemVerdict::Unavailable,
                        response_time: timeout + dt,
                        source: None,
                        responders: 0,
                    },
                }
            }
            OperatingMode::ParallelDynamic { quorum } => {
                // Adjudicate the first `quorum` responses to arrive.
                let quorum = quorum.max(1);
                let arrived = observed.iter().filter(|o| o.within_timeout).count();
                let last =
                    (arrived > quorum).then(|| nth_arrival(n, collected, |_| true, quorum - 1));
                let first = move |i: usize| {
                    collected(i).filter(|a| last.is_none_or(|last| !last.before(a)))
                };
                let (adj, responders) = adjudicator.adjudicate_arrivals(n, first, rng);
                let wait = if arrived >= quorum {
                    (0..n)
                        .filter_map(first)
                        .map(|a| a.key.0)
                        .fold(SimDuration::ZERO, SimDuration::max)
                } else {
                    // Quorum never reached: the timeout expires first.
                    timeout
                };
                SystemObservation {
                    verdict: adj.verdict,
                    response_time: wait + dt,
                    source: adj.source,
                    responders,
                }
            }
            OperatingMode::Sequential { .. } | OperatingMode::WeightedFleet => {
                unreachable!("handled by process_sequential/process_weighted")
            }
        })
    }

    /// Weighted-fleet mode: a single uniform draw routes the demand to
    /// exactly one active release in proportion to the traffic weights
    /// (canary chains). The chosen release's response is forwarded as
    /// is — there is nothing to adjudicate against — so the consumer's
    /// wait is that release's execution time (bounded by the timeout)
    /// plus `dT`.
    fn process_weighted<R: Responses + ?Sized>(
        &mut self,
        responses: &R,
        per_release: &mut Vec<ReleaseObservation>,
        rng: &mut StreamRng,
    ) -> Result<SystemObservation, CoreError> {
        let timeout = self.config.timeout;
        let dt = self.config.adjudication_delay;
        let u = rng.next_f64();
        let id = self.releases.route(u).ok_or(CoreError::NoActiveReleases)?;
        let obs = self.observe(responses, id, rng)?;
        per_release.push(obs);
        Ok(if obs.within_timeout {
            SystemObservation {
                verdict: SystemVerdict::Response(obs.class),
                response_time: obs.exec_time + dt,
                source: Some(id),
                responders: 1,
            }
        } else {
            SystemObservation {
                verdict: SystemVerdict::Unavailable,
                response_time: timeout + dt,
                source: None,
                responders: 0,
            }
        })
    }

    /// Mode 4: one release at a time; each attempt is bounded by the
    /// timeout; attempt durations accumulate into the consumer's wait.
    fn process_sequential<R: Responses + ?Sized>(
        &mut self,
        responses: &R,
        order: SequentialOrder,
        per_release: &mut Vec<ReleaseObservation>,
        rng: &mut StreamRng,
    ) -> Result<SystemObservation, CoreError> {
        let timeout = self.config.timeout;
        let dt = self.config.adjudication_delay;
        let mut order_ids = std::mem::take(&mut self.order_scratch);
        order_ids.clear();
        order_ids.extend((0..).map_while(|i| responses.release(&self.releases, i)));
        if order == SequentialOrder::Random {
            // Fisher–Yates with the demand's RNG stream.
            for i in (1..order_ids.len()).rev() {
                let j = rng.next_below((i + 1) as u64) as usize;
                order_ids.swap(i, j);
            }
        }
        let mut waited = SimDuration::ZERO;
        let mut any_evident_collected = false;
        let mut outcome: Option<(SystemVerdict, Option<ReleaseId>)> = None;
        for &id in &order_ids {
            let obs = self.observe(responses, id, rng)?;
            per_release.push(obs);
            waited += obs.exec_time.min(timeout);
            if !obs.within_timeout {
                // Timed out: try the next release.
                continue;
            }
            if obs.class.is_valid() {
                outcome = Some((SystemVerdict::Response(obs.class), Some(id)));
                break;
            }
            any_evident_collected = true;
        }
        let (verdict, source) = outcome.unwrap_or({
            if any_evident_collected {
                (SystemVerdict::Response(ResponseClass::EvidentFailure), None)
            } else {
                (SystemVerdict::Unavailable, None)
            }
        });
        order_ids.clear();
        self.order_scratch = order_ids;
        let responders = per_release.iter().filter(|o| o.within_timeout).count();
        Ok(SystemObservation {
            verdict,
            response_time: waited + dt,
            source,
            responders,
        })
    }
}

/// Emits a demand's trace events, all stamped with its dispatch instant
/// (so an ordered trace has non-decreasing timestamps; per-event
/// latencies travel in the payloads).
fn emit_trace(
    recorder: &mut dyn Recorder,
    config: &MiddlewareConfig,
    record: &DemandRecord,
    releases: usize,
) {
    let t = record.t;
    let demand = record.seq;
    recorder.record(TraceEvent::DemandDispatched {
        t,
        demand,
        releases,
        mode: config.mode.label(),
    });
    for obs in &record.per_release {
        if obs.within_timeout {
            recorder.record(TraceEvent::ResponseCollected {
                t,
                demand,
                release: obs.release.index(),
                class: obs.class.abbrev().into(),
                exec_time: obs.exec_time.as_secs(),
            });
        } else {
            recorder.record(TraceEvent::Timeout {
                t,
                demand,
                release: obs.release.index(),
                timeout: config.timeout.as_secs(),
            });
        }
    }
    recorder.record(TraceEvent::Adjudicated {
        t,
        demand,
        verdict: record.system.verdict.label().into(),
        source: record.system.source.map(|r| r.index()),
        responders: record.system.responders,
        response_time: record.system.response_time.as_secs(),
    });
    // The demand's virtual-time cost, attributed per phase: under
    // eq. (8) the consumer's wait is transport (release execution,
    // capped by the timeout) plus the adjudication delay `dT`;
    // detection, Bayes updates and recovery run between demands and
    // cost zero virtual seconds. All-numeric payload — no
    // allocation on the per-demand path.
    let dt = config.adjudication_delay.as_secs();
    let response_time = record.system.response_time.as_secs();
    recorder.record(TraceEvent::SpanClosed {
        t,
        demand,
        transport: (response_time - dt).max(0.0),
        detection: 0.0,
        adjudication: dt,
        bayes: 0.0,
        recovery: 0.0,
    });
}

impl std::fmt::Debug for UpgradeMiddleware {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpgradeMiddleware")
            .field("config", &self.config)
            .field("releases", &self.releases)
            .field("demands", &self.demands)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_simcore::dist::DelayModel;
    use wsu_wstack::endpoint::{PlannedResponse, ScriptedEndpoint, SyntheticService};
    use wsu_wstack::outcome::OutcomeProfile;

    fn planned(class: ResponseClass, secs: f64) -> PlannedResponse {
        PlannedResponse {
            class,
            exec_time: SimDuration::from_secs(secs),
        }
    }

    fn scripted(version: &str, plan: &[(ResponseClass, f64)]) -> ScriptedEndpoint {
        let mut ep = ScriptedEndpoint::new("Svc", version);
        ep.extend(plan.iter().map(|&(c, t)| planned(c, t)));
        ep
    }

    fn run_one(mw: &mut UpgradeMiddleware, seed: u64) -> DemandRecord {
        let mut rng = StreamRng::from_seed(seed);
        mw.process(&Envelope::request("invoke"), &mut rng).unwrap()
    }

    #[test]
    fn no_releases_is_an_error() {
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::default());
        let mut rng = StreamRng::from_seed(1);
        assert_eq!(
            mw.process(&Envelope::request("invoke"), &mut rng),
            Err(CoreError::NoActiveReleases)
        );
    }

    #[test]
    fn parallel_reliability_waits_for_slower_release() {
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(1.5));
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 0.4)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 0.9)]));
        let rec = run_one(&mut mw, 2);
        assert!(rec.system.verdict.is_correct());
        // max(0.4, 0.9) + dT = 1.0.
        assert!((rec.system.response_time.as_secs() - 1.0).abs() < 1e-12);
        assert_eq!(rec.system.responders, 2);
        assert_eq!(rec.per_release.len(), 2);
    }

    #[test]
    fn late_response_is_not_collected() {
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(1.5));
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 0.4)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 2.5)]));
        let rec = run_one(&mut mw, 3);
        assert!(rec.system.verdict.is_correct());
        assert_eq!(rec.system.responders, 1);
        // One release straggled: the middleware waits out the timeout.
        assert!((rec.system.response_time.as_secs() - 1.6).abs() < 1e-12);
        let slow = rec.observation(ReleaseId::new(1)).unwrap();
        assert!(!slow.within_timeout);
    }

    #[test]
    fn both_late_is_unavailable() {
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(1.5));
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 9.0)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 9.0)]));
        let rec = run_one(&mut mw, 4);
        assert_eq!(rec.system.verdict, SystemVerdict::Unavailable);
        assert_eq!(rec.system.responders, 0);
    }

    #[test]
    fn all_evident_raises_exception() {
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(1.5));
        mw.deploy(scripted("1.0", &[(ResponseClass::EvidentFailure, 0.4)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::EvidentFailure, 0.5)]));
        let rec = run_one(&mut mw, 5);
        assert_eq!(
            rec.system.verdict,
            SystemVerdict::Response(ResponseClass::EvidentFailure)
        );
    }

    #[test]
    fn single_valid_wins_over_evident() {
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(1.5));
        mw.deploy(scripted("1.0", &[(ResponseClass::EvidentFailure, 0.4)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::NonEvidentFailure, 0.5)]));
        let rec = run_one(&mut mw, 6);
        assert_eq!(
            rec.system.verdict,
            SystemVerdict::Response(ResponseClass::NonEvidentFailure)
        );
        assert_eq!(rec.system.source, Some(ReleaseId::new(1)));
    }

    #[test]
    fn responsiveness_returns_fastest_valid() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::ParallelResponsiveness;
        let mut mw = UpgradeMiddleware::new(config);
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 1.2)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 0.3)]));
        let rec = run_one(&mut mw, 7);
        assert!(rec.system.verdict.is_correct());
        assert_eq!(rec.system.source, Some(ReleaseId::new(1)));
        // 0.3 + dT.
        assert!((rec.system.response_time.as_secs() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn responsiveness_skips_evident_failure() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::ParallelResponsiveness;
        let mut mw = UpgradeMiddleware::new(config);
        mw.deploy(scripted("1.0", &[(ResponseClass::EvidentFailure, 0.1)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 0.8)]));
        let rec = run_one(&mut mw, 8);
        assert!(rec.system.verdict.is_correct());
        assert!((rec.system.response_time.as_secs() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn dynamic_quorum_one_behaves_like_responsiveness_timing() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::ParallelDynamic { quorum: 1 };
        let mut mw = UpgradeMiddleware::new(config);
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 1.2)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 0.3)]));
        let rec = run_one(&mut mw, 9);
        assert!(rec.system.verdict.is_correct());
        assert!((rec.system.response_time.as_secs() - 0.4).abs() < 1e-12);
        assert_eq!(rec.system.responders, 1);
    }

    #[test]
    fn dynamic_quorum_two_waits_for_both() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::ParallelDynamic { quorum: 2 };
        let mut mw = UpgradeMiddleware::new(config);
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 1.2)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 0.3)]));
        let rec = run_one(&mut mw, 10);
        assert!((rec.system.response_time.as_secs() - 1.3).abs() < 1e-12);
        assert_eq!(rec.system.responders, 2);
    }

    #[test]
    fn dynamic_quorum_unreached_waits_for_timeout() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::ParallelDynamic { quorum: 2 };
        let mut mw = UpgradeMiddleware::new(config);
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 0.3)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 5.0)]));
        let rec = run_one(&mut mw, 11);
        assert!(rec.system.verdict.is_correct());
        assert!((rec.system.response_time.as_secs() - 1.6).abs() < 1e-12);
        assert_eq!(rec.system.responders, 1);
    }

    #[test]
    fn sequential_stops_at_first_valid() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::Sequential {
            order: SequentialOrder::Deployment,
        };
        let mut mw = UpgradeMiddleware::new(config);
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 0.4)]));
        // Would fail, but must never be invoked.
        mw.deploy(scripted("1.1", &[]));
        let rec = run_one(&mut mw, 12);
        assert!(rec.system.verdict.is_correct());
        assert_eq!(rec.per_release.len(), 1);
        assert!((rec.system.response_time.as_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sequential_tries_next_on_evident_failure() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::Sequential {
            order: SequentialOrder::Deployment,
        };
        let mut mw = UpgradeMiddleware::new(config);
        mw.deploy(scripted("1.0", &[(ResponseClass::EvidentFailure, 0.4)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 0.6)]));
        let rec = run_one(&mut mw, 13);
        assert!(rec.system.verdict.is_correct());
        assert_eq!(rec.per_release.len(), 2);
        // 0.4 + 0.6 + dT.
        assert!((rec.system.response_time.as_secs() - 1.1).abs() < 1e-12);
        assert_eq!(rec.system.source, Some(ReleaseId::new(1)));
    }

    #[test]
    fn sequential_timeout_counts_and_moves_on() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::Sequential {
            order: SequentialOrder::Deployment,
        };
        let mut mw = UpgradeMiddleware::new(config);
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 99.0)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 0.6)]));
        let rec = run_one(&mut mw, 14);
        assert!(rec.system.verdict.is_correct());
        // Capped first attempt (1.5) + 0.6 + dT.
        assert!((rec.system.response_time.as_secs() - 2.2).abs() < 1e-12);
        assert!(!rec.per_release[0].within_timeout);
    }

    #[test]
    fn sequential_all_evident_is_exception() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::Sequential {
            order: SequentialOrder::Deployment,
        };
        let mut mw = UpgradeMiddleware::new(config);
        mw.deploy(scripted("1.0", &[(ResponseClass::EvidentFailure, 0.4)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::EvidentFailure, 0.4)]));
        let rec = run_one(&mut mw, 15);
        assert_eq!(
            rec.system.verdict,
            SystemVerdict::Response(ResponseClass::EvidentFailure)
        );
    }

    #[test]
    fn planned_sequential_answers_each_demand_from_its_own_pair() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::Sequential {
            order: SequentialOrder::Deployment,
        };
        let mut mw = UpgradeMiddleware::new(config);
        let mut rng = StreamRng::from_seed(19);
        // Demand 0: release 1 answers, so release 2's pair goes unused.
        let first = [
            planned(ResponseClass::Correct, 0.4),
            planned(ResponseClass::EvidentFailure, 0.3),
        ];
        let rec = mw.process_planned(&first, &mut rng).unwrap();
        assert_eq!(rec.per_release.len(), 1);
        // Demand 1: release 1 fails evidently and release 2 answers with
        // demand 1's response, not demand 0's unused one.
        let second = [
            planned(ResponseClass::EvidentFailure, 0.2),
            planned(ResponseClass::Correct, 0.7),
        ];
        let rec = mw.process_planned(&second, &mut rng).unwrap();
        assert_eq!(rec.seq, 1);
        assert_eq!(rec.per_release[1].class, ResponseClass::Correct);
        assert_eq!(rec.per_release[1].exec_time, SimDuration::from_secs(0.7));
        assert_eq!(rec.system.source, Some(ReleaseId::new(1)));
        // 0.2 + 0.7 + dT.
        assert!((rec.system.response_time.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn planned_demands_need_a_plan_and_a_dispatching_mode() {
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(1.5));
        let mut rng = StreamRng::from_seed(22);
        assert_eq!(
            mw.process_planned(&[], &mut rng),
            Err(CoreError::NoActiveReleases)
        );
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::WeightedFleet;
        mw.set_config(config);
        let pair = [planned(ResponseClass::Correct, 0.4); 2];
        assert!(matches!(
            mw.process_planned(&pair, &mut rng),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn sequential_all_timed_out_is_unavailable() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::Sequential {
            order: SequentialOrder::Deployment,
        };
        let mut mw = UpgradeMiddleware::new(config);
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 9.0)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 9.0)]));
        let rec = run_one(&mut mw, 16);
        assert_eq!(rec.system.verdict, SystemVerdict::Unavailable);
    }

    #[test]
    fn weighted_fleet_routes_each_demand_to_one_release() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::WeightedFleet;
        let mut mw = UpgradeMiddleware::new(config);
        let a = mw.deploy(
            SyntheticService::builder("Svc", "1.0")
                .outcomes(OutcomeProfile::always_correct())
                .exec_time(DelayModel::constant(0.3))
                .build(),
        );
        let b = mw.deploy(
            SyntheticService::builder("Svc", "1.1")
                .outcomes(OutcomeProfile::always_correct())
                .exec_time(DelayModel::constant(0.2))
                .build(),
        );
        mw.releases_mut().set_weight(a, 0.9).unwrap();
        mw.releases_mut().set_weight(b, 0.1).unwrap();
        let mut rng = StreamRng::from_seed(20);
        let mut counts = [0u32; 2];
        for _ in 0..500 {
            let rec = mw.process(&Envelope::request("invoke"), &mut rng).unwrap();
            assert_eq!(rec.per_release.len(), 1);
            assert_eq!(rec.system.responders, 1);
            assert!(rec.system.verdict.is_correct());
            let source = rec.system.source.unwrap();
            assert_eq!(source, rec.per_release[0].release);
            counts[source.index()] += 1;
            // Single-release wait: that release's exec time + dT.
            let expected = rec.per_release[0].exec_time.as_secs() + 0.1;
            assert!((rec.system.response_time.as_secs() - expected).abs() < 1e-12);
            mw.recycle(rec);
        }
        // 90/10 split: the heavy release must dominate.
        assert!(counts[0] > 400, "counts: {counts:?}");
        assert!(counts[1] > 10, "counts: {counts:?}");
    }

    #[test]
    fn weighted_fleet_timeout_is_unavailable() {
        let mut config = MiddlewareConfig::paper(1.5);
        config.mode = OperatingMode::WeightedFleet;
        let mut mw = UpgradeMiddleware::new(config);
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 9.0)]));
        let rec = run_one(&mut mw, 21);
        assert_eq!(rec.system.verdict, SystemVerdict::Unavailable);
        assert_eq!(rec.system.responders, 0);
        assert_eq!(rec.system.source, None);
        // Timeout + dT.
        assert!((rec.system.response_time.as_secs() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn suspended_release_is_not_invoked() {
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(1.5));
        let a = mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 0.4)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 0.5)]));
        mw.releases_mut().suspend(a).unwrap();
        let rec = run_one(&mut mw, 17);
        assert_eq!(rec.per_release.len(), 1);
        assert_eq!(rec.per_release[0].release, ReleaseId::new(1));
    }

    #[test]
    fn trace_events_cover_the_demand() {
        use wsu_obs::SharedRecorder;
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(1.5));
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 0.4)]));
        mw.deploy(scripted("1.1", &[(ResponseClass::Correct, 2.5)]));
        let recorder = SharedRecorder::new();
        mw.set_recorder(recorder.clone());
        mw.set_virtual_time(10.5);
        assert_eq!(mw.virtual_time(), 10.5);
        let rec = run_one(&mut mw, 3);
        let events = recorder.snapshot();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "DemandDispatched",
                "ResponseCollected",
                "Timeout",
                "Adjudicated",
                "SpanClosed"
            ]
        );
        assert_eq!(rec.t, 10.5);
        assert!(events.iter().all(|e| e.virtual_time() == 10.5));
        assert!(events.iter().all(|e| e.demand() == rec.seq));
        match &events[3] {
            wsu_obs::TraceEvent::Adjudicated {
                verdict,
                responders,
                response_time,
                ..
            } => {
                assert_eq!(verdict, "CR");
                assert_eq!(*responders, 1);
                assert!((response_time - rec.system.response_time.as_secs()).abs() < 1e-12);
            }
            other => panic!("expected Adjudicated, got {other:?}"),
        }
    }

    #[test]
    fn null_recorder_emits_nothing_by_default() {
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(1.5));
        mw.deploy(scripted("1.0", &[(ResponseClass::Correct, 0.4)]));
        // No recorder attached: processing works and no trace exists.
        let rec = run_one(&mut mw, 2);
        assert!(rec.system.verdict.is_correct());
    }

    #[test]
    fn demand_counter_and_reconfig() {
        let mut mw = UpgradeMiddleware::new(MiddlewareConfig::paper(1.5));
        mw.deploy(
            SyntheticService::builder("Svc", "1.0")
                .outcomes(OutcomeProfile::always_correct())
                .exec_time(DelayModel::constant(0.1))
                .build(),
        );
        let mut rng = StreamRng::from_seed(18);
        for _ in 0..3 {
            mw.process(&Envelope::request("invoke"), &mut rng).unwrap();
        }
        assert_eq!(mw.demands(), 3);
        let mut cfg = mw.config();
        cfg.timeout = SimDuration::from_secs(3.0);
        mw.set_config(cfg);
        assert_eq!(mw.config().timeout.as_secs(), 3.0);
        assert_eq!(mw.release_infos().len(), 1);
    }
}
