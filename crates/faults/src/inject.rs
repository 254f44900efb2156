//! The [`FaultInjector`] endpoint wrapper.
//!
//! Follows the same composable-wrapper pattern as
//! [`TransportLink`](wsu_wstack::transport::TransportLink) and
//! [`RetryingEndpoint`](wsu_wstack::RetryingEndpoint): the injector *is*
//! a [`ServiceEndpoint`], so it can sit anywhere in an endpoint stack —
//! between the middleware and a release, or around a transport link.
//!
//! All randomness comes from per-clause
//! [`MasterSeed`] streams derived at
//! construction, so a run is reproducible bit for bit and two injectors
//! sharing a probabilistic stream name fire coincidentally.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use wsu_obs::{CounterId, Recorder, SharedRecorder, SharedRegistry, TraceEvent};
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_simcore::time::SimDuration;
use wsu_wstack::endpoint::{Invocation, ResponseTemplates, ServiceEndpoint};
use wsu_wstack::message::{Envelope, Fault, FaultCode};
use wsu_wstack::outcome::ResponseClass;

use crate::plan::{FaultAction, FaultClause, FaultPlan, FaultTrigger};

/// An execution time no middleware timeout will ever accept — the same
/// "response never arrives" sentinel the transport layer uses (about one
/// year of virtual time).
const NEVER_SECS: f64 = 3.15e7;

#[derive(Debug, Default)]
struct TallyInner {
    by_kind: BTreeMap<&'static str, u64>,
    by_clause: Vec<u64>,
    total: u64,
}

/// A cloneable handle onto an injector's running counts, usable after
/// the injector itself has been moved into a middleware.
#[derive(Debug, Clone, Default)]
pub struct InjectionTally {
    inner: Rc<RefCell<TallyInner>>,
}

impl InjectionTally {
    fn new(clauses: usize) -> InjectionTally {
        InjectionTally {
            inner: Rc::new(RefCell::new(TallyInner {
                by_kind: BTreeMap::new(),
                by_clause: vec![0; clauses],
                total: 0,
            })),
        }
    }

    fn bump(&self, clause: usize, kind: &'static str) {
        let mut inner = self.inner.borrow_mut();
        *inner.by_kind.entry(kind).or_insert(0) += 1;
        inner.by_clause[clause] += 1;
        inner.total += 1;
    }

    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.inner.borrow().total
    }

    /// Per-kind injection counts, sorted by kind label.
    pub fn by_kind(&self) -> Vec<(&'static str, u64)> {
        self.inner
            .borrow()
            .by_kind
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// Faults injected by the clause at `index` (plan order).
    pub fn fired(&self, index: usize) -> u64 {
        self.inner
            .borrow()
            .by_clause
            .get(index)
            .copied()
            .unwrap_or(0)
    }
}

/// One armed clause: the plan clause plus its private random stream.
#[derive(Debug)]
struct ArmedClause {
    clause: FaultClause,
    rng: Option<StreamRng>,
}

/// Why an injected response is a fault envelope: one per fault reply
/// the injector synthesises instead of the wrapped endpoint's answer.
#[derive(Debug, Clone, Copy)]
enum FaultReason {
    Crashed,
    Dropped,
    Flapped,
    Corrupted,
}

impl FaultReason {
    fn fault(self) -> Fault {
        match self {
            FaultReason::Crashed => Fault::new(FaultCode::Timeout, "endpoint crashed"),
            FaultReason::Dropped => Fault::new(FaultCode::Timeout, "response dropped in transit"),
            FaultReason::Flapped => Fault::new(FaultCode::Timeout, "release flapped down"),
            FaultReason::Corrupted => Fault::new(FaultCode::Sender, "message corrupted in transit"),
        }
    }
}

/// The injector's pooled replies for one operation: the class templates
/// a wrong value answers with, and one shared fault envelope per
/// [`FaultReason`]. Each envelope is built on its first use and rebuilt
/// only when the operation changes, so a warm injector hands out
/// reference-count bumps instead of fresh envelopes.
#[derive(Debug, Default)]
struct FaultReplies {
    classes: ResponseTemplates,
    operation: String,
    faults: [Option<Rc<Envelope>>; 4],
}

impl FaultReplies {
    fn fault(&mut self, operation: &str, reason: FaultReason) -> Rc<Envelope> {
        if self.operation != operation {
            self.operation.clear();
            self.operation.push_str(operation);
            self.faults = Default::default();
        }
        let slot = &mut self.faults[reason as usize];
        Rc::clone(slot.get_or_insert_with(|| Rc::new(Envelope::fault(operation, reason.fault()))))
    }
}

/// A fault-injecting wrapper around any [`ServiceEndpoint`].
///
/// # Example
///
/// ```
/// use wsu_faults::inject::FaultInjector;
/// use wsu_faults::plan::{FaultAction, FaultClause, FaultPlan, FaultTrigger};
/// use wsu_simcore::rng::MasterSeed;
/// use wsu_wstack::endpoint::{ServiceEndpoint, SyntheticService};
/// use wsu_wstack::message::Envelope;
/// use wsu_wstack::outcome::ResponseClass;
///
/// let plan = FaultPlan::new().with_clause(FaultClause::new(
///     "early-crash",
///     FaultTrigger::DemandWindow { from: 0, to: 2 },
///     FaultAction::Crash,
/// ));
/// let svc = SyntheticService::builder("S", "1.0").build();
/// let mut inj = FaultInjector::new(svc, plan, MasterSeed::new(7));
/// let mut rng = MasterSeed::new(7).stream("demo");
/// let first = inj.invoke(&Envelope::request("invoke"), &mut rng);
/// assert!(first.exec_time.as_secs() > 1e6); // crashed: never answers
/// let _ = inj.invoke(&Envelope::request("invoke"), &mut rng);
/// let third = inj.invoke(&Envelope::request("invoke"), &mut rng);
/// assert_eq!(third.class, ResponseClass::Correct); // window over
/// assert_eq!(inj.tally().total(), 2);
/// ```
pub struct FaultInjector<S> {
    endpoint: S,
    release: String,
    clauses: Vec<ArmedClause>,
    index: u64,
    virtual_time: f64,
    tally: InjectionTally,
    recorder: Option<SharedRecorder>,
    metrics: Option<SharedRegistry>,
    /// Resolved `wsu_fault_injected_total{kind,release}` ids, one per
    /// distinct kind seen, so repeat injections don't re-render labels.
    injected_ids: Vec<(&'static str, CounterId)>,
    replies: FaultReplies,
}

impl<S: ServiceEndpoint> FaultInjector<S> {
    /// Arms `plan` around `endpoint`. Probabilistic clauses draw from
    /// `seed.stream(stream_name)` — share or separate the stream names
    /// to correlate or decorrelate injectors built from the same seed.
    pub fn new(endpoint: S, plan: FaultPlan, seed: MasterSeed) -> FaultInjector<S> {
        let release = endpoint.describe().release().to_owned();
        let clauses: Vec<ArmedClause> = plan
            .clauses()
            .iter()
            .map(|clause| ArmedClause {
                rng: match &clause.trigger {
                    FaultTrigger::Probabilistic { stream, .. } => Some(seed.stream(stream)),
                    _ => None,
                },
                clause: clause.clone(),
            })
            .collect();
        let tally = InjectionTally::new(clauses.len());
        FaultInjector {
            endpoint,
            release,
            clauses,
            index: 0,
            virtual_time: 0.0,
            tally,
            recorder: None,
            metrics: None,
            injected_ids: Vec::new(),
            replies: FaultReplies::default(),
        }
    }

    /// Emits a [`TraceEvent::FaultInjected`] per injection (builder).
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Counts injections into `wsu_fault_injected_total{kind,release}`
    /// (builder).
    pub fn with_metrics(mut self, metrics: SharedRegistry) -> Self {
        self.metrics = Some(metrics);
        self.injected_ids.clear();
        self
    }

    /// A handle onto the injection counts that stays readable after the
    /// injector is moved into a middleware.
    pub fn tally(&self) -> InjectionTally {
        self.tally.clone()
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.tally.total()
    }

    /// Demands seen so far (the injector-local index).
    pub fn demands_seen(&self) -> u64 {
        self.index
    }

    /// The injector's current virtual-time clock, in seconds.
    pub fn virtual_time(&self) -> f64 {
        self.virtual_time
    }

    /// Access to the wrapped endpoint.
    pub fn endpoint(&self) -> &S {
        &self.endpoint
    }

    /// Mutable access to the wrapped endpoint.
    pub fn endpoint_mut(&mut self) -> &mut S {
        &mut self.endpoint
    }

    /// Unwraps the injector, returning the endpoint.
    pub fn into_inner(self) -> S {
        self.endpoint
    }

    /// Evaluates every clause's trigger for the demand at `index`,
    /// returning the first match. Every probabilistic clause draws
    /// exactly once per demand — matched or not — so each clause's
    /// firing pattern depends only on its own stream and the demand
    /// index, never on the other clauses.
    fn matched_clause(&mut self, index: u64) -> Option<usize> {
        let now = self.virtual_time;
        let mut matched = None;
        for (i, armed) in self.clauses.iter_mut().enumerate() {
            let hit = match &armed.clause.trigger {
                FaultTrigger::DemandWindow { from, to } => index >= *from && index < *to,
                FaultTrigger::TimeWindow { from_secs, to_secs } => {
                    now >= *from_secs && now < *to_secs
                }
                FaultTrigger::EveryNth { n, phase } => index % *n == *phase,
                FaultTrigger::Probabilistic { p, .. } => armed
                    .rng
                    .as_mut()
                    .expect("probabilistic clause armed")
                    .bernoulli(*p),
            };
            if hit && matched.is_none() {
                matched = Some(i);
            }
        }
        matched
    }

    /// A response that never reaches the consumer: ground-truth `class`,
    /// an execution time beyond any timeout and the pooled fault
    /// envelope for `reason`.
    fn never_arrives(
        &mut self,
        operation: &str,
        class: ResponseClass,
        reason: FaultReason,
    ) -> Invocation {
        Invocation {
            class,
            exec_time: SimDuration::from_secs(NEVER_SECS),
            response: self.replies.fault(operation, reason),
        }
    }

    fn record_injection(&mut self, clause_index: usize, kind: &'static str, demand: u64) {
        self.tally.bump(clause_index, kind);
        if let Some(metrics) = &self.metrics {
            let id = match self.injected_ids.iter().find(|(k, _)| *k == kind) {
                Some(&(_, id)) => id,
                None => {
                    let id = metrics.counter_id(
                        "wsu_fault_injected_total",
                        &[("kind", kind), ("release", &self.release)],
                    );
                    self.injected_ids.push((kind, id));
                    id
                }
            };
            metrics.inc_counter_id(id);
        }
        if let Some(recorder) = &self.recorder {
            recorder.clone().record(TraceEvent::FaultInjected {
                t: self.virtual_time,
                demand,
                release: self.release.clone(),
                clause: self.clauses[clause_index].clause.name.clone(),
                kind: kind.to_string(),
            });
        }
    }
}

impl<S: ServiceEndpoint> ServiceEndpoint for FaultInjector<S> {
    fn describe(&self) -> &wsu_wstack::wsdl::ServiceDescription {
        self.endpoint.describe()
    }

    fn invoke(&mut self, request: &Envelope, rng: &mut StreamRng) -> Invocation {
        let index = self.index;
        self.index += 1;
        let demand = index + 1;
        let Some(i) = self.matched_clause(index) else {
            return self.endpoint.invoke(request, rng);
        };
        let action = self.clauses[i].clause.action.clone();
        let op = request.operation();
        let invocation = match &action {
            FaultAction::Crash => {
                // Down: the request is never served.
                self.never_arrives(op, ResponseClass::EvidentFailure, FaultReason::Crashed)
            }
            FaultAction::Hang { delay_secs } => {
                let mut inv = self.endpoint.invoke(request, rng);
                inv.exec_time += SimDuration::from_secs(*delay_secs);
                inv
            }
            FaultAction::WrongValue { evident } => {
                let inner = self.endpoint.invoke(request, rng);
                let class = if *evident {
                    ResponseClass::EvidentFailure
                } else {
                    ResponseClass::NonEvidentFailure
                };
                self.replies.classes.invocation(op, class, inner.exec_time)
            }
            FaultAction::LatencySpike { extra_secs } => {
                let mut inv = self.endpoint.invoke(request, rng);
                inv.exec_time += SimDuration::from_secs(*extra_secs);
                inv
            }
            FaultAction::TimeoutBoundary {
                timeout_secs,
                margin_secs,
            } => {
                let mut inv = self.endpoint.invoke(request, rng);
                inv.exec_time = SimDuration::from_secs(timeout_secs + margin_secs);
                inv
            }
            FaultAction::DropResponse => {
                // The service executed — its ground-truth class is
                // preserved — but the response is lost on the way back.
                let inner = self.endpoint.invoke(request, rng);
                self.never_arrives(op, inner.class, FaultReason::Dropped)
            }
            FaultAction::DuplicateRequest => {
                // The request is delivered twice; the first response is
                // used and the duplicate's discarded.
                let first = self.endpoint.invoke(request, rng);
                let _duplicate = self.endpoint.invoke(request, rng);
                first
            }
            FaultAction::CorruptMessage => {
                let inner = self.endpoint.invoke(request, rng);
                Invocation {
                    class: ResponseClass::EvidentFailure,
                    exec_time: inner.exec_time,
                    response: self.replies.fault(op, FaultReason::Corrupted),
                }
            }
            FaultAction::Flap { period } => {
                if (index / period) % 2 == 1 {
                    self.never_arrives(op, ResponseClass::EvidentFailure, FaultReason::Flapped)
                } else {
                    // Up phase: unperturbed, and not counted as injected.
                    return self.endpoint.invoke(request, rng);
                }
            }
        };
        self.record_injection(i, action.kind(), demand);
        invocation
    }

    fn advance_clock(&mut self, now_secs: f64) {
        self.virtual_time = now_secs;
        self.endpoint.advance_clock(now_secs);
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for FaultInjector<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("endpoint", &self.endpoint)
            .field("clauses", &self.clauses.len())
            .field("demands_seen", &self.index)
            .field("injected", &self.tally.total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_wstack::endpoint::SyntheticService;

    const SEED: MasterSeed = MasterSeed::new(0xFA_0175);

    fn service() -> SyntheticService {
        SyntheticService::builder("S", "1.0")
            .exec_time(wsu_simcore::dist::DelayModel::constant(0.5))
            .build()
    }

    fn drive(injector: &mut FaultInjector<SyntheticService>, n: u64) -> Vec<Invocation> {
        let mut rng = SEED.stream("drive");
        let req = Envelope::request("invoke");
        (0..n).map(|_| injector.invoke(&req, &mut rng)).collect()
    }

    fn one_clause(trigger: FaultTrigger, action: FaultAction) -> FaultPlan {
        FaultPlan::new().with_clause(FaultClause::new("c", trigger, action))
    }

    #[test]
    fn crash_window_counts_exactly() {
        let plan = one_clause(
            FaultTrigger::DemandWindow { from: 3, to: 7 },
            FaultAction::Crash,
        );
        let mut inj = FaultInjector::new(service(), plan, SEED);
        let invs = drive(&mut inj, 10);
        assert_eq!(inj.injected(), 4);
        for (i, inv) in invs.iter().enumerate() {
            let crashed = (3..7).contains(&i);
            assert_eq!(inv.exec_time.as_secs() > 1e6, crashed, "demand {i}");
            if crashed {
                assert!(inv.response.is_fault());
            }
        }
    }

    #[test]
    fn wrong_values_keep_inner_timing() {
        let plan = one_clause(
            FaultTrigger::EveryNth { n: 2, phase: 0 },
            FaultAction::WrongValue { evident: false },
        );
        let mut inj = FaultInjector::new(service(), plan, SEED);
        let invs = drive(&mut inj, 4);
        assert_eq!(invs[0].class, ResponseClass::NonEvidentFailure);
        assert!(!invs[0].response.is_fault(), "NER looks valid on the wire");
        assert_eq!(invs[0].exec_time.as_secs(), 0.5);
        assert_eq!(invs[1].class, ResponseClass::Correct);
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn timeout_boundary_lands_just_past_the_timeout() {
        let plan = one_clause(
            FaultTrigger::DemandWindow { from: 0, to: 1 },
            FaultAction::TimeoutBoundary {
                timeout_secs: 2.0,
                margin_secs: 0.05,
            },
        );
        let mut inj = FaultInjector::new(service(), plan, SEED);
        let invs = drive(&mut inj, 1);
        assert!((invs[0].exec_time.as_secs() - 2.05).abs() < 1e-12);
        assert_eq!(invs[0].class, ResponseClass::Correct);
    }

    #[test]
    fn latency_spike_and_hang_add_delay() {
        for (action, extra) in [
            (FaultAction::LatencySpike { extra_secs: 1.25 }, 1.25),
            (FaultAction::Hang { delay_secs: 30.0 }, 30.0),
        ] {
            let plan = one_clause(FaultTrigger::DemandWindow { from: 0, to: 1 }, action);
            let mut inj = FaultInjector::new(service(), plan, SEED);
            let invs = drive(&mut inj, 1);
            assert!((invs[0].exec_time.as_secs() - (0.5 + extra)).abs() < 1e-12);
        }
    }

    #[test]
    fn drop_preserves_ground_truth_class() {
        let plan = one_clause(
            FaultTrigger::DemandWindow { from: 0, to: 1 },
            FaultAction::DropResponse,
        );
        let mut inj = FaultInjector::new(service(), plan, SEED);
        let invs = drive(&mut inj, 1);
        // The service executed correctly; the consumer never learns.
        assert_eq!(invs[0].class, ResponseClass::Correct);
        assert!(invs[0].exec_time.as_secs() > 1e6);
        assert!(invs[0].response.is_fault());
        assert_eq!(inj.endpoint().invocations(), 1);
    }

    #[test]
    fn duplicate_executes_inner_twice() {
        let plan = one_clause(
            FaultTrigger::DemandWindow { from: 0, to: 1 },
            FaultAction::DuplicateRequest,
        );
        let mut inj = FaultInjector::new(service(), plan, SEED);
        let invs = drive(&mut inj, 3);
        assert_eq!(inj.endpoint().invocations(), 4); // 1 duplicated + 2 normal
        assert_eq!(invs[0].class, ResponseClass::Correct);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn corrupt_becomes_evident_failure() {
        let plan = one_clause(
            FaultTrigger::DemandWindow { from: 0, to: 1 },
            FaultAction::CorruptMessage,
        );
        let mut inj = FaultInjector::new(service(), plan, SEED);
        let invs = drive(&mut inj, 1);
        assert_eq!(invs[0].class, ResponseClass::EvidentFailure);
        assert!(invs[0].response.is_fault());
        assert_eq!(invs[0].exec_time.as_secs(), 0.5);
    }

    #[test]
    fn flap_alternates_phases() {
        let plan = one_clause(
            FaultTrigger::DemandWindow { from: 0, to: 40 },
            FaultAction::Flap { period: 10 },
        );
        let mut inj = FaultInjector::new(service(), plan, SEED);
        let invs = drive(&mut inj, 40);
        for (i, inv) in invs.iter().enumerate() {
            let down = (i / 10) % 2 == 1;
            assert_eq!(inv.exec_time.as_secs() > 1e6, down, "demand {i}");
        }
        assert_eq!(inj.injected(), 20); // only down phases count
    }

    #[test]
    fn time_window_follows_the_clock() {
        let plan = one_clause(
            FaultTrigger::TimeWindow {
                from_secs: 10.0,
                to_secs: 20.0,
            },
            FaultAction::Crash,
        );
        let mut inj = FaultInjector::new(service(), plan, SEED);
        let mut rng = SEED.stream("clock");
        let req = Envelope::request("invoke");
        for (now, expect_crash) in [(0.0, false), (10.0, true), (19.9, true), (20.0, false)] {
            inj.advance_clock(now);
            let inv = inj.invoke(&req, &mut rng);
            assert_eq!(inv.exec_time.as_secs() > 1e6, expect_crash, "t={now}");
        }
        assert_eq!(inj.virtual_time(), 20.0);
    }

    #[test]
    fn first_matching_clause_wins() {
        let plan = FaultPlan::new()
            .with_clause(FaultClause::new(
                "first",
                FaultTrigger::DemandWindow { from: 0, to: 5 },
                FaultAction::WrongValue { evident: true },
            ))
            .with_clause(FaultClause::new(
                "second",
                FaultTrigger::DemandWindow { from: 0, to: 10 },
                FaultAction::Crash,
            ));
        let mut inj = FaultInjector::new(service(), plan, SEED);
        let tally = inj.tally();
        drive(&mut inj, 10);
        assert_eq!(tally.fired(0), 5);
        assert_eq!(tally.fired(1), 5);
        assert_eq!(tally.total(), 10);
        assert_eq!(tally.by_kind(), vec![("crash", 5), ("wrong-evident", 5)]);
    }

    #[test]
    fn obs_hooks_record_injections() {
        let recorder = SharedRecorder::new();
        let registry = SharedRegistry::new();
        let plan = one_clause(
            FaultTrigger::DemandWindow { from: 1, to: 3 },
            FaultAction::Crash,
        );
        let mut inj = FaultInjector::new(service(), plan, SEED)
            .with_recorder(recorder.clone())
            .with_metrics(registry.clone());
        inj.advance_clock(4.5);
        drive(&mut inj, 3);
        let events = recorder.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "FaultInjected");
        assert_eq!(events[0].demand(), 2);
        assert_eq!(events[0].virtual_time(), 4.5);
        let json = events[0].to_json();
        assert!(json.contains("\"kind\":\"FaultInjected\""), "{json}");
        assert!(json.contains("\"fault\":\"crash\""), "{json}");
        registry.with(|r| {
            assert_eq!(
                r.counter(
                    "wsu_fault_injected_total",
                    &[("kind", "crash"), ("release", "1.0")]
                ),
                2
            );
        });
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut plain = service();
        let mut inj = FaultInjector::new(service(), FaultPlan::new(), SEED);
        let req = Envelope::request("invoke");
        let mut rng_a = SEED.stream("x");
        let mut rng_b = SEED.stream("x");
        for _ in 0..20 {
            assert_eq!(plain.invoke(&req, &mut rng_a), inj.invoke(&req, &mut rng_b));
        }
        assert_eq!(inj.injected(), 0);
        assert_eq!(inj.demands_seen(), 20);
        assert_eq!(inj.describe().service(), "S");
    }

    #[test]
    fn accessors_and_debug() {
        let inj = FaultInjector::new(service(), FaultPlan::new(), SEED);
        assert_eq!(inj.endpoint().describe().release(), "1.0");
        let mut inj = inj;
        let _ = inj.endpoint_mut();
        assert!(format!("{inj:?}").contains("FaultInjector"));
        let svc = inj.into_inner();
        assert_eq!(svc.describe().service(), "S");
    }
}
