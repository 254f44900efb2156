//! Service endpoints: where demands are actually executed.
//!
//! [`ServiceEndpoint`] is the abstraction the upgrade middleware relays
//! requests to. Two simulation-oriented implementations are provided:
//!
//! * [`SyntheticService`] samples each response independently from an
//!   [`OutcomeProfile`] and an execution-time model (the *independent
//!   releases* assumption of the paper's Table 6);
//! * [`ScriptedEndpoint`] is one release's queue of planned responses,
//!   served in order; its cursor moves only when that release is
//!   invoked. (The Table 5/6 cells do not use it: they hand each jointly
//!   planned pair of responses straight to the upgrade middleware.)

use std::rc::Rc;

use wsu_simcore::dist::DelayModel;
use wsu_simcore::rng::StreamRng;
use wsu_simcore::time::SimDuration;

use crate::message::{Envelope, Fault, FaultCode};
use crate::outcome::{OutcomeProfile, ResponseClass};
use crate::wsdl::{Operation, ServiceDescription, XsdType};

/// The result of invoking an endpoint once.
///
/// `class` is the *ground truth* of this response — whether it is correct,
/// evidently wrong or non-evidently wrong. Ground truth is visible to the
/// simulation harness and to failure detectors (which observe it with
/// configurable imperfection), never to the adjudicating middleware except
/// through a detector.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// Ground-truth classification of the response.
    pub class: ResponseClass,
    /// How long the release took to produce the response.
    pub exec_time: SimDuration,
    /// The response message itself. Shared (`Rc`) so simulation
    /// endpoints can hand out pooled template envelopes without copying
    /// the body per demand; equality compares envelope contents.
    pub response: Rc<Envelope>,
}

impl Invocation {
    /// Creates an invocation result, synthesising a fresh response
    /// envelope appropriate for the class. The slow path — endpoints in
    /// the demand loop reuse [`ResponseTemplates`] instead.
    pub fn from_class(operation: &str, class: ResponseClass, exec_time: SimDuration) -> Invocation {
        Invocation {
            class,
            exec_time,
            response: Rc::new(synthesise_response(operation, class)),
        }
    }
}

/// Builds the class-appropriate response envelope for `operation`.
fn synthesise_response(operation: &str, class: ResponseClass) -> Envelope {
    match class {
        ResponseClass::Correct => Envelope::response(operation).with_part("result", "ok"),
        ResponseClass::EvidentFailure => Envelope::fault(
            operation,
            Fault::new(FaultCode::Receiver, "internal service error"),
        ),
        // A non-evident failure *looks* like a success on the wire.
        ResponseClass::NonEvidentFailure => {
            Envelope::response(operation).with_part("result", "plausible-but-wrong")
        }
    }
}

/// A per-endpoint pool of the class-synthesised response envelopes for
/// one operation.
///
/// Each class's envelope is built on the first request for that class
/// (an always-correct endpoint never builds the two failure envelopes)
/// and handed out as a shared [`Rc`] afterwards, so the steady-state
/// invoke path costs one operation compare, one slot read and a
/// reference-count bump instead of an envelope construction. A change
/// of operation, which simulation workloads never make, empties the
/// pool.
#[derive(Debug, Clone, Default)]
pub struct ResponseTemplates {
    operation: String,
    /// The envelope per [`ResponseClass::index`], once built.
    templates: [Option<Rc<Envelope>>; 3],
}

impl ResponseTemplates {
    /// An empty pool; templates are built on first use.
    pub fn new() -> ResponseTemplates {
        ResponseTemplates::default()
    }

    /// An invocation result whose response envelope is the pooled
    /// template for `class` (identical content to
    /// [`Invocation::from_class`]).
    pub fn invocation(
        &mut self,
        operation: &str,
        class: ResponseClass,
        exec_time: SimDuration,
    ) -> Invocation {
        if self.operation != operation {
            self.operation.clear();
            self.operation.push_str(operation);
            self.templates = Default::default();
        }
        let response = Rc::clone(
            self.templates[class.index()]
                .get_or_insert_with(|| Rc::new(synthesise_response(operation, class))),
        );
        Invocation {
            class,
            exec_time,
            response,
        }
    }
}

/// A service that can be invoked by the middleware.
pub trait ServiceEndpoint {
    /// The service's published description.
    fn describe(&self) -> &ServiceDescription;

    /// Executes one request, returning the (ground-truth-classified)
    /// response and how long it took.
    fn invoke(&mut self, request: &Envelope, rng: &mut StreamRng) -> Invocation;

    /// Informs the endpoint of the current virtual time, in seconds.
    ///
    /// The upgrade middleware calls this before dispatching each demand.
    /// Most endpoints are clockless and ignore it; wrappers with
    /// time-dependent behaviour (e.g. fault injectors with virtual-time
    /// windows) consume it and forward it to the endpoint they wrap.
    fn advance_clock(&mut self, _now_secs: f64) {}
}

/// A synthetic service sampling outcomes and timings independently on
/// every demand.
#[derive(Debug, Clone)]
pub struct SyntheticService {
    description: ServiceDescription,
    outcomes: OutcomeProfile,
    exec_time: DelayModel,
    invocations: u64,
    templates: ResponseTemplates,
}

impl SyntheticService {
    /// Starts building a synthetic service with the given name and
    /// release string.
    pub fn builder(service: &str, release: &str) -> SyntheticServiceBuilder {
        SyntheticServiceBuilder {
            service: service.to_owned(),
            release: release.to_owned(),
            outcomes: OutcomeProfile::always_correct(),
            exec_time: DelayModel::exponential(1.0),
            operations: Vec::new(),
        }
    }

    /// Number of invocations served so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// The outcome profile this service samples from.
    pub fn outcomes(&self) -> OutcomeProfile {
        self.outcomes
    }
}

impl ServiceEndpoint for SyntheticService {
    fn describe(&self) -> &ServiceDescription {
        &self.description
    }

    fn invoke(&mut self, request: &Envelope, rng: &mut StreamRng) -> Invocation {
        self.invocations += 1;
        let class = self.outcomes.sample(rng);
        let exec_time = self.exec_time.sample(rng);
        self.templates
            .invocation(request.operation(), class, exec_time)
    }
}

/// Builder for [`SyntheticService`].
#[derive(Debug, Clone)]
pub struct SyntheticServiceBuilder {
    service: String,
    release: String,
    outcomes: OutcomeProfile,
    exec_time: DelayModel,
    operations: Vec<Operation>,
}

impl SyntheticServiceBuilder {
    /// Sets the outcome profile (defaults to always correct).
    pub fn outcomes(mut self, outcomes: OutcomeProfile) -> Self {
        self.outcomes = outcomes;
        self
    }

    /// Sets an exponential execution-time model with the given mean
    /// seconds (defaults to mean 1.0).
    pub fn exec_time_mean(mut self, mean_secs: f64) -> Self {
        self.exec_time = DelayModel::exponential(mean_secs);
        self
    }

    /// Sets an arbitrary execution-time model.
    pub fn exec_time(mut self, model: DelayModel) -> Self {
        self.exec_time = model;
        self
    }

    /// Adds a published operation (defaults to a single generic
    /// `invoke(payload) -> result` operation if none are added).
    pub fn operation(mut self, op: Operation) -> Self {
        self.operations.push(op);
        self
    }

    /// Builds the service.
    pub fn build(self) -> SyntheticService {
        let mut description = ServiceDescription::new(self.service, self.release);
        if self.operations.is_empty() {
            description.add_operation(
                Operation::new("invoke")
                    .with_input("payload", XsdType::Str)
                    .with_output("result", XsdType::Str),
            );
        } else {
            for op in self.operations {
                description.add_operation(op);
            }
        }
        SyntheticService {
            description,
            outcomes: self.outcomes,
            exec_time: self.exec_time,
            invocations: 0,
            templates: ResponseTemplates::new(),
        }
    }
}

/// A planned response, queued into a [`ScriptedEndpoint`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedResponse {
    /// Ground-truth classification the endpoint must produce.
    pub class: ResponseClass,
    /// Execution time the endpoint must take.
    pub exec_time: SimDuration,
}

/// One release's queue of planned responses, served in order.
///
/// The cursor moves only when this release is invoked. A demand that
/// does not reach the release, such as the second release's in
/// sequential mode after the first one answered, leaves its response
/// queued for the release's next invocation. Two scripted endpoints fed
/// the halves of a joint plan therefore replay it demand for demand only
/// in modes that invoke every release on every demand.
///
/// The plan is a `Vec` read through a cursor: filling it with one
/// exact-size [`extend`](ScriptedEndpoint::extend) is one allocation,
/// and serving a response is an index and an increment. A fully served
/// plan is dropped before the next push, so an endpoint fed one
/// response at a time keeps reusing its buffer.
///
/// # Example
///
/// ```
/// use wsu_simcore::rng::StreamRng;
/// use wsu_simcore::time::SimDuration;
/// use wsu_wstack::endpoint::{PlannedResponse, ScriptedEndpoint, ServiceEndpoint};
/// use wsu_wstack::message::Envelope;
/// use wsu_wstack::outcome::ResponseClass;
///
/// let mut ep = ScriptedEndpoint::new("Svc", "1.0");
/// ep.push(PlannedResponse {
///     class: ResponseClass::Correct,
///     exec_time: SimDuration::from_secs(0.5),
/// });
/// let mut rng = StreamRng::from_seed(0);
/// let inv = ep.invoke(&Envelope::request("invoke"), &mut rng);
/// assert_eq!(inv.class, ResponseClass::Correct);
/// assert_eq!(inv.exec_time, SimDuration::from_secs(0.5));
/// ```
#[derive(Debug, Clone)]
pub struct ScriptedEndpoint {
    description: ServiceDescription,
    /// Planned responses; `plan[next..]` are still to be served.
    plan: Vec<PlannedResponse>,
    next: usize,
    served: u64,
    templates: ResponseTemplates,
}

impl ScriptedEndpoint {
    /// Creates an endpoint with an empty plan.
    pub fn new(service: &str, release: &str) -> ScriptedEndpoint {
        let mut description = ServiceDescription::new(service, release);
        description.add_operation(
            Operation::new("invoke")
                .with_input("payload", XsdType::Str)
                .with_output("result", XsdType::Str),
        );
        ScriptedEndpoint {
            description,
            plan: Vec::new(),
            next: 0,
            served: 0,
            templates: ResponseTemplates::new(),
        }
    }

    /// Queues one planned response.
    pub fn push(&mut self, planned: PlannedResponse) {
        self.drop_served();
        self.plan.push(planned);
    }

    /// Queues many planned responses.
    pub fn extend(&mut self, planned: impl IntoIterator<Item = PlannedResponse>) {
        self.drop_served();
        self.plan.extend(planned);
    }

    /// Empties a fully served plan so its buffer is reused.
    fn drop_served(&mut self) {
        if self.next == self.plan.len() {
            self.plan.clear();
            self.next = 0;
        }
    }

    /// Number of responses not yet served.
    pub fn remaining(&self) -> usize {
        self.plan.len() - self.next
    }

    /// Number of invocations served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

impl ServiceEndpoint for ScriptedEndpoint {
    fn describe(&self) -> &ServiceDescription {
        &self.description
    }

    /// # Panics
    ///
    /// Panics if the plan is exhausted — a scripted simulation must plan
    /// exactly as many demands as it issues.
    fn invoke(&mut self, request: &Envelope, _rng: &mut StreamRng) -> Invocation {
        let planned = *self
            .plan
            .get(self.next)
            .expect("scripted endpoint plan exhausted");
        self.next += 1;
        self.served += 1;
        self.templates
            .invocation(request.operation(), planned.class, planned.exec_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_service_describes_itself() {
        let svc = SyntheticService::builder("Quote", "2.0").build();
        assert_eq!(svc.describe().service(), "Quote");
        assert_eq!(svc.describe().release(), "2.0");
        assert!(svc.describe().operation("invoke").is_some());
    }

    #[test]
    fn synthetic_service_custom_operations() {
        let svc = SyntheticService::builder("Quote", "1.0")
            .operation(Operation::new("getQuote").with_output("quote", XsdType::Double))
            .build();
        assert!(svc.describe().operation("getQuote").is_some());
        assert!(svc.describe().operation("invoke").is_none());
    }

    #[test]
    fn synthetic_service_counts_invocations() {
        let mut svc = SyntheticService::builder("S", "1.0").build();
        let mut rng = StreamRng::from_seed(1);
        let req = Envelope::request("invoke");
        for _ in 0..5 {
            svc.invoke(&req, &mut rng);
        }
        assert_eq!(svc.invocations(), 5);
    }

    #[test]
    fn synthetic_outcomes_follow_profile() {
        let mut svc = SyntheticService::builder("S", "1.0")
            .outcomes(OutcomeProfile::new(0.5, 0.25, 0.25))
            .build();
        let mut rng = StreamRng::from_seed(2);
        let req = Envelope::request("invoke");
        let n = 40_000;
        let correct = (0..n)
            .filter(|_| svc.invoke(&req, &mut rng).class == ResponseClass::Correct)
            .count();
        assert!((correct as f64 / n as f64 - 0.5).abs() < 0.02);
        assert_eq!(svc.outcomes().correct(), 0.5);
    }

    #[test]
    fn invocation_envelope_matches_class() {
        let d = SimDuration::from_secs(0.1);
        let ok = Invocation::from_class("op", ResponseClass::Correct, d);
        assert!(!ok.response.is_fault());
        let evident = Invocation::from_class("op", ResponseClass::EvidentFailure, d);
        assert!(evident.response.is_fault());
        // Non-evident failures look valid on the wire.
        let sneaky = Invocation::from_class("op", ResponseClass::NonEvidentFailure, d);
        assert!(!sneaky.response.is_fault());
    }

    #[test]
    fn scripted_endpoint_replays_in_order() {
        let mut ep = ScriptedEndpoint::new("S", "1.0");
        ep.extend([
            PlannedResponse {
                class: ResponseClass::Correct,
                exec_time: SimDuration::from_secs(0.1),
            },
            PlannedResponse {
                class: ResponseClass::NonEvidentFailure,
                exec_time: SimDuration::from_secs(0.2),
            },
        ]);
        assert_eq!(ep.remaining(), 2);
        let mut rng = StreamRng::from_seed(3);
        let req = Envelope::request("invoke");
        assert_eq!(ep.invoke(&req, &mut rng).class, ResponseClass::Correct);
        let second = ep.invoke(&req, &mut rng);
        assert_eq!(second.class, ResponseClass::NonEvidentFailure);
        assert_eq!(second.exec_time, SimDuration::from_secs(0.2));
        assert_eq!(ep.remaining(), 0);
        assert_eq!(ep.served(), 2);
    }

    #[test]
    #[should_panic(expected = "plan exhausted")]
    fn scripted_endpoint_panics_when_drained() {
        let mut ep = ScriptedEndpoint::new("S", "1.0");
        let mut rng = StreamRng::from_seed(4);
        ep.invoke(&Envelope::request("invoke"), &mut rng);
    }

    #[test]
    fn scripted_endpoint_interleaves_pushes_and_invocations() {
        let planned = |secs| PlannedResponse {
            class: ResponseClass::Correct,
            exec_time: SimDuration::from_secs(secs),
        };
        let mut ep = ScriptedEndpoint::new("S", "1.0");
        let mut rng = StreamRng::from_seed(5);
        let req = Envelope::request("invoke");
        ep.push(planned(0.1));
        ep.push(planned(0.2));
        assert_eq!(ep.invoke(&req, &mut rng).exec_time.as_secs(), 0.1);
        ep.push(planned(0.3));
        assert_eq!(ep.remaining(), 2);
        assert_eq!(ep.invoke(&req, &mut rng).exec_time.as_secs(), 0.2);
        assert_eq!(ep.invoke(&req, &mut rng).exec_time.as_secs(), 0.3);
        // Fed one response at a time, a drained plan reuses its buffer.
        for i in 0..100 {
            ep.push(planned(f64::from(i)));
            assert_eq!(ep.invoke(&req, &mut rng).exec_time.as_secs(), f64::from(i));
        }
        assert_eq!(ep.plan.len(), 1);
        assert_eq!((ep.remaining(), ep.served()), (0, 103));
    }

    #[test]
    fn exec_time_mean_is_respected() {
        let mut svc = SyntheticService::builder("S", "1.0")
            .exec_time_mean(0.7)
            .build();
        let mut rng = StreamRng::from_seed(5);
        let req = Envelope::request("invoke");
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| svc.invoke(&req, &mut rng).exec_time.as_secs())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.7).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn constant_exec_time_model() {
        let mut svc = SyntheticService::builder("S", "1.0")
            .exec_time(DelayModel::constant(0.25))
            .build();
        let mut rng = StreamRng::from_seed(6);
        let inv = svc.invoke(&Envelope::request("invoke"), &mut rng);
        assert_eq!(inv.exec_time.as_secs(), 0.25);
    }
}
