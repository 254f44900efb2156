//! Composite Web Services (paper Fig. 1 and Section 2.2).
//!
//! A composite WS invokes several component WSs plus its own "glue" code.
//! Its dependability — and the *confidence* in it — derives from the
//! components' and the glue's:
//!
//! > "The confidence in the dependability of the composite Web Service
//! > will be affected by the confidence in the dependability of the
//! > component WSs it depends upon and by the confidence in the
//! > dependability of the composition."
//!
//! [`CompositeService`] models a series composition (every component
//! must answer for the composite demand to succeed — the
//! hotel/car/flight workflow of the paper's introduction) and composes
//! published confidences conservatively: if component *i* meets pfd
//! target `t_i` with confidence `c_i`, and the assessments are
//! independent, then by the union bound the composite meets target
//! `Σ t_i` with confidence at least `Π c_i`.

use wsu_simcore::rng::StreamRng;
use wsu_simcore::time::SimDuration;
use wsu_wstack::endpoint::{Invocation, ResponseTemplates, ServiceEndpoint};
use wsu_wstack::message::Envelope;
use wsu_wstack::outcome::{OutcomeProfile, ResponseClass};
use wsu_wstack::registry::PublishedConfidence;
use wsu_wstack::wsdl::ServiceDescription;

/// One component dependency of a composite service.
struct Component {
    name: String,
    endpoint: Box<dyn ServiceEndpoint>,
    published: Option<PublishedConfidence>,
}

/// What one composite demand observed of a single component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentObservation {
    /// The component's display name.
    pub name: String,
    /// Ground-truth class of its response.
    pub class: ResponseClass,
    /// Its execution time.
    pub exec_time: SimDuration,
}

/// The result of one composite invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeInvocation {
    /// The composite's overall response class: correct only if the glue
    /// and every component were correct; evident if the glue or any
    /// component failed evidently (the workflow aborts there); otherwise
    /// non-evident.
    pub class: ResponseClass,
    /// Total execution time: sum of the invoked components' times (a
    /// sequential workflow) plus the glue time.
    pub exec_time: SimDuration,
    /// Per-component observations, in invocation order. Components after
    /// an evident failure are not invoked.
    pub components: Vec<ComponentObservation>,
}

/// A composite WS invoking its components in sequence.
pub struct CompositeService {
    name: String,
    glue: OutcomeProfile,
    glue_time: SimDuration,
    glue_confidence: Option<PublishedConfidence>,
    components: Vec<Component>,
}

impl CompositeService {
    /// Starts building a composite service.
    pub fn builder(name: impl Into<String>) -> CompositeBuilder {
        CompositeBuilder {
            name: name.into(),
            glue: OutcomeProfile::always_correct(),
            glue_time: SimDuration::ZERO,
            glue_confidence: None,
            components: Vec::new(),
        }
    }

    /// The composite's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of component dependencies.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Component names in invocation order.
    pub fn component_names(&self) -> Vec<&str> {
        self.components.iter().map(|c| c.name.as_str()).collect()
    }

    /// Executes one composite demand: glue first, then each component in
    /// order, aborting at the first evident failure (the consumer sees
    /// the workflow's exception).
    pub fn invoke(&mut self, request: &Envelope, rng: &mut StreamRng) -> CompositeInvocation {
        let mut components = Vec::with_capacity(self.components.len());
        let (class, exec_time) = self.run(request, rng, |name, class, exec_time| {
            components.push(ComponentObservation {
                name: name.to_owned(),
                class,
                exec_time,
            });
        });
        CompositeInvocation {
            class,
            exec_time,
            components,
        }
    }

    /// The one composite workflow behind [`invoke`](Self::invoke) and
    /// [`CompositeEndpoint`]: samples the glue, invokes the components
    /// in order until the first evident failure, and reports each
    /// invoked component to `observe`. Returns the composite's class and
    /// total execution time; allocates nothing itself.
    fn run(
        &mut self,
        request: &Envelope,
        rng: &mut StreamRng,
        mut observe: impl FnMut(&str, ResponseClass, SimDuration),
    ) -> (ResponseClass, SimDuration) {
        let mut exec_time = self.glue_time;
        let glue_class = self.glue.sample(rng);
        if glue_class == ResponseClass::EvidentFailure {
            return (ResponseClass::EvidentFailure, exec_time);
        }
        let mut worst = glue_class;
        for component in &mut self.components {
            let Invocation {
                class,
                exec_time: t,
                ..
            } = component.endpoint.invoke(request, rng);
            exec_time += t;
            observe(&component.name, class, t);
            match class {
                ResponseClass::EvidentFailure => return (ResponseClass::EvidentFailure, exec_time),
                ResponseClass::NonEvidentFailure => worst = ResponseClass::NonEvidentFailure,
                ResponseClass::Correct => {}
            }
        }
        (worst, exec_time)
    }

    /// The conservative composed confidence: the composite meets the
    /// *sum* of the parts' pfd targets with at least the *product* of
    /// their confidences (union bound over independent assessments).
    ///
    /// Returns `None` unless every component — and, if configured, the
    /// glue — has a published confidence.
    pub fn composed_confidence(&self) -> Option<PublishedConfidence> {
        let mut target = 0.0;
        let mut confidence = 1.0;
        if let Some(glue) = self.glue_confidence {
            target += glue.pfd_target;
            confidence *= glue.confidence;
        }
        for component in &self.components {
            let published = component.published?;
            target += published.pfd_target;
            confidence *= published.confidence;
        }
        if target <= 0.0 || target >= 1.0 {
            return None;
        }
        Some(PublishedConfidence::new(target, confidence))
    }
}

impl std::fmt::Debug for CompositeService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeService")
            .field("name", &self.name)
            .field("components", &self.component_names())
            .finish()
    }
}

/// Adapts a [`CompositeService`] into a [`ServiceEndpoint`], so a
/// functionally-equivalent composite can be deployed *as a release*
/// behind the upgrade middleware — the atomic-replacement recovery
/// story: when a release is demoted, a composite stand-in from the
/// registry is bound in its place.
///
/// A demand runs the composite's workflow without recording per-component
/// observations and answers with a pooled response envelope, so a warm
/// stand-in serves without allocating.
pub struct CompositeEndpoint {
    composite: CompositeService,
    description: ServiceDescription,
    templates: ResponseTemplates,
}

impl CompositeEndpoint {
    /// Wraps a composite, describing it as `release` of its own name.
    pub fn new(composite: CompositeService, release: &str) -> CompositeEndpoint {
        let description = ServiceDescription::new(composite.name(), release);
        CompositeEndpoint {
            composite,
            description,
            templates: ResponseTemplates::new(),
        }
    }

    /// The wrapped composite.
    pub fn composite(&self) -> &CompositeService {
        &self.composite
    }
}

impl ServiceEndpoint for CompositeEndpoint {
    fn describe(&self) -> &ServiceDescription {
        &self.description
    }

    fn invoke(&mut self, request: &Envelope, rng: &mut StreamRng) -> Invocation {
        let (class, exec_time) = self.composite.run(request, rng, |_, _, _| {});
        self.templates
            .invocation(request.operation(), class, exec_time)
    }
}

impl std::fmt::Debug for CompositeEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeEndpoint")
            .field("composite", &self.composite)
            .field("release", &self.description.release())
            .finish()
    }
}

/// Builder for [`CompositeService`].
pub struct CompositeBuilder {
    name: String,
    glue: OutcomeProfile,
    glue_time: SimDuration,
    glue_confidence: Option<PublishedConfidence>,
    components: Vec<Component>,
}

impl CompositeBuilder {
    /// Sets the glue code's own failure behaviour (defaults to always
    /// correct).
    pub fn glue(mut self, profile: OutcomeProfile) -> CompositeBuilder {
        self.glue = profile;
        self
    }

    /// Sets the glue's processing time per demand (defaults to zero).
    pub fn glue_time(mut self, time: SimDuration) -> CompositeBuilder {
        self.glue_time = time;
        self
    }

    /// Publishes a confidence for the glue itself.
    pub fn glue_confidence(mut self, confidence: PublishedConfidence) -> CompositeBuilder {
        self.glue_confidence = Some(confidence);
        self
    }

    /// Adds a component dependency.
    pub fn component(
        mut self,
        name: impl Into<String>,
        endpoint: impl ServiceEndpoint + 'static,
    ) -> CompositeBuilder {
        self.components.push(Component {
            name: name.into(),
            endpoint: Box::new(endpoint),
            published: None,
        });
        self
    }

    /// Adds a component with a known published confidence.
    pub fn component_with_confidence(
        mut self,
        name: impl Into<String>,
        endpoint: impl ServiceEndpoint + 'static,
        confidence: PublishedConfidence,
    ) -> CompositeBuilder {
        self.components.push(Component {
            name: name.into(),
            endpoint: Box::new(endpoint),
            published: Some(confidence),
        });
        self
    }

    /// Builds the composite.
    ///
    /// # Panics
    ///
    /// Panics if no components were added — a composite WS without
    /// dependencies is just a WS.
    pub fn build(self) -> CompositeService {
        assert!(
            !self.components.is_empty(),
            "a composite service needs at least one component"
        );
        CompositeService {
            name: self.name,
            glue: self.glue,
            glue_time: self.glue_time,
            glue_confidence: self.glue_confidence,
            components: self.components,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_simcore::dist::DelayModel;
    use wsu_wstack::endpoint::SyntheticService;

    fn component(profile: OutcomeProfile, secs: f64) -> SyntheticService {
        SyntheticService::builder("Comp", "1.0")
            .outcomes(profile)
            .exec_time(DelayModel::constant(secs))
            .build()
    }

    #[test]
    fn series_invocation_sums_times() {
        let mut composite = CompositeService::builder("Travel")
            .glue_time(SimDuration::from_secs(0.05))
            .component("flights", component(OutcomeProfile::always_correct(), 0.3))
            .component("hotels", component(OutcomeProfile::always_correct(), 0.2))
            .build();
        let mut rng = StreamRng::from_seed(1);
        let inv = composite.invoke(&Envelope::request("book"), &mut rng);
        assert_eq!(inv.class, ResponseClass::Correct);
        assert!((inv.exec_time.as_secs() - 0.55).abs() < 1e-12);
        assert_eq!(inv.components.len(), 2);
        assert_eq!(composite.component_count(), 2);
        assert_eq!(composite.component_names(), vec!["flights", "hotels"]);
        assert_eq!(composite.name(), "Travel");
    }

    #[test]
    fn evident_failure_aborts_the_workflow() {
        let mut composite = CompositeService::builder("Travel")
            .component(
                "flights",
                component(OutcomeProfile::new(0.0, 1.0, 0.0), 0.3),
            )
            .component("hotels", component(OutcomeProfile::always_correct(), 0.2))
            .build();
        let mut rng = StreamRng::from_seed(2);
        let inv = composite.invoke(&Envelope::request("book"), &mut rng);
        assert_eq!(inv.class, ResponseClass::EvidentFailure);
        // Hotels never invoked.
        assert_eq!(inv.components.len(), 1);
        assert!((inv.exec_time.as_secs() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn non_evident_failure_propagates_silently() {
        let mut composite = CompositeService::builder("Travel")
            .component(
                "flights",
                component(OutcomeProfile::new(0.0, 0.0, 1.0), 0.3),
            )
            .component("hotels", component(OutcomeProfile::always_correct(), 0.2))
            .build();
        let mut rng = StreamRng::from_seed(3);
        let inv = composite.invoke(&Envelope::request("book"), &mut rng);
        assert_eq!(inv.class, ResponseClass::NonEvidentFailure);
        // Both invoked: nothing evident to abort on.
        assert_eq!(inv.components.len(), 2);
    }

    #[test]
    fn glue_failures_count() {
        let mut composite = CompositeService::builder("Travel")
            .glue(OutcomeProfile::new(0.0, 1.0, 0.0))
            .component("flights", component(OutcomeProfile::always_correct(), 0.3))
            .build();
        let mut rng = StreamRng::from_seed(4);
        let inv = composite.invoke(&Envelope::request("book"), &mut rng);
        assert_eq!(inv.class, ResponseClass::EvidentFailure);
        assert!(inv.components.is_empty());
    }

    #[test]
    fn composed_confidence_is_union_bound() {
        let composite = CompositeService::builder("Travel")
            .glue_confidence(PublishedConfidence::new(1e-4, 0.999))
            .component_with_confidence(
                "flights",
                component(OutcomeProfile::always_correct(), 0.1),
                PublishedConfidence::new(1e-3, 0.99),
            )
            .component_with_confidence(
                "hotels",
                component(OutcomeProfile::always_correct(), 0.1),
                PublishedConfidence::new(2e-3, 0.95),
            )
            .build();
        let composed = composite.composed_confidence().unwrap();
        assert!((composed.pfd_target - 3.1e-3).abs() < 1e-12);
        assert!((composed.confidence - 0.999 * 0.99 * 0.95).abs() < 1e-12);
    }

    #[test]
    fn missing_component_confidence_yields_none() {
        let composite = CompositeService::builder("Travel")
            .component("flights", component(OutcomeProfile::always_correct(), 0.1))
            .build();
        assert!(composite.composed_confidence().is_none());
    }

    #[test]
    fn composite_failure_rate_compounds() {
        // Two components at 2% failure each: composite correct rate
        // ~ 0.98^2 ~ 0.9604.
        let profile = OutcomeProfile::new(0.98, 0.01, 0.01);
        let mut composite = CompositeService::builder("Travel")
            .component("a", component(profile, 0.0))
            .component("b", component(profile, 0.0))
            .build();
        let mut rng = StreamRng::from_seed(5);
        let n = 50_000;
        let correct = (0..n)
            .filter(|_| {
                composite.invoke(&Envelope::request("x"), &mut rng).class == ResponseClass::Correct
            })
            .count();
        let rate = correct as f64 / n as f64;
        assert!((rate - 0.9604).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn composite_endpoint_serves_as_a_release() {
        let composite = CompositeService::builder("Travel")
            .glue_time(SimDuration::from_secs(0.05))
            .component("flights", component(OutcomeProfile::always_correct(), 0.3))
            .component("hotels", component(OutcomeProfile::always_correct(), 0.2))
            .build();
        let mut endpoint = CompositeEndpoint::new(composite, "sub-1");
        assert_eq!(endpoint.describe().service(), "Travel");
        assert_eq!(endpoint.describe().release(), "sub-1");
        assert_eq!(endpoint.composite().component_count(), 2);
        let mut rng = StreamRng::from_seed(6);
        let inv = endpoint.invoke(&Envelope::request("book"), &mut rng);
        assert_eq!(inv.class, ResponseClass::Correct);
        assert!((inv.exec_time.as_secs() - 0.55).abs() < 1e-12);
        assert!(format!("{endpoint:?}").contains("sub-1"));
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_composite_rejected() {
        let _ = CompositeService::builder("Empty").build();
    }

    #[test]
    fn debug_lists_components() {
        let composite = CompositeService::builder("Travel")
            .component("flights", component(OutcomeProfile::always_correct(), 0.1))
            .build();
        assert!(format!("{composite:?}").contains("flights"));
    }
}
