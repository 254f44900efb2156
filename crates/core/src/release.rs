//! Deployed releases and their lifecycle.
//!
//! The middleware manages a set of releases of the same service — in the
//! paper's study two (WS 1.0 and WS 1.1), but the architecture allows
//! more ("one or more old releases being kept operational"). Each release
//! is a [`ServiceEndpoint`] with a lifecycle state the management
//! subsystem drives: `Active → Suspended → Active` (recovery) and
//! `Active → PhasedOut` (after the switch).

use std::fmt;

use wsu_simcore::rng::StreamRng;
use wsu_wstack::endpoint::{Invocation, ServiceEndpoint};
use wsu_wstack::message::Envelope;

use crate::error::CoreError;

/// Identifies one deployed release within a middleware instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReleaseId(usize);

impl ReleaseId {
    /// Creates an id (indices are assigned by the [`ReleaseSet`]).
    pub fn new(index: usize) -> ReleaseId {
        ReleaseId(index)
    }

    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ReleaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "release#{}", self.0)
    }
}

/// Lifecycle state of a deployed release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReleaseState {
    /// Serving demands.
    Active,
    /// Temporarily out of rotation (e.g. after repeated evident
    /// failures); can be restarted.
    Suspended,
    /// Permanently removed from rotation after the switch.
    PhasedOut,
}

impl ReleaseState {
    /// Returns `true` if the release should receive demands.
    pub fn is_serving(self) -> bool {
        self == ReleaseState::Active
    }
}

/// Metadata about a deployed release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseInfo {
    /// The release's id in the set.
    pub id: ReleaseId,
    /// The service name from the release's description.
    pub service: String,
    /// The release string from the description (e.g. `"1.1"`).
    pub version: String,
    /// Current lifecycle state.
    pub state: ReleaseState,
}

/// One deployed release: endpoint plus state.
struct Deployed {
    endpoint: Box<dyn ServiceEndpoint>,
    state: ReleaseState,
    consecutive_evident_failures: u32,
    /// Relative traffic weight for weighted-fleet routing. Ignored by
    /// the parallel/sequential modes, which dispatch to every active
    /// release regardless of weight.
    weight: f64,
}

/// The set of deployed releases behind one middleware instance.
pub struct ReleaseSet {
    releases: Vec<Deployed>,
    /// Ids of serving releases, in deployment order. Maintained on every
    /// lifecycle transition so the per-demand path can borrow it instead
    /// of rebuilding a fresh `Vec`.
    active: Vec<ReleaseId>,
    /// Cumulative weights parallel to `active` (`cum_weights[i]` is the
    /// sum of the first `i + 1` active releases' weights). Rebuilt only
    /// on lifecycle/weight changes, so weighted routing is a single
    /// multiply plus a short scan — no per-demand allocation.
    cum_weights: Vec<f64>,
}

impl ReleaseSet {
    /// Creates an empty set.
    pub fn new() -> ReleaseSet {
        ReleaseSet {
            releases: Vec::new(),
            active: Vec::new(),
            cum_weights: Vec::new(),
        }
    }

    fn rebuild_active(&mut self) {
        self.active.clear();
        self.active.extend(
            self.releases
                .iter()
                .enumerate()
                .filter(|(_, d)| d.state.is_serving())
                .map(|(i, _)| ReleaseId(i)),
        );
        self.rebuild_cum_weights();
    }

    fn rebuild_cum_weights(&mut self) {
        self.cum_weights.clear();
        let mut total = 0.0;
        for id in &self.active {
            total += self.releases[id.0].weight;
            self.cum_weights.push(total);
        }
    }

    /// Deploys a release, returning its id. New releases start `Active`
    /// with weight 1.0.
    pub fn deploy(&mut self, endpoint: impl ServiceEndpoint + 'static) -> ReleaseId {
        self.deploy_boxed(Box::new(endpoint))
    }

    /// Deploys a boxed release.
    pub fn deploy_boxed(&mut self, endpoint: Box<dyn ServiceEndpoint>) -> ReleaseId {
        let id = ReleaseId(self.releases.len());
        self.releases.push(Deployed {
            endpoint,
            state: ReleaseState::Active,
            consecutive_evident_failures: 0,
            weight: 1.0,
        });
        self.active.push(id);
        self.cum_weights
            .push(self.cum_weights.last().copied().unwrap_or(0.0) + 1.0);
        id
    }

    /// Number of deployed releases (any state).
    pub fn len(&self) -> usize {
        self.releases.len()
    }

    /// Returns `true` if no releases are deployed.
    pub fn is_empty(&self) -> bool {
        self.releases.is_empty()
    }

    /// Ids of releases currently serving demands, in deployment order.
    pub fn active_slice(&self) -> &[ReleaseId] {
        &self.active
    }

    /// Metadata for every deployed release.
    pub fn infos(&self) -> Vec<ReleaseInfo> {
        self.releases
            .iter()
            .enumerate()
            .map(|(i, d)| ReleaseInfo {
                id: ReleaseId(i),
                service: d.endpoint.describe().service().to_owned(),
                version: d.endpoint.describe().release().to_owned(),
                state: d.state,
            })
            .collect()
    }

    /// Current state of a release.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRelease`] for an unknown id.
    pub fn state(&self, id: ReleaseId) -> Result<ReleaseState, CoreError> {
        self.releases
            .get(id.0)
            .map(|d| d.state)
            .ok_or(CoreError::UnknownRelease(id))
    }

    /// Invokes a release at the virtual instant `now_secs`, which its
    /// endpoint learns through [`ServiceEndpoint::advance_clock`] just
    /// before the call, updating its consecutive-evident-failure count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRelease`] for an unknown id and
    /// [`CoreError::InvalidReleaseState`] if the release is not active.
    pub fn invoke(
        &mut self,
        id: ReleaseId,
        request: &Envelope,
        now_secs: f64,
        rng: &mut StreamRng,
    ) -> Result<Invocation, CoreError> {
        let deployed = self
            .releases
            .get_mut(id.0)
            .ok_or(CoreError::UnknownRelease(id))?;
        if !deployed.state.is_serving() {
            return Err(CoreError::InvalidReleaseState {
                release: id,
                operation: "invoked",
            });
        }
        deployed.endpoint.advance_clock(now_secs);
        let invocation = deployed.endpoint.invoke(request, rng);
        if invocation.class == wsu_wstack::outcome::ResponseClass::EvidentFailure {
            deployed.consecutive_evident_failures += 1;
        } else {
            deployed.consecutive_evident_failures = 0;
        }
        Ok(invocation)
    }

    /// Sets a release's traffic weight (weighted-fleet routing only).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRelease`] for an unknown id and
    /// [`CoreError::InvalidWeight`] unless the weight is finite and
    /// non-negative.
    pub fn set_weight(&mut self, id: ReleaseId, weight: f64) -> Result<(), CoreError> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(CoreError::InvalidWeight { release: id });
        }
        let deployed = self
            .releases
            .get_mut(id.0)
            .ok_or(CoreError::UnknownRelease(id))?;
        deployed.weight = weight;
        self.rebuild_cum_weights();
        Ok(())
    }

    /// A release's current traffic weight.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRelease`] for an unknown id.
    pub fn weight(&self, id: ReleaseId) -> Result<f64, CoreError> {
        self.releases
            .get(id.0)
            .map(|d| d.weight)
            .ok_or(CoreError::UnknownRelease(id))
    }

    /// Sum of the active releases' weights.
    pub fn total_active_weight(&self) -> f64 {
        self.cum_weights.last().copied().unwrap_or(0.0)
    }

    /// Routes a uniform draw `u ∈ [0, 1)` to one active release in
    /// proportion to the weights. Returns `None` when nothing is active;
    /// when every active weight is zero the first active release takes
    /// the demand (the fleet must still answer).
    pub fn route(&self, u: f64) -> Option<ReleaseId> {
        let total = self.total_active_weight();
        if self.active.is_empty() {
            return None;
        }
        if total <= 0.0 {
            return Some(self.active[0]);
        }
        let target = u * total;
        for (i, cum) in self.cum_weights.iter().enumerate() {
            if target < *cum {
                return Some(self.active[i]);
            }
        }
        // u == 1.0 - ε rounding: fall back to the last active release.
        self.active.last().copied()
    }

    /// Consecutive evident failures of a release (for recovery policies).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRelease`] for an unknown id.
    pub fn consecutive_evident_failures(&self, id: ReleaseId) -> Result<u32, CoreError> {
        self.releases
            .get(id.0)
            .map(|d| d.consecutive_evident_failures)
            .ok_or(CoreError::UnknownRelease(id))
    }

    /// Suspends an active release (takes it out of rotation).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRelease`] or
    /// [`CoreError::InvalidReleaseState`] if it is not active.
    pub fn suspend(&mut self, id: ReleaseId) -> Result<(), CoreError> {
        self.transition(
            id,
            ReleaseState::Active,
            ReleaseState::Suspended,
            "suspended",
        )
    }

    /// Restarts a suspended release (recovery of a failed release,
    /// Section 4.1). Resets the failure counter.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRelease`] or
    /// [`CoreError::InvalidReleaseState`] if it is not suspended.
    pub fn restart(&mut self, id: ReleaseId) -> Result<(), CoreError> {
        self.transition(
            id,
            ReleaseState::Suspended,
            ReleaseState::Active,
            "restarted",
        )?;
        self.releases[id.0].consecutive_evident_failures = 0;
        Ok(())
    }

    /// Permanently phases a release out of the composite service.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRelease`]; phasing out is allowed from
    /// any state except `PhasedOut` itself.
    pub fn phase_out(&mut self, id: ReleaseId) -> Result<(), CoreError> {
        let deployed = self
            .releases
            .get_mut(id.0)
            .ok_or(CoreError::UnknownRelease(id))?;
        if deployed.state == ReleaseState::PhasedOut {
            return Err(CoreError::InvalidReleaseState {
                release: id,
                operation: "phased out",
            });
        }
        deployed.state = ReleaseState::PhasedOut;
        self.rebuild_active();
        Ok(())
    }

    fn transition(
        &mut self,
        id: ReleaseId,
        from: ReleaseState,
        to: ReleaseState,
        operation: &'static str,
    ) -> Result<(), CoreError> {
        let deployed = self
            .releases
            .get_mut(id.0)
            .ok_or(CoreError::UnknownRelease(id))?;
        if deployed.state != from {
            return Err(CoreError::InvalidReleaseState {
                release: id,
                operation,
            });
        }
        deployed.state = to;
        self.rebuild_active();
        Ok(())
    }
}

impl Default for ReleaseSet {
    fn default() -> ReleaseSet {
        ReleaseSet::new()
    }
}

impl fmt::Debug for ReleaseSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.infos()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_wstack::endpoint::SyntheticService;
    use wsu_wstack::outcome::OutcomeProfile;

    fn service(version: &str) -> SyntheticService {
        SyntheticService::builder("Svc", version).build()
    }

    #[test]
    fn deploy_assigns_sequential_ids() {
        let mut set = ReleaseSet::new();
        let a = set.deploy(service("1.0"));
        let b = set.deploy(service("1.1"));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.active_slice(), &[a, b]);
    }

    #[test]
    fn infos_reflect_descriptions() {
        let mut set = ReleaseSet::new();
        set.deploy(service("1.0"));
        set.deploy(service("1.1"));
        let infos = set.infos();
        assert_eq!(infos[0].version, "1.0");
        assert_eq!(infos[1].version, "1.1");
        assert_eq!(infos[0].service, "Svc");
        assert_eq!(infos[0].state, ReleaseState::Active);
    }

    #[test]
    fn lifecycle_transitions() {
        let mut set = ReleaseSet::new();
        let id = set.deploy(service("1.0"));
        set.suspend(id).unwrap();
        assert_eq!(set.state(id).unwrap(), ReleaseState::Suspended);
        assert!(set.active_slice().is_empty());
        set.restart(id).unwrap();
        assert_eq!(set.state(id).unwrap(), ReleaseState::Active);
        assert_eq!(set.active_slice(), &[id]);
        set.phase_out(id).unwrap();
        assert_eq!(set.state(id).unwrap(), ReleaseState::PhasedOut);
        assert!(set.active_slice().is_empty());
    }

    #[test]
    fn invalid_transitions_error() {
        let mut set = ReleaseSet::new();
        let id = set.deploy(service("1.0"));
        assert!(set.restart(id).is_err()); // not suspended
        set.phase_out(id).unwrap();
        assert!(set.suspend(id).is_err());
        assert!(set.phase_out(id).is_err()); // already phased out
    }

    #[test]
    fn unknown_ids_error() {
        let mut set = ReleaseSet::new();
        let ghost = ReleaseId::new(42);
        assert_eq!(set.state(ghost), Err(CoreError::UnknownRelease(ghost)));
        assert!(set.suspend(ghost).is_err());
        assert!(set.consecutive_evident_failures(ghost).is_err());
        let mut rng = StreamRng::from_seed(1);
        assert!(set
            .invoke(ghost, &Envelope::request("invoke"), 0.0, &mut rng)
            .is_err());
    }

    #[test]
    fn invoking_suspended_release_errors() {
        let mut set = ReleaseSet::new();
        let id = set.deploy(service("1.0"));
        set.suspend(id).unwrap();
        let mut rng = StreamRng::from_seed(2);
        let err = set
            .invoke(id, &Envelope::request("invoke"), 0.0, &mut rng)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidReleaseState { .. }));
    }

    #[test]
    fn evident_failure_counter_tracks_streaks() {
        let mut set = ReleaseSet::new();
        let id = set.deploy(
            SyntheticService::builder("Svc", "1.0")
                .outcomes(OutcomeProfile::new(0.0, 1.0, 0.0))
                .build(),
        );
        let mut rng = StreamRng::from_seed(3);
        for expected in 1..=3u32 {
            set.invoke(id, &Envelope::request("invoke"), 0.0, &mut rng)
                .unwrap();
            assert_eq!(set.consecutive_evident_failures(id).unwrap(), expected);
        }
        // Recovery resets the counter.
        set.suspend(id).unwrap();
        set.restart(id).unwrap();
        assert_eq!(set.consecutive_evident_failures(id).unwrap(), 0);
    }

    #[test]
    fn successful_invocation_resets_counter() {
        let mut set = ReleaseSet::new();
        let id = set.deploy(service("1.0")); // always correct
        let mut rng = StreamRng::from_seed(4);
        set.invoke(id, &Envelope::request("invoke"), 0.0, &mut rng)
            .unwrap();
        assert_eq!(set.consecutive_evident_failures(id).unwrap(), 0);
    }

    #[test]
    fn weights_default_to_one_and_route_proportionally() {
        let mut set = ReleaseSet::new();
        let a = set.deploy(service("1.0"));
        let b = set.deploy(service("1.1"));
        assert_eq!(set.weight(a).unwrap(), 1.0);
        assert_eq!(set.total_active_weight(), 2.0);
        set.set_weight(a, 0.75).unwrap();
        set.set_weight(b, 0.25).unwrap();
        assert_eq!(set.total_active_weight(), 1.0);
        assert_eq!(set.route(0.0), Some(a));
        assert_eq!(set.route(0.74), Some(a));
        assert_eq!(set.route(0.76), Some(b));
        assert_eq!(set.route(0.999_999), Some(b));
    }

    #[test]
    fn routing_skips_non_serving_releases() {
        let mut set = ReleaseSet::new();
        let a = set.deploy(service("1.0"));
        let b = set.deploy(service("1.1"));
        let c = set.deploy(service("1.2"));
        set.set_weight(a, 0.5).unwrap();
        set.set_weight(b, 0.3).unwrap();
        set.set_weight(c, 0.2).unwrap();
        set.suspend(b).unwrap();
        // Remaining mass is 0.7: a covers [0, 5/7), c covers [5/7, 1).
        assert_eq!(set.route(0.5), Some(a));
        assert_eq!(set.route(0.8), Some(c));
        set.restart(b).unwrap();
        assert_eq!(set.route(0.6), Some(b));
    }

    #[test]
    fn routing_with_zero_total_weight_uses_first_active() {
        let mut set = ReleaseSet::new();
        let a = set.deploy(service("1.0"));
        let b = set.deploy(service("1.1"));
        set.set_weight(a, 0.0).unwrap();
        set.set_weight(b, 0.0).unwrap();
        assert_eq!(set.route(0.5), Some(a));
        set.suspend(a).unwrap();
        assert_eq!(set.route(0.5), Some(b));
    }

    #[test]
    fn routing_empty_set_returns_none() {
        let set = ReleaseSet::new();
        assert_eq!(set.route(0.5), None);
        let mut set = ReleaseSet::new();
        let a = set.deploy(service("1.0"));
        set.suspend(a).unwrap();
        assert_eq!(set.route(0.5), None);
    }

    #[test]
    fn invalid_weights_are_rejected() {
        let mut set = ReleaseSet::new();
        let a = set.deploy(service("1.0"));
        assert_eq!(
            set.set_weight(a, -0.1),
            Err(CoreError::InvalidWeight { release: a })
        );
        assert!(set.set_weight(a, f64::NAN).is_err());
        assert!(set.set_weight(a, f64::INFINITY).is_err());
        assert!(set.set_weight(ReleaseId::new(9), 1.0).is_err());
        assert!(set.weight(ReleaseId::new(9)).is_err());
        // The rejected weight left the table untouched.
        assert_eq!(set.weight(a).unwrap(), 1.0);
        assert_eq!(set.total_active_weight(), 1.0);
    }

    #[test]
    fn display_and_debug() {
        let mut set = ReleaseSet::new();
        let id = set.deploy(service("1.0"));
        assert_eq!(id.to_string(), "release#0");
        assert!(format!("{set:?}").contains("1.0"));
        assert!(ReleaseState::Active.is_serving());
        assert!(!ReleaseState::PhasedOut.is_serving());
    }
}
