//! The fault-plan language: *when* to strike and *what* to do.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultClause`]s. Each clause
//! pairs a [`FaultTrigger`] (a predicate over the demand index, the
//! virtual-time clock or a private random stream) with a [`FaultAction`]
//! (the perturbation applied to the wrapped endpoint's invocation).
//! Plans are plain data — deterministic given a
//! [`MasterSeed`](wsu_simcore::rng::MasterSeed) — so a campaign over a
//! matrix of plans is reproducible bit for bit.
//!
//! Correlation between releases falls out of the seeding discipline:
//! two probabilistic clauses naming the **same** stream draw the same
//! Bernoulli sequence and therefore fire on exactly the same demand
//! indices (coincident faults); distinct stream names give independent
//! draws. [`FaultScenario::coincident`] builds on this.

/// When a clause fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTrigger {
    /// Fires for demand indices in the half-open window `[from, to)`.
    /// Indices are 0-based and local to the injector (its own
    /// invocation counter).
    DemandWindow {
        /// First demand index affected.
        from: u64,
        /// One past the last demand index affected.
        to: u64,
    },
    /// Fires while the injector's virtual-time clock is in the half-open
    /// window `[from_secs, to_secs)`. The middleware sets the clock to
    /// each demand's dispatch instant just before invoking the injector,
    /// through
    /// [`ServiceEndpoint::advance_clock`](wsu_wstack::endpoint::ServiceEndpoint::advance_clock).
    TimeWindow {
        /// Window start, in virtual seconds.
        from_secs: f64,
        /// Window end, in virtual seconds.
        to_secs: f64,
    },
    /// Fires on every demand index `i` with `i % n == phase`.
    EveryNth {
        /// The period (must be positive).
        n: u64,
        /// The offset within the period (must be `< n`).
        phase: u64,
    },
    /// Fires with probability `p` on every demand, drawn from a private
    /// [`MasterSeed`](wsu_simcore::rng::MasterSeed) stream of the given
    /// name. Same stream name ⇒ same draws ⇒ coincident firing across
    /// injectors; distinct names ⇒ independent.
    Probabilistic {
        /// The per-demand firing probability, in `[0, 1]`.
        p: f64,
        /// The seed-stream name the draws come from.
        stream: String,
    },
}

impl FaultTrigger {
    /// Validates the trigger's parameters.
    ///
    /// # Panics
    ///
    /// Panics on an empty or inverted window, `n == 0`, `phase >= n`, or
    /// a probability outside `[0, 1]`.
    pub fn validate(&self) {
        match self {
            FaultTrigger::DemandWindow { from, to } => {
                assert!(from < to, "demand window [{from}, {to}) is empty");
            }
            FaultTrigger::TimeWindow { from_secs, to_secs } => {
                assert!(
                    from_secs < to_secs,
                    "time window [{from_secs}, {to_secs}) is empty"
                );
            }
            FaultTrigger::EveryNth { n, phase } => {
                assert!(*n > 0, "every-nth period must be positive");
                assert!(phase < n, "every-nth phase {phase} not below period {n}");
            }
            FaultTrigger::Probabilistic { p, .. } => {
                assert!(
                    (0.0..=1.0).contains(p),
                    "firing probability {p} not in [0, 1]"
                );
            }
        }
    }

    /// Closed-form expected number of firings over `demands` demands,
    /// where one exists: exact for demand windows and every-nth, the
    /// binomial mean `p · demands` for probabilistic clauses, and `None`
    /// for time windows (their count depends on the clock trajectory).
    pub fn expected_fires(&self, demands: u64) -> Option<f64> {
        match self {
            FaultTrigger::DemandWindow { from, to } => {
                Some(to.min(&demands).saturating_sub(*from.min(&demands)) as f64)
            }
            FaultTrigger::TimeWindow { .. } => None,
            FaultTrigger::EveryNth { n, phase } => {
                if demands <= *phase {
                    Some(0.0)
                } else {
                    Some(((demands - phase) as f64 / *n as f64).ceil())
                }
            }
            FaultTrigger::Probabilistic { p, .. } => Some(p * demands as f64),
        }
    }
}

/// What a firing clause does to the invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// The endpoint is down: the request is never served and no response
    /// ever arrives (the middleware's timeout scores it NRDT).
    Crash,
    /// The endpoint serves the request but takes `delay_secs` longer
    /// than it would have — set it beyond the timeout to model a hung
    /// release whose work is lost.
    Hang {
        /// Extra delay added to the execution time, in seconds.
        delay_secs: f64,
    },
    /// The response carries a wrong value: evidently wrong (a SOAP
    /// fault) or non-evidently wrong (plausible but incorrect).
    WrongValue {
        /// `true` for an evident failure, `false` for a non-evident one.
        evident: bool,
    },
    /// A latency spike: the response is delayed by `extra_secs` but is
    /// otherwise untouched. May or may not cross the timeout.
    LatencySpike {
        /// Extra latency, in seconds.
        extra_secs: f64,
    },
    /// The response arrives just past the middleware's timeout — the
    /// boundary case the timeout-scoring logic must get right.
    TimeoutBoundary {
        /// The middleware timeout being straddled, in seconds.
        timeout_secs: f64,
        /// How far past the timeout the response lands, in seconds.
        margin_secs: f64,
    },
    /// The transport drops the response *after* the service executed:
    /// the ground-truth class is preserved but the consumer never sees
    /// it (observationally an NRDT).
    DropResponse,
    /// The transport duplicates the request: the service executes twice
    /// and the first response is delivered (the duplicate is discarded
    /// by the middleware's correlation layer).
    DuplicateRequest,
    /// The transport corrupts the message: the service executed but what
    /// arrives is garbage, surfacing as an evident failure.
    CorruptMessage,
    /// The release flaps: alternating up/down phases of `period` demands
    /// while the trigger holds. Down phases behave like [`Crash`];
    /// up phases pass through unperturbed (and count nothing).
    ///
    /// [`Crash`]: FaultAction::Crash
    Flap {
        /// Length of each up/down phase, in demands (must be positive).
        period: u64,
    },
}

impl FaultAction {
    /// The stable kind label used in metrics
    /// (`wsu_fault_injected_total{kind=...}`), traces and tables.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultAction::Crash => "crash",
            FaultAction::Hang { .. } => "hang",
            FaultAction::WrongValue { evident: true } => "wrong-evident",
            FaultAction::WrongValue { evident: false } => "wrong-non-evident",
            FaultAction::LatencySpike { .. } => "latency-spike",
            FaultAction::TimeoutBoundary { .. } => "timeout-boundary",
            FaultAction::DropResponse => "drop",
            FaultAction::DuplicateRequest => "duplicate",
            FaultAction::CorruptMessage => "corrupt",
            FaultAction::Flap { .. } => "flap",
        }
    }

    /// Validates the action's parameters.
    ///
    /// # Panics
    ///
    /// Panics on negative delays or a zero flap period.
    pub fn validate(&self) {
        match self {
            FaultAction::Hang { delay_secs } => {
                assert!(*delay_secs >= 0.0, "hang delay must be non-negative");
            }
            FaultAction::LatencySpike { extra_secs } => {
                assert!(*extra_secs >= 0.0, "latency spike must be non-negative");
            }
            FaultAction::TimeoutBoundary {
                timeout_secs,
                margin_secs,
            } => {
                assert!(*timeout_secs > 0.0, "timeout must be positive");
                assert!(*margin_secs > 0.0, "boundary margin must be positive");
            }
            FaultAction::Flap { period } => {
                assert!(*period > 0, "flap period must be positive");
            }
            _ => {}
        }
    }
}

/// One trigger/action pair with a display name.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultClause {
    /// Label used in trace events and reports.
    pub name: String,
    /// When the clause fires.
    pub trigger: FaultTrigger,
    /// What it does when it fires.
    pub action: FaultAction,
}

impl FaultClause {
    /// Creates a validated clause.
    ///
    /// # Panics
    ///
    /// Panics if the trigger or action parameters are invalid.
    pub fn new(name: impl Into<String>, trigger: FaultTrigger, action: FaultAction) -> FaultClause {
        trigger.validate();
        action.validate();
        FaultClause {
            name: name.into(),
            trigger,
            action,
        }
    }
}

/// An ordered list of clauses for one endpoint.
///
/// When several clauses fire on the same demand, the **first** one (in
/// plan order) applies — so with pairwise-disjoint triggers, per-clause
/// firing counts equal per-clause trigger counts exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    clauses: Vec<FaultClause>,
}

impl FaultPlan {
    /// An empty plan (nothing is ever perturbed).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Appends a clause (builder style).
    pub fn with_clause(mut self, clause: FaultClause) -> FaultPlan {
        self.clauses.push(clause);
        self
    }

    /// Appends a clause in place.
    pub fn push(&mut self, clause: FaultClause) {
        self.clauses.push(clause);
    }

    /// The clauses, in priority order.
    pub fn clauses(&self) -> &[FaultClause] {
        &self.clauses
    }

    /// `true` when the plan has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }
}

/// A named two-release fault scenario: one plan per release.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScenario {
    /// Scenario label (used as the campaign row name).
    pub name: String,
    /// The plan injected into the old release.
    pub old: FaultPlan,
    /// The plan injected into the new release.
    pub new: FaultPlan,
}

impl FaultScenario {
    /// An empty scenario with the given name.
    pub fn new(name: impl Into<String>) -> FaultScenario {
        FaultScenario {
            name: name.into(),
            old: FaultPlan::new(),
            new: FaultPlan::new(),
        }
    }

    /// Adds a clause to the old release's plan.
    pub fn old_clause(mut self, clause: FaultClause) -> FaultScenario {
        self.old.push(clause);
        self
    }

    /// Adds a clause to the new release's plan.
    pub fn new_clause(mut self, clause: FaultClause) -> FaultScenario {
        self.new.push(clause);
        self
    }

    /// Adds the *same* clause to both plans — a correlated two-release
    /// fault. With a deterministic trigger (window, every-nth) the
    /// firings coincide by construction; with a probabilistic trigger
    /// they coincide because both injectors derive the same seed stream
    /// from the shared stream name.
    pub fn coincident(mut self, clause: FaultClause) -> FaultScenario {
        self.old.push(clause.clone());
        self.new.push(clause);
        self
    }
}

/// A named N-release fleet fault scenario: one plan per release, in
/// deployment order. The fleet analogue of [`FaultScenario`], used by
/// canary-chain campaigns where the fault axis is (fleet size ×
/// recovery strategy).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetFaultScenario {
    /// Scenario label (used as the campaign row name).
    pub name: String,
    /// One fault plan per release, indexed by deployment order.
    pub plans: Vec<FaultPlan>,
}

impl FleetFaultScenario {
    /// An empty scenario with the given name and one empty plan per
    /// release.
    pub fn new(name: impl Into<String>, releases: usize) -> FleetFaultScenario {
        FleetFaultScenario {
            name: name.into(),
            plans: vec![FaultPlan::new(); releases],
        }
    }

    /// Number of releases the scenario covers.
    pub fn releases(&self) -> usize {
        self.plans.len()
    }

    /// Adds a clause to release `index`'s plan.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn release_clause(mut self, index: usize, clause: FaultClause) -> FleetFaultScenario {
        self.plans[index].push(clause);
        self
    }

    /// Adds the *same* clause to every release's plan — a correlated
    /// fleet-wide fault. As with [`FaultScenario::coincident`],
    /// probabilistic triggers naming the same stream fire on the same
    /// demand indices across all releases.
    pub fn coincident(mut self, clause: FaultClause) -> FleetFaultScenario {
        for plan in &mut self.plans {
            plan.push(clause.clone());
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_expected_fires_clips_to_demands() {
        let t = FaultTrigger::DemandWindow { from: 100, to: 300 };
        assert_eq!(t.expected_fires(1_000), Some(200.0));
        assert_eq!(t.expected_fires(150), Some(50.0));
        assert_eq!(t.expected_fires(50), Some(0.0));
    }

    #[test]
    fn every_nth_expected_fires() {
        let t = FaultTrigger::EveryNth { n: 7, phase: 3 };
        // Indices 3, 10, 17, ..., below 100: ceil((100-3)/7) = 14.
        assert_eq!(t.expected_fires(100), Some(14.0));
        assert_eq!(t.expected_fires(3), Some(0.0));
        assert_eq!(t.expected_fires(4), Some(1.0));
    }

    #[test]
    fn probabilistic_expected_is_binomial_mean() {
        let t = FaultTrigger::Probabilistic {
            p: 0.25,
            stream: "s".into(),
        };
        assert_eq!(t.expected_fires(400), Some(100.0));
    }

    #[test]
    fn time_window_has_no_demand_closed_form() {
        let t = FaultTrigger::TimeWindow {
            from_secs: 1.0,
            to_secs: 2.0,
        };
        assert_eq!(t.expected_fires(100), None);
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn inverted_window_rejected() {
        FaultClause::new(
            "bad",
            FaultTrigger::DemandWindow { from: 5, to: 5 },
            FaultAction::Crash,
        );
    }

    #[test]
    #[should_panic(expected = "phase")]
    fn bad_phase_rejected() {
        FaultClause::new(
            "bad",
            FaultTrigger::EveryNth { n: 3, phase: 3 },
            FaultAction::Crash,
        );
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn bad_probability_rejected() {
        FaultClause::new(
            "bad",
            FaultTrigger::Probabilistic {
                p: 1.5,
                stream: "s".into(),
            },
            FaultAction::Crash,
        );
    }

    #[test]
    #[should_panic(expected = "flap period")]
    fn zero_flap_period_rejected() {
        FaultClause::new(
            "bad",
            FaultTrigger::DemandWindow { from: 0, to: 1 },
            FaultAction::Flap { period: 0 },
        );
    }

    #[test]
    fn kind_labels_are_stable() {
        let kinds: Vec<&str> = [
            FaultAction::Crash,
            FaultAction::Hang { delay_secs: 1.0 },
            FaultAction::WrongValue { evident: true },
            FaultAction::WrongValue { evident: false },
            FaultAction::LatencySpike { extra_secs: 0.5 },
            FaultAction::TimeoutBoundary {
                timeout_secs: 2.0,
                margin_secs: 0.1,
            },
            FaultAction::DropResponse,
            FaultAction::DuplicateRequest,
            FaultAction::CorruptMessage,
            FaultAction::Flap { period: 10 },
        ]
        .iter()
        .map(FaultAction::kind)
        .collect();
        assert_eq!(
            kinds,
            [
                "crash",
                "hang",
                "wrong-evident",
                "wrong-non-evident",
                "latency-spike",
                "timeout-boundary",
                "drop",
                "duplicate",
                "corrupt",
                "flap"
            ]
        );
    }

    #[test]
    fn scenario_builder_shares_coincident_clauses() {
        let clause = FaultClause::new(
            "burst",
            FaultTrigger::Probabilistic {
                p: 0.1,
                stream: "burst".into(),
            },
            FaultAction::Crash,
        );
        let scenario = FaultScenario::new("s")
            .old_clause(FaultClause::new(
                "old-only",
                FaultTrigger::EveryNth { n: 5, phase: 0 },
                FaultAction::WrongValue { evident: true },
            ))
            .coincident(clause.clone());
        assert_eq!(scenario.old.len(), 2);
        assert_eq!(scenario.new.len(), 1);
        assert_eq!(scenario.new.clauses()[0], clause);
        assert_eq!(scenario.old.clauses()[1], clause);
    }

    #[test]
    fn fleet_scenario_targets_releases_and_shares_coincident_clauses() {
        let burst = FaultClause::new(
            "burst",
            FaultTrigger::Probabilistic {
                p: 0.05,
                stream: "burst".into(),
            },
            FaultAction::Crash,
        );
        let scenario = FleetFaultScenario::new("fleet", 3)
            .release_clause(
                2,
                FaultClause::new(
                    "canary-only",
                    FaultTrigger::DemandWindow { from: 10, to: 20 },
                    FaultAction::WrongValue { evident: true },
                ),
            )
            .coincident(burst.clone());
        assert_eq!(scenario.releases(), 3);
        assert_eq!(scenario.plans[0].len(), 1);
        assert_eq!(scenario.plans[1].len(), 1);
        assert_eq!(scenario.plans[2].len(), 2);
        for plan in &scenario.plans {
            assert_eq!(plan.clauses().last().unwrap(), &burst);
        }
    }
}
