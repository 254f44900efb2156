//! Managed-upgrade middleware for composite Web Services.
//!
//! This crate is the paper's primary contribution: an architecture that
//! keeps several releases of a component WS operational behind one
//! interface, adjudicates their responses, measures per-release
//! dependability (including Bayesian *confidence in correctness*), and
//! switches the composite service to the new release only when a
//! switching criterion is met — so that "the composite service
//! dependability will not deteriorate as a result of the switch".
//!
//! The architecture of Section 4.1 maps onto modules as follows:
//!
//! * the **upgrading middleware** — [`middleware::UpgradeMiddleware`],
//!   with the operating modes of Section 4.2 in [`modes`] and the
//!   adjudication rules of Section 5.2.1 in [`adjudicate`];
//! * the **monitoring tool** — [`monitor::MonitoringSubsystem`], which
//!   tracks per-release outcome counts, execution times, availability and
//!   the joint failure counts feeding the white-box Bayesian inference;
//! * the **management tool** — [`manage::ManagementSubsystem`], which
//!   owns the switching criteria of Section 5.1.1.2, reconfiguration and
//!   release recovery;
//! * the **releases** themselves — [`release`];
//! * **confidence publishing** (Section 6.2) — [`confidence_pub`];
//! * the **orchestrator** gluing everything into a deployable managed
//!   upgrade — [`upgrade::ManagedUpgrade`], the programmatic equivalent
//!   of the paper's test harness (Section 6.1).
//!
//! # Example: a complete managed upgrade
//!
//! ```
//! use wsu_core::manage::SwitchCriterion;
//! use wsu_core::upgrade::{ManagedUpgrade, UpgradeConfig};
//! use wsu_simcore::rng::MasterSeed;
//! use wsu_wstack::endpoint::SyntheticService;
//! use wsu_wstack::outcome::OutcomeProfile;
//! use wsu_workload::scenario::ScenarioPriors;
//!
//! let old = SyntheticService::builder("Quote", "1.0")
//!     .outcomes(OutcomeProfile::new(0.999, 0.0005, 0.0005))
//!     .build();
//! let new = SyntheticService::builder("Quote", "1.1")
//!     .outcomes(OutcomeProfile::new(0.9995, 0.00025, 0.00025))
//!     .build();
//! let priors = ScenarioPriors::scenario2();
//! let mut upgrade = ManagedUpgrade::new(
//!     old,
//!     new,
//!     UpgradeConfig::default()
//!         .with_priors(priors.prior_a, priors.prior_b)
//!         .with_criterion(SwitchCriterion::better_than_old(0.9)),
//!     MasterSeed::new(7),
//! );
//! for _ in 0..200 {
//!     upgrade.run_demand();
//! }
//! assert_eq!(upgrade.demands(), 200);
//! // Confidence in the new release is already quantified.
//! let conf = upgrade.confidence_report();
//! assert!(conf.new_release_p99 > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod adjudicate;
pub mod composite;
pub mod confidence_pub;
pub mod error;
pub mod fleet;
pub mod manage;
pub mod middleware;
pub mod modes;
pub mod monitor;
pub mod release;
pub mod serve;
pub mod upgrade;

pub use adjudicate::{Adjudicator, SelectionPolicy, SystemVerdict};
pub use composite::CompositeService;
pub use error::CoreError;
pub use fleet::{
    FleetDemand, FleetOrchestrator, FleetPlan, FleetStats, FleetStatus, ProbeRule, PromotionRule,
    RollbackRule, SubstitutePool, WeightRamp,
};
pub use manage::{
    Assessment, AssessmentView, ManagementSubsystem, SwitchCriterion, SwitchDecision,
};
pub use middleware::{DemandRecord, MiddlewareConfig, UpgradeMiddleware};
pub use modes::OperatingMode;
pub use monitor::MonitoringSubsystem;
pub use release::{ReleaseId, ReleaseInfo, ReleaseState};
pub use serve::{DemandOutcome, DemandWorker, ReleaseSpec, ServeSpec};
pub use upgrade::{ManagedUpgrade, UpgradeConfig, UpgradePhase};
