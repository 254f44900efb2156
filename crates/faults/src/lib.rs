//! Deterministic, seed-driven fault injection for the managed-upgrade
//! middleware.
//!
//! A [`FaultPlan`] is an ordered list of
//! [`FaultClause`]s — each a *trigger* (demand-index
//! window, virtual-time window, every-Nth, or probabilistic with its own
//! seed stream) paired with an *action* (crash, hang, wrong values,
//! latency spikes, timeout-boundary delays, transport drop/duplicate/
//! corrupt, flapping). The [`FaultInjector`]
//! wrapper arms a plan around any
//! [`ServiceEndpoint`](wsu_wstack::endpoint::ServiceEndpoint), so the
//! injected ground truth flows through the middleware's monitoring
//! subsystem into the detection audit unchanged.
//!
//! Every random decision derives from a named
//! [`MasterSeed`](wsu_simcore::rng::MasterSeed) stream, so campaigns are
//! reproducible bit for bit and probabilistic clauses on two releases
//! can share a stream to model coincident faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inject;
pub mod plan;

pub use inject::{FaultInjector, InjectionTally};
pub use plan::{
    FaultAction, FaultClause, FaultPlan, FaultScenario, FaultTrigger, FleetFaultScenario,
};
