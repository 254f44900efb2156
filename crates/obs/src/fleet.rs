//! Per-release fleet gauges for staged canary chains.
//!
//! A weighted fleet exposes two things an operator watches during an
//! online upgrade that the pairwise metrics don't carry: each release's
//! current **traffic weight** and its **chain stage**. [`FleetGauges`]
//! publishes both into a [`SharedRegistry`], plus counters for the
//! fleet-level lifecycle decisions (incidents, recoveries, promotions,
//! rollbacks, substitutions).
//!
//! Release labels for indices 0–7 are static strings; larger indices
//! collapse into the `"8+"` label. Each series is resolved to its
//! registry id on its first write, as the monitor's handles are, so a
//! series is rendered only once written and every later write is an
//! indexed store that allocates nothing.

use std::cell::{OnceCell, RefCell};

use crate::metrics::{CounterId, GaugeId, SharedRegistry};

/// The release labels. Fleets larger than eight releases collapse the
/// overflow into one `"8+"` series.
const RELEASE_LABELS: [&str; 9] = ["0", "1", "2", "3", "4", "5", "6", "7", "8+"];

/// The label slot of a release index.
fn release_slot(index: usize) -> usize {
    index.min(RELEASE_LABELS.len() - 1)
}

/// The static label for a release index.
fn release_label(index: usize) -> &'static str {
    RELEASE_LABELS[release_slot(index)]
}

/// Counter ids of one metric per label value, each resolved on its
/// value's first write.
#[derive(Debug, Clone, Default)]
struct LabeledCounters(RefCell<Vec<(String, CounterId)>>);

impl LabeledCounters {
    fn inc(&self, registry: &SharedRegistry, name: &str, key: &str, value: &str) {
        let mut ids = self.0.borrow_mut();
        let id = match ids.iter().find(|(v, _)| v == value) {
            Some(&(_, id)) => id,
            None => {
                let id = registry.counter_id(name, &[(key, value)]);
                ids.push((value.to_owned(), id));
                id
            }
        };
        registry.inc_counter_id(id);
    }
}

/// Publishes per-release weight/stage gauges and fleet lifecycle
/// counters into a shared metrics registry.
#[derive(Debug, Clone)]
pub struct FleetGauges {
    registry: SharedRegistry,
    weights: [OnceCell<GaugeId>; RELEASE_LABELS.len()],
    stages: [OnceCell<GaugeId>; RELEASE_LABELS.len()],
    incidents: LabeledCounters,
    recoveries: LabeledCounters,
    promotions: OnceCell<CounterId>,
    rollbacks: OnceCell<CounterId>,
    substitutions: OnceCell<CounterId>,
}

impl FleetGauges {
    /// Wraps a shared registry.
    pub fn new(registry: SharedRegistry) -> FleetGauges {
        FleetGauges {
            registry,
            weights: Default::default(),
            stages: Default::default(),
            incidents: LabeledCounters::default(),
            recoveries: LabeledCounters::default(),
            promotions: OnceCell::new(),
            rollbacks: OnceCell::new(),
            substitutions: OnceCell::new(),
        }
    }

    /// Writes `value` into the release's series of gauge `name`.
    fn set_release_gauge(
        &self,
        ids: &[OnceCell<GaugeId>; RELEASE_LABELS.len()],
        name: &str,
        release: usize,
        value: f64,
    ) {
        let id = *ids[release_slot(release)].get_or_init(|| {
            self.registry
                .gauge_id(name, &[("release", release_label(release))])
        });
        self.registry.set_gauge_id(id, value);
    }

    /// Bumps the unlabeled counter `name`.
    fn inc(&self, id: &OnceCell<CounterId>, name: &str) {
        let id = *id.get_or_init(|| self.registry.counter_id(name, &[]));
        self.registry.inc_counter_id(id);
    }

    /// Sets `wsu_fleet_weight{release="i"}` — the release's current
    /// traffic weight share.
    pub fn set_weight(&self, release: usize, weight: f64) {
        self.set_release_gauge(&self.weights, "wsu_fleet_weight", release, weight);
    }

    /// Sets `wsu_fleet_stage{release="i"}` — the release's position in
    /// the canary chain (0 = the initial stable release).
    pub fn set_stage(&self, release: usize, stage: usize) {
        self.set_release_gauge(&self.stages, "wsu_fleet_stage", release, stage as f64);
    }

    /// Counts a declared incident, labeled by the recovery strategy
    /// that handles it.
    pub fn incident(&self, strategy: &str) {
        self.incidents.inc(
            &self.registry,
            "wsu_fleet_incidents_total",
            "strategy",
            strategy,
        );
    }

    /// Counts a successful recovery probe, labeled by strategy.
    pub fn recovered(&self, strategy: &str) {
        self.recoveries.inc(
            &self.registry,
            "wsu_fleet_recoveries_total",
            "strategy",
            strategy,
        );
    }

    /// Counts a canary promotion.
    pub fn promotion(&self) {
        self.inc(&self.promotions, "wsu_fleet_promotions_total");
    }

    /// Counts a canary demotion (rollback).
    pub fn rollback(&self) {
        self.inc(&self.rollbacks, "wsu_fleet_rollbacks_total");
    }

    /// Counts an atomic substitution (a registry stand-in bound as a
    /// replacement release).
    pub fn substitution(&self) {
        self.inc(&self.substitutions, "wsu_fleet_substitutions_total");
    }

    /// The wrapped registry.
    pub fn registry(&self) -> &SharedRegistry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_and_counters_land_in_the_registry() {
        let registry = SharedRegistry::new();
        let gauges = FleetGauges::new(registry.clone());
        gauges.set_weight(0, 0.9);
        gauges.set_weight(1, 0.1);
        gauges.set_stage(1, 2);
        gauges.incident("restart");
        gauges.recovered("restart");
        gauges.promotion();
        gauges.rollback();
        gauges.substitution();
        registry.with(|r| {
            assert_eq!(r.gauge("wsu_fleet_weight", &[("release", "0")]), Some(0.9));
            assert_eq!(r.gauge("wsu_fleet_weight", &[("release", "1")]), Some(0.1));
            assert_eq!(r.gauge("wsu_fleet_stage", &[("release", "1")]), Some(2.0));
            assert_eq!(
                r.counter("wsu_fleet_incidents_total", &[("strategy", "restart")]),
                1
            );
            assert_eq!(
                r.counter("wsu_fleet_recoveries_total", &[("strategy", "restart")]),
                1
            );
            assert_eq!(r.counter("wsu_fleet_promotions_total", &[]), 1);
            assert_eq!(r.counter("wsu_fleet_rollbacks_total", &[]), 1);
            assert_eq!(r.counter("wsu_fleet_substitutions_total", &[]), 1);
        });
        assert!(!format!("{gauges:?}").is_empty());
        let _ = gauges.registry();
    }

    #[test]
    fn only_written_series_are_rendered() {
        let registry = SharedRegistry::new();
        let gauges = FleetGauges::new(registry.clone());
        assert_eq!(
            registry.render_snapshot(),
            SharedRegistry::new().render_snapshot()
        );
        gauges.set_weight(9, 0.25);
        gauges.set_weight(12, 0.5);
        gauges.incident("restart");
        gauges.incident("substitute");
        gauges.incident("restart");
        registry.with(|r| {
            assert_eq!(r.gauge("wsu_fleet_weight", &[("release", "8+")]), Some(0.5));
            assert_eq!(r.gauge("wsu_fleet_stage", &[("release", "8+")]), None);
            assert_eq!(
                r.counter("wsu_fleet_incidents_total", &[("strategy", "restart")]),
                2
            );
            assert_eq!(
                r.counter("wsu_fleet_incidents_total", &[("strategy", "substitute")]),
                1
            );
        });
        let rendered = registry.render_snapshot();
        assert!(!rendered.contains("wsu_fleet_stage"), "{rendered}");
        assert!(
            !rendered.contains("wsu_fleet_promotions_total"),
            "{rendered}"
        );
    }

    #[test]
    fn large_indices_collapse_into_one_label() {
        assert_eq!(release_label(7), "7");
        assert_eq!(release_label(8), "8+");
        assert_eq!(release_label(100), "8+");
    }
}
