//! The closed-loop middleware simulation (paper Section 5.2).
//!
//! Reproduces the paper's model: 10,000 requests processed closed-loop
//! (each new request is issued when the previous adjudicated response is
//! delivered), two releases whose joint outcomes come from a workload
//! generator, execution times from eq. (7), and the parallel-reliability
//! middleware with timeouts of 1.5/2.0/3.0 s and `dT = 0.1 s`.
//!
//! A closed loop holds one demand in flight, so a cell needs no event
//! queue: it is a plain loop that advances the virtual clock by each
//! demand's response time, the same `SimTime + SimDuration` addition
//! the simcore engine would make. The cell's `wsu_engine_*` gauges
//! report what an engine would: one event per demand and a queue high
//! water of 1.
//!
//! As in the paper, all timeout columns of one run replay the *same*
//! planned demands, so differences between columns are purely the
//! timeout's effect.

use wsu_core::middleware::{MiddlewareConfig, UpgradeMiddleware};
use wsu_core::monitor::{MonitoringSubsystem, ReleaseStats, SystemStats};
use wsu_core::release::ReleaseId;
use wsu_obs::{SharedRecorder, SharedRegistry};
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_simcore::time::SimTime;
use wsu_workload::demand::{DemandPlanner, PlannedDemand};
use wsu_workload::outcomes::OutcomePairGen;
use wsu_workload::timing::ExecTimeModel;
use wsu_wstack::outcome::ResponseClass;

use crate::replicate::run_replications;

/// Optional observability sinks threaded through a simulation.
///
/// The default value has both sinks absent, which reproduces the
/// unobserved simulation byte for byte: the middleware keeps its
/// [`wsu_obs::NullRecorder`] and the monitor records no metrics.
#[derive(Debug, Clone, Default)]
pub struct ObsSinks {
    /// Trace recorder attached to the middleware, if any.
    pub recorder: Option<SharedRecorder>,
    /// Metrics registry attached to the monitor, if any.
    pub metrics: Option<SharedRegistry>,
}

impl ObsSinks {
    /// `true` when at least one sink is attached.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some() || self.metrics.is_some()
    }
}

/// The per-group statistics of one table cell (release 1, release 2 or
/// the system column group of Tables 5–6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupStats {
    /// Mean execution time (per-release: over all responses; system:
    /// consumer-visible response time), in seconds.
    pub met: f64,
    /// Correct responses.
    pub cr: u64,
    /// Evident failures ("EER" in the tables).
    pub eer: u64,
    /// Non-evident failures.
    pub ner: u64,
    /// Total responses within the timeout.
    pub total: u64,
    /// Demands without a response within the timeout.
    pub nrdt: u64,
}

impl GroupStats {
    fn from_release(stats: &ReleaseStats) -> GroupStats {
        GroupStats {
            met: stats.mean_exec_time(),
            cr: stats.count(ResponseClass::Correct),
            eer: stats.count(ResponseClass::EvidentFailure),
            ner: stats.count(ResponseClass::NonEvidentFailure),
            total: stats.total_responses(),
            nrdt: stats.nrdt(),
        }
    }

    fn from_system(stats: &SystemStats) -> GroupStats {
        GroupStats {
            met: stats.mean_response_time(),
            cr: stats.count(ResponseClass::Correct),
            eer: stats.count(ResponseClass::EvidentFailure),
            ner: stats.count(ResponseClass::NonEvidentFailure),
            total: stats.total_responses(),
            nrdt: stats.nrdt(),
        }
    }

    /// Fraction of all demands answered correctly.
    pub fn correct_fraction(&self) -> f64 {
        let demands = self.total + self.nrdt;
        if demands == 0 {
            0.0
        } else {
            self.cr as f64 / demands as f64
        }
    }
}

/// One simulated cell: a (run, timeout) combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellResult {
    /// The middleware timeout, seconds.
    pub timeout: f64,
    /// Requests processed.
    pub requests: u64,
    /// Release 1's column group.
    pub rel1: GroupStats,
    /// Release 2's column group.
    pub rel2: GroupStats,
    /// The system's column group.
    pub system: GroupStats,
}

/// Simulates one cell: the given planned demands through a middleware
/// with the given configuration. Demand `i`'s planned pair answers demand
/// `i` in every operating mode, whichever releases the mode invokes.
///
/// # Panics
///
/// Panics if `demands` is empty, or if `config` selects
/// [`OperatingMode::WeightedFleet`](wsu_core::modes::OperatingMode::WeightedFleet),
/// which routes to deployed releases and has no planned form.
pub fn simulate_cell(
    demands: &[PlannedDemand],
    config: MiddlewareConfig,
    seed: MasterSeed,
) -> CellResult {
    simulate_cell_observed(demands, config, seed, &ObsSinks::default(), "cell")
}

/// [`simulate_cell`] with observability sinks attached.
///
/// When a recorder is present the middleware emits per-demand trace
/// events stamped with the cell's virtual time; when a registry is
/// present the monitor mirrors its counts into it, and the loop's
/// totals land in `wsu_engine_events_processed` (the demand count) and
/// `wsu_engine_queue_high_water` (1) gauges labelled with `tag`.
///
/// # Panics
///
/// As [`simulate_cell`].
pub fn simulate_cell_observed(
    demands: &[PlannedDemand],
    config: MiddlewareConfig,
    seed: MasterSeed,
    sinks: &ObsSinks,
    tag: &str,
) -> CellResult {
    assert!(!demands.is_empty(), "need at least one planned demand");
    let mut middleware = UpgradeMiddleware::new(config);
    if let Some(recorder) = &sinks.recorder {
        middleware.set_recorder(recorder.clone());
    }
    let mut monitor = MonitoringSubsystem::new(0);
    if let Some(metrics) = &sinks.metrics {
        monitor.set_metrics(metrics.clone());
    }

    let mut mw_rng = seed.stream("midsim/middleware");
    let mut mon_rng = seed.stream("midsim/monitor");
    let mut now = SimTime::ZERO;
    for demand in demands {
        // Stamp the demand's trace events with its dispatch instant. This
        // is a plain field store, so the unobserved simulation is
        // unaffected.
        middleware.set_virtual_time(now.as_secs());
        // Release 1 is `ReleaseId(0)` and release 2 `ReleaseId(1)`; both
        // answer this demand's planned pair in every mode.
        let record = middleware
            .process_planned(&[demand.rel1, demand.rel2], &mut mw_rng)
            .expect("a planned pair answers every mode but weighted-fleet routing");
        // Closed loop: the next request leaves when this response
        // reaches the consumer.
        now += record.system.response_time;
        monitor.observe(record, &mut mon_rng);
    }
    if let Some(metrics) = &sinks.metrics {
        metrics.set_gauge(
            "wsu_engine_events_processed",
            &[("cell", tag)],
            demands.len() as f64,
        );
        metrics.set_gauge("wsu_engine_queue_high_water", &[("cell", tag)], 1.0);
    }

    let r1 = monitor
        .release_stats(ReleaseId::new(0))
        .expect("release 1 observed");
    let r2 = monitor
        .release_stats(ReleaseId::new(1))
        .expect("release 2 observed");
    CellResult {
        timeout: config.timeout.as_secs(),
        requests: demands.len() as u64,
        rel1: GroupStats::from_release(r1),
        rel2: GroupStats::from_release(r2),
        system: GroupStats::from_system(monitor.system_stats()),
    }
}

/// Plans one run's demands: the joint outcomes and execution times all
/// timeout columns of that run replay.
///
/// The plan stream is derived from `(seed, run_tag)` alone, so the plan
/// is a pure function of its arguments: planning a run once and lending
/// the plan to every timeout column, as the tables do, is
/// indistinguishable from planning it per column.
pub fn plan_run(
    outcomes: &dyn OutcomePairGen,
    timing: ExecTimeModel,
    requests: u64,
    seed: MasterSeed,
    run_tag: &str,
) -> Vec<PlannedDemand> {
    let mut planner = DemandPlanner::new(outcomes, timing);
    let mut plan_rng = seed.stream(&format!("midsim/plan/{run_tag}"));
    planner.plan_batch(requests as usize, &mut plan_rng)
}

/// One planned run: its tag and the demands every timeout column of the
/// run replays.
#[derive(Debug)]
pub(crate) struct RunPlan {
    /// The run's tag; each column's engine gauges are labelled
    /// `"{tag}/t{timeout}"`.
    pub(crate) tag: String,
    /// The run's demands, from [`plan_run`].
    pub(crate) demands: Vec<PlannedDemand>,
}

/// Simulates every timeout column of every planned run over the run's
/// borrowed plan.
///
/// Each `(run, timeout)` cell is one replication of
/// [`run_replications`], run-major and timeout-minor, with its own RNG
/// streams and its own private observability sinks. The replications'
/// sinks merge in that cell order, which fixes the floating-point
/// grouping of the `.prom` histogram sums, so the output is
/// byte-identical for any `jobs`.
pub(crate) fn simulate_planned_runs(
    runs: &[RunPlan],
    timeouts: &[f64],
    seed: MasterSeed,
    sinks: &ObsSinks,
    jobs: Jobs,
) -> Vec<CellResult> {
    run_replications(jobs, runs.len() * timeouts.len(), sinks, |r, local| {
        let run = &runs[r / timeouts.len()];
        let timeout = timeouts[r % timeouts.len()];
        simulate_cell_observed(
            &run.demands,
            MiddlewareConfig::paper(timeout),
            seed,
            local,
            &format!("{}/t{timeout}", run.tag),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_workload::outcomes::{CorrelatedOutcomes, IndependentOutcomes};
    use wsu_workload::runs::RunSpec;

    /// Run 1 planned once and simulated at timeouts 1.5 and 3.0 s, the
    /// way a table's cells run.
    fn quick_run(correlated: bool, requests: u64) -> Vec<CellResult> {
        let run = RunSpec::run1();
        let (timing, seed) = (ExecTimeModel::paper(), MasterSeed::new(31));
        let demands = if correlated {
            plan_run(
                &CorrelatedOutcomes::from_run(&run),
                timing,
                requests,
                seed,
                "t",
            )
        } else {
            plan_run(
                &IndependentOutcomes::from_run(&run),
                timing,
                requests,
                seed,
                "t",
            )
        };
        let run = RunPlan {
            tag: "t".to_owned(),
            demands,
        };
        let sinks = ObsSinks::default();
        simulate_planned_runs(&[run], &[1.5, 3.0], seed, &sinks, Jobs::serial())
    }

    #[test]
    fn accounting_adds_up() {
        for cell in quick_run(true, 2_000) {
            for group in [cell.rel1, cell.rel2, cell.system] {
                assert_eq!(group.cr + group.eer + group.ner, group.total);
                assert_eq!(group.total + group.nrdt, cell.requests);
            }
        }
    }

    #[test]
    fn system_availability_beats_either_release() {
        // 1-out-of-2: the system is unavailable only when both releases
        // time out.
        for cell in quick_run(true, 4_000) {
            assert!(cell.system.nrdt <= cell.rel1.nrdt.min(cell.rel2.nrdt));
        }
    }

    #[test]
    fn system_waits_for_slower_release() {
        // The system's response time is min(timeout, max(exec)) + dT.
        // Against the *uncapped* per-release MET the comparison is only
        // guaranteed once the timeout stops truncating the tail — the
        // 3.0 s column here. (With the paper's own reported MET of
        // ~1.0 s the inequality holds in every column; see
        // EXPERIMENTS.md for the timing-parameter discrepancy.)
        let cells = quick_run(true, 2_000);
        let long = cells[1];
        assert!(long.timeout == 3.0);
        assert!(long.system.met > long.rel1.met.min(long.rel2.met));
        // In every column the system is slower than the *faster*
        // release's within-timeout responses plus dT would suggest: it
        // waits for the second response or the timeout.
        for cell in cells {
            assert!(cell.system.met > 0.1);
        }
    }

    #[test]
    fn longer_timeout_collects_more_responses() {
        let cells = quick_run(true, 4_000);
        let (short, long) = (cells[0], cells[1]);
        assert!(long.rel1.total >= short.rel1.total);
        assert!(long.rel2.total >= short.rel2.total);
        assert!(long.system.nrdt <= short.system.nrdt);
    }

    #[test]
    fn same_plan_across_timeouts() {
        // The per-release MET is computed over *all* responses, so it must
        // be identical across timeout columns (the paper reports the same
        // value in all three).
        let cells = quick_run(true, 2_000);
        assert!((cells[0].rel1.met - cells[1].rel1.met).abs() < 1e-12);
        assert!((cells[0].rel2.met - cells[1].rel2.met).abs() < 1e-12);
    }

    #[test]
    fn independence_improves_the_system_over_both_releases() {
        // Table 6's headline: with independent failures, 1-out-of-2
        // fault tolerance works — the system's correct fraction beats
        // both releases'.
        for cell in quick_run(false, 6_000) {
            let sys = cell.system.correct_fraction();
            assert!(
                sys >= cell
                    .rel1
                    .correct_fraction()
                    .max(cell.rel2.correct_fraction())
                    - 0.01,
                "system {sys} vs rel1 {} rel2 {}",
                cell.rel1.correct_fraction(),
                cell.rel2.correct_fraction()
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick_run(true, 1_000);
        let b = quick_run(true, 1_000);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one planned demand")]
    fn empty_plan_rejected() {
        let _ = simulate_cell(&[], MiddlewareConfig::paper(1.5), MasterSeed::new(1));
    }
}
