//! The event-driven middleware simulation (paper Section 5.2).
//!
//! Reproduces the paper's model: 10,000 requests processed closed-loop
//! (each new request is issued when the previous adjudicated response is
//! delivered), two releases whose joint outcomes come from a workload
//! generator, execution times from eq. (7), and the parallel-reliability
//! middleware with timeouts of 1.5/2.0/3.0 s and `dT = 0.1 s`.
//!
//! As in the paper, all timeout columns of one run replay the *same*
//! planned demands, so differences between columns are purely the
//! timeout's effect.

use wsu_core::middleware::{MiddlewareConfig, ReleaseObservation, UpgradeMiddleware};
use wsu_core::monitor::{MonitoringSubsystem, ReleaseStats, SystemStats};
use wsu_core::release::ReleaseId;
use wsu_obs::{SharedRecorder, SharedRegistry};
use wsu_simcore::engine::{Engine, Handler};
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_simcore::shard::{shard_pipeline, Shards};
use wsu_simcore::time::SimTime;
use wsu_workload::demand::{DemandPlanner, PlannedDemand};
use wsu_workload::outcomes::OutcomePairGen;
use wsu_workload::timing::ExecTimeModel;
use wsu_wstack::endpoint::ScriptedEndpoint;
use wsu_wstack::message::Envelope;
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

/// The closed-loop demand event.
#[derive(Debug)]
struct NextDemand;

/// The simulation world: middleware + monitor + remaining demands.
struct World {
    middleware: UpgradeMiddleware,
    monitor: MonitoringSubsystem,
    remaining: u64,
    request: Envelope,
    mw_rng: StreamRng,
    mon_rng: StreamRng,
}

impl Handler<NextDemand> for World {
    fn handle(&mut self, engine: &mut Engine<NextDemand>, _event: NextDemand) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        // Stamp the demand's trace events with its dispatch instant. This
        // is a plain field store, so the unobserved simulation is
        // unaffected.
        self.middleware.set_virtual_time(engine.now().as_secs());
        let record = self
            .middleware
            .process(&self.request, &mut self.mw_rng)
            .expect("releases deployed");
        let wait = record.system.response_time;
        self.monitor.observe(&record, &mut self.mon_rng);
        // The record has been fully observed; hand its buffers back so
        // the next demand reuses them instead of allocating.
        self.middleware.recycle(record);
        if self.remaining > 0 {
            // Closed loop: the next request leaves when this response
            // reaches the consumer.
            engine.schedule_in(wait, NextDemand);
        }
    }
}

/// Simulates one cell: the given planned demands through a middleware
/// with the given configuration.
///
/// # Panics
///
/// Panics if `demands` is empty.
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
/// events stamped with the engine's virtual time; when a registry is
/// present the monitor mirrors its counts into it and the engine's
/// post-run totals land in `wsu_engine_events_processed` /
/// `wsu_engine_queue_high_water` gauges labelled with `tag`.
///
/// # Panics
///
/// Panics if `demands` is empty.
pub fn simulate_cell_observed(
    demands: &[PlannedDemand],
    config: MiddlewareConfig,
    seed: MasterSeed,
    sinks: &ObsSinks,
    tag: &str,
) -> CellResult {
    assert!(!demands.is_empty(), "need at least one planned demand");
    let mut rel1 = ScriptedEndpoint::new("Component", "1.0");
    let mut rel2 = ScriptedEndpoint::new("Component", "1.1");
    for d in demands {
        rel1.push(d.rel1);
        rel2.push(d.rel2);
    }
    let mut middleware = UpgradeMiddleware::new(config);
    let id1 = middleware.deploy(rel1);
    let id2 = middleware.deploy(rel2);
    debug_assert_eq!(id1, ReleaseId::new(0));
    debug_assert_eq!(id2, ReleaseId::new(1));
    if let Some(recorder) = &sinks.recorder {
        middleware.set_recorder(recorder.clone());
    }
    let mut monitor = MonitoringSubsystem::new(0);
    if let Some(metrics) = &sinks.metrics {
        monitor.set_metrics(metrics.clone());
    }

    let mut world = World {
        middleware,
        monitor,
        remaining: demands.len() as u64,
        request: Envelope::request("invoke"),
        mw_rng: seed.stream("midsim/middleware"),
        mon_rng: seed.stream("midsim/monitor"),
    };
    let mut engine = Engine::new();
    engine.schedule_at(SimTime::ZERO, NextDemand);
    engine.run(&mut world);
    if let Some(metrics) = &sinks.metrics {
        metrics.set_gauge(
            "wsu_engine_events_processed",
            &[("cell", tag)],
            engine.processed() as f64,
        );
        metrics.set_gauge(
            "wsu_engine_queue_high_water",
            &[("cell", tag)],
            engine.queue_high_water() as f64,
        );
    }

    let r1 = world
        .monitor
        .release_stats(ReleaseId::new(0))
        .expect("release 1 observed");
    let r2 = world
        .monitor
        .release_stats(ReleaseId::new(1))
        .expect("release 2 observed");
    CellResult {
        timeout: config.timeout.as_secs(),
        requests: demands.len() as u64,
        rel1: GroupStats::from_release(r1),
        rel2: GroupStats::from_release(r2),
        system: GroupStats::from_system(world.monitor.system_stats()),
    }
}

/// [`simulate_cell_observed`] with intra-cell sharding: the demand loop
/// runs as a prepare/commit pipeline (see
/// [`wsu_simcore::shard::shard_pipeline`]).
///
/// Shard workers resolve each demand's per-release observations
/// straight from the plan — plan-determined data, no RNG — while the
/// sequential committer replays the serial loop exactly: demand
/// sequence numbers, adjudication RNG draws, monitor float
/// accumulation, trace emission, and the closed-loop clock all happen
/// in demand order, so the result (tables, `.prom` snapshots, JSONL
/// traces) is **byte-identical at any shard count**, including
/// [`Shards::serial`], which delegates to the serial engine outright.
///
/// # Panics
///
/// Panics if `demands` is empty.
pub fn simulate_cell_sharded(
    demands: &[PlannedDemand],
    config: MiddlewareConfig,
    seed: MasterSeed,
    sinks: &ObsSinks,
    tag: &str,
    shards: Shards,
) -> CellResult {
    if shards.get() <= 1 {
        return simulate_cell_observed(demands, config, seed, sinks, tag);
    }
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
    let timeout = config.timeout;
    // The closed-loop clock, accumulated with the same f64 additions the
    // serial engine performs (`due = now + wait`), so trace timestamps
    // match bit for bit.
    let mut clock = 0.0_f64;
    shard_pipeline(
        shards,
        demands.len(),
        |i| {
            let d = &demands[i];
            vec![
                ReleaseObservation {
                    release: ReleaseId::new(0),
                    class: d.rel1.class,
                    exec_time: d.rel1.exec_time,
                    within_timeout: d.rel1.exec_time <= timeout,
                },
                ReleaseObservation {
                    release: ReleaseId::new(1),
                    class: d.rel2.class,
                    exec_time: d.rel2.exec_time,
                    within_timeout: d.rel2.exec_time <= timeout,
                },
            ]
        },
        |_, per_release| {
            middleware.set_virtual_time(clock);
            let record = middleware
                .process_prepared(per_release, &mut mw_rng)
                .expect("prepared observations are non-empty");
            let wait = record.system.response_time;
            monitor.observe(&record, &mut mon_rng);
            middleware.recycle(record);
            clock += wait.as_secs();
        },
    );
    if let Some(metrics) = &sinks.metrics {
        // What the serial engine reports for this world: one event per
        // demand, never more than one in flight.
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

/// Plans `requests` demands for a run and simulates every timeout column
/// over the *same* plan.
pub fn simulate_run(
    outcomes: &dyn OutcomePairGen,
    timing: ExecTimeModel,
    requests: u64,
    timeouts: &[f64],
    seed: MasterSeed,
    run_tag: &str,
) -> Vec<CellResult> {
    simulate_run_observed(
        outcomes,
        timing,
        requests,
        timeouts,
        seed,
        run_tag,
        &ObsSinks::default(),
    )
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
/// byte-identical for any `jobs` and `shards` (see
/// [`simulate_cell_sharded`]).
pub(crate) fn simulate_planned_runs(
    runs: &[RunPlan],
    timeouts: &[f64],
    seed: MasterSeed,
    sinks: &ObsSinks,
    jobs: Jobs,
    shards: Shards,
) -> Vec<CellResult> {
    run_replications(jobs, runs.len() * timeouts.len(), sinks, |r, local| {
        let run = &runs[r / timeouts.len()];
        let timeout = timeouts[r % timeouts.len()];
        simulate_cell_sharded(
            &run.demands,
            MiddlewareConfig::paper(timeout),
            seed,
            local,
            &format!("{}/t{timeout}", run.tag),
            shards,
        )
    })
}

/// [`simulate_run`] with observability sinks attached; each timeout
/// column's engine gauges are tagged `"{run_tag}/t{timeout}"`.
///
/// Each column runs the way a table's cells run, as one replication
/// with private observability sinks merged in column order; this is the
/// tables' per-run code for a single run, run serially.
#[allow(clippy::too_many_arguments)]
pub fn simulate_run_observed(
    outcomes: &dyn OutcomePairGen,
    timing: ExecTimeModel,
    requests: u64,
    timeouts: &[f64],
    seed: MasterSeed,
    run_tag: &str,
    sinks: &ObsSinks,
) -> Vec<CellResult> {
    let run = RunPlan {
        tag: run_tag.to_owned(),
        demands: plan_run(outcomes, timing, requests, seed, run_tag),
    };
    simulate_planned_runs(
        &[run],
        timeouts,
        seed,
        sinks,
        Jobs::serial(),
        Shards::serial(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_workload::outcomes::{CorrelatedOutcomes, IndependentOutcomes};
    use wsu_workload::runs::RunSpec;

    fn quick_run(correlated: bool, requests: u64) -> Vec<CellResult> {
        let run = RunSpec::run1();
        let timing = ExecTimeModel::paper();
        let seed = MasterSeed::new(31);
        if correlated {
            let gen = CorrelatedOutcomes::from_run(&run);
            simulate_run(&gen, timing, requests, &[1.5, 3.0], seed, "t")
        } else {
            let gen = IndependentOutcomes::from_run(&run);
            simulate_run(&gen, timing, requests, &[1.5, 3.0], seed, "t")
        }
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

    #[test]
    fn sharded_cell_is_byte_identical_to_serial() {
        let run = RunSpec::run1();
        let gen = CorrelatedOutcomes::from_run(&run);
        let seed = MasterSeed::new(77);
        let plan = plan_run(&gen, ExecTimeModel::paper(), 1_500, seed, "shardcell");
        let config = MiddlewareConfig::paper(2.0);
        let mut outputs = Vec::new();
        for k in [1usize, 2, 3, 4, 8] {
            let sinks = ObsSinks {
                recorder: Some(SharedRecorder::new()),
                metrics: Some(SharedRegistry::new()),
            };
            let cell = simulate_cell_sharded(&plan, config, seed, &sinks, "cell", Shards::new(k));
            let trace = wsu_obs::jsonl::render_events(&sinks.recorder.as_ref().unwrap().snapshot());
            let prom = sinks.metrics.as_ref().unwrap().render_snapshot();
            outputs.push((cell, trace, prom));
        }
        // Shards(1) runs the serial engine outright; the unobserved
        // serial cell must agree with it too.
        let serial = simulate_cell_observed(&plan, config, seed, &ObsSinks::default(), "cell");
        assert_eq!(outputs[0].0, serial);
        assert!(outputs[0].1.contains("DemandDispatched"));
        for (cell, trace, prom) in &outputs[1..] {
            assert_eq!(cell, &outputs[0].0);
            assert_eq!(trace, &outputs[0].1);
            assert_eq!(prom, &outputs[0].2);
        }
    }
}
