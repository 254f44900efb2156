//! The parallel replication runner must be invisible in every output:
//! tables, metric snapshots and event traces are byte-identical whatever
//! the worker-pool size, because replications merge in replication
//! order. These tests pin that contract for the simulation-backed
//! experiments. The fault campaign and the fleet study are compared in
//! the exact bytes their binaries write under `--quick --trace
//! --metrics`: the rendered table, the `.prom` snapshot and the JSONL
//! trace.

use wsu_experiments::ablation::{run_abort_ablation_jobs, run_adjudicator_ablation_jobs};
use wsu_experiments::campaign::{run_campaign_jobs, standard_plans, CampaignConfig};
use wsu_experiments::capacity::{render_capacity_table, run_capacity_study_jobs};
use wsu_experiments::fleetstudy::{run_fleetstudy_jobs, standard_cells, FleetStudyConfig};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::table5::run_table5_jobs;
use wsu_experiments::table6::run_table6_jobs;
use wsu_experiments::DEFAULT_SEED;
use wsu_obs::jsonl::render_events;
use wsu_obs::{SharedRecorder, SharedRegistry, TraceEvent};
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

const SEED: MasterSeed = MasterSeed::new(0x0BAD_5EED);

/// One observed table5 run at the given worker count, returning the
/// rendered table, the metrics snapshot and the event trace.
fn observed_table5(jobs: Jobs) -> (String, String, Vec<TraceEvent>) {
    let sinks = ObsSinks {
        recorder: Some(SharedRecorder::new()),
        metrics: Some(SharedRegistry::new()),
    };
    let table = run_table5_jobs(SEED, 400, &[1.5, 3.0], ExecTimeModel::paper(), &sinks, jobs);
    (
        table.render(),
        sinks.metrics.as_ref().unwrap().render_snapshot(),
        sinks.recorder.as_ref().unwrap().snapshot(),
    )
}

#[test]
fn table5_is_jobs_invariant_across_all_outputs() {
    let (text1, prom1, trace1) = observed_table5(Jobs::serial());
    let (text4, prom4, trace4) = observed_table5(Jobs::new(4));
    assert_eq!(text1, text4, "rendered table differs with jobs=4");
    assert_eq!(prom1, prom4, "metrics snapshot differs with jobs=4");
    assert_eq!(trace1, trace4, "event trace differs with jobs=4");
    // The snapshot carries the same per-cell engine gauges the committed
    // results/table5.prom does.
    for needle in [
        "wsu_engine_events_processed",
        "wsu_engine_queue_high_water",
        "cell=\"table5/run1/t1.5\"",
        "cell=\"table5/run4/t3\"",
    ] {
        assert!(prom1.contains(needle), "snapshot missing {needle}");
    }
    assert!(!trace1.is_empty(), "trace should carry simulation events");
}

#[test]
fn table6_is_jobs_invariant() {
    let run = |jobs| {
        run_table6_jobs(
            SEED,
            400,
            &[2.0],
            ExecTimeModel::paper(),
            &ObsSinks::default(),
            jobs,
        )
        .render()
    };
    assert_eq!(run(Jobs::serial()), run(Jobs::new(4)));
}

#[test]
fn capacity_is_jobs_invariant() {
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run2());
    let run = |jobs| {
        render_capacity_table(&run_capacity_study_jobs(
            &gen,
            ExecTimeModel::calibrated(),
            &[0.4, 0.8],
            400,
            SEED,
            jobs,
        ))
    };
    assert_eq!(run(Jobs::serial()), run(Jobs::new(4)));
}

#[test]
fn ablations_are_jobs_invariant() {
    let adjudicator = |jobs| {
        run_adjudicator_ablation_jobs(SEED, 400, jobs)
            .iter()
            .map(|row| format!("{row:?}"))
            .collect::<Vec<_>>()
    };
    assert_eq!(adjudicator(Jobs::serial()), adjudicator(Jobs::new(4)));

    let abort = |jobs| {
        run_abort_ablation_jobs(
            2,
            1_000,
            wsu_bayes::whitebox::Resolution {
                a_cells: 24,
                b_cells: 24,
                q_cells: 8,
            },
            SEED,
            &[1.0, 5.0],
            jobs,
        )
        .iter()
        .map(|row| format!("{row:?}"))
        .collect::<Vec<_>>()
    };
    assert_eq!(abort(Jobs::serial()), abort(Jobs::new(4)));
}

/// Fresh trace and metrics sinks, as `--trace` and `--metrics` attach.
fn observed_sinks() -> ObsSinks {
    ObsSinks {
        recorder: Some(SharedRecorder::new()),
        metrics: Some(SharedRegistry::new()),
    }
}

/// The `.prom` snapshot and JSONL trace a binary writes from `sinks`.
fn written_outputs(sinks: &ObsSinks) -> (String, String) {
    (
        sinks.metrics.as_ref().unwrap().render_snapshot(),
        render_events(&sinks.recorder.as_ref().unwrap().snapshot()),
    )
}

/// Runs `observe` serially and on four workers; every output must
/// match byte for byte, and the snapshot must carry `series`.
fn assert_jobs_invariant(observe: impl Fn(Jobs) -> [String; 3], series: &str) {
    let [text1, prom1, trace1] = observe(Jobs::serial());
    let [text4, prom4, trace4] = observe(Jobs::new(4));
    assert_eq!(text1, text4, "rendered table differs with jobs=4");
    assert_eq!(prom1, prom4, "metrics snapshot differs with jobs=4");
    assert_eq!(trace1, trace4, "JSONL trace differs with jobs=4");
    assert!(prom1.contains(series), "snapshot missing {series}");
    assert!(!trace1.is_empty(), "the trace should carry events");
}

#[test]
fn fault_campaign_is_jobs_invariant_across_all_outputs() {
    assert_jobs_invariant(
        |jobs| {
            let sinks = observed_sinks();
            let table = run_campaign_jobs(
                &standard_plans(),
                &CampaignConfig::quick(),
                DEFAULT_SEED,
                &sinks,
                jobs,
            );
            let (prom, trace) = written_outputs(&sinks);
            [table.render(), prom, trace]
        },
        "wsu_fault_injected_total",
    );
}

#[test]
fn fleet_study_is_jobs_invariant_across_all_outputs() {
    assert_jobs_invariant(
        |jobs| {
            let sinks = observed_sinks();
            let table = run_fleetstudy_jobs(
                &standard_cells(),
                &FleetStudyConfig::quick(),
                DEFAULT_SEED,
                &sinks,
                jobs,
            );
            let (prom, trace) = written_outputs(&sinks);
            [table.render(), prom, trace]
        },
        "wsu_fleet_incidents_total",
    );
}
