//! Snapshot tests: the committed `results/` artefacts must be exactly
//! reproducible from the current code. Every text artefact under
//! `results/` has a test here, built the way the `all` binary (or the
//! artefact's own binary) builds it.
//!
//! The full-scale Bayesian, ablation and scale-study tests are
//! `#[ignore]`d because they take from seconds (Fig. 8: about 13 s) to
//! minutes in a debug build; CI's perf-smoke job (and `cargo test
//! --release -p wsu-experiments -- --ignored`) runs them at release
//! speed. Tables 5–6 (and their calibrated variants) at paper size, the
//! capacity study, the fault campaign and the fleet study, the Table 5
//! metrics snapshot and quick reduced-scale determinism checks run
//! unconditionally.

use std::path::PathBuf;

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::campaign::{run_campaign_jobs, standard_plans, CampaignConfig};
use wsu_experiments::fleetstudy::{run_fleetstudy_jobs, standard_cells, FleetStudyConfig};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::scalestudy::{render_table, run_scalestudy, ScaleConfig};
use wsu_experiments::table5::{run_table5_jobs, SimulationTable};
use wsu_experiments::table6::run_table6_jobs;
use wsu_experiments::{
    ablation, capacity, figures, table2, DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS,
};
use wsu_obs::SharedRegistry;
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

fn golden(file: &str) -> String {
    std::fs::read_to_string(results_dir().join(file))
        .unwrap_or_else(|e| panic!("committed results/{file}: {e}"))
}

type TableRunner = fn(MasterSeed, u64, &[f64], ExecTimeModel, &ObsSinks, Jobs) -> SimulationTable;

/// A simulation table at paper size, built the way the `all` binary
/// builds `results/table{5,6}[_calibrated].txt`.
fn paper_table(run: TableRunner, timing: ExecTimeModel) -> String {
    run(
        DEFAULT_SEED,
        PAPER_REQUESTS,
        &PAPER_TIMEOUTS,
        timing,
        &ObsSinks::default(),
        Jobs::new(2),
    )
    .render()
}

fn paper_study1() -> StudyConfig {
    StudyConfig {
        demands: 50_000,
        checkpoint_every: 500,
        resolution: Resolution::default(),
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    }
}

fn paper_study2() -> StudyConfig {
    StudyConfig {
        demands: 10_000,
        checkpoint_every: 100,
        resolution: Resolution::default(),
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    }
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn table2_artefact_is_reproducible() {
    let golden = std::fs::read_to_string(results_dir().join("table2.txt"))
        .expect("committed results/table2.txt");
    let rendered = table2::run_table2_with(DEFAULT_SEED, &paper_study1(), &paper_study2()).render();
    assert_eq!(rendered, golden, "results/table2.txt drifted");
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn fig7_artefact_is_reproducible() {
    let golden = std::fs::read_to_string(results_dir().join("fig7.tsv"))
        .expect("committed results/fig7.tsv");
    let (fig7, _) = figures::run_fig7(&paper_study1());
    assert_eq!(fig7.to_tsv(), golden, "results/fig7.tsv drifted");
}

#[test]
fn faultcampaign_artefact_is_reproducible() {
    let golden = std::fs::read_to_string(results_dir().join("faultcampaign.txt"))
        .expect("committed results/faultcampaign.txt");
    let rendered = run_campaign_jobs(
        &standard_plans(),
        &CampaignConfig::paper(),
        DEFAULT_SEED,
        &ObsSinks::default(),
        Jobs::serial(),
    )
    .render();
    assert_eq!(rendered, golden, "results/faultcampaign.txt drifted");
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn table2_spread_artefact_is_reproducible() {
    let seeds: Vec<MasterSeed> = (0..10u64)
        .map(|i| MasterSeed::new(DEFAULT_SEED.value().wrapping_add(i)))
        .collect();
    let spread = table2::run_table2_spread(&seeds, &paper_study1(), &paper_study2());
    assert_eq!(
        table2::render_spread(&spread),
        golden("table2_spread.txt"),
        "results/table2_spread.txt drifted"
    );
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn fig8_artefact_is_reproducible() {
    let (fig8, _) = figures::run_fig8(&paper_study2());
    assert_eq!(
        fig8.to_tsv(),
        golden("fig8.tsv"),
        "results/fig8.tsv drifted"
    );
}

/// `results/ablations.txt` as the `all` binary assembles it: six
/// ablation tables at paper size, separated by blank lines.
#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn ablations_artefact_is_reproducible() {
    let study1 = paper_study1();
    let jobs = Jobs::new(2);
    let tables = [
        ablation::render_adjudicator_table(&ablation::run_adjudicator_ablation_jobs(
            DEFAULT_SEED,
            PAPER_REQUESTS,
            jobs,
        )),
        ablation::render_mode_table(&ablation::run_mode_ablation_jobs(
            DEFAULT_SEED,
            PAPER_REQUESTS,
            jobs,
        )),
        ablation::render_coverage_table(&ablation::run_coverage_ablation_jobs(
            &study1,
            &[0.0, 0.05, 0.10, 0.15, 0.25, 0.40],
            jobs,
        )),
        ablation::render_prior_table(&ablation::run_prior_ablation_jobs(&study1, jobs)),
        ablation::render_class_detection_table(&ablation::run_class_detection_ablation(
            study1.demands,
            study1.resolution,
            DEFAULT_SEED,
            0.5,
            &[1.0, 0.85, 0.70, 0.50, 0.25],
        )),
        ablation::render_abort_table(&ablation::run_abort_ablation_jobs(
            10,
            20_000,
            study1.resolution,
            DEFAULT_SEED,
            &[0.5, 1.0, 2.0, 5.0, 10.0],
            jobs,
        )),
    ];
    assert_eq!(
        tables.join("\n"),
        golden("ablations.txt"),
        "results/ablations.txt drifted"
    );
}

#[test]
fn capacity_artefact_is_reproducible() {
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run2());
    let rows = capacity::run_capacity_study_jobs(
        &gen,
        ExecTimeModel::calibrated(),
        &[0.2, 0.4, 0.6, 0.8],
        20_000,
        DEFAULT_SEED,
        Jobs::new(2),
    );
    assert_eq!(
        capacity::render_capacity_table(&rows),
        golden("capacity.txt"),
        "results/capacity.txt drifted"
    );
}

/// `results/fleetstudy.txt` is what `fleetstudy` prints at paper size.
#[test]
fn fleetstudy_artefact_is_reproducible() {
    let table = run_fleetstudy_jobs(
        &standard_cells(),
        &FleetStudyConfig::paper(),
        DEFAULT_SEED,
        &ObsSinks::default(),
        Jobs::new(2),
    );
    assert_eq!(
        table.render(),
        golden("fleetstudy.txt"),
        "results/fleetstudy.txt drifted"
    );
}

/// `results/scalestudy.txt` is what `scalestudy` prints: the paper-size
/// sweep over every shard count.
#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn scalestudy_artefact_is_reproducible() {
    let report = run_scalestudy(&ScaleConfig::paper(), DEFAULT_SEED.value());
    assert_eq!(
        render_table(&report),
        golden("scalestudy.txt"),
        "results/scalestudy.txt drifted"
    );
}

#[test]
fn table5_artefact_is_reproducible() {
    let rendered = paper_table(run_table5_jobs, ExecTimeModel::paper());
    assert_eq!(rendered, golden("table5.txt"), "results/table5.txt drifted");
}

#[test]
fn table6_artefact_is_reproducible() {
    let rendered = paper_table(run_table6_jobs, ExecTimeModel::paper());
    assert_eq!(rendered, golden("table6.txt"), "results/table6.txt drifted");
}

#[test]
fn table5_calibrated_artefact_is_reproducible() {
    let rendered = paper_table(run_table5_jobs, ExecTimeModel::calibrated());
    assert_eq!(
        rendered,
        golden("table5_calibrated.txt"),
        "results/table5_calibrated.txt drifted"
    );
}

#[test]
fn table6_calibrated_artefact_is_reproducible() {
    let rendered = paper_table(run_table6_jobs, ExecTimeModel::calibrated());
    assert_eq!(
        rendered,
        golden("table6_calibrated.txt"),
        "results/table6_calibrated.txt drifted"
    );
}

/// `results/table5.prom` is the snapshot `table5 --quick --metrics PATH`
/// writes: 2,000 requests per cell, a metrics registry and no
/// wall-clock phase gauges.
#[test]
fn table5_metrics_snapshot_is_reproducible() {
    let sinks = ObsSinks {
        recorder: None,
        metrics: Some(SharedRegistry::new()),
    };
    run_table5_jobs(
        DEFAULT_SEED,
        2_000,
        &PAPER_TIMEOUTS,
        ExecTimeModel::paper(),
        &sinks,
        Jobs::new(2),
    );
    let rendered = sinks.metrics.expect("registry attached").render_snapshot();
    assert_eq!(
        rendered,
        golden("table5.prom"),
        "results/table5.prom drifted"
    );
}

#[test]
fn quick_faultcampaign_is_deterministic() {
    let run = || {
        run_campaign_jobs(
            &standard_plans()[..4],
            &CampaignConfig::quick(),
            DEFAULT_SEED,
            &ObsSinks::default(),
            Jobs::serial(),
        )
        .render()
    };
    assert_eq!(run(), run(), "quick campaign run is not deterministic");
}

#[test]
fn quick_table2_is_deterministic() {
    let res = Resolution {
        a_cells: 24,
        b_cells: 24,
        q_cells: 8,
    };
    let config = StudyConfig {
        demands: 2_000,
        checkpoint_every: 500,
        resolution: res,
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    };
    let first = table2::run_table2_with(DEFAULT_SEED, &config, &config).render();
    let second = table2::run_table2_with(DEFAULT_SEED, &config, &config).render();
    assert_eq!(first, second, "quick Table 2 run is not deterministic");
}
