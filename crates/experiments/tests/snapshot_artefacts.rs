//! Snapshot tests: the committed `results/` artefacts must be exactly
//! reproducible from the current code.
//!
//! The full-scale Bayesian and campaign tests are `#[ignore]`d because
//! they take minutes in a debug build; CI's perf-smoke job (and `cargo
//! test --release -p wsu-experiments -- --ignored`) runs them at release
//! speed. Tables 5–6 (and their calibrated variants) at paper size, the
//! Table 5 metrics snapshot and quick reduced-scale determinism checks
//! run unconditionally.

use std::path::PathBuf;

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::campaign::{run_campaign_jobs, standard_plans, CampaignConfig};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::table5::{run_table5_jobs, run_table5_sharded, SimulationTable};
use wsu_experiments::table6::run_table6_jobs;
use wsu_experiments::{figures, table2, DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS};
use wsu_obs::SharedRegistry;
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_simcore::shard::Shards;
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
        adaptive: None,
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
        adaptive: None,
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
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
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
    run_table5_sharded(
        DEFAULT_SEED,
        2_000,
        &PAPER_TIMEOUTS,
        ExecTimeModel::paper(),
        &sinks,
        Jobs::new(2),
        Shards::serial(),
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
        adaptive: None,
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    };
    let first = table2::run_table2_with(DEFAULT_SEED, &config, &config).render();
    let second = table2::run_table2_with(DEFAULT_SEED, &config, &config).render();
    assert_eq!(first, second, "quick Table 2 run is not deterministic");
}
