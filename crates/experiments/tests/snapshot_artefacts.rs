//! Snapshot tests: the committed `results/` artefacts must be exactly
//! reproducible from the current code. Every text golden has a test
//! here that builds it through its entry of
//! [`ARTEFACTS`](wsu_experiments::artefacts::ARTEFACTS) at paper scale,
//! the code the `all` binary and the golden's own binary run.
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
use wsu_experiments::artefacts::{Scale, ARTEFACTS, TABLE5};
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::campaign::{run_campaign_jobs, standard_plans, CampaignConfig};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::obs::ObsContext;
use wsu_experiments::{table2, DEFAULT_SEED};
use wsu_obs::SharedRegistry;
use wsu_simcore::par::Jobs;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

fn golden(file: &str) -> String {
    std::fs::read_to_string(results_dir().join(file))
        .unwrap_or_else(|e| panic!("committed results/{file}: {e}"))
}

/// Builds `file` through its [`ARTEFACTS`] entry at paper scale and
/// compares it with the committed golden.
fn assert_reproducible(file: &str) {
    let artefact = ARTEFACTS
        .iter()
        .find(|artefact| artefact.name == file)
        .unwrap_or_else(|| panic!("no builder for results/{file}"));
    let built = artefact.build(Scale::Paper, Jobs::new(2), &mut ObsContext::default());
    assert_eq!(built, golden(file), "results/{file} drifted");
}

/// `ARTEFACTS` names every text golden: `results/` minus the
/// `BENCH_*.json` timing reports and the `table5.prom` snapshot.
#[test]
fn artefacts_name_every_text_golden() {
    let mut goldens: Vec<String> = std::fs::read_dir(results_dir())
        .expect("read results/")
        .map(|entry| entry.expect("results/ entry").file_name())
        .map(|name| name.into_string().expect("UTF-8 file name"))
        .filter(|name| !name.starts_with("BENCH_") && name != "table5.prom")
        .collect();
    goldens.sort();
    let mut names: Vec<&str> = ARTEFACTS.iter().map(|artefact| artefact.name).collect();
    names.sort_unstable();
    assert_eq!(goldens, names);
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn table2_artefact_is_reproducible() {
    assert_reproducible("table2.txt");
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn fig7_artefact_is_reproducible() {
    assert_reproducible("fig7.tsv");
}

#[test]
fn faultcampaign_artefact_is_reproducible() {
    assert_reproducible("faultcampaign.txt");
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn table2_spread_artefact_is_reproducible() {
    assert_reproducible("table2_spread.txt");
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn fig8_artefact_is_reproducible() {
    assert_reproducible("fig8.tsv");
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn ablations_artefact_is_reproducible() {
    assert_reproducible("ablations.txt");
}

#[test]
fn capacity_artefact_is_reproducible() {
    assert_reproducible("capacity.txt");
}

#[test]
fn fleetstudy_artefact_is_reproducible() {
    assert_reproducible("fleetstudy.txt");
}

#[test]
#[ignore = "full paper scale; run with --release (CI perf-smoke job)"]
fn scalestudy_artefact_is_reproducible() {
    assert_reproducible("scalestudy.txt");
}

#[test]
fn table5_artefact_is_reproducible() {
    assert_reproducible("table5.txt");
}

#[test]
fn table6_artefact_is_reproducible() {
    assert_reproducible("table6.txt");
}

#[test]
fn table5_calibrated_artefact_is_reproducible() {
    assert_reproducible("table5_calibrated.txt");
}

#[test]
fn table6_calibrated_artefact_is_reproducible() {
    assert_reproducible("table6_calibrated.txt");
}

/// `results/table5.prom` is the snapshot `table5 --quick --metrics PATH`
/// writes: Table 5 at quick scale with a metrics registry and no
/// wall-clock phase gauges.
#[test]
fn table5_metrics_snapshot_is_reproducible() {
    let mut ctx = ObsContext::default();
    ctx.metrics = Some(SharedRegistry::new());
    TABLE5.build(Scale::Quick, Jobs::new(2), &mut ctx);
    let rendered = ctx.metrics.expect("registry attached").render_snapshot();
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
    let first = table2::run_table2_with(&config, &config).render();
    let second = table2::run_table2_with(&config, &config).render();
    assert_eq!(first, second, "quick Table 2 run is not deterministic");
}
