//! Perf-trajectory emitter: times the experiment pipelines at reduced
//! scale and writes `BENCH_experiments.json`.
//!
//! Usage: `perf_report [--out DIR] [--samples N] [--full]`
//!
//! Each entry is the wall time of one experiment run (`--quick`-scale by
//! default, paper scale with `--full`); with `--samples N > 1` the run is
//! repeated and the median reported. `--out` defaults to `results`; a
//! bad command line exits with status 2 before anything is timed. The
//! JSON format is documented in [`wsu_bench::report`]; pair this file
//! with `BENCH_bayes.json` (`WSU_BENCH_JSON=... cargo bench --bench
//! bench_bayes`) to track both the micro ns/op and the end-to-end
//! trajectory across commits.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use wsu_bayes::whitebox::Resolution;
use wsu_bench::report::{write_json, Entry};
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::campaign::{run_campaign_jobs, standard_plans, CampaignConfig};
use wsu_experiments::fleetstudy::{run_fleetstudy_jobs, standard_cells, FleetStudyConfig};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::{
    ablation, cli, figures, table2, table5, table6, DEFAULT_SEED, PAPER_TIMEOUTS,
};
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::timing::ExecTimeModel;

fn time_runs<F: FnMut()>(name: &str, samples: usize, mut run: F) -> Entry {
    let mut measurements: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed()
        })
        .collect();
    measurements.sort();
    let entry = Entry {
        name: name.to_string(),
        median: measurements[measurements.len() / 2],
        min: measurements[0],
        max: measurements[measurements.len() - 1],
    };
    eprintln!("{name:<40} {:?}", entry.median);
    entry
}

fn main() -> std::io::Result<()> {
    let args = cli::PERF_REPORT.parse();
    let full = args.has("--full");
    let out_dir: PathBuf = args.value("--out").unwrap_or_else(|| "results".into());
    let samples = args.value("--samples").unwrap_or(1);

    // The same reduced-scale configurations the experiment binaries use
    // for `--quick`, so CI wall times track the real pipelines.
    let res = if full {
        Resolution::default()
    } else {
        Resolution {
            a_cells: 48,
            b_cells: 48,
            q_cells: 16,
        }
    };
    let study1 = StudyConfig {
        demands: if full { 50_000 } else { 10_000 },
        checkpoint_every: 500,
        resolution: res,
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    };
    let study2 = StudyConfig {
        demands: if full { 10_000 } else { 4_000 },
        checkpoint_every: 100,
        resolution: res,
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    };
    let scale = if full { "full" } else { "quick" };

    let mut entries = Vec::new();
    entries.push(time_runs(
        &format!("experiments/table2/{scale}"),
        samples,
        || {
            std::hint::black_box(table2::run_table2_with(DEFAULT_SEED, &study1, &study2));
        },
    ));
    let seeds: Vec<MasterSeed> = (0..if full { 10u64 } else { 3 })
        .map(|i| MasterSeed::new(DEFAULT_SEED.value().wrapping_add(i)))
        .collect();
    entries.push(time_runs(
        &format!("experiments/table2_spread/{scale}"),
        samples,
        || {
            std::hint::black_box(table2::run_table2_spread(&seeds, &study1, &study2));
        },
    ));
    entries.push(time_runs(
        &format!("experiments/fig7/{scale}"),
        samples,
        || {
            std::hint::black_box(figures::run_fig7(&study1));
        },
    ));
    entries.push(time_runs(
        &format!("experiments/fig8/{scale}"),
        samples,
        || {
            std::hint::black_box(figures::run_fig8(&study2));
        },
    ));
    entries.push(time_runs(
        &format!("experiments/ablations_coverage/{scale}"),
        samples,
        || {
            std::hint::black_box(ablation::run_coverage_ablation(&study1, &[0.0, 0.10, 0.25]));
        },
    ));
    entries.push(time_runs(
        &format!("experiments/ablations_prior/{scale}"),
        samples,
        || {
            std::hint::black_box(ablation::run_prior_ablation(&study1));
        },
    ));
    let campaign_config = if full {
        CampaignConfig::paper()
    } else {
        CampaignConfig::quick()
    };
    entries.push(time_runs(
        &format!("experiments/faultcampaign/{scale}"),
        samples,
        || {
            std::hint::black_box(run_campaign_jobs(
                &standard_plans(),
                &campaign_config,
                DEFAULT_SEED,
                &ObsSinks::default(),
                Jobs::serial(),
            ));
        },
    ));

    let fleet_config = if full {
        FleetStudyConfig::paper()
    } else {
        FleetStudyConfig::quick()
    };
    entries.push(time_runs(
        &format!("experiments/fleetstudy/{scale}"),
        samples,
        || {
            std::hint::black_box(run_fleetstudy_jobs(
                &standard_cells(),
                &fleet_config,
                DEFAULT_SEED,
                &ObsSinks::default(),
                Jobs::serial(),
            ));
        },
    ));

    // The parallel replication runner, sequentially and with a pool of
    // four, on the same workload — the jobs=1 vs jobs=4 pair is the
    // speedup a multi-core host gets for free (on a single-core host
    // the two rows coincide, minus scheduling noise).
    let requests = if full { 10_000 } else { 2_000 };
    for jobs in [1usize, 4] {
        entries.push(time_runs(
            &format!("experiments/table5/{scale}/jobs{jobs}"),
            samples,
            || {
                std::hint::black_box(table5::run_table5_jobs(
                    DEFAULT_SEED,
                    requests,
                    &PAPER_TIMEOUTS,
                    ExecTimeModel::paper(),
                    &ObsSinks::default(),
                    Jobs::new(jobs),
                ));
            },
        ));
        entries.push(time_runs(
            &format!("experiments/table6/{scale}/jobs{jobs}"),
            samples,
            || {
                std::hint::black_box(table6::run_table6_jobs(
                    DEFAULT_SEED,
                    requests,
                    &PAPER_TIMEOUTS,
                    ExecTimeModel::paper(),
                    &ObsSinks::default(),
                    Jobs::new(jobs),
                ));
            },
        ));
    }

    let path = out_dir.join("BENCH_experiments.json");
    write_json(&path, "BENCH_experiments", &entries)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
