//! Perf-trajectory emitter: times the experiment pipelines at reduced
//! scale and writes `BENCH_experiments.json`.
//!
//! Usage: `perf_report [--out DIR] [--samples N] [--full]`
//!
//! Each entry is the wall time of one experiment run (`--quick`-scale by
//! default, paper scale with `--full`); with `--samples N > 1` the run is
//! repeated and the median reported. `--out` defaults to `results`; a
//! bad command line exits with status 2, and an `--out` directory that
//! cannot be created with status 1, before anything is timed. The
//! file is a stamped [`BenchRecord`]; pair it
//! with `BENCH_bayes.json` (`WSU_BENCH_JSON=... cargo bench --bench
//! bench_bayes`) to track both the micro ns/op and the end-to-end
//! trajectory across commits.

use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use wsu_experiments::artefacts::{spread_seeds, Scale, TableRunner, SPREAD_SEEDS};
use wsu_experiments::campaign::{run_campaign_jobs, standard_plans};
use wsu_experiments::fleetstudy::{run_fleetstudy_jobs, standard_cells};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::{
    ablation, cli, figures, table2, table5, table6, DEFAULT_SEED, PAPER_TIMEOUTS,
};
use wsu_obs::bench::{BenchRecord, BenchRow};
use wsu_simcore::par::Jobs;
use wsu_workload::timing::ExecTimeModel;

fn time_runs<F: FnMut()>(name: &str, samples: usize, mut run: F) -> BenchRow {
    let mut measurements: Vec<_> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed()
        })
        .collect();
    let row = BenchRow::from_samples(name, &mut measurements);
    eprintln!("{name:<40} {:?}", Duration::from_nanos(row.median_ns));
    row
}

fn main() {
    let args = cli::PERF_REPORT.parse();
    let full = args.has("--full");
    let out_dir: PathBuf = args.value("--out").unwrap_or_else(|| "results".into());
    let samples = args.value("--samples").unwrap_or(1);
    // Fail before anything is timed when the report cannot be written.
    cli::PERF_REPORT.or_exit(
        &format!("create {}", out_dir.display()),
        fs::create_dir_all(&out_dir),
    );

    // The sizes the experiment binaries and `all` run at, so CI wall
    // times track the real pipelines.
    let (scale, label) = if full {
        (Scale::Paper, "full")
    } else {
        (Scale::Quick, "quick")
    };
    let (study1, study2) = (scale.study1(), scale.study2());

    let mut record = BenchRecord::new("BENCH_experiments");
    let mut row = |name: String, run: &mut dyn FnMut()| {
        record.rows.push(time_runs(&name, samples, run));
    };
    row(format!("experiments/table2/{label}"), &mut || {
        black_box(table2::run_table2_with(&study1, &study2));
    });
    // The quick row times three of the spread's seeds.
    let seeds = spread_seeds(if full { SPREAD_SEEDS } else { 3 });
    row(format!("experiments/table2_spread/{label}"), &mut || {
        black_box(table2::run_table2_spread(&seeds, &study1, &study2));
    });
    row(format!("experiments/fig7/{label}"), &mut || {
        black_box(figures::run_fig7(&study1));
    });
    row(format!("experiments/fig8/{label}"), &mut || {
        black_box(figures::run_fig8(&study2));
    });
    let serial = Jobs::serial();
    let p_omits = [0.0, 0.10, 0.25];
    row(
        format!("experiments/ablations_coverage/{label}"),
        &mut || {
            let rows = ablation::run_coverage_ablation_jobs(&study1, &p_omits, serial);
            black_box(rows);
        },
    );
    row(format!("experiments/ablations_prior/{label}"), &mut || {
        black_box(ablation::run_prior_ablation_jobs(&study1, serial));
    });
    let campaign = scale.campaign();
    row(format!("experiments/faultcampaign/{label}"), &mut || {
        let (plans, sinks) = (standard_plans(), ObsSinks::default());
        let table = run_campaign_jobs(&plans, &campaign, DEFAULT_SEED, &sinks, serial);
        black_box(table);
    });
    let fleet = scale.fleet();
    row(format!("experiments/fleetstudy/{label}"), &mut || {
        let (cells, sinks) = (standard_cells(), ObsSinks::default());
        let table = run_fleetstudy_jobs(&cells, &fleet, DEFAULT_SEED, &sinks, serial);
        black_box(table);
    });

    // The parallel replication runner, sequentially and with a pool of
    // four, on the same workload — the jobs=1 vs jobs=4 pair is the
    // speedup a multi-core host gets for free (on a single-core host
    // the two rows coincide, minus scheduling noise).
    let (requests, timing) = (scale.requests(), ExecTimeModel::paper());
    for jobs in [1usize, 4] {
        let table = |run: TableRunner| {
            let (sinks, jobs) = (ObsSinks::default(), Jobs::new(jobs));
            black_box(run(
                DEFAULT_SEED,
                requests,
                &PAPER_TIMEOUTS,
                timing,
                &sinks,
                jobs,
            ));
        };
        row(
            format!("experiments/table5/{label}/jobs{jobs}"),
            &mut || table(table5::run_table5_jobs),
        );
        row(
            format!("experiments/table6/{label}/jobs{jobs}"),
            &mut || table(table6::run_table6_jobs),
        );
    }

    let path = out_dir.join("BENCH_experiments.json");
    cli::PERF_REPORT.or_exit(&format!("write {}", path.display()), record.write(&path));
    eprintln!("wrote {}", path.display());
}
