//! Runs the four ablation studies (A1–A4 in DESIGN.md).
//!
//! Usage: `ablations [--quick] [--jobs N] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]` —
//! with tracing on, each
//! ablation becomes a log line in the trace, and `--phase-metrics`
//! turns each into a timed `wsu_phase_seconds` gauge in the snapshot.
//! Any other argument exits with status 2.

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::ablation::{
    render_abort_table, render_adjudicator_table, render_class_detection_table,
    render_coverage_table, render_mode_table, render_prior_table, run_abort_ablation_jobs,
    run_adjudicator_ablation_jobs, run_class_detection_ablation, run_coverage_ablation_jobs,
    run_mode_ablation_jobs, run_prior_ablation_jobs,
};
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_experiments::DEFAULT_SEED;
use wsu_simcore::par::Jobs;

fn main() {
    let args = cli::ABLATIONS.parse();
    let quick = args.has("--quick");
    let jobs = Jobs::from_request(args.value("--jobs"));
    let mut ctx = cli::ABLATIONS.or_exit("metrics exporter", ObsContext::from_args(&args));
    let requests = if quick { 2_000 } else { 10_000 };
    let study = StudyConfig {
        demands: if quick { 10_000 } else { 50_000 },
        checkpoint_every: 500,
        resolution: if quick {
            Resolution {
                a_cells: 48,
                b_cells: 48,
                q_cells: 16,
            }
        } else {
            Resolution::default()
        },
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    };

    let adjudicator = ctx.time("ablations/adjudicator", || {
        run_adjudicator_ablation_jobs(DEFAULT_SEED, requests, jobs)
    });
    println!("{}", render_adjudicator_table(&adjudicator));
    let mode = ctx.time("ablations/mode", || {
        run_mode_ablation_jobs(DEFAULT_SEED, requests, jobs)
    });
    println!("{}", render_mode_table(&mode));
    let coverage = ctx.time("ablations/coverage", || {
        run_coverage_ablation_jobs(&study, &[0.0, 0.05, 0.10, 0.15, 0.25, 0.40], jobs)
    });
    println!("{}", render_coverage_table(&coverage));
    let prior = ctx.time("ablations/prior", || run_prior_ablation_jobs(&study, jobs));
    println!("{}", render_prior_table(&prior));
    let class_detection = ctx.time("ablations/class-detection", || {
        run_class_detection_ablation(
            study.demands,
            study.resolution,
            DEFAULT_SEED,
            0.5,
            &[1.0, 0.85, 0.70, 0.50, 0.25],
        )
    });
    println!("{}", render_class_detection_table(&class_detection));
    let abort = ctx.time("ablations/abort", || {
        run_abort_ablation_jobs(
            if quick { 3 } else { 10 },
            if quick { 4_000 } else { 20_000 },
            study.resolution,
            DEFAULT_SEED,
            &[0.5, 1.0, 2.0, 5.0, 10.0],
            jobs,
        )
    });
    println!("{}", render_abort_table(&abort));
    cli::ABLATIONS.or_exit("observability output", ctx.finish());
}
