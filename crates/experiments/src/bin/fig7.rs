//! Regenerates Fig. 7 (Scenario 1 percentile curves) as a TSV table.
//!
//! Usage: `fig7 [--quick] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]`. Any
//! other argument exits with status 2.

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::cli;
use wsu_experiments::figures::{run_fig7, run_fig7_paper};
use wsu_experiments::obs::ObsContext;
use wsu_experiments::DEFAULT_SEED;

fn main() {
    let args = cli::FIG7.parse();
    let mut ctx = cli::FIG7.or_exit("metrics exporter", ObsContext::from_args(&args));
    let (set, runs) = ctx.time("fig7/study", || {
        if args.has("--quick") {
            let config = StudyConfig {
                demands: 10_000,
                checkpoint_every: 500,
                resolution: Resolution {
                    a_cells: 48,
                    b_cells: 48,
                    q_cells: 16,
                },
                confidence: 0.99,
                target: 1e-3,
                seed: DEFAULT_SEED,
            };
            run_fig7(&config)
        } else {
            run_fig7_paper(DEFAULT_SEED)
        }
    });
    ctx.record_study(&runs.perfect, "fig7/perfect");
    if let Some(omission) = &runs.omission {
        ctx.record_study(omission, "fig7/omission");
    }
    ctx.record_study(&runs.back_to_back, "fig7/back-to-back");
    print!("{}", set.to_tsv());
    cli::FIG7.or_exit("observability output", ctx.finish());
}
