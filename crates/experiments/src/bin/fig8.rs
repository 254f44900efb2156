//! Regenerates Fig. 8 (Scenario 2 percentile curves) as a TSV table.
//!
//! Usage: `fig8 [--quick] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]`. Any
//! other argument exits with status 2.

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::cli;
use wsu_experiments::figures::{run_fig8, run_fig8_paper};
use wsu_experiments::obs::ObsContext;
use wsu_experiments::DEFAULT_SEED;

fn main() {
    let args = cli::FIG8.parse();
    let mut ctx = cli::FIG8.or_exit("metrics exporter", ObsContext::from_args(&args));
    let (set, runs) = ctx.time("fig8/study", || {
        if args.has("--quick") {
            let config = StudyConfig {
                demands: 3_000,
                checkpoint_every: 100,
                resolution: Resolution {
                    a_cells: 48,
                    b_cells: 48,
                    q_cells: 16,
                },
                confidence: 0.99,
                target: 1e-3,
                seed: DEFAULT_SEED,
            };
            run_fig8(&config)
        } else {
            run_fig8_paper(DEFAULT_SEED)
        }
    });
    ctx.record_study(&runs.perfect, "fig8/perfect");
    if let Some(omission) = &runs.omission {
        ctx.record_study(omission, "fig8/omission");
    }
    ctx.record_study(&runs.back_to_back, "fig8/back-to-back");
    print!("{}", set.to_tsv());
    cli::FIG8.or_exit("observability output", ctx.finish());
}
