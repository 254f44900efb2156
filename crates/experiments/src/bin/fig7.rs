//! Regenerates Fig. 7 (Scenario 1 percentile curves) as a TSV table.
//!
//! Usage: `fig7 [--quick] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]`. Any
//! other argument exits with status 2.

use wsu_experiments::artefacts::{Scale, FIG7};
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_simcore::par::Jobs;

fn main() {
    let args = cli::FIG7.parse();
    let mut ctx = cli::FIG7.or_exit("metrics exporter", ObsContext::from_args(&args));
    let scale = Scale::new(args.has("--quick"));
    print!("{}", FIG7.build(scale, Jobs::serial(), &mut ctx));
    cli::FIG7.or_exit("observability output", ctx.finish());
}
