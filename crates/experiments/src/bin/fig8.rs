//! Regenerates Fig. 8 (Scenario 2 percentile curves) as a TSV table.
//!
//! Usage: `fig8 [--quick] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]`. Any
//! other argument exits with status 2.

use wsu_experiments::artefacts::{Scale, FIG8};
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_simcore::par::Jobs;

fn main() {
    let args = cli::FIG8.parse();
    let mut ctx = cli::FIG8.or_exit("metrics exporter", ObsContext::from_args(&args));
    let scale = Scale::new(args.has("--quick"));
    print!("{}", FIG8.build(scale, Jobs::serial(), &mut ctx));
    cli::FIG8.or_exit("observability output", ctx.finish());
}
