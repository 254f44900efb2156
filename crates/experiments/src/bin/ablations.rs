//! Runs the six ablation studies (A1–A6 in DESIGN.md) and prints their
//! tables, separated by blank lines.
//!
//! Usage: `ablations [--quick] [--jobs N] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]` —
//! `--phase-metrics` adds the run's wall-clock `wsu_phase_seconds`
//! gauge to the snapshot. Any other argument exits with status 2.

use wsu_experiments::artefacts::{Scale, ABLATIONS};
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_simcore::par::Jobs;

fn main() {
    let args = cli::ABLATIONS.parse();
    let jobs = Jobs::from_request(args.value("--jobs"));
    let mut ctx = cli::ABLATIONS.or_exit("metrics exporter", ObsContext::from_args(&args));
    let scale = Scale::new(args.has("--quick"));
    print!("{}", ABLATIONS.build(scale, jobs, &mut ctx));
    cli::ABLATIONS.or_exit("observability output", ctx.finish());
}
