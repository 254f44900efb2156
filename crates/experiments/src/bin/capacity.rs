//! Runs the server-capacity study (extension E6): parallel vs
//! sequential dispatch under open Poisson arrivals.
//!
//! Usage: `capacity [--quick] [--jobs N] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]`. Any
//! other argument exits with status 2.

use wsu_experiments::artefacts::{Scale, CAPACITY};
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_simcore::par::Jobs;

fn main() {
    let args = cli::CAPACITY.parse();
    let jobs = Jobs::from_request(args.value("--jobs"));
    let mut ctx = cli::CAPACITY.or_exit("metrics exporter", ObsContext::from_args(&args));
    let scale = Scale::new(args.has("--quick"));
    print!("{}", CAPACITY.build(scale, jobs, &mut ctx));
    cli::CAPACITY.or_exit("observability output", ctx.finish());
}
