//! Runs the server-capacity study (extension E6): parallel vs
//! sequential dispatch under open Poisson arrivals.
//!
//! Usage: `capacity [--quick] [--jobs N] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]`. Any
//! other argument exits with status 2.

use wsu_experiments::capacity::{render_capacity_table, run_capacity_study_jobs};
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_experiments::DEFAULT_SEED;
use wsu_simcore::par::Jobs;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

fn main() {
    let args = cli::CAPACITY.parse();
    let jobs = Jobs::from_request(args.value("--jobs"));
    let mut ctx = cli::CAPACITY.or_exit("metrics exporter", ObsContext::from_args(&args));
    let demands = if args.has("--quick") { 3_000 } else { 20_000 };
    let gen = CorrelatedOutcomes::from_run(&RunSpec::run2());
    let results = ctx.time("capacity/study", || {
        run_capacity_study_jobs(
            &gen,
            ExecTimeModel::calibrated(),
            &[0.2, 0.4, 0.6, 0.8],
            demands,
            DEFAULT_SEED,
            jobs,
        )
    });
    print!("{}", render_capacity_table(&results));
    cli::CAPACITY.or_exit("observability output", ctx.finish());
}
