//! Regenerates Table 6 (independent release failures).
//!
//! Usage: `table6 [--quick] [--calibrated] [--jobs N] [--trace PATH]
//! [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS]
//! [--phase-metrics]`, each with its meaning for `table5`. Any other
//! argument exits with status 2.

use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_experiments::table6::run_table6_jobs;
use wsu_experiments::{DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS};
use wsu_simcore::par::Jobs;
use wsu_workload::timing::ExecTimeModel;

fn main() {
    let args = cli::TABLE6.parse();
    let jobs = Jobs::from_request(args.value("--jobs"));
    let mut ctx = cli::TABLE6.or_exit("metrics exporter", ObsContext::from_args(&args));
    let timing = if args.has("--calibrated") {
        ExecTimeModel::calibrated()
    } else {
        ExecTimeModel::paper()
    };
    let quick = args.has("--quick");
    let requests = if quick { 2_000 } else { PAPER_REQUESTS };
    let sinks = ctx.sinks();
    let table = ctx.time("table6/simulate", || {
        run_table6_jobs(
            DEFAULT_SEED,
            requests,
            &PAPER_TIMEOUTS,
            timing,
            &sinks,
            jobs,
        )
    });
    print!("{}", table.render());
    cli::TABLE6.or_exit("observability output", ctx.finish());
}
