//! Regenerates Table 6 (independent release failures).
//!
//! Usage: `table6 [--quick] [--calibrated] [--jobs N] [--trace PATH]
//! [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS]
//! [--phase-metrics]`, each with its meaning for `table5`. Any other
//! argument exits with status 2.

use wsu_experiments::artefacts::{self, Scale};
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_experiments::table6::run_table6_jobs;
use wsu_simcore::par::Jobs;
use wsu_workload::timing::ExecTimeModel;

fn main() {
    let args = cli::TABLE6.parse();
    let jobs = Jobs::from_request(args.value("--jobs"));
    let mut ctx = cli::TABLE6.or_exit("metrics exporter", ObsContext::from_args(&args));
    let scale = Scale::new(args.has("--quick"));
    let (artefact, timing) = if args.has("--calibrated") {
        (artefacts::TABLE6_CALIBRATED, ExecTimeModel::calibrated())
    } else {
        (artefacts::TABLE6, ExecTimeModel::paper())
    };
    let table = ctx.time(artefact.name, |ctx| {
        artefacts::simulation_table(run_table6_jobs, timing, scale, jobs, ctx)
    });
    print!("{table}");
    cli::TABLE6.or_exit("observability output", ctx.finish());
}
