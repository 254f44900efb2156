//! Regenerates Table 5 (correlated release failures).
//!
//! Usage: `table5 [--quick] [--calibrated] [--jobs N] [--trace PATH]
//! [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS]
//! [--phase-metrics]` — `--calibrated` uses the execution-time model
//! whose unconditional MET matches the paper's reported values (see
//! EXPERIMENTS.md); `--jobs` picks the replication worker-pool size
//! (default: one per hardware thread) without changing any output;
//! `--trace`/`--metrics` write a JSONL event trace and a metrics
//! snapshot without changing the table on stdout; `--serve-metrics`
//! serves the snapshot live on `http://127.0.0.1:PORT/metrics`
//! (`--serve-hold` keeps it up after the run); `--phase-metrics` adds
//! the wall-clock `wsu_phase_seconds` gauges to the snapshot. Any other
//! argument exits with status 2.

use wsu_experiments::artefacts::{self, Scale};
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_experiments::table5::run_table5_jobs;
use wsu_simcore::par::Jobs;
use wsu_workload::timing::ExecTimeModel;

fn main() {
    let args = cli::TABLE5.parse();
    let jobs = Jobs::from_request(args.value("--jobs"));
    let mut ctx = cli::TABLE5.or_exit("metrics exporter", ObsContext::from_args(&args));
    let scale = Scale::new(args.has("--quick"));
    let (artefact, timing) = if args.has("--calibrated") {
        (artefacts::TABLE5_CALIBRATED, ExecTimeModel::calibrated())
    } else {
        (artefacts::TABLE5, ExecTimeModel::paper())
    };
    let table = ctx.time(artefact.name, |ctx| {
        artefacts::simulation_table(run_table5_jobs, timing, scale, jobs, ctx)
    });
    print!("{table}");
    cli::TABLE5.or_exit("observability output", ctx.finish());
}
