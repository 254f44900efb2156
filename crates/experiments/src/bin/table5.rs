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

use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_experiments::table5::run_table5_jobs;
use wsu_experiments::{DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS};
use wsu_simcore::par::Jobs;
use wsu_workload::timing::ExecTimeModel;

fn main() {
    let args = cli::TABLE5.parse();
    let jobs = Jobs::from_request(args.value("--jobs"));
    let mut ctx = cli::TABLE5.or_exit("metrics exporter", ObsContext::from_args(&args));
    let timing = if args.has("--calibrated") {
        ExecTimeModel::calibrated()
    } else {
        ExecTimeModel::paper()
    };
    let quick = args.has("--quick");
    let requests = if quick { 2_000 } else { PAPER_REQUESTS };
    let sinks = ctx.sinks();
    let table = ctx.time("table5/simulate", || {
        run_table5_jobs(
            DEFAULT_SEED,
            requests,
            &PAPER_TIMEOUTS,
            timing,
            &sinks,
            jobs,
        )
    });
    print!("{}", table.render());
    cli::TABLE5.or_exit("observability output", ctx.finish());
}
