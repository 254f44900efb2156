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

use wsu_experiments::obs::{exit_on_unknown_flag, jobs_from_env, FlagValue, ObsOptions};
use wsu_experiments::table5::run_table5_jobs;
use wsu_experiments::{DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS};
use wsu_workload::timing::ExecTimeModel;

const USAGE: &str = "usage: table5 [--quick] [--calibrated] [--jobs N] [--trace PATH] \
                     [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS] \
                     [--phase-metrics]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_on_unknown_flag(
        &args,
        &[
            ("--quick", FlagValue::Switch),
            ("--calibrated", FlagValue::Switch),
        ],
        USAGE,
    );
    let quick = args.iter().any(|a| a == "--quick");
    let calibrated = args.iter().any(|a| a == "--calibrated");
    let jobs = jobs_from_env();
    let mut ctx = ObsOptions::from_env().context();
    let timing = if calibrated {
        ExecTimeModel::calibrated()
    } else {
        ExecTimeModel::paper()
    };
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
    ctx.finish().expect("write observability outputs");
}
