//! Regenerates Table 6 (independent release failures).
//!
//! Usage: `table6 [--quick] [--calibrated] [--jobs N] [--trace PATH]
//! [--metrics PATH]` plus the shared observability flags
//! `--serve-metrics PORT`, `--serve-hold SECS` and `--phase-metrics`,
//! with the same meanings as for `table5`. Any other argument exits
//! with status 2.

use wsu_experiments::obs::{exit_on_unknown_flag, jobs_from_env, FlagValue, ObsOptions, JOBS_FLAG};
use wsu_experiments::table6::run_table6_jobs;
use wsu_experiments::{DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS};
use wsu_workload::timing::ExecTimeModel;

const USAGE: &str = "usage: table6 [--quick] [--calibrated] [--jobs N] [--trace PATH] \
                     [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS] \
                     [--phase-metrics]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_on_unknown_flag(
        &args,
        &[
            ("--quick", FlagValue::Switch),
            ("--calibrated", FlagValue::Switch),
            JOBS_FLAG,
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
    ctx.finish().expect("write observability outputs");
}
