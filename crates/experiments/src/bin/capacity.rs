//! Runs the server-capacity study (extension E6): parallel vs
//! sequential dispatch under open Poisson arrivals.
//!
//! Usage: `capacity [--quick] [--jobs N] [--trace PATH] [--metrics PATH]`
//! plus the shared observability flags `--serve-metrics PORT`,
//! `--serve-hold SECS` and `--phase-metrics`. Any other argument exits
//! with status 2.

use wsu_experiments::capacity::{render_capacity_table, run_capacity_study_jobs};
use wsu_experiments::obs::{exit_on_unknown_flag, jobs_from_env, FlagValue, ObsOptions};
use wsu_experiments::DEFAULT_SEED;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

const USAGE: &str = "usage: capacity [--quick] [--jobs N] [--trace PATH] [--metrics PATH] \
                     [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_on_unknown_flag(&args, &[("--quick", FlagValue::Switch)], USAGE);
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = jobs_from_env();
    let mut ctx = ObsOptions::from_env().context();
    let demands = if quick { 3_000 } else { 20_000 };
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
    ctx.finish().expect("write observability outputs");
}
