//! Runs the fleet study and prints the per-cell recovery table.
//!
//! Usage: `fleetstudy [--quick] [--cell NAME] [--jobs N]
//! [--trace PATH] [--metrics PATH] [--serve-metrics PORT]
//! [--serve-hold SECS] [--phase-metrics]` — `--cell` restricts the
//! matrix to the named cell (repeatable); `--quick` runs a reduced
//! demand count; `--jobs` picks the replication worker-pool size
//! (default: one per hardware thread) without changing any output;
//! `--trace`/`--metrics` write a JSONL event trace and a metrics
//! snapshot without changing the table on stdout; `--serve-metrics`
//! serves the snapshot on `/metrics` and the per-cell results on
//! `/snapshot`; `--phase-metrics` adds the wall-clock
//! `wsu_phase_seconds` gauges. Any other argument exits with status 2.

use wsu_experiments::fleetstudy::{run_fleetstudy_jobs, standard_cells, FleetStudyConfig};
use wsu_experiments::obs::{exit_on_unknown_flag, jobs_from_env, FlagValue, ObsOptions, JOBS_FLAG};
use wsu_experiments::DEFAULT_SEED;

const USAGE: &str = "usage: fleetstudy [--quick] [--cell NAME] [--jobs N] [--trace PATH] \
                     [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS] \
                     [--phase-metrics]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_on_unknown_flag(
        &args,
        &[
            ("--quick", FlagValue::Switch),
            ("--cell", FlagValue::Text),
            JOBS_FLAG,
        ],
        USAGE,
    );
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--cell")
        .filter_map(|(i, _)| args.get(i + 1))
        .collect();
    let jobs = jobs_from_env();
    let mut ctx = ObsOptions::from_env().context();
    let config = if quick {
        FleetStudyConfig::quick()
    } else {
        FleetStudyConfig::paper()
    };
    let mut cells = standard_cells();
    if !wanted.is_empty() {
        cells.retain(|cell| wanted.iter().any(|w| **w == cell.name));
        if cells.is_empty() {
            eprintln!(
                "no cell matched; available: {}",
                standard_cells()
                    .iter()
                    .map(|c| c.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        }
    }
    let sinks = ctx.sinks();
    let table = ctx.time("fleetstudy/simulate", || {
        run_fleetstudy_jobs(&cells, &config, DEFAULT_SEED, &sinks, jobs)
    });
    print!("{}", table.render());
    ctx.publish_snapshot(&table.rows_json());
    ctx.finish().expect("write observability outputs");
}
