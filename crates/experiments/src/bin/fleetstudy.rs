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

use wsu_experiments::cli;
use wsu_experiments::fleetstudy::{run_fleetstudy_jobs, standard_cells, FleetStudyConfig};
use wsu_experiments::obs::ObsContext;
use wsu_experiments::DEFAULT_SEED;
use wsu_simcore::par::Jobs;

fn main() {
    let args = cli::FLEETSTUDY.parse();
    let jobs = Jobs::from_request(args.value("--jobs"));
    let wanted: Vec<&str> = args.values("--cell").collect();
    let mut cells = standard_cells();
    if !wanted.is_empty() {
        cells.retain(|cell| wanted.contains(&cell.name.as_str()));
        if cells.is_empty() {
            let available: Vec<_> = standard_cells().into_iter().map(|cell| cell.name).collect();
            cli::FLEETSTUDY.fail(&format!(
                "no cell matched; available: {}",
                available.join(", ")
            ));
        }
    }
    let mut ctx = cli::FLEETSTUDY.or_exit("metrics exporter", ObsContext::from_args(&args));
    let config = if args.has("--quick") {
        FleetStudyConfig::quick()
    } else {
        FleetStudyConfig::paper()
    };
    let sinks = ctx.sinks();
    let table = ctx.time("fleetstudy/simulate", || {
        run_fleetstudy_jobs(&cells, &config, DEFAULT_SEED, &sinks, jobs)
    });
    print!("{}", table.render());
    ctx.publish_snapshot(&table.rows_json());
    cli::FLEETSTUDY.or_exit("observability output", ctx.finish());
}
