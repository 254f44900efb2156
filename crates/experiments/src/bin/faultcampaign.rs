//! Runs the fault-injection campaign and prints the per-plan
//! detection-coverage table.
//!
//! Usage: `faultcampaign [--quick] [--plan NAME] [--jobs N]
//! [--trace PATH] [--metrics PATH] [--serve-metrics PORT]
//! [--serve-hold SECS] [--phase-metrics]` — `--plan` restricts the
//! matrix to the named plan (repeatable); `--quick` runs a reduced
//! demand count; `--jobs` picks the replication worker-pool size
//! (default: one per hardware thread) without changing any output;
//! `--trace`/`--metrics` write a JSONL event trace and a metrics
//! snapshot without changing the table on stdout; `--serve-metrics`
//! serves the snapshot on `/metrics` and the per-plan dependability
//! snapshots on `/snapshot`; `--phase-metrics` adds the wall-clock
//! `wsu_phase_seconds` gauges. Any other argument exits with status 2.

use wsu_experiments::campaign::{run_campaign_jobs, standard_plans, CampaignConfig};
use wsu_experiments::obs::{exit_on_unknown_flag, jobs_from_env, FlagValue, ObsOptions};
use wsu_experiments::DEFAULT_SEED;

const USAGE: &str = "usage: faultcampaign [--quick] [--plan NAME] [--jobs N] [--trace PATH] \
                     [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS] \
                     [--phase-metrics]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_on_unknown_flag(
        &args,
        &[("--quick", FlagValue::Switch), ("--plan", FlagValue::Text)],
        USAGE,
    );
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--plan")
        .filter_map(|(i, _)| args.get(i + 1))
        .collect();
    let jobs = jobs_from_env();
    let mut ctx = ObsOptions::from_env().context();
    let config = if quick {
        CampaignConfig::quick()
    } else {
        CampaignConfig::paper()
    };
    let mut specs = standard_plans();
    if !wanted.is_empty() {
        specs.retain(|spec| wanted.iter().any(|w| **w == spec.scenario.name));
        if specs.is_empty() {
            eprintln!(
                "no plan matched; available: {}",
                standard_plans()
                    .iter()
                    .map(|s| s.scenario.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        }
    }
    let sinks = ctx.sinks();
    let table = ctx.time("faultcampaign/simulate", || {
        run_campaign_jobs(&specs, &config, DEFAULT_SEED, &sinks, jobs)
    });
    print!("{}", table.render());
    ctx.publish_snapshot(&table.snapshots_json());
    ctx.finish().expect("write observability outputs");
}
