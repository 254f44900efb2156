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
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_experiments::DEFAULT_SEED;
use wsu_simcore::par::Jobs;

fn main() {
    let args = cli::FAULTCAMPAIGN.parse();
    let jobs = Jobs::from_request(args.value("--jobs"));
    let wanted: Vec<&str> = args.values("--plan").collect();
    let mut specs = standard_plans();
    if !wanted.is_empty() {
        specs.retain(|plan| wanted.contains(&plan.scenario.name.as_str()));
        if specs.is_empty() {
            let available: Vec<_> = standard_plans()
                .into_iter()
                .map(|plan| plan.scenario.name)
                .collect();
            cli::FAULTCAMPAIGN.fail(&format!(
                "no plan matched; available: {}",
                available.join(", ")
            ));
        }
    }
    let mut ctx = cli::FAULTCAMPAIGN.or_exit("metrics exporter", ObsContext::from_args(&args));
    let config = if args.has("--quick") {
        CampaignConfig::quick()
    } else {
        CampaignConfig::paper()
    };
    let sinks = ctx.sinks();
    let table = ctx.time("faultcampaign/simulate", || {
        run_campaign_jobs(&specs, &config, DEFAULT_SEED, &sinks, jobs)
    });
    print!("{}", table.render());
    ctx.publish_snapshot(&table.snapshots_json());
    cli::FAULTCAMPAIGN.or_exit("observability output", ctx.finish());
}
