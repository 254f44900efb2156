//! Runs every experiment and writes the outputs under `results/`.
//!
//! Usage: `all [--quick] [--out DIR] [--jobs N] [--trace PATH]
//! [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS]
//! [--phase-metrics]` — `--out` names the directory (default
//! `results`); `--jobs` sizes the replication worker pool for the
//! simulation-backed studies (Tables 5–6, ablations, capacity) without
//! changing any output byte. Any other argument exits with status 2.

use std::fs;
use std::path::PathBuf;

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::obs::ObsContext;
use wsu_experiments::{
    ablation, campaign, capacity, cli, figures, table2, table5, table6, DEFAULT_SEED,
    PAPER_TIMEOUTS,
};
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::timing::ExecTimeModel;

fn main() {
    let args = cli::ALL.parse();
    let quick = args.has("--quick");
    let jobs = Jobs::from_request(args.value("--jobs"));
    let mut ctx = cli::ALL.or_exit("metrics exporter", ObsContext::from_args(&args));
    let sinks = ctx.sinks();
    let out_dir: PathBuf = args.value("--out").unwrap_or_else(|| "results".into());
    cli::ALL.or_exit(
        &format!("create {}", out_dir.display()),
        fs::create_dir_all(&out_dir),
    );
    let write = |name: &str, text: String| {
        let path = out_dir.join(name);
        cli::ALL.or_exit(&format!("write {}", path.display()), fs::write(&path, text));
    };

    let res = if quick {
        Resolution {
            a_cells: 48,
            b_cells: 48,
            q_cells: 16,
        }
    } else {
        Resolution::default()
    };
    let study1 = StudyConfig {
        demands: if quick { 10_000 } else { 50_000 },
        checkpoint_every: 500,
        resolution: res,
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    };
    let study2 = StudyConfig {
        demands: if quick { 4_000 } else { 10_000 },
        checkpoint_every: 100,
        resolution: res,
        confidence: 0.99,
        target: 1e-3,
        seed: DEFAULT_SEED,
    };
    let requests = if quick { 2_000 } else { 10_000 };

    eprintln!("[1/9] Table 2 (single seed + spread) ...");
    let t2 = ctx.time("all/table2", || {
        table2::run_table2_with(DEFAULT_SEED, &study1, &study2)
    });
    for run in &t2.runs {
        ctx.record_study(
            run,
            &format!("table2/s{}/{:?}", run.scenario, run.detection),
        );
    }
    write("table2.txt", t2.render());
    let seeds: Vec<MasterSeed> = (0..10u64)
        .map(|i| MasterSeed::new(DEFAULT_SEED.value().wrapping_add(i)))
        .collect();
    let spread = ctx.time("all/table2-spread", || {
        table2::run_table2_spread(&seeds, &study1, &study2)
    });
    write("table2_spread.txt", table2::render_spread(&spread));

    eprintln!("[2/9] Fig. 7 ...");
    let (fig7, fig7_runs) = ctx.time("all/fig7", || figures::run_fig7(&study1));
    ctx.record_study(&fig7_runs.perfect, "fig7/perfect");
    if let Some(omission) = &fig7_runs.omission {
        ctx.record_study(omission, "fig7/omission");
    }
    ctx.record_study(&fig7_runs.back_to_back, "fig7/back-to-back");
    write("fig7.tsv", fig7.to_tsv());

    eprintln!("[3/9] Fig. 8 ...");
    let (fig8, fig8_runs) = ctx.time("all/fig8", || figures::run_fig8(&study2));
    ctx.record_study(&fig8_runs.perfect, "fig8/perfect");
    if let Some(omission) = &fig8_runs.omission {
        ctx.record_study(omission, "fig8/omission");
    }
    ctx.record_study(&fig8_runs.back_to_back, "fig8/back-to-back");
    write("fig8.tsv", fig8.to_tsv());

    eprintln!("[4/9] Table 5 ...");
    let t5 = ctx.time("all/table5", || {
        table5::run_table5_jobs(
            DEFAULT_SEED,
            requests,
            &PAPER_TIMEOUTS,
            ExecTimeModel::paper(),
            &sinks,
            jobs,
        )
    });
    write("table5.txt", t5.render());

    eprintln!("[5/9] Table 6 ...");
    let t6 = ctx.time("all/table6", || {
        table6::run_table6_jobs(
            DEFAULT_SEED,
            requests,
            &PAPER_TIMEOUTS,
            ExecTimeModel::paper(),
            &sinks,
            jobs,
        )
    });
    write("table6.txt", t6.render());

    eprintln!("[6/9] Calibrated-timing variants ...");
    let t5c = ctx.time("all/table5-calibrated", || {
        table5::run_table5_jobs(
            DEFAULT_SEED,
            requests,
            &PAPER_TIMEOUTS,
            ExecTimeModel::calibrated(),
            &ObsSinks::default(),
            jobs,
        )
    });
    write("table5_calibrated.txt", t5c.render());
    let t6c = ctx.time("all/table6-calibrated", || {
        table6::run_table6_jobs(
            DEFAULT_SEED,
            requests,
            &PAPER_TIMEOUTS,
            ExecTimeModel::calibrated(),
            &ObsSinks::default(),
            jobs,
        )
    });
    write("table6_calibrated.txt", t6c.render());

    eprintln!("[7/9] Ablations ...");
    let ab = ctx.time("all/ablations", || {
        let mut ab = String::new();
        ab.push_str(&ablation::render_adjudicator_table(
            &ablation::run_adjudicator_ablation_jobs(DEFAULT_SEED, requests, jobs),
        ));
        ab.push('\n');
        ab.push_str(&ablation::render_mode_table(
            &ablation::run_mode_ablation_jobs(DEFAULT_SEED, requests, jobs),
        ));
        ab.push('\n');
        ab.push_str(&ablation::render_coverage_table(
            &ablation::run_coverage_ablation_jobs(
                &study1,
                &[0.0, 0.05, 0.10, 0.15, 0.25, 0.40],
                jobs,
            ),
        ));
        ab.push('\n');
        ab.push_str(&ablation::render_prior_table(
            &ablation::run_prior_ablation_jobs(&study1, jobs),
        ));
        ab.push('\n');
        ab.push_str(&ablation::render_class_detection_table(
            &ablation::run_class_detection_ablation(
                study1.demands,
                study1.resolution,
                DEFAULT_SEED,
                0.5,
                &[1.0, 0.85, 0.70, 0.50, 0.25],
            ),
        ));
        ab.push('\n');
        ab.push_str(&ablation::render_abort_table(
            &ablation::run_abort_ablation_jobs(
                if quick { 3 } else { 10 },
                if quick { 4_000 } else { 20_000 },
                study1.resolution,
                DEFAULT_SEED,
                &[0.5, 1.0, 2.0, 5.0, 10.0],
                jobs,
            ),
        ));
        ab
    });
    write("ablations.txt", ab);

    eprintln!("[8/9] Fault-injection campaign ...");
    let campaign = ctx.time("all/faultcampaign", || {
        campaign::run_campaign_jobs(
            &campaign::standard_plans(),
            &if quick {
                campaign::CampaignConfig::quick()
            } else {
                campaign::CampaignConfig::paper()
            },
            DEFAULT_SEED,
            &sinks,
            jobs,
        )
    });
    write("faultcampaign.txt", campaign.render());

    eprintln!("[9/9] Capacity study ...");
    let gen =
        wsu_workload::outcomes::CorrelatedOutcomes::from_run(&wsu_workload::runs::RunSpec::run2());
    let cap = ctx.time("all/capacity", || {
        capacity::run_capacity_study_jobs(
            &gen,
            ExecTimeModel::calibrated(),
            &[0.2, 0.4, 0.6, 0.8],
            if quick { 3_000 } else { 20_000 },
            DEFAULT_SEED,
            jobs,
        )
    });
    write("capacity.txt", capacity::render_capacity_table(&cap));

    cli::ALL.or_exit("observability output", ctx.finish());
    eprintln!("done; outputs in {}", out_dir.display());
}
