//! Regenerates Table 2 (duration of managed upgrade).
//!
//! Usage: `table2 [--quick] [--seeds N] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]` —
//! `--quick` runs a reduced-scale version; `--seeds N` (at least 1)
//! additionally reports the spread of every cell across N seeds;
//! `--trace`/`--metrics` replay every study's checkpoints into an event
//! trace and a metrics snapshot. Any other argument, or a value that
//! does not parse, exits with status 2 (see [`wsu_experiments::cli`]).

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::bayes_study::StudyConfig;
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_experiments::table2::{render_spread, run_table2, run_table2_spread, run_table2_with};
use wsu_experiments::DEFAULT_SEED;
use wsu_simcore::rng::MasterSeed;

fn main() {
    let args = cli::TABLE2.parse();
    let quick = args.has("--quick");
    let mut ctx = cli::TABLE2.or_exit("metrics exporter", ObsContext::from_args(&args));
    let table = ctx.time("table2/study", || {
        if quick {
            let res = Resolution {
                a_cells: 48,
                b_cells: 48,
                q_cells: 16,
            };
            let c1 = StudyConfig {
                demands: 10_000,
                checkpoint_every: 500,
                resolution: res,
                confidence: 0.99,
                target: 1e-3,
                seed: DEFAULT_SEED,
            };
            let c2 = StudyConfig {
                demands: 5_000,
                checkpoint_every: 100,
                resolution: res,
                confidence: 0.99,
                target: 1e-3,
                seed: DEFAULT_SEED,
            };
            run_table2_with(DEFAULT_SEED, &c1, &c2)
        } else {
            run_table2(DEFAULT_SEED)
        }
    });
    for run in &table.runs {
        ctx.record_study(
            run,
            &format!("table2/s{}/{:?}", run.scenario, run.detection),
        );
    }
    println!("{}", table.render());

    if let Some(n) = args.value::<u64>("--seeds") {
        let res = if quick {
            Resolution {
                a_cells: 48,
                b_cells: 48,
                q_cells: 16,
            }
        } else {
            Resolution::default()
        };
        let c1 = StudyConfig {
            demands: if quick { 10_000 } else { 50_000 },
            checkpoint_every: 500,
            resolution: res,
            confidence: 0.99,
            target: 1e-3,
            seed: DEFAULT_SEED,
        };
        let c2 = StudyConfig {
            demands: if quick { 5_000 } else { 10_000 },
            checkpoint_every: 100,
            resolution: res,
            confidence: 0.99,
            target: 1e-3,
            seed: DEFAULT_SEED,
        };
        let seeds: Vec<MasterSeed> = (0..n)
            .map(|i| MasterSeed::new(DEFAULT_SEED.value().wrapping_add(i)))
            .collect();
        let spread = ctx.time("table2/spread", || run_table2_spread(&seeds, &c1, &c2));
        println!("{}", render_spread(&spread));
    }
    cli::TABLE2.or_exit("observability output", ctx.finish());
}
