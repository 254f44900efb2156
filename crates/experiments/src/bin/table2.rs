//! Regenerates Table 2 (duration of managed upgrade).
//!
//! Usage: `table2 [--quick] [--seeds N] [--trace PATH] [--metrics PATH]
//! [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]` —
//! `--quick` runs a reduced-scale version; `--seeds N` (at least 1)
//! additionally reports the spread of every cell across N seeds, after
//! one blank line (`results/table2_spread.txt` holds 10);
//! `--trace`/`--metrics` replay every study's checkpoints into an event
//! trace and a metrics snapshot. Any other argument, or a value that
//! does not parse, exits with status 2 (see [`wsu_experiments::cli`]).

use wsu_experiments::artefacts::{self, Scale};
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_simcore::par::Jobs;

fn main() {
    let args = cli::TABLE2.parse();
    let scale = Scale::new(args.has("--quick"));
    let mut ctx = cli::TABLE2.or_exit("metrics exporter", ObsContext::from_args(&args));
    print!(
        "{}",
        artefacts::TABLE2.build(scale, Jobs::serial(), &mut ctx)
    );
    if let Some(seeds) = args.value("--seeds") {
        let spread = ctx.time(artefacts::TABLE2_SPREAD.name, |_| {
            artefacts::table2_spread(scale, seeds)
        });
        print!("\n{spread}");
    }
    cli::TABLE2.or_exit("observability output", ctx.finish());
}
