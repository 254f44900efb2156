//! Runs every experiment and writes its golden under `results/`: the
//! 13 files of [`ARTEFACTS`], each the exact stdout of its own binary
//! at the same scale.
//!
//! Usage: `all [--quick] [--out DIR] [--jobs N] [--trace PATH]
//! [--metrics PATH] [--serve-metrics PORT] [--serve-hold SECS]
//! [--phase-metrics]` — `--out` names the directory (default
//! `results`); `--jobs` sizes the replication worker pool for the
//! simulation-backed studies without changing any output byte;
//! `--serve-metrics` serves the metrics on `/metrics` and, on
//! `/snapshot`, the fault campaign's and the fleet study's documents as
//! one JSON list. Any other argument exits with status 2.

use std::fs;
use std::path::PathBuf;

use wsu_experiments::artefacts::{Scale, ARTEFACTS};
use wsu_experiments::cli;
use wsu_experiments::obs::ObsContext;
use wsu_simcore::par::Jobs;

fn main() {
    let args = cli::ALL.parse();
    let scale = Scale::new(args.has("--quick"));
    let jobs = Jobs::from_request(args.value("--jobs"));
    let mut ctx = cli::ALL.or_exit("metrics exporter", ObsContext::from_args(&args));
    let out_dir: PathBuf = args.value("--out").unwrap_or_else(|| "results".into());
    cli::ALL.or_exit(
        &format!("create {}", out_dir.display()),
        fs::create_dir_all(&out_dir),
    );
    for (i, artefact) in ARTEFACTS.iter().enumerate() {
        eprintln!("[{}/{}] {} ...", i + 1, ARTEFACTS.len(), artefact.name);
        let text = artefact.build(scale, jobs, &mut ctx);
        let path = out_dir.join(artefact.name);
        cli::ALL.or_exit(&format!("write {}", path.display()), fs::write(&path, text));
    }
    cli::ALL.or_exit("observability output", ctx.finish());
    eprintln!("done; outputs in {}", out_dir.display());
}
