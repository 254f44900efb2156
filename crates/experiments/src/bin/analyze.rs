//! `wsu-analyze` — offline analyzer for recorded JSONL event traces.
//!
//! Usage: `wsu-analyze <trace path> [--window X] [--availability PATH]
//! [--phases PATH]`
//!
//! Prints a summary (demands, availability, response-time percentiles,
//! span profile) to stdout. `--availability` writes the windowed
//! availability timeline as TSV, `--phases` the per-phase latency
//! breakdown; `--window` sets the timeline window width, a positive
//! number of virtual seconds (default 60). The trace path may stand
//! anywhere on the command line.

use std::fs;
use std::path::{Path, PathBuf};

use wsu_experiments::analyze::analyze_trace;
use wsu_experiments::cli;
use wsu_obs::jsonl::write_file;

fn main() {
    let args = cli::WSU_ANALYZE.parse();
    let trace_path = PathBuf::from(args.positional(0));
    let window_secs = args.value("--window").unwrap_or(60.0);
    let text = cli::WSU_ANALYZE.or_exit(
        &format!("read {}", trace_path.display()),
        fs::read_to_string(&trace_path),
    );
    let analysis = cli::WSU_ANALYZE.or_exit(
        &format!("analyze {}", trace_path.display()),
        analyze_trace(&text, window_secs),
    );
    print!("{}", analysis.render_summary());
    let write = |path: &Path, content: String, what: &str| {
        let written = write_file(path, content);
        cli::WSU_ANALYZE.or_exit(&format!("write {}", path.display()), written);
        eprintln!("{what}: -> {}", path.display());
    };
    if let Some(path) = args.value::<PathBuf>("--availability") {
        write(&path, analysis.availability_tsv(), "availability timeline");
    }
    if let Some(path) = args.value::<PathBuf>("--phases") {
        write(&path, analysis.phases_tsv(), "phase breakdown");
    }
}
