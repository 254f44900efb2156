//! `wsu-analyze` — offline analyzer for recorded JSONL event traces.
//!
//! Usage: `wsu-analyze <trace.jsonl> [--window SECS]
//! [--availability PATH] [--phases PATH]`
//!
//! Prints a summary (demands, availability, response-time percentiles,
//! span profile) to stdout. `--availability` writes the windowed
//! availability timeline as TSV, `--phases` the per-phase latency
//! breakdown; `--window` sets the timeline window width (default 60
//! virtual seconds).

use std::fs;
use std::path::PathBuf;
use std::process::exit;

use wsu_experiments::analyze::analyze_trace;

const USAGE: &str = "usage: wsu-analyze <trace.jsonl> [--window SECS] \
                     [--availability PATH] [--phases PATH]";

/// What the command line asks for.
struct Args {
    trace_path: PathBuf,
    window_secs: f64,
    availability: Option<String>,
    phases: Option<String>,
}

/// Reads the command line: the trace path is the one argument that is
/// neither a flag nor a flag's value. Names the problem on an unknown
/// flag, a second path, a missing path, or a flag without its value.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut trace_path = None;
    let mut window_secs = 60.0;
    let mut availability = None;
    let mut phases = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if let Some(first) = trace_path.replace(PathBuf::from(arg)) {
                return Err(format!(
                    "a second trace path {arg} after {}",
                    first.display()
                ));
            }
            continue;
        }
        let mut value = || match rest.next() {
            Some(value) if !value.starts_with("--") => Ok(value.clone()),
            _ => Err(format!("{arg} needs a value")),
        };
        match arg.as_str() {
            "--window" => {
                let value = value()?;
                window_secs = value
                    .parse()
                    .ok()
                    .filter(|secs: &f64| *secs > 0.0 && secs.is_finite())
                    .ok_or_else(|| {
                        format!("--window needs a positive number of seconds, not {value:?}")
                    })?;
            }
            "--availability" => availability = Some(value()?),
            "--phases" => phases = Some(value()?),
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    Ok(Args {
        trace_path: trace_path.ok_or("no trace path given")?,
        window_secs,
        availability,
        phases,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        trace_path,
        window_secs,
        availability,
        phases,
    } = parse_args(&args).unwrap_or_else(|error| {
        eprintln!("{error}");
        eprintln!("{USAGE}");
        exit(2);
    });
    let text = match fs::read_to_string(&trace_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {}: {err}", trace_path.display());
            exit(1);
        }
    };
    let analysis = match analyze_trace(&text, window_secs) {
        Ok(analysis) => analysis,
        Err(err) => {
            eprintln!("cannot analyze {}: {err}", trace_path.display());
            exit(1);
        }
    };
    print!("{}", analysis.render_summary());
    let write = |path: &str, content: String, what: &str| {
        let path = PathBuf::from(path);
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).expect("create output directory");
            }
        }
        fs::write(&path, content).expect("write analysis output");
        eprintln!("{what}: -> {}", path.display());
    };
    if let Some(path) = availability {
        write(&path, analysis.availability_tsv(), "availability timeline");
    }
    if let Some(path) = phases {
        write(&path, analysis.phases_tsv(), "phase breakdown");
    }
}
