//! `wsu-serve` — the upgrade middleware as a real HTTP service.
//!
//! Starts the serving front, one worker per core by default, and
//! serves:
//!
//! * `POST /demand` — one demand through the middleware (dispatch,
//!   adjudicate, respond), answered as a small JSON outcome;
//! * `GET /metrics` — merged per-worker Prometheus text;
//! * `GET /snapshot` — aggregate JSON;
//! * `GET /health` — liveness.
//!
//! Usage:
//!
//! ```text
//! wsu-serve [--addr HOST:PORT] [--workers N]
//!           [--spec paper|deterministic|canary-fleet] [--sharded]
//!           [--seed N] [--duration SECS]
//! ```
//!
//! Defaults: `--addr 127.0.0.1:9100`, `--workers 0` (one per hardware
//! thread), `--spec paper`, the workspace seed, `--duration 0` (serve
//! until killed; any other duration is finite, not negative, and
//! checked before binding). `--sharded` keys each demand's randomness
//! on a fleet-global demand index instead of a per-worker stream, so
//! the outcome stream is identical at any `--workers` count (see
//! `ServeSpec::sharded`). Prints `listening on ADDR workers=N` once
//! ready, and `served N demands in SECSs` after a `--duration`; if any
//! serving worker panicked, it then exits with status 1. Any other
//! argument exits with status 2.

use std::time::Duration;

use wsu_core::serve::ServeSpec;
use wsu_experiments::cli;
use wsu_experiments::serve::{FrontConfig, HttpFront};
use wsu_experiments::DEFAULT_SEED;

fn main() {
    let args = cli::WSU_SERVE.parse();
    let addr: String = args
        .value("--addr")
        .unwrap_or_else(|| "127.0.0.1:9100".into());
    let workers = args.value("--workers").unwrap_or(0);
    let spec_name: String = args.value("--spec").unwrap_or_else(|| "paper".into());
    let seed = args.value("--seed").unwrap_or(DEFAULT_SEED.value());
    let duration = args.value("--duration").unwrap_or(0.0);
    let mut spec = match spec_name.as_str() {
        "paper" => ServeSpec::paper(seed),
        "deterministic" => ServeSpec::deterministic(seed),
        "canary-fleet" => ServeSpec::canary_fleet(seed),
        other => cli::WSU_SERVE.fail(&format!(
            "unknown --spec {other} (want paper|deterministic|canary-fleet)"
        )),
    };
    if args.has("--sharded") {
        spec = spec.with_sharding();
    }
    let front = cli::WSU_SERVE.or_exit(
        &format!("bind {addr}"),
        HttpFront::start(FrontConfig::new(&addr, workers, spec)),
    );
    println!(
        "listening on {} workers={} spec={} seed={}",
        front.local_addr(),
        front.workers(),
        spec_name,
        seed,
    );
    if duration > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(duration));
        let demands = front.demands();
        let panicked = front.shutdown();
        println!("served {demands} demands in {duration:.1}s");
        if panicked > 0 {
            eprintln!("wsu-serve: {panicked} serving workers panicked");
            std::process::exit(1);
        }
    } else {
        // Serve until the process is killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}
