//! Runs the sharding scale study: the same million-demand weighted
//! fleet served at several shard counts, asserting byte-identical
//! merged outputs while measuring throughput.
//!
//! Usage: `scalestudy [--quick] [--demands N] [--shards-list K,K,...]
//! [--bench-out PATH]` — a configuration that [`ScaleConfig::validate`]
//! rejects exits with status 2 before any shard starts.
//!
//! Stdout carries only the deterministic dependability digest (safe to
//! diff against a golden); the wall-clock table — demands/sec, speedup
//! versus the first swept shard count, merge overhead — goes to
//! stderr, and `--bench-out` additionally publishes it as a
//! `wsu-bench/1` report (the `results/BENCH_scale.json` format) for
//! the stock `bench_compare` regression guard.

use wsu_experiments::cli;
use wsu_experiments::scalestudy::{
    render_bench_json, render_table, render_timing, run_scalestudy, ScaleConfig,
};
use wsu_experiments::DEFAULT_SEED;

fn main() {
    let args = cli::SCALESTUDY.parse();
    let mut config = if args.has("--quick") {
        ScaleConfig::quick()
    } else {
        ScaleConfig::paper()
    };
    config.demands = args.value("--demands").unwrap_or(config.demands);
    if let Some(list) = args.value::<String>("--shards-list") {
        config.shard_counts = list
            .split(',')
            .map(|k| k.trim().parse().ok())
            .collect::<Option<_>>()
            .unwrap_or_else(|| {
                cli::SCALESTUDY.fail(&format!("--shards-list needs K,K,..., not {list:?}"))
            });
    }
    if let Err(error) = config.validate() {
        cli::SCALESTUDY.fail(&error);
    }

    let report = run_scalestudy(&config, DEFAULT_SEED.value());
    print!("{}", render_table(&report));
    eprint!("{}", render_timing(&report));
    if let Some(path) = args.value::<String>("--bench-out") {
        let written = std::fs::write(&path, render_bench_json(&report));
        cli::SCALESTUDY.or_exit(&format!("write {path}"), written);
        eprintln!("wrote {path}");
    }
}
