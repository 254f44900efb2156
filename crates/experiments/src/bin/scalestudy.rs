//! Runs the sharding scale study: the same million-demand weighted
//! fleet served at several shard counts, asserting byte-identical
//! merged outputs while measuring throughput.
//!
//! Usage: `scalestudy [--quick] [--demands N] [--shards-list K,K,...]
//! [--bench-out PATH]` — a configuration that
//! [`ScaleConfig::validate`](wsu_experiments::scalestudy::ScaleConfig::validate)
//! rejects exits with status 2 before any shard starts.
//!
//! Stdout carries only the deterministic dependability digest: with no
//! flag but `--quick`, the text `all` writes as `scalestudy.txt`. The
//! wall-clock table — demands/sec, speedup versus the first swept shard
//! count, merge overhead — goes to stderr, and `--bench-out`
//! additionally publishes it as a stamped `wsu-bench/1` record (the
//! `results/BENCH_scale.json` format) for the stock `bench_compare`
//! regression guard.

use wsu_experiments::artefacts::Scale;
use wsu_experiments::cli;
use wsu_experiments::scalestudy::{bench_record, render_table, render_timing, run_scalestudy};
use wsu_experiments::DEFAULT_SEED;

fn main() {
    let args = cli::SCALESTUDY.parse();
    let mut config = Scale::new(args.has("--quick")).scale_study();
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
        let written = bench_record(&report).write(path.as_ref());
        cli::SCALESTUDY.or_exit(&format!("write {path}"), written);
        eprintln!("wrote {path}");
    }
}
