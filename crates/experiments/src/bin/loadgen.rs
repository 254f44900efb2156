//! `wsu-loadgen` — load generator for `wsu-serve`.
//!
//! Opens `--connections` keep-alive connections and drives each in a
//! closed loop (one request in flight per connection), capturing
//! per-request wall latency in a mergeable quantile sketch. Prints a
//! summary and, with `--out`, writes a stamped `wsu-bench/1` record
//! (`results/BENCH_http.json`) the stock `bench_compare` guard can
//! diff.
//!
//! Usage:
//!
//! ```text
//! wsu-loadgen [--addr HOST:PORT] [--connections N] [--requests N]
//!             [--warmup N] [--open-loop X] [--out PATH]
//!             [--expect-server-match]
//! ```
//!
//! `--addr` is required. `--open-loop X` switches the timed phase to a
//! fixed-rate open loop: X requests/sec aggregate are scheduled across the
//! connections whether or not earlier responses have arrived, latency
//! is measured from each request's scheduled instant (no coordinated
//! omission), and slots a connection cannot reach within one interval
//! are dropped — the summary then reports the drop rate alongside
//! p50/p99/p999, the open-loop overload signal.
//!
//! `--expect-server-match` scrapes the server's `/metrics` after the
//! run and requires its summed `wsu_http_demands_total` to equal the
//! client-side 200 count (timed + warmup) — valid when this generator
//! is the server's only client. Exits non-zero on any request error or
//! on an agreement mismatch.

use std::net::ToSocketAddrs;
use std::process::exit;
use std::time::Duration;

use wsu_experiments::cli;
use wsu_experiments::loadgen::{bench_record, run_load, scrape_demand_total, LoadgenConfig};

fn main() {
    let args = cli::WSU_LOADGEN.parse();
    let addr: String = args
        .value("--addr")
        .unwrap_or_else(|| cli::WSU_LOADGEN.fail("--addr is required"));
    let addr = match addr.to_socket_addrs().map(|mut addrs| addrs.next()) {
        Ok(Some(addr)) => addr,
        Ok(None) => cli::WSU_LOADGEN.fail(&format!("--addr {addr}: no address")),
        Err(err) => cli::WSU_LOADGEN.fail(&format!("--addr {addr}: {err}")),
    };
    let config = LoadgenConfig {
        addr,
        connections: args.value("--connections").unwrap_or(2),
        requests_per_conn: args.value("--requests").unwrap_or(500),
        warmup_per_conn: args.value("--warmup").unwrap_or(50),
        timeout: Duration::from_secs(5),
        open_rate: args.value("--open-loop"),
    };
    let summary = cli::WSU_LOADGEN.or_exit(&format!("connect {addr}"), run_load(&config));
    println!(
        "connections={} ok={} errors={} dropped={} elapsed={:.3}s",
        summary.connections,
        summary.ok,
        summary.errors,
        summary.dropped,
        summary.elapsed.as_secs_f64(),
    );
    println!(
        "requests/sec={:.1} drop_rate={:.4} p50={}ns p99={}ns p999={}ns",
        summary.requests_per_sec,
        summary.drop_rate(),
        summary.latency_ns(0.50),
        summary.latency_ns(0.99),
        summary.latency_ns(0.999),
    );
    if let Some(path) = args.value::<String>("--out") {
        let written = bench_record(&summary).write(path.as_ref());
        cli::WSU_LOADGEN.or_exit(&format!("write {path}"), written);
        println!("wrote {path}");
    }
    let mut failed = false;
    if summary.errors > 0 {
        eprintln!("wsu-loadgen: {} request(s) failed", summary.errors);
        failed = true;
    }
    if args.has("--expect-server-match") {
        match scrape_demand_total(addr) {
            Ok(server_total) => {
                let client_total = summary.ok + summary.warmup_ok;
                if server_total == client_total {
                    println!("server agreement: wsu_http_demands_total={server_total} matches");
                } else {
                    eprintln!(
                        "wsu-loadgen: server counted {server_total} demands, \
                         client counted {client_total}"
                    );
                    failed = true;
                }
            }
            Err(err) => {
                eprintln!("wsu-loadgen: /metrics scrape failed: {err}");
                failed = true;
            }
        }
    }
    if failed {
        exit(1);
    }
}
