//! `wsu-httpget` — the workspace's hand-rolled HTTP/1.1 client, as a
//! binary. CI uses it to scrape a live `--serve-metrics` endpoint
//! without assuming curl exists.
//!
//! Usage: `wsu-httpget <host:port> <path>` — prints the response body
//! to stdout; exits 1 on connection failure or a non-200 status, and 2
//! on a bad command line.

use std::process::exit;

use wsu_experiments::cli;
use wsu_obs::http_get;

fn main() {
    let args = cli::WSU_HTTPGET.parse();
    let (addr, path) = (args.positional(0), args.positional(1));
    match http_get(addr, path) {
        Ok(resp) if resp.status == 200 => print!("{}", resp.body),
        Ok(resp) => {
            eprintln!("GET {path}: status {}", resp.status);
            exit(1);
        }
        Err(err) => {
            eprintln!("GET {addr}{path} failed: {err}");
            exit(1);
        }
    }
}
