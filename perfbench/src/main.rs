//! The workspace benchmark: one workload per demand loop, run in its own
//! process from a seed.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--golden-dir DIR]
//! ```
//!
//! An untraced run (`--trace 0`) times the workload through the public
//! APIs only and prints the end-to-end metrics. A traced run (`--trace 1`)
//! spends half its time on an untraced phase and half on a traced one,
//! then replays each layer's public function on the inputs the workload
//! gave it, and prints the per-layer metrics. Both print a report with
//! host/build stamps and sample counts, verify the program's outputs
//! outside the timed phase, and end with one JSON line. A run whose
//! verification fails exits with code 1.

mod batch;
mod client;
mod fleet;
mod http_serve;
mod stats;
mod table5;
mod upgrade;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics (untraced runs), printed by every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_tail_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced runs). A workload whose demands never
/// reach a layer reports that layer's `calls` as 0 and its figures as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("demands_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("trace.overhead_share", "1"),
    ("unattributed_share", "1"),
    ("failed_ratio", "1"),
    ("scrape_p50_us", "us"),
    ("obs.http.calls", "count"),
    ("obs.http.recv_ns", "ns"),
    ("obs.http.send_ns", "ns"),
    ("obs.http.bytes_in", "B"),
    ("obs.http.bytes_out", "B"),
    ("serve.front.calls", "count"),
    ("serve.front.service_us", "us"),
    ("serve.front.errors", "count"),
    ("serve.front.wait_us", "us"),
    ("serve.front.rtt_p999_us", "us"),
    ("obs.metrics.calls", "count"),
    ("obs.metrics.render_us", "us"),
    ("obs.metrics.scrape_bytes", "B"),
    ("core.serve.calls", "count"),
    ("core.serve.demand_ns", "ns"),
    ("core.upgrade.calls", "count"),
    ("core.upgrade.plain_ns", "ns"),
    ("core.upgrade.assess_demand_us", "us"),
    ("core.upgrade.overhead_ns", "ns"),
    ("core.manage.calls", "count"),
    ("core.manage.assess_us", "us"),
    ("core.manage.busy_share", "1"),
    ("bayes.calls", "count"),
    ("bayes.rebase_us", "us"),
    ("core.middleware.calls", "count"),
    ("core.middleware.process_ns", "ns"),
    ("core.middleware.fanout", "count"),
    ("core.middleware.useful_ratio", "1"),
    ("core.monitor.calls", "count"),
    ("core.monitor.observe_ns", "ns"),
    ("workload.calls", "count"),
    ("workload.plan_ms", "ms"),
    ("midsim.calls", "count"),
    ("midsim.cell_ms", "ms"),
    ("core.fleet.calls", "count"),
    ("core.fleet.cell_ms.restart", "ms"),
    ("core.fleet.cell_ms.rollback", "ms"),
    ("core.fleet.cell_ms.substitute", "ms"),
    ("core.fleet.incidents", "count"),
    ("core.fleet.recovered_ratio", "1"),
    ("core.fleet.promotions", "count"),
    ("core.fleet.rollbacks", "count"),
    ("core.fleet.substitutions", "count"),
    ("faults.injected", "count"),
];

const WORKLOADS: &[&str] = &[
    "http-serve",
    "upgrade-whitebox",
    "table5-seeds",
    "fleet-canary",
];

/// What every workload receives from the command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed phase (half of it each side in a traced run).
    pub seconds: Duration,
    pub traced: bool,
    /// Reduced sizes for the smoke test.
    pub quick: bool,
    /// Where the committed `table5.txt` / `fleetstudy.txt` goldens live.
    pub golden_dir: PathBuf,
}

impl RunArgs {
    /// A workload seed mixed with a salt, so different workloads and
    /// repetitions draw unrelated streams from one `--seed`.
    pub fn derive(&self, salt: u64) -> u64 {
        let mut x = self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--quick] [--golden-dir DIR]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = value("--workload").filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage();
    };
    let (Some(seed), Some(seconds), Some(trace)) = (
        value("--seed").and_then(|s| s.parse::<u64>().ok()),
        value("--seconds").and_then(|s| s.parse::<f64>().ok()),
        value("--trace").and_then(|s| s.parse::<u8>().ok()),
    ) else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 600.0) || trace > 1 {
        return usage();
    }
    let run = RunArgs {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        traced: trace == 1,
        quick: args.iter().any(|a| a == "--quick"),
        golden_dir: PathBuf::from(value("--golden-dir").unwrap_or_else(|| "results".to_owned())),
    };
    println!(
        "perfbench workload={workload} seed={seed} seconds={seconds} trace={trace} quick={}",
        run.quick
    );
    let calibration = calibration_ms();
    let mut report = match workload.as_str() {
        "http-serve" => http_serve::run(&run),
        "upgrade-whitebox" => upgrade::run(&run),
        "table5-seeds" => table5::run(&run),
        _ => fleet::run(&run),
    };
    println!("{}", stamp(run.traced, calibration));
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    if report.attempted > 0 {
        let ratio = report.failed as f64 / report.attempted as f64;
        report.metric("failed_ratio", ratio, "1", report.attempted as usize);
    }
    let names = if run.traced { PER_LAYER } else { END_TO_END };
    // Every metric of the run's set, in order; a layer the workload
    // never calls reads 0 with 0 samples. The untraced report also shows
    // the figures the workload measured that are not gated: failed_ratio,
    // 0 at this commit, the throughput and p50, which follow the host's
    // fast and slow states, and http-serve's scrape p50.
    let extra: &[(&str, &str)] = if run.traced {
        &[]
    } else {
        &[
            ("failed_ratio", "1"),
            ("demands_per_s", "1/s"),
            ("latency_p50_us", "us"),
            ("scrape_p50_us", "us"),
        ]
    };
    let extra = extra.iter().filter(|(name, _)| report.get(name).is_some());
    for m in &report.metrics {
        if let Some((_, unit)) = PER_LAYER
            .iter()
            .chain(END_TO_END)
            .find(|(n, _)| *n == m.name)
        {
            assert_eq!(m.unit, *unit, "{} reported in the wrong unit", m.name);
        }
    }
    for (name, unit) in names.iter().chain(extra) {
        let (value, samples) = report
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .map_or((0.0, 0), |m| (m.value, m.samples));
        println!("metric {name} {value} {unit} samples={samples}");
    }
    for check in &report.checks {
        println!("verify ok: {check}");
    }
    for mismatch in &report.mismatches {
        println!("verify FAILED: {mismatch}");
    }
    if !report.mismatches.is_empty() {
        return ExitCode::from(1);
    }
    println!("{}", report.json_line(names));
    ExitCode::SUCCESS
}

/// The host/build stamp: two reports are comparable only when these
/// agree in everything but `calibration_ms`.
fn stamp(traced: bool, calibration_ms: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
    format!(
        "stamp nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={} build={} traced={} \
         calibration_ms={calibration_ms:.3}",
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_BUILD"),
        u8::from(traced),
    )
}

/// Wall time of a fixed integer loop: shows host drift between run sets.
fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How long a run keeps setting up again before its timed phase, and
/// again after it, when it does not set up during it: set-ups then
/// span host states that last a second or more and sample two moments
/// 20 s apart, and `setup_s` is a quantile over all of them instead of
/// one sample.
pub const SETUP_BATCH: Duration = Duration::from_millis(1_500);

/// The `setup_s` quantile of a workload that sets up on one thread. This
/// host runs a thread at one of two speeds 1.5–2× apart, usually the
/// slower, switching every few seconds to minutes. Over a run's set-ups
/// the upper quartile stays on the usual speed; the median and the
/// minimum jump whenever the faster one shows up.
pub const SETUP_Q_SERIAL: f64 = 0.75;

/// The set-up times of one run: a batch before the timed phase, whose
/// last deployment the run measures, then more set-ups during the timed
/// phase or after it.
pub struct Setups {
    quick: bool,
    secs: Vec<f64>,
}

impl Setups {
    pub fn new(run: &RunArgs) -> Setups {
        Setups {
            quick: run.quick,
            secs: Vec::new(),
        }
    }

    /// Times one set-up.
    pub fn once<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = setup();
        self.secs.push(started.elapsed().as_secs_f64());
        value
    }

    /// Sets up again and again for `budget` (at least three times; once
    /// in quick mode), keeping the last result.
    pub fn batch<T>(&mut self, budget: Duration, mut setup: impl FnMut() -> T) -> T {
        let (least, budget) = if self.quick {
            (1, Duration::ZERO)
        } else {
            (3, budget)
        };
        let began = Instant::now();
        let mut times = 0;
        let mut last = None;
        while times < least || began.elapsed() < budget {
            drop(last.take());
            last = Some(self.once(&mut setup));
            times += 1;
        }
        last.expect("at least one set-up")
    }

    /// Reports the `q` quantile of every set-up time as `setup_s`.
    pub fn report(mut self, q: f64, report: &mut stats::Report) {
        let n = self.secs.len();
        report.metric("setup_s", stats::percentile(&mut self.secs, q), "s", n);
    }
}
