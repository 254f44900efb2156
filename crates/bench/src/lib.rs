//! Benchmark crate with a self-contained measurement harness.
//!
//! Micro-benchmarks cover the Bayesian posterior update, the simulation
//! engine and the observability layer; the `perf_report` binary times
//! the experiment pipelines end to end, and `bench_compare` guards
//! every report against its committed baseline.
//!
//! The harness in this module mirrors the subset of the `criterion` API
//! the benches use ([`Criterion`], [`BenchmarkGroup`], [`Bencher`],
//! [`BenchmarkId`], [`criterion_group!`]/[`criterion_main!`]), so the
//! bench sources read like ordinary criterion benches while the crate
//! stays dependency-free (the container building this workspace has no
//! registry access). Timing is median-of-samples over auto-calibrated
//! iteration batches; results print as `name  median  (min .. max)`.
//! Every report is a [`wsu_obs::bench::BenchRecord`], the one
//! `wsu-bench/1` writer and reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use wsu_obs::bench::{BenchRecord, BenchRow};

/// Formats nanoseconds the way the reports print them.
fn fmt_ns(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Identifier for a parameterised benchmark, compatible with
/// `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A `function_name/parameter` id.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            label: format!("{function}/{parameter}"),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// Per-benchmark timing loop handed to the closure, compatible with
/// `criterion::Bencher`.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    measurements: Vec<Duration>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Self {
            samples,
            measurements: Vec::new(),
        }
    }

    /// Times `routine`, first calibrating how many iterations fit in a
    /// sample, then collecting `samples` timed batches.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: grow the batch until one batch takes >= 1 ms (or a
        // hard cap is hit, for very slow routines).
        let target = Duration::from_millis(1);
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(200) {
                // A single batch is already expensive: keep the sample
                // count low so slow benches still terminate quickly.
                self.measurements
                    .push(elapsed / u32::try_from(iters).unwrap_or(u32::MAX));
                for _ in 1..self.samples.min(3) {
                    let start = Instant::now();
                    for _ in 0..iters {
                        std::hint::black_box(routine());
                    }
                    self.measurements
                        .push(start.elapsed() / u32::try_from(iters).unwrap_or(u32::MAX));
                }
                return;
            }
            if elapsed >= target || iters >= 1 << 20 {
                break;
            }
            iters = iters.saturating_mul(2);
        }
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            self.measurements
                .push(start.elapsed() / u32::try_from(iters).unwrap_or(u32::MAX));
        }
    }
}

/// A named group of benchmarks, compatible with
/// `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let sample_size = self.sample_size;
        self.criterion.run_one(&full, sample_size, |b| f(b));
        self
    }

    /// Runs a benchmark that takes an input by reference.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        let sample_size = self.sample_size;
        self.criterion.run_one(&full, sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (kept for API parity; output is printed as each
    /// benchmark completes).
    pub fn finish(&mut self) {}
}

/// The top-level harness state, compatible with `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    rows: Vec<BenchRow>,
}

impl Criterion {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, name: &str, samples: usize, mut f: F) {
        let mut bencher = Bencher::new(samples);
        f(&mut bencher);
        let row = BenchRow::from_samples(name, &mut bencher.measurements);
        println!(
            "{name:<60} {:>12}   ({} .. {})",
            fmt_ns(row.median_ns),
            fmt_ns(row.min_ns),
            fmt_ns(row.max_ns)
        );
        self.rows.push(row);
    }

    /// The rows collected so far, in the order they ran, as a stamped
    /// `wsu-bench/1` record named `bench`.
    pub fn record(&self, bench: &str) -> BenchRecord {
        BenchRecord {
            rows: self.rows.clone(),
            ..BenchRecord::new(bench)
        }
    }
}

/// Writes the collected rows to the JSON path named by the
/// `WSU_BENCH_JSON` environment variable, if set, as a record named
/// after the file stem. Called by
/// [`criterion_main!`] after all groups have run, so
/// `WSU_BENCH_JSON=results/BENCH_bayes.json cargo bench --bench
/// bench_bayes` emits the machine-readable report alongside the usual
/// stdout table. A report that cannot be written prints `<bench>: write
/// PATH failed: <error>` and exits with status 1.
pub fn maybe_write_json_report(criterion: &Criterion, bench: &str) {
    let Some(path) = std::env::var_os("WSU_BENCH_JSON").map(PathBuf::from) else {
        return;
    };
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("bench");
    if let Err(error) = criterion.record(stem).write(&path) {
        eprintln!("{bench}: write {} failed: {error}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// Declares the benchmark entry list, compatible with
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(criterion: &mut $crate::Criterion) {
            $($target(criterion);)+
        }
    };
}

/// Declares the benchmark `main`, compatible with
/// `criterion::criterion_main!`.
///
/// After all groups have run, the collected rows are written to the
/// JSON path in `WSU_BENCH_JSON` (if set) via
/// [`maybe_write_json_report`], which names the bench target when the
/// write fails.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::new();
            $($group(&mut criterion);)+
            $crate::maybe_write_json_report(&criterion, env!("CARGO_CRATE_NAME"));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::new();
        c.benchmark_group("g")
            .sample_size(5)
            .bench_function("noop", |b| b.iter(|| 1 + 1))
            .finish();
        let rows = c.record("BENCH_unit").rows;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "g/noop");
        assert!(rows[0].min_ns <= rows[0].median_ns && rows[0].median_ns <= rows[0].max_ns);
        assert!(rows[0].median_ns < 100_000_000);
    }

    #[test]
    fn the_report_is_a_stamped_record_or_an_error() {
        let mut c = Criterion::new();
        c.benchmark_group("g")
            .bench_function("noop", |b| b.iter(|| 1 + 1));
        let record = c.record("BENCH_unit");
        let dir = std::env::temp_dir().join(format!("wsu_bench_report_{}", std::process::id()));
        let path = dir.join("nested/BENCH_unit.json");
        record.write(&path).expect("write the report");
        let text = std::fs::read_to_string(&path).expect("read it back");
        assert_eq!(BenchRecord::parse(&text), Ok(record.clone()));
        assert!(record.stamp.is_some());
        // A path under a regular file cannot be written.
        let error = record
            .write(&path.join("x.json"))
            .expect_err("not a directory");
        assert!(!error.to_string().is_empty());
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
