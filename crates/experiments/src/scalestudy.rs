//! Scale study: throughput of the sharded demand loop at 1M+ demands.
//!
//! One large weighted-fleet deployment is served at shard counts
//! {1, 2, 4, 8}, reporting demands/sec per configuration, speedup
//! versus the serial run and the cost of the final merge — while
//! *asserting* the sharding determinism contract on every run (the
//! merged dependability digest must be byte-identical at every shard
//! count, or the study panics).
//!
//! # Shards on the replication runner
//!
//! Shard `s` of `K` serves the demand ids `s, s + K, s + 2K, …` below
//! the run's length, in order, on a private [`DemandWorker`] built on
//! the thread that runs the shard (the worker is deliberately not
//! `Send`). [`par_map`] runs the shards on at most one thread per
//! hardware thread: `K` at or below that count gets one thread per
//! shard, a larger `K` queues its shards on those threads, and one
//! shard runs on the calling thread.
//! Demand randomness is keyed by the *global* demand id
//! (`indexed_stream("serve-demand", id)`, the sharded-[`ServeSpec`]
//! contract), so a demand's outcome depends only on `(seed, id,
//! weights-at-id)` — never on the partition. Per-shard statistics are
//! exactly mergeable: integer verdict/source counters, an integer
//! nanosecond latency sum, and a [`QuantileSketch`] whose bucket
//! counts add; the merge folds shards in shard order `0..K`.
//!
//! # The cutover
//!
//! Mid-run the fleet promotes its newest release. Every shard calls
//! [`DemandWorker::promote`] before it serves its first id at or past
//! the cutover, so "applies from demand `cutover` onwards" is the same
//! statement at any `K`, whatever the cutover, with nothing passed
//! between shards.
//!
//! [`DemandWorker`]: wsu_core::serve::DemandWorker
//! [`DemandWorker::promote`]: wsu_core::serve::DemandWorker::promote

use std::time::{Duration, Instant};

use wsu_core::middleware::MiddlewareConfig;
use wsu_core::modes::OperatingMode;
use wsu_core::serve::{DemandOutcome, ReleaseSpec, ServeSpec};
use wsu_obs::bench::{BenchRecord, BenchRow};
use wsu_obs::jsonl::JsonValue;
use wsu_obs::quantile::QuantileSketch;
use wsu_simcore::dist::DelayModel;
use wsu_simcore::par::{par_map, Jobs};
use wsu_wstack::outcome::OutcomeProfile;

/// Index of the release the fleet promotes at the cutover.
const PROMOTED_RELEASE: usize = 2;

/// Configuration of one scale sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Total demands served per configuration.
    pub demands: u64,
    /// Shard counts to sweep, in report order (first is the baseline).
    pub shard_counts: Vec<usize>,
    /// Global demand id from which the promoted release serves every
    /// demand. Must lie inside the run.
    pub cutover: u64,
}

impl ScaleConfig {
    /// The paper-scale sweep: one million demands at shard counts
    /// {1, 2, 4, 8}, promoting the newest release halfway through.
    pub fn paper() -> ScaleConfig {
        ScaleConfig {
            demands: 1_000_000,
            shard_counts: vec![1, 2, 4, 8],
            cutover: 524_288,
        }
    }

    /// A sweep small enough for tests and the CI golden: 32 Ki demands
    /// at shard counts {1, 2, 4}.
    pub fn quick() -> ScaleConfig {
        ScaleConfig {
            demands: 32_768,
            shard_counts: vec![1, 2, 4],
            cutover: 16_384,
        }
    }

    /// Why the sweep cannot run, if it cannot: it needs at least one
    /// shard count, every count at least 1, and a cutover inside the
    /// run.
    pub fn validate(&self) -> Result<(), String> {
        if self.shard_counts.is_empty() {
            return Err("sweep at least one shard count".into());
        }
        if self.shard_counts.contains(&0) {
            return Err("shard counts must be positive".into());
        }
        if self.cutover >= self.demands {
            return Err(format!(
                "cutover {} must happen inside the run ({} demands)",
                self.cutover, self.demands
            ));
        }
        Ok(())
    }
}

/// The deployment the study serves: a three-release weighted fleet
/// with stochastic outcomes and exponential execution times, sharded
/// (demand randomness keyed by global demand id).
pub fn scale_spec(seed: u64) -> ServeSpec {
    let middleware = MiddlewareConfig {
        mode: OperatingMode::WeightedFleet,
        ..MiddlewareConfig::default()
    };
    ServeSpec::new(middleware, seed)
        .with_release(
            ReleaseSpec::new(
                "Quote",
                "1.0",
                OutcomeProfile::new(0.999, 0.0005, 0.0005),
                DelayModel::exponential(0.3),
            )
            .with_weight(0.7),
        )
        .with_release(
            ReleaseSpec::new(
                "Quote",
                "1.1",
                OutcomeProfile::new(0.9995, 0.00025, 0.00025),
                DelayModel::exponential(0.25),
            )
            .with_weight(0.2),
        )
        .with_release(
            ReleaseSpec::new(
                "Quote",
                "1.2",
                OutcomeProfile::new(0.9999, 0.00005, 0.00005),
                DelayModel::exponential(0.2),
            )
            .with_weight(0.1),
        )
        .with_sharding()
}

/// Exactly mergeable per-shard dependability statistics: integer
/// counters, an integer nanosecond latency sum and a bucket-count
/// quantile sketch. Merging shards in shard order reproduces the
/// serial run's digest bit for bit.
#[derive(Debug, Clone)]
pub struct ScaleStats {
    /// Demands served.
    pub demands: u64,
    /// Verdict counts in table order: CR, ER, NER, NRDT.
    pub verdicts: [u64; 4],
    /// Total releases that responded within the timeout.
    pub responders: u64,
    /// How many demands each release's response was forwarded for.
    pub source: Vec<u64>,
    /// Sum of response times in integer nanoseconds (each demand's
    /// wait rounded once — associative, so partition-independent).
    pub response_ns: u128,
    /// Response-time sketch (seconds); bucket counts add under merge.
    pub latency: QuantileSketch,
}

impl ScaleStats {
    fn new(releases: usize) -> ScaleStats {
        ScaleStats {
            demands: 0,
            verdicts: [0; 4],
            responders: 0,
            source: vec![0; releases],
            response_ns: 0,
            latency: QuantileSketch::default(),
        }
    }

    fn record(&mut self, outcome: &DemandOutcome) {
        self.demands += 1;
        let v = match outcome.verdict_label() {
            "CR" => 0,
            "ER" => 1,
            "NER" => 2,
            _ => 3, // NRDT
        };
        self.verdicts[v] += 1;
        self.responders += outcome.responders as u64;
        if let Some(release) = outcome.source {
            self.source[release] += 1;
        }
        self.response_ns += (outcome.response_time * 1e9).round() as u128;
        self.latency.observe(outcome.response_time);
    }

    /// Folds `other` into `self`. Call in shard order.
    pub fn merge(&mut self, other: &ScaleStats) {
        self.demands += other.demands;
        for (a, b) in self.verdicts.iter_mut().zip(&other.verdicts) {
            *a += b;
        }
        self.responders += other.responders;
        for (a, b) in self.source.iter_mut().zip(&other.source) {
            *a += b;
        }
        self.response_ns += other.response_ns;
        self.latency.merge(&other.latency);
    }

    /// The canonical digest the determinism contract is enforced on:
    /// every integer counter plus the sketch's rank queries (bucket
    /// counts and exact min/max — all partition-independent). The f64
    /// bucket estimates are printed with full precision, so two digests
    /// agree only if the merged sketches agree bit for bit.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = writeln!(out, "demands    {}", self.demands);
        let _ = writeln!(
            out,
            "verdicts   CR={} ER={} NER={} NRDT={}",
            self.verdicts[0], self.verdicts[1], self.verdicts[2], self.verdicts[3]
        );
        let _ = writeln!(out, "responders {}", self.responders);
        let sources: Vec<String> = self
            .source
            .iter()
            .enumerate()
            .map(|(i, n)| format!("r{i}={n}"))
            .collect();
        let _ = writeln!(out, "source     {}", sources.join(" "));
        let mean_ns = self.response_ns / u128::from(self.demands.max(1));
        let _ = writeln!(out, "mean_ns    {mean_ns}");
        for (q, label) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999")] {
            let ns = self.latency.quantile(q).unwrap_or(f64::NAN) * 1e9;
            let _ = writeln!(out, "{:<10} {ns:.0}", format!("{label}_ns"));
        }
        out
    }
}

/// One swept configuration's measurement.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// Shard count.
    pub shards: usize,
    /// Wall-clock time of the sharded demand loop.
    pub elapsed: Duration,
    /// Wall-clock time of the final shard-order merge.
    pub merge_elapsed: Duration,
    /// Merged dependability statistics.
    pub stats: ScaleStats,
}

impl ScaleRun {
    /// Demands served per wall-clock second.
    pub fn demands_per_sec(&self) -> f64 {
        self.stats.demands as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Wall-clock nanoseconds per demand (loop only).
    pub fn ns_per_demand(&self) -> u64 {
        (self.elapsed.as_nanos() / u128::from(self.stats.demands.max(1))) as u64
    }

    /// Merge cost as a fraction of total (loop + merge) wall clock.
    pub fn merge_overhead(&self) -> f64 {
        let total = self.elapsed.as_secs_f64() + self.merge_elapsed.as_secs_f64();
        self.merge_elapsed.as_secs_f64() / total.max(1e-12)
    }
}

/// Runs one configuration of the scale world on `shards` shards, on at
/// most one thread per hardware thread (one shard runs on the calling
/// thread).
///
/// # Panics
///
/// If `shards` is 0.
pub fn run_scale(config: &ScaleConfig, seed: u64, shards: usize) -> ScaleRun {
    assert!(shards > 0, "shard counts must be positive");
    let spec = scale_spec(seed);
    let start = Instant::now();
    let per_shard = par_map(Jobs::auto(), shards, |shard| {
        serve_shard(config, &spec, shard, shards)
    });
    let elapsed = start.elapsed();
    let merge_start = Instant::now();
    let mut merged = ScaleStats::new(spec.releases.len());
    for stats in &per_shard {
        merged.merge(stats);
    }
    let merge_elapsed = merge_start.elapsed();
    ScaleRun {
        shards,
        elapsed,
        merge_elapsed,
        stats: merged,
    }
}

/// Shard `shard` of `shards`: serves the ids `shard, shard + shards, …`
/// below `config.demands` in order on its own worker, promoting the
/// newest release before its first id at or past the cutover.
fn serve_shard(config: &ScaleConfig, spec: &ServeSpec, shard: usize, shards: usize) -> ScaleStats {
    let mut worker = spec.worker(shard as u64);
    let mut stats = ScaleStats::new(spec.releases.len());
    let mut promoted = false;
    for global in (shard as u64..config.demands).step_by(shards) {
        if !promoted && global >= config.cutover {
            worker
                .promote(PROMOTED_RELEASE)
                .expect("promoted release is deployed");
            promoted = true;
        }
        let outcome = worker
            .demand_indexed(global)
            .expect("the scale spec deploys releases");
        stats.record(&outcome);
    }
    stats
}

/// The whole sweep: one [`ScaleRun`] per configured shard count plus
/// the digest every run agreed on.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Swept configurations in [`ScaleConfig::shard_counts`] order.
    pub runs: Vec<ScaleRun>,
    /// The canonical dependability digest (identical for every run).
    pub digest: String,
    /// Total demands per configuration.
    pub demands: u64,
    /// The cutover demand id.
    pub cutover: u64,
}

impl ScaleReport {
    /// Speedup of run `i` versus the sweep's first (baseline) run.
    pub fn speedup(&self, i: usize) -> f64 {
        self.runs[0].elapsed.as_secs_f64() / self.runs[i].elapsed.as_secs_f64().max(1e-12)
    }
}

/// Runs the sweep, **asserting** the determinism contract: every shard
/// count must produce the identical merged digest.
///
/// # Panics
///
/// If `config` fails [`ScaleConfig::validate`], or if any shard count's
/// digest deviates from the baseline's — that would mean the sharded
/// loop changed an observable output, which is exactly what the
/// contract forbids.
pub fn run_scalestudy(config: &ScaleConfig, seed: u64) -> ScaleReport {
    if let Err(error) = config.validate() {
        panic!("{error}");
    }
    let mut runs = Vec::with_capacity(config.shard_counts.len());
    let mut digest: Option<String> = None;
    for &k in &config.shard_counts {
        let run = run_scale(config, seed, k);
        let d = run.stats.digest();
        match &digest {
            None => digest = Some(d),
            Some(expect) => assert!(
                d == *expect,
                "shards {k} changed the merged digest:\n--- shards {} ---\n{expect}--- shards {k} ---\n{d}",
                config.shard_counts[0]
            ),
        }
        runs.push(run);
    }
    ScaleReport {
        runs,
        digest: digest.expect("at least one run"),
        demands: config.demands,
        cutover: config.cutover,
    }
}

/// The deterministic stdout table: the sweep's shared dependability
/// digest. Contains no timing, so it can be diffed against a golden.
pub fn render_table(report: &ScaleReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(512);
    let counts: Vec<String> = report.runs.iter().map(|r| r.shards.to_string()).collect();
    let _ = writeln!(
        out,
        "scalestudy: {} demands, promote r{PROMOTED_RELEASE} at demand {}",
        report.demands, report.cutover
    );
    let _ = writeln!(
        out,
        "shard counts swept: {} (merged outputs byte-identical)",
        counts.join(" ")
    );
    out.push('\n');
    out.push_str(&report.digest);
    out
}

/// The timing side of the sweep (demands/sec, speedup, merge
/// overhead) — wall-clock, so **not** part of the golden.
pub fn render_timing(report: &ScaleReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(512);
    let _ = writeln!(
        out,
        "{:>7} {:>14} {:>9} {:>11} {:>8}",
        "shards", "demands/sec", "speedup", "ns/demand", "merge%"
    );
    for (i, run) in report.runs.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>7} {:>14.0} {:>8.2}x {:>11} {:>7.3}%",
            run.shards,
            run.demands_per_sec(),
            report.speedup(i),
            run.ns_per_demand(),
            run.merge_overhead() * 100.0
        );
    }
    out
}

/// The sweep as a `wsu-bench/1` record (the `BENCH_scale.json`
/// format): one `scale/shardsK/loop_ns` row per configuration, then
/// one merge-cost row per configuration, all in nanoseconds so the
/// stock `bench_compare` guard can diff two runs. The demand count and
/// the per-configuration shard counts, demands/sec, speedups and
/// ns/demand are informational fields.
pub fn bench_record(report: &ScaleReport) -> BenchRecord {
    let runs = &report.runs;
    let list = |value: &dyn Fn(usize) -> f64| {
        JsonValue::Array(
            (0..runs.len())
                .map(|i| JsonValue::Number(value(i)))
                .collect(),
        )
    };
    let info = [
        ("demands", JsonValue::Number(report.demands as f64)),
        ("shard_counts", list(&|i| runs[i].shards as f64)),
        ("demands_per_sec", list(&|i| runs[i].demands_per_sec())),
        ("speedup", list(&|i| report.speedup(i))),
        ("ns_per_demand", list(&|i| runs[i].ns_per_demand() as f64)),
    ];
    // Gate on the whole loop's wall clock (ns/demand sits under
    // bench_compare's too-small floor and would never fail).
    let loops = runs.iter().map(|run| ("loop", run.elapsed, run.shards));
    let merges = runs
        .iter()
        .map(|run| ("merge", run.merge_elapsed, run.shards));
    BenchRecord {
        info: info.map(|(key, value)| (key.to_owned(), value)).into(),
        rows: loops
            .chain(merges)
            .map(|(what, elapsed, k)| {
                BenchRow::from_samples(format!("scale/shards{k}/{what}_ns"), &mut [elapsed])
            })
            .collect(),
        ..BenchRecord::new("BENCH_scale")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    fn tiny() -> ScaleConfig {
        ScaleConfig {
            demands: 4_096,
            shard_counts: vec![1, 2, 4],
            cutover: 2_048,
        }
    }

    #[test]
    fn sweep_digests_are_shard_count_invariant() {
        // run_scalestudy asserts digest equality internally; this test
        // additionally pins the bookkeeping around it.
        let report = run_scalestudy(&tiny(), DEFAULT_SEED.value());
        assert_eq!(report.runs.len(), 3);
        for run in &report.runs {
            assert_eq!(run.stats.demands, 4_096);
            assert_eq!(run.stats.verdicts.iter().sum::<u64>(), 4_096);
            assert_eq!(run.stats.digest(), report.digest);
        }
        assert!((report.speedup(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cutover_routes_the_tail_to_the_promoted_release() {
        let config = tiny();
        let report = run_scalestudy(&config, DEFAULT_SEED.value());
        let stats = &report.runs[0].stats;
        let tail = config.demands - config.cutover;
        // Post-cutover, release 2 carries all traffic; pre-cutover it
        // carried ~10%. Its forwarded count must dominate the tail.
        assert!(
            stats.source[2] as f64 > tail as f64 * 0.9,
            "promoted release forwarded only {} of a {} demand tail",
            stats.source[2],
            tail
        );
        // And the stable release still served most of the head.
        assert!(stats.source[0] as f64 > config.cutover as f64 * 0.5);
    }

    #[test]
    fn digest_and_table_are_deterministic() {
        let a = run_scalestudy(&tiny(), DEFAULT_SEED.value());
        let b = run_scalestudy(&tiny(), DEFAULT_SEED.value());
        assert_eq!(a.digest, b.digest);
        assert_eq!(render_table(&a), render_table(&b));
        assert!(render_table(&a).contains("scalestudy: 4096 demands"));
        // A different seed actually changes the digest.
        let c = run_scalestudy(&tiny(), DEFAULT_SEED.value() + 1);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn bench_json_has_the_wsu_bench_rows() {
        let report = run_scalestudy(&tiny(), DEFAULT_SEED.value());
        let record = bench_record(&report);
        assert_eq!(record.bench, "BENCH_scale");
        let names: Vec<&str> = record.rows.iter().map(|row| row.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "scale/shards1/loop_ns",
                "scale/shards2/loop_ns",
                "scale/shards4/loop_ns",
                "scale/shards1/merge_ns",
                "scale/shards2/merge_ns",
                "scale/shards4/merge_ns"
            ]
        );
        let info = |key: &str| record.info.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(info("demands"), Some(&JsonValue::Number(4_096.0)));
        let JsonValue::Array(speedups) = info("speedup").expect("speedups") else {
            panic!("speedup is a list");
        };
        assert_eq!(speedups.len(), 3);
        assert_eq!(speedups[0], JsonValue::Number(1.0));
        assert_eq!(BenchRecord::parse(&record.render()), Ok(record));
        let timing = render_timing(&report);
        assert!(timing.contains("demands/sec"));
        assert_eq!(timing.lines().count(), 1 + report.runs.len());
    }

    #[test]
    #[should_panic(expected = "must happen inside the run (4096 demands)")]
    fn cutover_at_the_end_of_the_run_is_rejected() {
        let mut config = tiny();
        config.cutover = config.demands;
        run_scalestudy(&config, DEFAULT_SEED.value());
    }
}
