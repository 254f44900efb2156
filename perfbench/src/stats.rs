//! Order statistics, digests and the metric report every workload fills.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use wsu_simcore::rng::MasterSeed;

/// Nearest-rank percentile `q` (in `[0, 1]`) of `samples`, sorting them
/// in place. `0.0` for an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (nearest rank), sorting them in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Nanoseconds in `d`, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Median cost of one `Instant::now()` call, subtracted from replayed
/// per-call timings.
pub fn timer_ns() -> f64 {
    let mut samples: Vec<f64> = (0..101)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..1_000 {
                std::hint::black_box(Instant::now());
            }
            ns(started.elapsed()) / 1_000.0
        })
        .collect();
    median(&mut samples)
}

/// 64-bit FNV-1a, the digest the verification steps compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one whole word in a single step: cheap enough for the
    /// per-demand path of a timed phase.
    pub fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0100_0000_01b3).rotate_left(29);
    }

    pub fn value(self) -> u64 {
        self.0
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::default();
        d.bytes(bytes);
        d.value()
    }
}

/// Sub-buckets per power of two: 1.6 % wide buckets, interpolated.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear latency histogram over whole nanoseconds. Its memory is
/// fixed, so the benchmark's own bookkeeping does not grow with the
/// number of demands a run completes (and stays out of `peak_rss_mib`).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; bucket(u64::MAX) + 1],
            n: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    (SUB * (1 + u64::from(shift)) + ((v >> shift) - SUB)) as usize
}

fn bucket_low(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB) << shift) as f64
}

impl Histogram {
    pub fn record(&mut self, ns: f64) {
        self.counts[bucket(ns.max(0.0) as u64)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.n = 0;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile, interpolated linearly inside its bucket.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let low = bucket_low(i);
                let high = bucket_low(i + 1);
                return low + (high - low) * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        bucket_low(self.counts.len())
    }
}

/// The latencies of one timed phase, also cut into chunks of `every`
/// demands. The tail is reported as the median over the chunks of each
/// chunk's percentile, so a preempted moment moves one chunk, not the
/// run's figure.
#[derive(Debug, Clone)]
pub struct Series {
    every: u64,
    tail_q: f64,
    chunk: Histogram,
    pub all: Histogram,
    tails: Vec<f64>,
}

impl Series {
    pub fn new(every: u64, tail_q: f64) -> Series {
        Series {
            every: every.max(1),
            tail_q,
            chunk: Histogram::default(),
            all: Histogram::default(),
            tails: Vec::new(),
        }
    }

    pub fn record(&mut self, took_ns: f64) {
        self.all.record(took_ns);
        self.chunk.record(took_ns);
        if self.chunk.count() == self.every {
            self.tails.push(self.chunk.percentile(self.tail_q));
            self.chunk.clear();
        }
    }

    /// Median over the complete chunks of each chunk's tail percentile
    /// (the whole phase's percentile when no chunk completed).
    pub fn tail(&self) -> f64 {
        if self.tails.is_empty() {
            return self.all.percentile(self.tail_q);
        }
        median(&mut self.tails.clone())
    }

    /// Folds another series' samples and chunk tails into this one.
    pub fn absorb(&mut self, other: &Series) {
        self.all.merge(&other.all);
        self.tails.extend_from_slice(&other.tails);
    }
}

/// The seeds a batch workload cycles through. The first output of each
/// seed is kept as a digest, and every later pass must reproduce it.
#[derive(Debug, Clone)]
pub struct SeedCycle {
    seeds: Vec<MasterSeed>,
    digests: Vec<Option<u64>>,
}

impl SeedCycle {
    pub fn new(seeds: Vec<MasterSeed>) -> SeedCycle {
        let digests = vec![None; seeds.len()];
        SeedCycle { seeds, digests }
    }

    /// The seed of the `op`-th operation.
    pub fn seed(&self, op: usize) -> MasterSeed {
        self.seeds[op % self.seeds.len()]
    }

    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Keeps the digest of the `op`-th output, or checks it against the
    /// one its seed produced on an earlier pass.
    pub fn check(&mut self, op: usize, output: &str) -> Result<(), String> {
        let i = op % self.seeds.len();
        let digest = Digest::of(output.as_bytes());
        match self.digests[i] {
            Some(expected) if expected != digest => Err(format!(
                "seed #{i} digest {digest:016x} != earlier {expected:016x}"
            )),
            _ => {
                self.digests[i] = Some(digest);
                Ok(())
            }
        }
    }

    /// Seeds whose output has been seen.
    pub fn seen(&self) -> usize {
        self.digests.iter().flatten().count()
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed (non-200, I/O error, a broken demand loop).
    pub attempted: u64,
    pub failed: u64,
    /// Verification failures; any entry makes the run fail.
    pub mismatches: Vec<String>,
    /// Verification steps that passed, for the human-readable log.
    pub checks: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// Records a verification step: `ok` passes, otherwise the run fails.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.checks.push(what);
        } else {
            self.mismatches.push(what);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single JSON line the harness parses: `names` in order, each
    /// with its value and unit.
    pub fn json_line(&self, names: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let sep = if i + 1 < names.len() { ", " } else { "" };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}{sep}",
                json_number(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with all its digits (NaN/inf become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn histogram_percentiles_are_close_and_interpolated() {
        let mut h = Histogram::default();
        for v in 1..=10_000 {
            h.record(f64::from(v));
        }
        let p50 = h.percentile(0.5);
        assert!((p50 - 5_000.0).abs() < 5_000.0 * 0.02, "{p50}");
        let p99 = h.percentile(0.99);
        assert!((p99 - 9_900.0).abs() < 9_900.0 * 0.02, "{p99}");
        assert_eq!(Histogram::default().percentile(0.5), 0.0);
        for v in [0, 1, 63, 64, 65, 1000, 1 << 40] {
            let i = bucket(v);
            assert!(
                bucket_low(i) <= v as f64 && (v as f64) < bucket_low(i + 1),
                "{v}"
            );
        }
    }

    #[test]
    fn series_tail_is_the_median_chunk_tail() {
        let mut s = Series::new(2, 1.0);
        for took in [1.0, 2.0, 10.0, 20.0, 5.0, 6.0] {
            s.record(took);
        }
        let tail = s.tail();
        assert!((tail - 6.0).abs() <= 0.5, "{tail}");
    }
}
