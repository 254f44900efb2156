//! Property-style tests of the simulation substrate.
//!
//! Originally written with `proptest`; rewritten as deterministic
//! seeded-loop checks (the build environment has no registry access, so
//! the workspace carries no external dev-dependencies). Each test draws
//! its cases from a [`StreamRng`], so the explored inputs are random in
//! shape but identical on every run.

use wsu_simcore::dist::Exponential;
use wsu_simcore::engine::{Engine, Handler};
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_simcore::stats::{Histogram, Summary};
use wsu_simcore::time::{SimDuration, SimTime};

const CASES: usize = 48;

fn rng_for(test: &str) -> StreamRng {
    MasterSeed::new(0x51_4D_43_5F_50_52_4F_50).stream(test)
}

fn f64_in(rng: &mut StreamRng, lo: f64, hi: f64) -> f64 {
    let unit = rng.next_u64() as f64 / u64::MAX as f64;
    lo + unit * (hi - lo)
}

fn vec_in(rng: &mut StreamRng, lo: f64, hi: f64, max_len: usize) -> Vec<f64> {
    let len = rng.next_below(max_len as u64 + 1) as usize;
    (0..len).map(|_| f64_in(rng, lo, hi)).collect()
}

/// Merging two summaries equals summarising the concatenated stream.
#[test]
fn summary_merge_is_concatenation() {
    let mut rng = rng_for("summary_merge");
    for _ in 0..CASES {
        let left = vec_in(&mut rng, -1e6, 1e6, 100);
        let right = vec_in(&mut rng, -1e6, 1e6, 100);
        let mut merged = Summary::new();
        for &x in &left {
            merged.record(x);
        }
        let mut other = Summary::new();
        for &x in &right {
            other.record(x);
        }
        merged.merge(&other);

        let mut whole = Summary::new();
        for &x in left.iter().chain(&right) {
            whole.record(x);
        }
        assert_eq!(merged.count(), whole.count());
        if whole.count() > 0 {
            assert!((merged.mean() - whole.mean()).abs() < 1e-6);
            assert!((merged.variance() - whole.variance()).abs() < 1e-3);
            assert_eq!(merged.min(), whole.min());
            assert_eq!(merged.max(), whole.max());
        }
    }
}

/// `Summary` as it was before it kept its count as an `f64` and its
/// extremes as ±∞ sentinels: the reference the current form must match
/// bit for bit.
#[derive(Clone, Copy, Default)]
struct OptionSummary {
    count: u64,
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
    sum: f64,
}

impl OptionSummary {
    fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    fn merge(&mut self, other: &OptionSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.mean += delta * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

fn assert_bit_equal(summary: &Summary, reference: &OptionSummary, case: &str) {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    assert_eq!(summary.count(), reference.count, "{case}: count");
    assert_eq!(
        summary.mean().to_bits(),
        reference.mean.to_bits(),
        "{case}: mean"
    );
    assert_eq!(
        summary.variance().to_bits(),
        reference.variance().to_bits(),
        "{case}: variance"
    );
    assert_eq!(
        summary.sum().to_bits(),
        reference.sum.to_bits(),
        "{case}: sum"
    );
    assert_eq!(bits(summary.min()), bits(reference.min), "{case}: min");
    assert_eq!(bits(summary.max()), bits(reference.max), "{case}: max");
}

/// `Summary` equals the `Option`-based Welford summary bit for bit on
/// 32 seeds of random sequences (empty and one-element ones included),
/// after every observation and after merging two halves in either
/// order.
#[test]
fn summary_matches_option_welford_bit_for_bit() {
    for seed in 0..32u64 {
        let mut rng = MasterSeed::new(seed).stream("summary_bits");
        let values: Vec<f64> = match seed {
            0 => Vec::new(),
            1 => vec![f64_in(&mut rng, 0.0, 5.0)],
            2 => vec![0.0, -0.0, 0.0, -0.0, 1.0],
            3..=15 => vec_in(&mut rng, 0.0, 5.0, 2_000),
            _ => vec_in(&mut rng, -1e6, 1e6, 2_000),
        };
        let mut summary = Summary::new();
        let mut reference = OptionSummary::default();
        assert_bit_equal(&summary, &reference, &format!("seed {seed} empty"));
        for (i, &x) in values.iter().enumerate() {
            summary.record(x);
            reference.record(x);
            assert_bit_equal(&summary, &reference, &format!("seed {seed} after {i}"));
        }

        let cut = rng.next_below(values.len() as u64 + 1) as usize;
        let (left, right) = values.split_at(cut);
        let halves = |part: &[f64]| {
            let mut s = Summary::new();
            let mut r = OptionSummary::default();
            for &x in part {
                s.record(x);
                r.record(x);
            }
            (s, r)
        };
        let ((ls, lr), (rs, rr)) = (halves(left), halves(right));
        for (first, second, order) in [
            ((ls, lr), (rs, rr), "left+right"),
            ((rs, rr), (ls, lr), "right+left"),
        ] {
            let (mut s, mut r) = first;
            s.merge(&second.0);
            r.merge(&second.1);
            assert_bit_equal(&s, &r, &format!("seed {seed} cut {cut} {order}"));
        }
    }
}

/// A histogram never loses observations.
#[test]
fn histogram_conserves_mass() {
    let mut rng = rng_for("histogram_mass");
    for _ in 0..CASES {
        let values = vec_in(&mut rng, -10.0, 20.0, 300);
        let bins = 1 + rng.next_below(49) as usize;
        let mut h = Histogram::new(0.0, 10.0, bins);
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.total() as usize, values.len());
        let binned: u64 = (0..h.bin_count()).map(|i| h.bin(i)).sum();
        assert_eq!(binned + h.underflow() + h.overflow(), h.total());
    }
}

/// Exponential samples are non-negative and finite for any mean.
#[test]
fn exponential_samples_are_sane() {
    let mut rng = rng_for("exponential_sane");
    for _ in 0..CASES {
        let mean = f64_in(&mut rng, 1e-6, 1e3);
        let exp = Exponential::with_mean(mean);
        let mut sample_rng = StreamRng::from_seed(rng.next_u64());
        for _ in 0..100 {
            let x = exp.sample(&mut sample_rng);
            assert!(x.is_finite() && x >= 0.0);
        }
    }
}

/// The engine's clock is monotone for any schedule, and every event
/// scheduled is delivered.
#[test]
fn engine_clock_is_monotone() {
    struct World {
        seen: Vec<f64>,
    }
    impl Handler<usize> for World {
        fn handle(&mut self, engine: &mut Engine<usize>, _e: usize) {
            self.seen.push(engine.now().as_secs());
        }
    }
    let mut rng = rng_for("engine_monotone");
    for _ in 0..CASES {
        let times = vec_in(&mut rng, 0.0, 1e3, 100);
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_secs(t), i);
        }
        let mut world = World { seen: Vec::new() };
        engine.run(&mut world);
        assert_eq!(world.seen.len(), times.len());
        for w in world.seen.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}

/// Durations: min/max/add behave like their f64 counterparts.
#[test]
fn duration_algebra() {
    let mut rng = rng_for("duration_algebra");
    for _ in 0..CASES {
        let a = f64_in(&mut rng, 0.0, 1e6);
        let b = f64_in(&mut rng, 0.0, 1e6);
        let da = SimDuration::from_secs(a);
        let db = SimDuration::from_secs(b);
        assert_eq!(da.min(db).as_secs(), a.min(b));
        assert_eq!(da.max(db).as_secs(), a.max(b));
        assert!(((da + db).as_secs() - (a + b)).abs() < 1e-9);
        let t = SimTime::from_secs(a) + db;
        assert!((t.as_secs() - (a + b)).abs() < 1e-9);
    }
}

/// Stream derivation: the same name yields identical streams, an index
/// always changes them.
#[test]
fn stream_derivation_is_stable() {
    let mut rng = rng_for("stream_derivation");
    let names = [
        "a",
        "rng",
        "monitor",
        "adjudicator",
        "x1y2z3",
        "longstreamname",
    ];
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let name = names[rng.next_below(names.len() as u64) as usize];
        let master = MasterSeed::new(seed);
        let a: Vec<u64> = {
            let mut s = master.stream(name);
            (0..4).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = master.stream(name);
            (0..4).map(|_| s.next_u64()).collect()
        };
        assert_eq!(&a, &b);
        let mut indexed = master.indexed_stream(name, 1);
        let c: Vec<u64> = (0..4).map(|_| indexed.next_u64()).collect();
        assert_ne!(a, c);
    }
}
