//! Log-scale-bucket quantile sketches with exact relative-error bounds.
//!
//! [`QuantileSketch`] is an HDR/DDSketch-style histogram over
//! geometrically spaced buckets: bucket `i` covers
//! `(min_value·γ^(i-1), min_value·γ^i]` with `γ = (1+α)/(1−α)`, so the
//! mid-bucket estimate `2·lo·γ/(1+γ)` is within relative error `α` of
//! **any** value in the bucket. Because a rank query walks cumulative
//! counts in value order, the reported quantile lands in the bucket
//! that contains the exact order statistic — the `α` bound is a
//! guarantee, not a heuristic.
//!
//! The bucket array is sized once at construction and every
//! [`observe`](QuantileSketch::observe) is an array increment, so the
//! sketch is allocation-free on the per-demand hot path and two
//! sketches with the same configuration [`merge`](QuantileSketch::merge)
//! by adding counts — exactly what deterministic shard folding
//! (`MetricsRegistry::merge` across `--jobs N` replication shards)
//! needs.
//!
//! # The bucket index
//!
//! A value `v` above `min_value` belongs to bucket
//! `⌈ln(v / min_value) / ln γ⌉ − 1`, clamped to the last bucket. The
//! sketch never evaluates that formula per value; it looks the bucket
//! up in a table built from the formula itself, and the lookup returns
//! the formula's bucket bit for bit:
//!
//! * For every bucket `k ≥ 1` construction finds the threshold `t_k`,
//!   the smallest `f64` the formula maps to bucket `k` or above.
//!   Positive `f64` bit patterns order like the values they encode, so
//!   the search runs on bit patterns: it starts at the analytic guess
//!   `min_value·γ^k`, gallops outwards and bisects. A division by a
//!   positive constant, `ceil` and the clamp are monotone, so wherever
//!   the platform `ln` is monotone the formula's bucket of `v` is the
//!   number of thresholds at or below `v`, which is what the lookup
//!   counts. Construction checks `formula(prev(t_k)) < k ≤ formula(t_k)`
//!   at every threshold, and the unit tests compare lookup and formula
//!   on millions of values and at every threshold ±4 ulps.
//! * A slot table indexed by the value's exponent and top mantissa bits
//!   holds the bucket of each slot's smallest value. Slots are sized
//!   from `γ` so that one holds at most one threshold, and a compare
//!   with the next threshold finishes the lookup. For very fine sketches
//!   (`α` below about 0.002) the table is capped at 256 slots per power
//!   of two, and the lookup walks the few thresholds a slot then holds.
//!
//! The table is a pure function of `α`, `min_value` and the bucket
//! count, so sketches of one configuration share it read-only through
//! an `Arc`. The default configuration's table is built once per
//! process; any other configuration builds its own with each sketch.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// The quantiles rendered by the registry's summary output, with their
/// Prometheus `quantile` label values.
pub const SUMMARY_QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// Default relative-error bound (1%).
pub const DEFAULT_ALPHA: f64 = 0.01;

/// Default smallest distinguishable value, in seconds (1 µs). Values at
/// or below this collapse into the underflow bucket.
pub const DEFAULT_MIN_VALUE: f64 = 1e-6;

/// Default largest distinguishable value, in seconds. Values above this
/// clamp into the top bucket.
pub const DEFAULT_MAX_VALUE: f64 = 1e4;

/// Most mantissa bits a slot index takes: at most 256 slots per power
/// of two.
const MAX_SLOT_BITS: u32 = 8;

/// The bucket formula the index tabulates: the 0-based bucket of a
/// `value` above `min_value`.
fn formula_bucket(value: f64, min_value: f64, ln_gamma: f64, buckets: usize) -> usize {
    let idx = ((value / min_value).ln() / ln_gamma).ceil() as usize;
    idx.saturating_sub(1).min(buckets - 1)
}

/// The exact table form of [`formula_bucket`] for one configuration
/// (see the module docs).
struct BucketIndex {
    /// `thresholds[k]` for `k ≥ 1` is the smallest value in bucket `k`
    /// or above; `thresholds[0]` is the smallest value above
    /// `min_value`, and a final `+∞` ends the walk at the last bucket.
    thresholds: Vec<f64>,
    /// The bucket of each slot's smallest value above `min_value`.
    slots: Vec<u32>,
    /// A value's slot is `(bits >> shift) − base`.
    shift: u32,
    base: u64,
}

impl BucketIndex {
    fn build(min_value: f64, gamma: f64, ln_gamma: f64, buckets: usize) -> BucketIndex {
        let formula =
            |bits: u64| formula_bucket(f64::from_bits(bits), min_value, ln_gamma, buckets);
        let mut thresholds = Vec::with_capacity(buckets + 1);
        thresholds.push(f64::from_bits(min_value.to_bits() + 1));
        // Patterns up to `below` lie in buckets below `k`. The search
        // never evaluates its bounds, and `min_value` itself underflows.
        let mut below = min_value.to_bits();
        for k in 1..buckets {
            let guess = (min_value * (k as f64 * ln_gamma).exp()).min(f64::MAX);
            let t = first_in_bucket(k, guess.to_bits(), below, f64::MAX.to_bits(), formula);
            assert!(
                formula(t - 1) < k && k <= formula(t),
                "bucket {k} threshold {} is not the formula's",
                f64::from_bits(t)
            );
            thresholds.push(f64::from_bits(t));
            below = t - 1;
        }
        thresholds.push(f64::INFINITY);

        let shift = 52 - slot_bits(gamma);
        let base = min_value.to_bits() >> shift;
        let top = thresholds[buckets - 1].to_bits() >> shift;
        let mut k = 0;
        let slots = (base..=top)
            .map(|slot| {
                let first = f64::from_bits(slot << shift);
                while k + 1 < buckets && thresholds[k + 1] <= first {
                    k += 1;
                }
                k as u32
            })
            .collect();
        BucketIndex {
            thresholds,
            slots,
            shift,
            base,
        }
    }

    /// The formula's bucket of a finite `value` above `min_value`.
    fn bucket(&self, value: f64) -> usize {
        debug_assert!(value.is_finite());
        let slot = ((value.to_bits() >> self.shift) - self.base) as usize;
        let mut k = match self.slots.get(slot) {
            Some(&k) => k as usize,
            None => self.thresholds.len() - 2,
        };
        while value >= self.thresholds[k + 1] {
            k += 1;
        }
        k
    }
}

/// Indexes compare equal and print as their name: an index is a
/// function of the α, `min_value` and bucket count of the sketch that
/// holds it, which the sketch compares and prints itself.
impl PartialEq for BucketIndex {
    fn eq(&self, _: &BucketIndex) -> bool {
        true
    }
}

impl fmt::Debug for BucketIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BucketIndex")
    }
}

/// Mantissa bits per slot: the fewest that keep a slot's relative
/// width `2^-bits` below `γ − 1`, so a slot holds at most one
/// threshold, capped at [`MAX_SLOT_BITS`].
fn slot_bits(gamma: f64) -> u32 {
    let bits = (1.0 / (gamma - 1.0)).log2().floor() + 1.0;
    bits.clamp(0.0, f64::from(MAX_SLOT_BITS)) as u32
}

/// The smallest bit pattern in `(lo, hi]` that `bucket_of` maps to
/// bucket `k` or above, given that `lo` maps below `k` and `hi` to `k`
/// or above (neither is evaluated): gallop out from `guess`, then
/// bisect.
fn first_in_bucket(
    k: usize,
    guess: u64,
    mut lo: u64,
    mut hi: u64,
    bucket_of: impl Fn(u64) -> usize,
) -> u64 {
    let guess = guess.clamp(lo + 1, hi);
    let mut step = 1;
    if bucket_of(guess) >= k {
        hi = guess;
        while hi - lo > 1 {
            let probe = hi.saturating_sub(step).max(lo + 1);
            if bucket_of(probe) < k {
                lo = probe;
                break;
            }
            hi = probe;
            step *= 2;
        }
    } else {
        lo = guess;
        while hi - lo > 1 {
            let probe = lo.saturating_add(step).min(hi - 1);
            if bucket_of(probe) >= k {
                hi = probe;
                break;
            }
            lo = probe;
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if bucket_of(mid) >= k {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// A mergeable log-bucket quantile sketch with relative error ≤ `alpha`.
///
/// Each observation's bucket comes from the configuration's shared
/// bucket index, an exact table of the bucket formula (see the module
/// docs for how it is built and why it is exact).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Configured relative-error bound.
    alpha: f64,
    /// Bucket growth factor `(1+α)/(1−α)`.
    gamma: f64,
    /// Lower edge of bucket 1; values ≤ this land in the underflow
    /// bucket and are reported as `min_seen`.
    min_value: f64,
    /// This configuration's shared bucket index.
    index: Arc<BucketIndex>,
    /// Counts for buckets `1..=counts.len()`.
    counts: Vec<u64>,
    /// Observations at or below `min_value`.
    underflow: u64,
    count: u64,
    sum: f64,
    min_seen: f64,
    max_seen: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_ALPHA)
    }
}

impl QuantileSketch {
    /// A sketch with relative error `alpha` over the default value
    /// range [`DEFAULT_MIN_VALUE`, `DEFAULT_MAX_VALUE`].
    pub fn new(alpha: f64) -> Self {
        Self::with_range(alpha, DEFAULT_MIN_VALUE, DEFAULT_MAX_VALUE)
    }

    /// A sketch with relative error `alpha` distinguishing values in
    /// `(min_value, max_value]`. Values outside clamp to the edge
    /// buckets (their reported estimates stay within `[min, max]` of
    /// the data actually seen).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1` and `0 < min_value < max_value`,
    /// and when the configuration needs `u32::MAX` buckets or more.
    pub fn with_range(alpha: f64, min_value: f64, max_value: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0, 1), got {alpha}"
        );
        assert!(
            min_value > 0.0 && max_value > min_value,
            "need 0 < min_value < max_value"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        let ln_gamma = gamma.ln();
        let span = ((max_value / min_value).ln() / ln_gamma).ceil();
        assert!(
            span < f64::from(u32::MAX - 1),
            "alpha {alpha} over ({min_value:e}, {max_value:e}] needs too many buckets"
        );
        let buckets = span as usize + 1;
        let build = || Arc::new(BucketIndex::build(min_value, gamma, ln_gamma, buckets));
        let index = if (alpha, min_value, max_value)
            == (DEFAULT_ALPHA, DEFAULT_MIN_VALUE, DEFAULT_MAX_VALUE)
        {
            static DEFAULT_INDEX: OnceLock<Arc<BucketIndex>> = OnceLock::new();
            Arc::clone(DEFAULT_INDEX.get_or_init(build))
        } else {
            build()
        };
        Self {
            alpha,
            gamma,
            min_value,
            index,
            counts: vec![0; buckets],
            underflow: 0,
            count: 0,
            sum: 0.0,
            min_seen: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// The configured relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observed value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min_seen)
    }

    /// Largest observed value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max_seen)
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Records one observation. Allocation-free: one table lookup and
    /// one array increment.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        if value < self.min_seen {
            self.min_seen = value;
        }
        if value > self.max_seen {
            self.max_seen = value;
        }
        self.add_at(value, 1);
    }

    /// Adds `n` to the count of the bucket holding the finite `value`
    /// (the underflow bucket at or below `min_value`).
    fn add_at(&mut self, value: f64, n: u64) {
        if value <= self.min_value {
            self.underflow += n;
        } else {
            self.counts[self.index.bucket(value)] += n;
        }
    }

    /// The estimate reported for bucket `idx` (0-based): the point that
    /// minimises worst-case relative error over the bucket's range,
    /// clamped to the observed `[min, max]`.
    fn bucket_estimate(&self, idx: usize) -> f64 {
        let lo = self.min_value * self.gamma.powi(idx as i32);
        let est = 2.0 * lo * self.gamma / (1.0 + self.gamma);
        est.clamp(self.min_seen, self.max_seen)
    }

    /// The `q`-quantile estimate (`q` in `[0, 1]`), or `None` when the
    /// sketch is empty. Uses the nearest-rank definition
    /// `rank = max(1, ⌈q·n⌉)`; the estimate is within relative error
    /// [`alpha`](Self::alpha) of the exact order statistic (exact for
    /// values at or below `min_value`, where `min_seen` is returned).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = self.underflow;
        if cumulative >= rank {
            return Some(self.min_seen);
        }
        for (idx, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return Some(self.bucket_estimate(idx));
            }
        }
        Some(self.max_seen)
    }

    /// The median estimate (`NaN` when empty).
    pub fn p50(&self) -> f64 {
        self.quantile(0.5).unwrap_or(f64::NAN)
    }

    /// The 90th-percentile estimate (`NaN` when empty).
    pub fn p90(&self) -> f64 {
        self.quantile(0.9).unwrap_or(f64::NAN)
    }

    /// The 99th-percentile estimate (`NaN` when empty).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99).unwrap_or(f64::NAN)
    }

    /// The 99.9th-percentile estimate (`NaN` when empty).
    pub fn p999(&self) -> f64 {
        self.quantile(0.999).unwrap_or(f64::NAN)
    }

    /// Folds another sketch into this one. Same configuration (the only
    /// case deterministic shard folding produces): bucket counts add,
    /// so merge order cannot change any rank query. Different
    /// configuration: the other sketch's mass is re-observed at its
    /// bucket estimates, and its underflow mass at its minimum, like
    /// `Histogram::merge` with foreign bounds.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if self.alpha == other.alpha
            && self.min_value == other.min_value
            && self.counts.len() == other.counts.len()
        {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.underflow += other.underflow;
        } else {
            if other.underflow > 0 {
                self.add_at(other.min_seen.max(0.0), other.underflow);
            }
            for (idx, &c) in other.counts.iter().enumerate() {
                if c > 0 {
                    self.add_at(other.bucket_estimate(idx), c);
                }
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min_seen < self.min_seen {
            self.min_seen = other.min_seen;
        }
        if other.max_seen > self.max_seen {
            self.max_seen = other.max_seen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert!(s.p99().is_nan());
        assert_eq!(s.min(), None);
    }

    #[test]
    fn single_value_is_reported_exactly_at_every_quantile() {
        let mut s = QuantileSketch::default();
        s.observe(0.42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = s.quantile(q).unwrap();
            assert!((est - 0.42).abs() / 0.42 <= s.alpha(), "q={q} est={est}");
        }
        assert_eq!(s.min(), Some(0.42));
        assert_eq!(s.max(), Some(0.42));
    }

    #[test]
    fn estimates_stay_within_alpha_of_exact_order_statistics() {
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x9E37_79B9u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut s = QuantileSketch::default();
        let mut values = Vec::new();
        for _ in 0..5000 {
            // Log-uniform over ~[1e-3, 1e1] seconds.
            let v = 10f64.powf(next() * 4.0 - 3.0);
            s.observe(v);
            values.push(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_quantile(&values, q);
            let est = s.quantile(q).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= s.alpha() * 1.0001,
                "q={q} exact={exact} est={est} rel={rel}"
            );
        }
    }

    #[test]
    fn underflow_values_report_the_observed_minimum() {
        let mut s = QuantileSketch::default();
        s.observe(0.0);
        s.observe(0.0);
        s.observe(1.0);
        assert_eq!(s.quantile(0.5), Some(0.0));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn overflow_values_clamp_to_the_top_bucket() {
        let mut s = QuantileSketch::with_range(0.01, 1e-3, 1.0);
        s.observe(50.0);
        let est = s.quantile(1.0).unwrap();
        assert_eq!(est, 50.0, "clamped to max_seen");
    }

    #[test]
    fn merge_of_same_config_matches_single_sketch() {
        let mut merged = QuantileSketch::default();
        let mut single = QuantileSketch::default();
        let mut shard = QuantileSketch::default();
        for i in 0..100 {
            let v = 0.01 * (i + 1) as f64;
            single.observe(v);
            if i % 2 == 0 {
                merged.observe(v);
            } else {
                shard.observe(v);
            }
        }
        merged.merge(&shard);
        assert_eq!(merged, single);
    }

    #[test]
    fn merge_order_does_not_matter_for_same_config() {
        let mut a = QuantileSketch::default();
        let mut b = QuantileSketch::default();
        for i in 0..50 {
            a.observe(0.1 + i as f64 * 0.01);
            b.observe(1.0 + i as f64 * 0.02);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_with_foreign_config_preserves_count_and_sum() {
        let mut a = QuantileSketch::new(0.01);
        let mut b = QuantileSketch::new(0.05);
        a.observe(0.5);
        b.observe(2.0);
        b.observe(0.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.sum() - 2.5).abs() < 1e-12);
        assert_eq!(a.max(), Some(2.0));
        assert_eq!(a.min(), Some(0.0));
    }

    /// Merging a foreign sketch adds its underflow mass to one bucket in
    /// one step, and the counts equal re-observing each value one by
    /// one.
    #[test]
    fn foreign_merge_adds_underflow_mass_at_once() {
        const N: u64 = 1_000_000;
        for (at, into_underflow) in [(5e-4, false), (5e-7, true)] {
            let mut foreign = QuantileSketch::with_range(0.05, 1e-3, 10.0);
            for _ in 0..N {
                foreign.observe(at);
            }
            foreign.observe(2.0);
            let mut merged = QuantileSketch::default();
            merged.merge(&foreign);

            let mut one_by_one = QuantileSketch::default();
            for _ in 0..N {
                one_by_one.observe(at);
            }
            one_by_one.observe(foreign.bucket_estimate(foreign.index.bucket(2.0)));
            assert_eq!(merged.counts, one_by_one.counts);
            assert_eq!(merged.underflow, one_by_one.underflow);
            assert_eq!(merged.underflow, if into_underflow { N } else { 0 });
            assert_eq!(merged.count(), N + 1);
        }
    }

    /// The four configurations the exactness tests cover: the default,
    /// a coarser α, a narrower range, and a fine sketch over a wide
    /// range whose slots span several buckets.
    const EXACTNESS_CONFIGS: [(f64, f64, f64); 4] = [
        (DEFAULT_ALPHA, DEFAULT_MIN_VALUE, DEFAULT_MAX_VALUE),
        (0.05, DEFAULT_MIN_VALUE, DEFAULT_MAX_VALUE),
        (DEFAULT_ALPHA, 1e-3, 1.0),
        (0.001, 1e-9, 1e6),
    ];

    /// The bucket `observe` counts `value` in (`None`: underflow).
    fn lookup(s: &QuantileSketch, value: f64) -> Option<usize> {
        (value > s.min_value).then(|| s.index.bucket(value))
    }

    /// The bucket the formula assigns to `value` (`None`: underflow).
    fn formula(s: &QuantileSketch, value: f64) -> Option<usize> {
        (value > s.min_value)
            .then(|| formula_bucket(value, s.min_value, s.gamma.ln(), s.counts.len()))
    }

    /// A SplitMix64 stream of uniform values in `[0, 1)`.
    fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Lookup equals formula on 32 seeds × 1M log-uniform values from
    /// a quarter of `min_value` to four times `max_value` (values at or
    /// below `min_value` underflow before either is consulted).
    fn assert_index_matches_formula_on_random_values(config: usize) {
        let (alpha, min_value, max_value) = EXACTNESS_CONFIGS[config];
        let s = QuantileSketch::with_range(alpha, min_value, max_value);
        let (ln_gamma, buckets) = (s.gamma.ln(), s.counts.len());
        let (lo, hi) = ((min_value / 4.0).ln(), (max_value * 4.0).ln());
        for seed in 0..32 {
            let mut unit = unit_stream(seed);
            for _ in 0..1_000_000 {
                let v = (lo + unit() * (hi - lo)).exp();
                if v > min_value {
                    let expected = formula_bucket(v, min_value, ln_gamma, buckets);
                    assert_eq!(s.index.bucket(v), expected, "{v:e} (seed {seed})");
                }
            }
        }
    }

    #[test]
    fn index_matches_formula_on_random_values_default() {
        assert_index_matches_formula_on_random_values(0);
    }

    #[test]
    fn index_matches_formula_on_random_values_coarse() {
        assert_index_matches_formula_on_random_values(1);
    }

    #[test]
    fn index_matches_formula_on_random_values_narrow() {
        assert_index_matches_formula_on_random_values(2);
    }

    #[test]
    fn index_matches_formula_on_random_values_fine() {
        assert_index_matches_formula_on_random_values(3);
    }

    /// Lookup equals formula at every threshold ±4 ulps, each threshold
    /// is the first value of its bucket, and the slots hold at most one
    /// threshold except in the capped fine configuration.
    #[test]
    fn index_matches_formula_at_every_threshold() {
        for (config, &(alpha, min_value, max_value)) in EXACTNESS_CONFIGS.iter().enumerate() {
            let s = QuantileSketch::with_range(alpha, min_value, max_value);
            let thresholds = &s.index.thresholds;
            assert_eq!(thresholds.len(), s.counts.len() + 1);
            for (k, t) in thresholds.iter().enumerate().take(s.counts.len()).skip(1) {
                let bits = t.to_bits();
                assert_eq!(formula(&s, f64::from_bits(bits - 1)), Some(k - 1));
                assert_eq!(formula(&s, *t), Some(k));
                for v in (bits - 4..=bits + 4).map(f64::from_bits) {
                    assert_eq!(lookup(&s, v), formula(&s, v), "{v:e} near bucket {k}");
                }
            }
            let widest = s.index.slots.windows(2).map(|w| w[1] - w[0]).max();
            if config == 3 {
                assert!(widest > Some(1), "fine slots span several buckets");
            } else {
                assert_eq!(widest, Some(1), "config {config}: one threshold per slot");
            }
        }
    }

    #[test]
    fn default_configuration_shares_one_index() {
        let a = QuantileSketch::default();
        let b = QuantileSketch::new(DEFAULT_ALPHA);
        assert!(Arc::ptr_eq(&a.index, &b.index));
        let c = QuantileSketch::new(0.05);
        assert!(!Arc::ptr_eq(&a.index, &c.index));
    }

    #[test]
    #[should_panic(expected = "too many buckets")]
    fn configurations_beyond_u32_buckets_are_rejected() {
        let _ = QuantileSketch::with_range(1e-12, 1e-6, 1e4);
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut s = QuantileSketch::default();
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        assert!(s.is_empty());
    }
}
