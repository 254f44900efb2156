//! Streaming statistics.
//!
//! The capacity study records each demand's response time in these
//! collectors, in O(1) per observation, using Welford's algorithm for
//! mean/variance.

use std::fmt;

/// Streaming mean/variance/min/max over `f64` observations.
///
/// # Example
///
/// ```
/// use wsu_simcore::stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), Some(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    /// `count` as an `f64`, exact below 2^53, so the mean update
    /// divides without converting the count.
    n: f64,
    mean: f64,
    m2: f64,
    /// Smallest observation; `+∞` while empty.
    min: f64,
    /// Largest observation; `−∞` while empty.
    max: f64,
    sum: f64,
}

impl Default for Summary {
    fn default() -> Summary {
        Summary {
            count: 0,
            n: 0.0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Summary {
        Summary::default()
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "cannot record non-finite value {x}");
        self.count += 1;
        self.n += 1.0;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of the observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample variance (n−1 denominator); 0 for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let (n1, n2) = (self.n, other.n);
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.mean += delta * n2 / total;
        self.count += other.count;
        self.n = total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean,
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

/// A fixed-width histogram over `[low, high)` with overflow/underflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `bins == 0`.
    pub fn new(low: f64, high: f64, bins: usize) -> Histogram {
        assert!(low < high, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            low,
            high,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.low {
            self.underflow += 1;
        } else if x >= self.high {
            self.overflow += 1;
        } else {
            let w = (self.high - self.low) / self.bins.len() as f64;
            let idx = ((x - self.low) / w) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    pub fn bin(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Number of bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1) from bin midpoints.
    ///
    /// Returns `None` if the histogram is empty or the quantile falls in
    /// the overflow region.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} not in [0, 1]");
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.low);
        }
        let w = (self.high - self.low) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.low + w * (i as f64 + 0.5));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mean_and_variance() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic data set is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn summary_merge_equals_combined_stream() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() + 2.0).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.record(1.0);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);
        let mut e = Summary::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn summary_rejects_nan() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn summary_display_nonempty() {
        let mut s = Summary::new();
        s.record(1.0);
        assert!(s.to_string().contains("n=1"));
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-1.0);
        h.record(0.5);
        h.record(9.99);
        h.record(10.0);
        h.record(25.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bin(0), 1);
        assert_eq!(h.bin(9), 1);
        assert_eq!(h.total(), 5);
        assert_eq!(h.bin_count(), 10);
    }

    #[test]
    fn histogram_quantile_is_monotone() {
        let mut h = Histogram::new(0.0, 1.0, 100);
        for i in 0..1000 {
            h.record(i as f64 / 1000.0);
        }
        let q10 = h.quantile(0.1).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q90 = h.quantile(0.9).unwrap();
        assert!(q10 < q50 && q50 < q90);
        assert!((q50 - 0.5).abs() < 0.02);
    }

    #[test]
    fn histogram_quantile_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), None);
    }
}
