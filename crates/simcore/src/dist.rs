//! Random variates used by the simulation model.
//!
//! The paper's event-driven model (Section 5.2) needs exponential execution
//! times; ablations swap in constant delays. Each distribution here is a
//! small value type that samples from a [`StreamRng`], so the
//! distribution parameters live with the model and the randomness stays
//! in named streams.

use crate::rng::StreamRng;
use crate::time::SimDuration;

/// Exponential distribution with a given mean (not rate).
///
/// The paper parameterises execution times by their means
/// (`T1Mean = 0.7 sec` etc.), so the constructor takes a mean.
///
/// # Example
///
/// ```
/// use wsu_simcore::dist::Exponential;
/// use wsu_simcore::rng::StreamRng;
///
/// let exp = Exponential::with_mean(0.7);
/// let mut rng = StreamRng::from_seed(1);
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn with_mean(mean: f64) -> Exponential {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        Exponential { mean }
    }

    /// Returns the mean of the distribution.
    pub fn mean(self) -> f64 {
        self.mean
    }

    /// Draws one variate.
    pub fn sample(self, rng: &mut StreamRng) -> f64 {
        // Inverse CDF; 1 - U avoids ln(0) since U ∈ [0, 1).
        -self.mean * (1.0 - rng.next_f64()).ln()
    }

    /// Draws one variate as a [`SimDuration`].
    pub fn sample_duration(self, rng: &mut StreamRng) -> SimDuration {
        SimDuration::from_secs(self.sample(rng))
    }
}

/// Deterministic (degenerate) distribution — always returns the same value.
///
/// Useful for ablations that replace a random component with a constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degenerate {
    value: f64,
}

impl Degenerate {
    /// Creates a degenerate distribution at `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite or is negative.
    pub fn at(value: f64) -> Degenerate {
        assert!(
            value.is_finite() && value >= 0.0,
            "degenerate value must be finite and non-negative"
        );
        Degenerate { value }
    }

    /// Returns the constant value.
    pub fn sample(self, _rng: &mut StreamRng) -> f64 {
        self.value
    }
}

/// A positive-valued sampling model: either exponential or a constant.
///
/// The execution-time model of eq. (7) uses exponential components, but
/// ablation experiments swap in constants; this enum lets model code hold
/// either without generics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Exponentially distributed delay with the given mean.
    Exponential(Exponential),
    /// Constant delay.
    Constant(Degenerate),
}

impl DelayModel {
    /// Exponential delay with the given mean seconds.
    pub fn exponential(mean_secs: f64) -> DelayModel {
        DelayModel::Exponential(Exponential::with_mean(mean_secs))
    }

    /// Constant delay of the given seconds.
    pub fn constant(secs: f64) -> DelayModel {
        DelayModel::Constant(Degenerate::at(secs))
    }

    /// Mean of the delay in seconds.
    pub fn mean(self) -> f64 {
        match self {
            DelayModel::Exponential(e) => e.mean(),
            DelayModel::Constant(d) => d.sample(&mut StreamRng::from_seed(0)),
        }
    }

    /// Draws one delay.
    pub fn sample(self, rng: &mut StreamRng) -> SimDuration {
        let secs = match self {
            DelayModel::Exponential(e) => e.sample(rng),
            DelayModel::Constant(d) => d.sample(rng),
        };
        SimDuration::from_secs(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_converges() {
        let exp = Exponential::with_mean(0.7);
        let mut rng = StreamRng::from_seed(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.7).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let exp = Exponential::with_mean(1.0);
        let mut rng = StreamRng::from_seed(12);
        for _ in 0..10_000 {
            assert!(exp.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn exponential_tail_probability() {
        // P(X > mean) = e^{-1} ≈ 0.3679 for any exponential.
        let exp = Exponential::with_mean(2.0);
        let mut rng = StreamRng::from_seed(13);
        let n = 100_000;
        let tail = (0..n).filter(|_| exp.sample(&mut rng) > 2.0).count();
        assert!((tail as f64 / n as f64 - (-1.0f64).exp()).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::with_mean(0.0);
    }

    #[test]
    fn degenerate_returns_constant() {
        let d = Degenerate::at(0.1);
        let mut rng = StreamRng::from_seed(15);
        assert_eq!(d.sample(&mut rng), 0.1);
    }

    #[test]
    fn delay_model_means() {
        assert_eq!(DelayModel::exponential(0.7).mean(), 0.7);
        assert_eq!(DelayModel::constant(0.1).mean(), 0.1);
    }

    #[test]
    fn delay_model_constant_sampling() {
        let mut rng = StreamRng::from_seed(16);
        let d = DelayModel::constant(0.25).sample(&mut rng);
        assert_eq!(d.as_secs(), 0.25);
    }
}
