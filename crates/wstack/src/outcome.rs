//! The paper's response taxonomy (Section 2.1).
//!
//! On each demand a Web Service release may return a **correct** response,
//! an **evident failure** (an exception, a denial of service, or no
//! response within a timeout — detectable by generic means), or a
//! **non-evident failure** (a plausible but wrong answer — detectable only
//! through application-level redundancy such as running releases
//! back-to-back).

use std::fmt;

use wsu_simcore::rng::{weighted_index, StreamRng};

/// How a single release responded to one demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseClass {
    /// The response satisfied the specification ("CR" in the paper's
    /// tables).
    Correct,
    /// A failure that needs no special means to be detected — an
    /// exception or an obviously malformed response ("ER").
    EvidentFailure,
    /// A plausible but incorrect response, detectable only via redundancy
    /// ("NER").
    NonEvidentFailure,
}

impl ResponseClass {
    /// All classes, in the paper's table order (CR, ER, NER).
    pub const ALL: [ResponseClass; 3] = [
        ResponseClass::Correct,
        ResponseClass::EvidentFailure,
        ResponseClass::NonEvidentFailure,
    ];

    /// Returns `true` for either failure class.
    pub fn is_failure(self) -> bool {
        self != ResponseClass::Correct
    }

    /// Returns `true` if the response is *valid* in the adjudicator's
    /// sense: not evidently incorrect (correct or non-evident failure).
    pub fn is_valid(self) -> bool {
        self != ResponseClass::EvidentFailure
    }

    /// Stable index into per-class tables (CR=0, ER=1, NER=2).
    pub fn index(self) -> usize {
        match self {
            ResponseClass::Correct => 0,
            ResponseClass::EvidentFailure => 1,
            ResponseClass::NonEvidentFailure => 2,
        }
    }

    /// Inverse of [`index`](ResponseClass::index).
    ///
    /// # Panics
    ///
    /// Panics if `i > 2`.
    pub fn from_index(i: usize) -> ResponseClass {
        ResponseClass::ALL[i]
    }

    /// The paper's abbreviation for the class.
    pub fn abbrev(self) -> &'static str {
        match self {
            ResponseClass::Correct => "CR",
            ResponseClass::EvidentFailure => "ER",
            ResponseClass::NonEvidentFailure => "NER",
        }
    }
}

impl fmt::Display for ResponseClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Marginal probabilities of the three response classes for one release
/// (one row of the paper's Table 3).
///
/// # Example
///
/// ```
/// use wsu_wstack::outcome::OutcomeProfile;
///
/// // Release 1 of every run in Table 3.
/// let p = OutcomeProfile::new(0.70, 0.15, 0.15);
/// assert_eq!(p.correct(), 0.70);
/// assert!((p.failure_probability() - 0.30).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomeProfile {
    correct: f64,
    evident: f64,
    non_evident: f64,
}

impl OutcomeProfile {
    /// Creates a profile from the three class probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or they do not sum to
    /// 1 within `1e-9`.
    pub fn new(correct: f64, evident: f64, non_evident: f64) -> OutcomeProfile {
        for p in [correct, evident, non_evident] {
            assert!(
                (0.0..=1.0).contains(&p) && p.is_finite(),
                "probability {p} not in [0, 1]"
            );
        }
        let total = correct + evident + non_evident;
        assert!(
            (total - 1.0).abs() < 1e-9,
            "outcome probabilities must sum to 1, got {total}"
        );
        OutcomeProfile {
            correct,
            evident,
            non_evident,
        }
    }

    /// A profile that always responds correctly.
    pub fn always_correct() -> OutcomeProfile {
        OutcomeProfile::new(1.0, 0.0, 0.0)
    }

    /// Probability of a correct response.
    pub fn correct(self) -> f64 {
        self.correct
    }

    /// Probability of an evident failure.
    pub fn evident(self) -> f64 {
        self.evident
    }

    /// Probability of a non-evident failure.
    pub fn non_evident(self) -> f64 {
        self.non_evident
    }

    /// Probability of any failure.
    pub fn failure_probability(self) -> f64 {
        self.evident + self.non_evident
    }

    /// Probability of the given class.
    pub fn prob(self, class: ResponseClass) -> f64 {
        match class {
            ResponseClass::Correct => self.correct,
            ResponseClass::EvidentFailure => self.evident,
            ResponseClass::NonEvidentFailure => self.non_evident,
        }
    }

    /// The probabilities as a `[CR, ER, NER]` array.
    pub fn as_array(self) -> [f64; 3] {
        [self.correct, self.evident, self.non_evident]
    }

    /// Draws one response class: what [`StreamRng::pick_weighted`] draws
    /// from [`as_array`](OutcomeProfile::as_array), with the same single
    /// draw, but without re-checking what [`new`](OutcomeProfile::new)
    /// validated.
    pub fn sample(self, rng: &mut StreamRng) -> ResponseClass {
        let total = self.correct + self.evident + self.non_evident;
        ResponseClass::from_index(weighted_index(&self.as_array(), rng.next_f64() * total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(!ResponseClass::Correct.is_failure());
        assert!(ResponseClass::EvidentFailure.is_failure());
        assert!(ResponseClass::NonEvidentFailure.is_failure());
        assert!(ResponseClass::Correct.is_valid());
        assert!(!ResponseClass::EvidentFailure.is_valid());
        assert!(ResponseClass::NonEvidentFailure.is_valid());
    }

    #[test]
    fn index_round_trips() {
        for class in ResponseClass::ALL {
            assert_eq!(ResponseClass::from_index(class.index()), class);
        }
    }

    #[test]
    fn display_uses_paper_abbreviations() {
        assert_eq!(ResponseClass::Correct.to_string(), "CR");
        assert_eq!(ResponseClass::EvidentFailure.to_string(), "ER");
        assert_eq!(ResponseClass::NonEvidentFailure.to_string(), "NER");
    }

    #[test]
    fn profile_accessors() {
        let p = OutcomeProfile::new(0.6, 0.2, 0.2);
        assert_eq!(p.correct(), 0.6);
        assert_eq!(p.evident(), 0.2);
        assert_eq!(p.non_evident(), 0.2);
        assert!((p.failure_probability() - 0.4).abs() < 1e-12);
        assert_eq!(p.prob(ResponseClass::Correct), 0.6);
        assert_eq!(p.as_array(), [0.6, 0.2, 0.2]);
    }

    #[test]
    fn always_correct_profile() {
        let p = OutcomeProfile::always_correct();
        let mut rng = StreamRng::from_seed(1);
        for _ in 0..100 {
            assert_eq!(p.sample(&mut rng), ResponseClass::Correct);
        }
    }

    #[test]
    fn sampling_matches_marginals() {
        let p = OutcomeProfile::new(0.70, 0.15, 0.15);
        let mut rng = StreamRng::from_seed(2);
        let mut counts = [0u32; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[p.sample(&mut rng).index()] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.70).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.15).abs() < 0.005);
        assert!((counts[2] as f64 / n as f64 - 0.15).abs() < 0.005);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn profile_rejects_bad_sum() {
        let _ = OutcomeProfile::new(0.7, 0.2, 0.2);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn profile_rejects_negative() {
        let _ = OutcomeProfile::new(-0.1, 0.55, 0.55);
    }
}
