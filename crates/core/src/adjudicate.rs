//! Response adjudication (paper Section 5.2.1).
//!
//! After the middleware has collected the responses that arrived within
//! the timeout, the adjudicator produces the single response returned to
//! the consumer, following the paper's rules:
//!
//! 1. if **all** collected responses are evidently incorrect, the
//!    middleware raises an exception (the adjudicated response is itself
//!    evidently incorrect);
//! 2. if all releases returned the **same** response (correct or
//!    non-evidently incorrect), that response is returned;
//! 3. if **all collected responses are valid** (none evidently
//!    incorrect) but differ, a [`SelectionPolicy`] picks one — the paper
//!    selects **at random**, so a correct response may lose to a
//!    non-evident failure;
//! 4. if a **single valid** response was collected, it is returned (it
//!    may be non-evidently incorrect);
//! 5. if **no** response was collected, the middleware reports
//!    "Web Service unavailable".
//!
//! One core applies the rules wherever the responses are held: in a
//! [`CollectedResponse`] slice, or in place in the middleware's
//! per-release observations. It reads them in arrival order (earlier
//! execution time first) without copying or sorting them: one pass
//! counts them and finds the earliest valid one, and a rule-3 pick ranks
//! a response by counting the responses that arrived before it.

use wsu_simcore::rng::StreamRng;
use wsu_simcore::time::SimDuration;
use wsu_wstack::outcome::ResponseClass;

use crate::release::ReleaseId;

/// One response collected from a release within the timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectedResponse {
    /// Which release produced it.
    pub release: ReleaseId,
    /// Ground-truth class of the response (used for *scoring*; the
    /// adjudicator itself may only distinguish evident failures).
    pub class: ResponseClass,
    /// The release's execution time.
    pub exec_time: SimDuration,
}

/// The adjudicated outcome presented to the consumer of the WS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemVerdict {
    /// A response was returned; its ground-truth class is recorded.
    Response(ResponseClass),
    /// No response was collected within the timeout.
    Unavailable,
}

impl SystemVerdict {
    /// Ground-truth class of the returned response, if any.
    pub fn class(self) -> Option<ResponseClass> {
        match self {
            SystemVerdict::Response(c) => Some(c),
            SystemVerdict::Unavailable => None,
        }
    }

    /// Returns `true` if the consumer received a correct response.
    pub fn is_correct(self) -> bool {
        self.class() == Some(ResponseClass::Correct)
    }

    /// A short label for traces and metrics, matching the paper's table
    /// headings: `CR`, `ER`, `NER`, or `NRDT` for unavailability.
    pub fn label(self) -> &'static str {
        match self {
            SystemVerdict::Response(class) => class.abbrev(),
            SystemVerdict::Unavailable => "NRDT",
        }
    }
}

/// The result of adjudication: the verdict plus which release's response
/// was forwarded (when one was).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adjudication {
    /// The verdict presented to the consumer.
    pub verdict: SystemVerdict,
    /// The release whose response was forwarded, if a specific one was.
    pub source: Option<ReleaseId>,
}

/// How to pick among several *valid but differing* responses (rule 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionPolicy {
    /// Pick uniformly at random — the paper's middleware.
    Random,
    /// Pick the response that arrived first.
    Fastest,
    /// Pick the class held by the majority of valid responses, breaking
    /// ties at random among the majority classes; with two releases this
    /// behaves like `Random` unless responses agree.
    Majority,
}

/// The adjudicator: rules 1–5 parameterised by a selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adjudicator {
    policy: SelectionPolicy,
}

impl Adjudicator {
    /// Creates an adjudicator with the given selection policy.
    pub fn new(policy: SelectionPolicy) -> Adjudicator {
        Adjudicator { policy }
    }

    /// The paper's adjudicator: random selection among valid responses.
    pub fn paper() -> Adjudicator {
        Adjudicator::new(SelectionPolicy::Random)
    }

    /// The selection policy.
    pub fn policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// Adjudicates the collected responses. They arrived in order of
    /// execution time; equal times arrived in slice order.
    pub fn adjudicate(&self, collected: &[CollectedResponse], rng: &mut StreamRng) -> Adjudication {
        let arrival = |i: usize| {
            let r = &collected[i];
            Some(Arrival {
                key: (r.exec_time, i),
                class: r.class,
                release: r.release,
            })
        };
        self.adjudicate_arrivals(collected.len(), arrival, rng).0
    }

    /// The adjudication core. `arrival(i)` for `i < n` is the `i`-th
    /// held response, or `None` if it was not collected. Returns the
    /// adjudication and the number of responses collected.
    pub(crate) fn adjudicate_arrivals(
        &self,
        n: usize,
        arrival: impl Fn(usize) -> Option<Arrival> + Copy,
        rng: &mut StreamRng,
    ) -> (Adjudication, usize) {
        let tally = Tally::of(n, arrival);
        let chosen = match tally.first_valid {
            // Rule 5: nothing collected.
            None if tally.responders == 0 => {
                return (
                    Adjudication {
                        verdict: SystemVerdict::Unavailable,
                        source: None,
                    },
                    0,
                );
            }
            // Rule 1: all evidently incorrect -> exception.
            None => {
                return (
                    Adjudication {
                        verdict: SystemVerdict::Response(ResponseClass::EvidentFailure),
                        source: None,
                    },
                    tally.responders,
                );
            }
            // Rules 4 and 2: a single valid response, or valid responses
            // that all agree. Correct responses are identical by
            // definition; coincident non-evident failures are
            // conservatively assumed identical (the paper's back-to-back
            // assumption). Attributed to the earliest of them.
            Some(first) if tally.counts[first.class.index()] == tally.valid => first,
            // Rule 3: several valid, differing responses.
            Some(first) => match self.policy {
                SelectionPolicy::Random => {
                    let idx = rng.next_below(tally.valid as u64) as usize;
                    nth_arrival(n, arrival, |a| a.class.is_valid(), idx)
                }
                SelectionPolicy::Fastest => first,
                SelectionPolicy::Majority => {
                    let counts = tally.counts;
                    let best = *counts.iter().max().expect("three classes");
                    let tied = counts.iter().filter(|&&c| c == best).sum::<usize>();
                    let idx = rng.next_below(tied as u64) as usize;
                    let majority =
                        |a: &Arrival| a.class.is_valid() && counts[a.class.index()] == best;
                    nth_arrival(n, arrival, majority, idx)
                }
            },
        };
        (
            Adjudication {
                verdict: SystemVerdict::Response(chosen.class),
                source: Some(chosen.release),
            },
            tally.responders,
        )
    }
}

impl Default for Adjudicator {
    /// The paper's adjudicator.
    fn default() -> Adjudicator {
        Adjudicator::paper()
    }
}

/// One collected response as the adjudication core reads it. Responses
/// arrive in `key` order, compared by `Ord`: execution time, then a
/// tie-break no two responses share (the release in the middleware, the
/// slice position in [`Adjudicator::adjudicate`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) key: (SimDuration, usize),
    pub(crate) class: ResponseClass,
    pub(crate) release: ReleaseId,
}

impl Arrival {
    /// Whether `self` arrived before `other`.
    pub(crate) fn before(&self, other: &Arrival) -> bool {
        self.key.cmp(&other.key).is_lt()
    }
}

/// What one pass over the collected responses learns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tally {
    /// Responses collected.
    pub(crate) responders: usize,
    /// Valid (not evidently incorrect) responses.
    valid: usize,
    /// Valid responses per class, indexed by [`ResponseClass::index`].
    counts: [usize; 3],
    /// The earliest valid response.
    pub(crate) first_valid: Option<Arrival>,
}

impl Tally {
    pub(crate) fn of(n: usize, arrival: impl Fn(usize) -> Option<Arrival>) -> Tally {
        let mut tally = Tally {
            responders: 0,
            valid: 0,
            counts: [0; 3],
            first_valid: None,
        };
        for a in (0..n).filter_map(arrival) {
            tally.responders += 1;
            if a.class.is_valid() {
                tally.valid += 1;
                tally.counts[a.class.index()] += 1;
                if tally.first_valid.is_none_or(|f| a.before(&f)) {
                    tally.first_valid = Some(a);
                }
            }
        }
        tally
    }
}

/// The `idx`-th response in arrival order among those `pick` admits:
/// the one that exactly `idx` admitted responses arrived before.
pub(crate) fn nth_arrival(
    n: usize,
    arrival: impl Fn(usize) -> Option<Arrival> + Copy,
    pick: impl Fn(&Arrival) -> bool + Copy,
    idx: usize,
) -> Arrival {
    let picked = move || (0..n).filter_map(arrival).filter(pick);
    picked()
        .find(|a| picked().filter(|b| b.before(a)).count() == idx)
        .expect("index below the picked count")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(release: usize, class: ResponseClass, secs: f64) -> CollectedResponse {
        CollectedResponse {
            release: ReleaseId::new(release),
            class,
            exec_time: SimDuration::from_secs(secs),
        }
    }

    #[test]
    fn rule5_empty_is_unavailable() {
        let adj = Adjudicator::paper();
        let mut rng = StreamRng::from_seed(1);
        let a = adj.adjudicate(&[], &mut rng);
        assert_eq!(a.verdict, SystemVerdict::Unavailable);
        assert_eq!(a.source, None);
        assert_eq!(a.verdict.class(), None);
    }

    #[test]
    fn rule1_all_evident_raises_exception() {
        let adj = Adjudicator::paper();
        let mut rng = StreamRng::from_seed(2);
        let a = adj.adjudicate(
            &[
                resp(0, ResponseClass::EvidentFailure, 0.5),
                resp(1, ResponseClass::EvidentFailure, 0.6),
            ],
            &mut rng,
        );
        assert_eq!(
            a.verdict,
            SystemVerdict::Response(ResponseClass::EvidentFailure)
        );
        assert_eq!(a.source, None);
    }

    #[test]
    fn rule4_single_valid_passes_through() {
        let adj = Adjudicator::paper();
        let mut rng = StreamRng::from_seed(3);
        let a = adj.adjudicate(
            &[
                resp(0, ResponseClass::EvidentFailure, 0.2),
                resp(1, ResponseClass::NonEvidentFailure, 0.9),
            ],
            &mut rng,
        );
        assert_eq!(
            a.verdict,
            SystemVerdict::Response(ResponseClass::NonEvidentFailure)
        );
        assert_eq!(a.source, Some(ReleaseId::new(1)));
    }

    #[test]
    fn rule2_agreement_returns_the_class() {
        let adj = Adjudicator::paper();
        let mut rng = StreamRng::from_seed(4);
        let a = adj.adjudicate(
            &[
                resp(0, ResponseClass::Correct, 0.8),
                resp(1, ResponseClass::Correct, 0.3),
            ],
            &mut rng,
        );
        assert!(a.verdict.is_correct());
        // Attributed to the faster source.
        assert_eq!(a.source, Some(ReleaseId::new(1)));
    }

    #[test]
    fn rule3_random_picks_each_side_roughly_half() {
        let adj = Adjudicator::paper();
        let mut rng = StreamRng::from_seed(5);
        let collected = [
            resp(0, ResponseClass::Correct, 0.5),
            resp(1, ResponseClass::NonEvidentFailure, 0.4),
        ];
        let n = 20_000;
        let correct = (0..n)
            .filter(|_| adj.adjudicate(&collected, &mut rng).verdict.is_correct())
            .count();
        assert!((correct as f64 / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn fastest_policy_prefers_quickest_valid() {
        let adj = Adjudicator::new(SelectionPolicy::Fastest);
        let mut rng = StreamRng::from_seed(6);
        let a = adj.adjudicate(
            &[
                resp(0, ResponseClass::Correct, 0.5),
                resp(1, ResponseClass::NonEvidentFailure, 0.4),
            ],
            &mut rng,
        );
        assert_eq!(
            a.verdict,
            SystemVerdict::Response(ResponseClass::NonEvidentFailure)
        );
        assert_eq!(a.source, Some(ReleaseId::new(1)));
    }

    #[test]
    fn majority_policy_with_three_releases() {
        let adj = Adjudicator::new(SelectionPolicy::Majority);
        let mut rng = StreamRng::from_seed(7);
        let a = adj.adjudicate(
            &[
                resp(0, ResponseClass::Correct, 0.5),
                resp(1, ResponseClass::Correct, 0.6),
                resp(2, ResponseClass::NonEvidentFailure, 0.1),
            ],
            &mut rng,
        );
        assert!(a.verdict.is_correct());
    }

    #[test]
    fn majority_policy_tie_breaks_randomly() {
        let adj = Adjudicator::new(SelectionPolicy::Majority);
        let mut rng = StreamRng::from_seed(8);
        let collected = [
            resp(0, ResponseClass::Correct, 0.5),
            resp(1, ResponseClass::NonEvidentFailure, 0.4),
        ];
        let n = 20_000;
        let correct = (0..n)
            .filter(|_| adj.adjudicate(&collected, &mut rng).verdict.is_correct())
            .count();
        assert!((correct as f64 / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn evident_failures_never_win_when_a_valid_exists() {
        for policy in [
            SelectionPolicy::Random,
            SelectionPolicy::Fastest,
            SelectionPolicy::Majority,
        ] {
            let adj = Adjudicator::new(policy);
            let mut rng = StreamRng::from_seed(9);
            let a = adj.adjudicate(
                &[
                    resp(0, ResponseClass::EvidentFailure, 0.1),
                    resp(1, ResponseClass::Correct, 0.9),
                ],
                &mut rng,
            );
            assert!(a.verdict.is_correct(), "policy {policy:?}");
        }
    }

    #[test]
    fn defaults_and_accessors() {
        assert_eq!(Adjudicator::default().policy(), SelectionPolicy::Random);
        assert!(SystemVerdict::Response(ResponseClass::Correct).is_correct());
        assert!(!SystemVerdict::Unavailable.is_correct());
    }

    #[test]
    fn verdict_labels_match_table_headings() {
        assert_eq!(
            SystemVerdict::Response(ResponseClass::Correct).label(),
            "CR"
        );
        assert_eq!(
            SystemVerdict::Response(ResponseClass::EvidentFailure).label(),
            "ER"
        );
        assert_eq!(
            SystemVerdict::Response(ResponseClass::NonEvidentFailure).label(),
            "NER"
        );
        assert_eq!(SystemVerdict::Unavailable.label(), "NRDT");
    }
}
