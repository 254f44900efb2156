//! The simulation parameter presets of Tables 3 and 4.
//!
//! Table 3 gives each release's marginal outcome probabilities per run;
//! Table 4 gives, per run, the conditional probabilities of the slower
//! release's outcome given the faster release's outcome, i.e.
//! `P(outcome Rel2 | outcome Rel1)`.

use wsu_wstack::outcome::{OutcomeProfile, ResponseClass};

use wsu_simcore::rng::StreamRng;

/// A 3×3 table of conditional outcome probabilities
/// `P(Rel2 = column | Rel1 = row)`, rows and columns ordered CR, ER, NER.
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionalTable {
    rows: [OutcomeProfile; 3],
}

impl ConditionalTable {
    /// Creates a table from three rows (given Rel1 = CR, ER, NER).
    pub fn new(
        given_correct: OutcomeProfile,
        given_evident: OutcomeProfile,
        given_non_evident: OutcomeProfile,
    ) -> ConditionalTable {
        ConditionalTable {
            rows: [given_correct, given_evident, given_non_evident],
        }
    }

    /// A symmetric table with `on_diagonal` on the diagonal and the rest
    /// split evenly — the construction used by every run of Table 4.
    ///
    /// # Panics
    ///
    /// Panics if `on_diagonal` is outside `(0, 1]`.
    pub fn symmetric(on_diagonal: f64) -> ConditionalTable {
        assert!(
            on_diagonal > 0.0 && on_diagonal <= 1.0,
            "diagonal probability {on_diagonal} not in (0, 1]"
        );
        let off = (1.0 - on_diagonal) / 2.0;
        let row = |i: usize| {
            let mut probs = [off; 3];
            probs[i] = on_diagonal;
            OutcomeProfile::new(probs[0], probs[1], probs[2])
        };
        ConditionalTable::new(row(0), row(1), row(2))
    }

    /// The conditional distribution of Rel2's outcome given Rel1's.
    pub fn given(&self, rel1: ResponseClass) -> OutcomeProfile {
        self.rows[rel1.index()]
    }

    /// `P(Rel2 = b | Rel1 = a)`.
    pub fn prob(&self, a: ResponseClass, b: ResponseClass) -> f64 {
        self.rows[a.index()].prob(b)
    }

    /// Samples Rel2's outcome given Rel1's.
    pub fn sample(&self, rel1: ResponseClass, rng: &mut StreamRng) -> ResponseClass {
        self.rows[rel1.index()].sample(rng)
    }

    /// The marginal outcome profile of Rel2 implied by this table and the
    /// given Rel1 marginals.
    pub fn implied_marginal(&self, rel1: OutcomeProfile) -> OutcomeProfile {
        let mut probs = [0.0; 3];
        for a in ResponseClass::ALL {
            for b in ResponseClass::ALL {
                probs[b.index()] += rel1.prob(a) * self.prob(a, b);
            }
        }
        OutcomeProfile::new(probs[0], probs[1], probs[2])
    }
}

/// One run of the paper's simulation study: the marginals of Table 3 and
/// the conditionals of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Run number, 1–4.
    pub run: usize,
    /// Release 1 marginals (Table 3).
    pub rel1: OutcomeProfile,
    /// Release 2 marginals (Table 3), used by the independence model.
    pub rel2: OutcomeProfile,
    /// Conditionals `P(Rel2 | Rel1)` (Table 4), used by the correlated
    /// model.
    pub conditional: ConditionalTable,
}

impl RunSpec {
    /// Run 1: both releases 0.70/0.15/0.15; correlation diagonal 0.90.
    pub fn run1() -> RunSpec {
        RunSpec {
            run: 1,
            rel1: OutcomeProfile::new(0.70, 0.15, 0.15),
            rel2: OutcomeProfile::new(0.70, 0.15, 0.15),
            conditional: ConditionalTable::symmetric(0.90),
        }
    }

    /// Run 2: Rel1 0.70/0.15/0.15, Rel2 0.60/0.20/0.20; diagonal 0.80.
    pub fn run2() -> RunSpec {
        RunSpec {
            run: 2,
            rel1: OutcomeProfile::new(0.70, 0.15, 0.15),
            rel2: OutcomeProfile::new(0.60, 0.20, 0.20),
            conditional: ConditionalTable::symmetric(0.80),
        }
    }

    /// Run 3: Rel1 0.70/0.15/0.15, Rel2 0.50/0.25/0.25; diagonal 0.70.
    pub fn run3() -> RunSpec {
        RunSpec {
            run: 3,
            rel1: OutcomeProfile::new(0.70, 0.15, 0.15),
            rel2: OutcomeProfile::new(0.50, 0.25, 0.25),
            conditional: ConditionalTable::symmetric(0.70),
        }
    }

    /// Run 4: Rel1 0.60/0.20/0.20, Rel2 0.40/0.30/0.30; diagonal 0.40.
    pub fn run4() -> RunSpec {
        RunSpec {
            run: 4,
            rel1: OutcomeProfile::new(0.60, 0.20, 0.20),
            rel2: OutcomeProfile::new(0.40, 0.30, 0.30),
            conditional: ConditionalTable::symmetric(0.40),
        }
    }

    /// All four runs in order.
    pub fn all() -> Vec<RunSpec> {
        vec![
            RunSpec::run1(),
            RunSpec::run2(),
            RunSpec::run3(),
            RunSpec::run4(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_profiles_sample_what_pick_weighted_picks() {
        let mut profiles = vec![
            OutcomeProfile::always_correct(),
            OutcomeProfile::new(0.3, 0.0, 0.7),
        ];
        for run in RunSpec::all() {
            profiles.extend([run.rel1, run.rel2]);
            profiles.extend(ResponseClass::ALL.map(|a| run.conditional.given(a)));
        }
        for seed in 0..64 {
            for &p in &profiles {
                let mut walked = StreamRng::from_seed(seed);
                let mut checked = walked.clone();
                let class = p.sample(&mut walked);
                let picked = ResponseClass::from_index(checked.pick_weighted(&p.as_array()));
                assert_eq!(class, picked, "seed {seed}, {p:?}");
                assert_eq!(walked.next_u64(), checked.next_u64(), "seed {seed}, {p:?}");
            }
        }
    }

    #[test]
    fn symmetric_rows_sum_to_one() {
        let t = ConditionalTable::symmetric(0.9);
        for a in ResponseClass::ALL {
            let row = t.given(a);
            let total: f64 = row.as_array().iter().sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert!((t.prob(a, a) - 0.9).abs() < 1e-12);
        }
    }

    #[test]
    fn run_presets_match_table3() {
        let runs = RunSpec::all();
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].rel1.correct(), 0.70);
        assert_eq!(runs[1].rel2.correct(), 0.60);
        assert_eq!(runs[2].rel2.correct(), 0.50);
        assert_eq!(runs[3].rel1.correct(), 0.60);
        assert_eq!(runs[3].rel2.correct(), 0.40);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.run, i + 1);
        }
    }

    #[test]
    fn run_presets_match_table4_diagonals() {
        assert!(
            (RunSpec::run1()
                .conditional
                .prob(ResponseClass::Correct, ResponseClass::Correct)
                - 0.9)
                .abs()
                < 1e-12
        );
        assert!(
            (RunSpec::run2()
                .conditional
                .prob(ResponseClass::EvidentFailure, ResponseClass::EvidentFailure)
                - 0.8)
                .abs()
                < 1e-12
        );
        assert!(
            (RunSpec::run3().conditional.prob(
                ResponseClass::NonEvidentFailure,
                ResponseClass::NonEvidentFailure
            ) - 0.7)
                .abs()
                < 1e-12
        );
        assert!(
            (RunSpec::run4()
                .conditional
                .prob(ResponseClass::Correct, ResponseClass::Correct)
                - 0.4)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn implied_marginal_matches_hand_computation() {
        // Run 1: P(Rel2 = CR) = 0.7*0.9 + 0.15*0.05 + 0.15*0.05 = 0.645.
        let run = RunSpec::run1();
        let implied = run.conditional.implied_marginal(run.rel1);
        assert!((implied.correct() - 0.645).abs() < 1e-12);
        // Run 4: P(Rel2 = CR) = 0.6*0.4 + 0.2*0.3 + 0.2*0.3 = 0.36.
        let run = RunSpec::run4();
        let implied = run.conditional.implied_marginal(run.rel1);
        assert!((implied.correct() - 0.36).abs() < 1e-12);
    }

    #[test]
    fn conditional_sampling_matches_row() {
        let t = ConditionalTable::symmetric(0.8);
        let mut rng = StreamRng::from_seed(1);
        let n = 100_000;
        let same = (0..n)
            .filter(|_| {
                t.sample(ResponseClass::EvidentFailure, &mut rng) == ResponseClass::EvidentFailure
            })
            .count();
        assert!((same as f64 / n as f64 - 0.8).abs() < 0.005);
    }

    #[test]
    #[should_panic(expected = "not in (0, 1]")]
    fn symmetric_rejects_bad_diagonal() {
        let _ = ConditionalTable::symmetric(0.0);
    }
}
