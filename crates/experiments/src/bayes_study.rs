//! The Monte-Carlo Bayesian study driver (paper Section 5.1.1).
//!
//! A study run simulates `demands` demands from a scenario's true failure
//! behaviour, scores them through a failure-detection model, and at
//! regular checkpoints computes the white-box posterior and evaluates the
//! three switching criteria. One run produces everything Table 2 and
//! Figs. 7–8 need for one (scenario × detection) combination.
//!
//! All detection regimes replay the *same* truth stream (paired
//! comparison, as in the paper); only the detector noise differs.

use wsu_bayes::counts::JointCounts;
use wsu_bayes::whitebox::{Resolution, WhiteBoxInference};
use wsu_core::manage::SwitchCriterion;
use wsu_detect::back2back::BackToBackDetector;
use wsu_detect::oracle::{FailureDetector, OmissionOracle, PerfectOracle};
use wsu_simcore::rng::MasterSeed;
use wsu_workload::scenario::Scenario;

/// The three detection regimes of the paper's study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Detection {
    /// Perfect oracles.
    Perfect,
    /// Omission oracles with the given miss probability (paper: 0.15).
    Omission(f64),
    /// Back-to-back testing under the pessimistic identical-coincident
    /// assumption.
    BackToBack,
}

impl Detection {
    /// The paper's three regimes, in table order.
    pub fn paper_regimes() -> [Detection; 3] {
        [
            Detection::Perfect,
            Detection::Omission(0.15),
            Detection::BackToBack,
        ]
    }

    /// Builds the detector.
    pub fn build(self) -> Box<dyn FailureDetector> {
        match self {
            Detection::Perfect => Box::new(PerfectOracle),
            Detection::Omission(p) => Box::new(OmissionOracle::new(p)),
            Detection::BackToBack => Box::new(BackToBackDetector::pessimistic()),
        }
    }

    /// A display label matching the paper's row names.
    pub fn label(self) -> String {
        match self {
            Detection::Perfect => "Perfect 'oracles'".to_owned(),
            Detection::Omission(p) => format!("Omission, Pomit = {p}"),
            Detection::BackToBack => "Back-to-back testing".to_owned(),
        }
    }
}

/// Study configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// Total demands to simulate.
    pub demands: u64,
    /// Checkpoint (and criterion-evaluation) cadence.
    pub checkpoint_every: u64,
    /// Inference grid resolution.
    pub resolution: Resolution,
    /// The confidence level used by all three criteria (paper: 0.99).
    pub confidence: f64,
    /// Criterion 2's explicit pfd target (paper: 1e-3).
    pub target: f64,
    /// Master seed; the truth stream depends only on the scenario, the
    /// detector stream also on the detection regime.
    pub seed: MasterSeed,
}

/// The posterior state at one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// Demands observed so far.
    pub demands: u64,
    /// Release A's posterior percentile at the configured confidence.
    pub a_high: f64,
    /// Release B's posterior percentile at the configured confidence.
    pub b_high: f64,
    /// Release B's posterior 90% percentile.
    pub b_p90: f64,
    /// The observed joint counts at this checkpoint.
    pub counts: JointCounts,
    /// Whether each criterion (1, 2, 3) is met at this checkpoint.
    pub criteria_met: [bool; 3],
}

/// One complete study run.
#[derive(Debug, Clone)]
pub struct StudyRun {
    /// The scenario number (1 or 2).
    pub scenario: usize,
    /// The detection regime.
    pub detection: Detection,
    /// Checkpoints, in demand order.
    pub checkpoints: Vec<Checkpoint>,
    /// First checkpoint (demand count) at which each criterion was met.
    pub first_met: [Option<u64>; 3],
    /// First checkpoint from which each criterion *stayed* met until the
    /// end of the run (captures the paper's "oscillates till …" remark).
    pub stable_met: [Option<u64>; 3],
}

impl StudyRun {
    /// The duration of the managed upgrade under a criterion (1-based),
    /// i.e. the first demand count at which it was met.
    pub fn duration(&self, criterion: usize) -> Option<u64> {
        assert!((1..=3).contains(&criterion), "criterion must be 1..=3");
        self.first_met[criterion - 1]
    }

    /// The checkpoint series of one percentile curve, as `(demands,
    /// percentile)` pairs. `which` selects the curve.
    pub fn series(&self, which: Curve) -> Vec<(f64, f64)> {
        self.checkpoints
            .iter()
            .map(|c| {
                let y = match which {
                    Curve::AHigh => c.a_high,
                    Curve::BHigh => c.b_high,
                    Curve::BP90 => c.b_p90,
                };
                (c.demands as f64, y)
            })
            .collect()
    }
}

/// Which percentile curve to extract from a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Curve {
    /// Release A at the configured (99%) confidence.
    AHigh,
    /// Release B at the configured (99%) confidence.
    BHigh,
    /// Release B at 90%.
    BP90,
}

/// Runs one (scenario × detection) study.
pub fn run_study(scenario: &Scenario, detection: Detection, config: &StudyConfig) -> StudyRun {
    assert!(
        config.checkpoint_every > 0 && config.demands >= config.checkpoint_every,
        "invalid checkpoint configuration"
    );
    let priors = scenario.priors;
    let mut updater = WhiteBoxInference::with_resolution(
        priors.prior_a,
        priors.prior_b,
        priors.coincidence,
        config.resolution,
    )
    .updater();
    let criteria = [
        SwitchCriterion::reach_prior_of_old(config.confidence),
        SwitchCriterion::reach_target(config.target, config.confidence),
        SwitchCriterion::better_than_old(config.confidence),
    ];
    let mut truth_rng = config
        .seed
        .stream(&format!("bayes-study/truth/scenario{}", scenario.number));
    let mut detect_rng = config.seed.stream(&format!(
        "bayes-study/detect/scenario{}/{:?}",
        scenario.number, detection
    ));
    let mut detector = detection.build();

    let mut observed = JointCounts::new();
    let mut checkpoints = Vec::with_capacity((config.demands / config.checkpoint_every) as usize);
    for demand in 1..=config.demands {
        let truth = scenario.truth.sample(&mut truth_rng);
        let seen = detector.observe(truth, &mut detect_rng);
        observed.record(seen.a_failed, seen.b_failed);
        if demand % config.checkpoint_every == 0 {
            // Incremental update: only the count deltas since the last
            // checkpoint touch the grid, and the marginals are borrowed
            // views — no per-checkpoint allocation.
            updater.update_to(&observed);
            let marginal_a = updater.marginal_a();
            let marginal_b = updater.marginal_b();
            let criteria_met = [
                criteria[0].satisfied(&priors.prior_a, &marginal_a, &marginal_b),
                criteria[1].satisfied(&priors.prior_a, &marginal_a, &marginal_b),
                criteria[2].satisfied(&priors.prior_a, &marginal_a, &marginal_b),
            ];
            checkpoints.push(Checkpoint {
                demands: demand,
                a_high: marginal_a.percentile(config.confidence),
                b_high: marginal_b.percentile(config.confidence),
                b_p90: marginal_b.percentile(0.90),
                counts: observed,
                criteria_met,
            });
        }
    }

    let mut first_met = [None; 3];
    let mut stable_met = [None; 3];
    for i in 0..3 {
        first_met[i] = checkpoints
            .iter()
            .find(|c| c.criteria_met[i])
            .map(|c| c.demands);
        // Last stretch of consecutive trailing checkpoints where met.
        let mut stable = None;
        for c in checkpoints.iter().rev() {
            if c.criteria_met[i] {
                stable = Some(c.demands);
            } else {
                break;
            }
        }
        stable_met[i] = stable;
    }

    StudyRun {
        scenario: scenario.number,
        detection,
        checkpoints,
        first_met,
        stable_met,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_simcore::rng::MasterSeed;

    fn tiny_config(demands: u64) -> StudyConfig {
        StudyConfig {
            demands,
            checkpoint_every: demands / 10,
            resolution: Resolution {
                a_cells: 32,
                b_cells: 32,
                q_cells: 8,
            },
            confidence: 0.99,
            target: 1e-3,
            seed: MasterSeed::new(11),
        }
    }

    #[test]
    fn checkpoints_are_emitted_on_cadence() {
        let run = run_study(&Scenario::two(), Detection::Perfect, &tiny_config(2_000));
        assert_eq!(run.checkpoints.len(), 10);
        assert_eq!(run.checkpoints[0].demands, 200);
        assert_eq!(run.checkpoints[9].demands, 2_000);
        assert_eq!(run.scenario, 2);
    }

    #[test]
    fn percentiles_tighten_with_demands_in_scenario2() {
        // Scenario 2's truth is far better than the priors; with demands
        // the B percentile must fall substantially.
        let run = run_study(&Scenario::two(), Detection::Perfect, &tiny_config(5_000));
        let first = run.checkpoints.first().unwrap().b_high;
        let last = run.checkpoints.last().unwrap().b_high;
        assert!(last < first, "{last} !< {first}");
    }

    #[test]
    fn scenario2_criteria_fire_quickly() {
        // The paper: criterion 1 at 1,400 and criterion 3 at 1,100 demands.
        let config = StudyConfig {
            demands: 4_000,
            checkpoint_every: 100,
            ..tiny_config(4_000)
        };
        let run = run_study(&Scenario::two(), Detection::Perfect, &config);
        let c1 = run.duration(1).expect("criterion 1 met");
        let c3 = run.duration(3).expect("criterion 3 met");
        assert!(c1 <= 4_000);
        assert!(
            c3 <= c1,
            "criterion 3 ({c3}) should fire no later than 1 ({c1})"
        );
    }

    #[test]
    fn detection_regimes_share_the_truth_stream() {
        let config = tiny_config(2_000);
        let perfect = run_study(&Scenario::two(), Detection::Perfect, &config);
        let b2b = run_study(&Scenario::two(), Detection::BackToBack, &config);
        // Observed counts differ only in coincident failures masked by
        // back-to-back testing: single-release failure totals of A can
        // only shrink via masked coincidences.
        let pt = perfect.checkpoints.last().unwrap().counts;
        let bt = b2b.checkpoints.last().unwrap().counts;
        assert_eq!(pt.demands(), bt.demands());
        assert_eq!(bt.both_failed(), 0, "b2b masks all coincident failures");
        assert_eq!(pt.only_a_failed(), bt.only_a_failed());
    }

    #[test]
    fn series_extraction_matches_checkpoints() {
        let run = run_study(&Scenario::two(), Detection::Perfect, &tiny_config(1_000));
        let series = run.series(Curve::BHigh);
        assert_eq!(series.len(), run.checkpoints.len());
        assert_eq!(series[0].1, run.checkpoints[0].b_high);
        let p90 = run.series(Curve::BP90);
        // 90% percentile is below the 99% percentile.
        for (hi, lo) in run.series(Curve::BHigh).iter().zip(&p90) {
            assert!(lo.1 <= hi.1 + 1e-12);
        }
        let a = run.series(Curve::AHigh);
        assert_eq!(a.len(), series.len());
    }

    #[test]
    fn omission_biases_counts_down() {
        let config = tiny_config(3_000);
        let perfect = run_study(&Scenario::one(), Detection::Perfect, &config);
        let omission = run_study(&Scenario::one(), Detection::Omission(0.9), &config);
        let p = perfect.checkpoints.last().unwrap().counts;
        let o = omission.checkpoints.last().unwrap().counts;
        assert!(o.a_failures() <= p.a_failures());
        assert!(o.b_failures() <= p.b_failures());
    }

    #[test]
    fn labels() {
        assert_eq!(Detection::Perfect.label(), "Perfect 'oracles'");
        assert_eq!(Detection::Omission(0.15).label(), "Omission, Pomit = 0.15");
        assert_eq!(Detection::BackToBack.label(), "Back-to-back testing");
        assert_eq!(Detection::paper_regimes().len(), 3);
    }

    #[test]
    #[should_panic(expected = "criterion must be")]
    fn duration_rejects_bad_criterion() {
        let run = run_study(&Scenario::two(), Detection::Perfect, &tiny_config(1_000));
        let _ = run.duration(0);
    }
}
