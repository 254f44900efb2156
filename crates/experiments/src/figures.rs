//! Figures 7 and 8: posterior percentiles vs number of demands.
//!
//! Fig. 7 (Scenario 1) plots, against the number of demands:
//! `Ch B: 90% percentile (perfect oracles)`, `Ch B: 99% percentile
//! (Pmiss = 0.15)`, `Ch B: 99% percentile (back-to-back testing)`,
//! `Ch B: 99% percentile (perfect oracles)` and `Ch A: 99% percentile
//! (perfect oracles)`.
//!
//! Fig. 8 (Scenario 2) plots `Ch A: 99%`, `Ch B: 90%`, `Ch B: 99%` (all
//! perfect) and `Ch B: 99% (back-to-back testing)`.
//!
//! The paper's headline observation — the ≤9% confidence-error rule —
//! corresponds to the 90%-perfect curve staying below the 99%-imperfect
//! curves; [`confidence_error_bound_holds`] checks it programmatically.

use wsu_simcore::series::{Series, SeriesSet};
use wsu_workload::scenario::Scenario;

use crate::bayes_study::{run_study, Curve, Detection, StudyConfig, StudyRun};

/// Builds a [`Series`] from a study run's curve.
fn to_series(run: &StudyRun, curve: Curve, name: &str) -> Series {
    let mut series = Series::new(name);
    for (x, y) in run.series(curve) {
        series.push(x, y);
    }
    series
}

/// The runs underlying one figure, kept for programmatic checks.
#[derive(Debug, Clone)]
pub struct FigureRuns {
    /// Perfect-oracle run.
    pub perfect: StudyRun,
    /// Omission run (Fig. 7 only; `None` for Fig. 8).
    pub omission: Option<StudyRun>,
    /// Back-to-back run.
    pub back_to_back: StudyRun,
}

/// Fig. 7: Scenario 1 percentile curves.
pub fn run_fig7(config: &StudyConfig) -> (SeriesSet, FigureRuns) {
    let scenario = Scenario::one();
    let perfect = run_study(&scenario, Detection::Perfect, config);
    let omission = run_study(&scenario, Detection::Omission(0.15), config);
    let b2b = run_study(&scenario, Detection::BackToBack, config);

    let mut set = SeriesSet::new(
        "Fig. 7 — Scenario 1: percentiles for perfect and imperfect failure detection",
        "demands",
        "percentile (pfd)",
    );
    set.add(to_series(
        &perfect,
        Curve::BP90,
        "ChB 90% (perfect oracles)",
    ));
    set.add(to_series(&omission, Curve::BHigh, "ChB 99% (Pmiss=0.15)"));
    set.add(to_series(&b2b, Curve::BHigh, "ChB 99% (back-to-back)"));
    set.add(to_series(
        &perfect,
        Curve::BHigh,
        "ChB 99% (perfect oracles)",
    ));
    set.add(to_series(
        &perfect,
        Curve::AHigh,
        "ChA 99% (perfect oracles)",
    ));
    (
        set,
        FigureRuns {
            perfect,
            omission: Some(omission),
            back_to_back: b2b,
        },
    )
}

/// Fig. 8: Scenario 2 percentile curves.
pub fn run_fig8(config: &StudyConfig) -> (SeriesSet, FigureRuns) {
    let scenario = Scenario::two();
    let perfect = run_study(&scenario, Detection::Perfect, config);
    let b2b = run_study(&scenario, Detection::BackToBack, config);

    let mut set = SeriesSet::new(
        "Fig. 8 — Scenario 2: percentiles for perfect and imperfect failure detection",
        "demands",
        "percentile (pfd)",
    );
    set.add(to_series(
        &perfect,
        Curve::AHigh,
        "ChA 99% (perfect oracles)",
    ));
    set.add(to_series(
        &perfect,
        Curve::BP90,
        "ChB 90% (perfect oracles)",
    ));
    set.add(to_series(
        &perfect,
        Curve::BHigh,
        "ChB 99% (perfect oracles)",
    ));
    set.add(to_series(&b2b, Curve::BHigh, "ChB 99% (back-to-back)"));
    (
        set,
        FigureRuns {
            perfect,
            omission: None,
            back_to_back: b2b,
        },
    )
}

/// The paper's confidence-error observation: the 90% percentile under
/// perfect detection stays at or below the 99% percentile under the given
/// imperfect run, over (at least) the leading fraction `up_to` of the
/// checkpoints. Returns the fraction of compared checkpoints where the
/// bound holds.
pub fn confidence_error_bound_holds(perfect: &StudyRun, imperfect: &StudyRun, up_to: f64) -> f64 {
    assert!((0.0..=1.0).contains(&up_to), "up_to must be in [0, 1]");
    let n = ((perfect.checkpoints.len() as f64) * up_to).round() as usize;
    let n = n
        .min(perfect.checkpoints.len())
        .min(imperfect.checkpoints.len());
    if n == 0 {
        return 1.0;
    }
    let mut ok = 0usize;
    for i in 0..n {
        if perfect.checkpoints[i].b_p90 <= imperfect.checkpoints[i].b_high + 1e-15 {
            ok += 1;
        }
    }
    ok as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_bayes::whitebox::Resolution;
    use wsu_simcore::rng::MasterSeed;

    fn quick(demands: u64, every: u64) -> StudyConfig {
        StudyConfig {
            demands,
            checkpoint_every: every,
            resolution: Resolution {
                a_cells: 32,
                b_cells: 32,
                q_cells: 8,
            },
            confidence: 0.99,
            target: 1e-3,
            seed: MasterSeed::new(21),
        }
    }

    #[test]
    fn fig7_has_five_series() {
        let (set, runs) = run_fig7(&quick(3_000, 500));
        assert_eq!(set.series().len(), 5);
        assert!(set.by_name("ChA 99% (perfect oracles)").is_some());
        assert!(runs.omission.is_some());
        // Every series spans the full checkpoint range.
        for s in set.series() {
            assert_eq!(s.len(), 6);
            assert_eq!(s.points()[0].0, 500.0);
        }
    }

    #[test]
    fn fig8_has_four_series() {
        let (set, runs) = run_fig8(&quick(2_000, 200));
        assert_eq!(set.series().len(), 4);
        assert!(runs.omission.is_none());
        assert!(set.by_name("ChB 99% (back-to-back)").is_some());
    }

    #[test]
    fn percentile_ordering_within_a_run() {
        let (_, runs) = run_fig8(&quick(2_000, 200));
        for c in &runs.perfect.checkpoints {
            assert!(c.b_p90 <= c.b_high + 1e-15);
        }
    }

    #[test]
    fn confidence_error_bound_mostly_holds_in_scenario2() {
        let (_, runs) = run_fig8(&quick(3_000, 200));
        let frac = confidence_error_bound_holds(&runs.perfect, &runs.back_to_back, 1.0);
        // The paper reports the bound holding through the decision range.
        assert!(frac > 0.8, "bound held on only {frac} of checkpoints");
    }

    #[test]
    fn tsv_rendering_is_complete() {
        let (set, _) = run_fig8(&quick(1_000, 200));
        let tsv = set.to_tsv();
        // Header + 5 data rows + title line.
        assert_eq!(tsv.lines().count(), 7);
        assert!(tsv.contains("demands"));
    }

    #[test]
    #[should_panic(expected = "up_to")]
    fn bound_check_rejects_bad_fraction() {
        let (_, runs) = run_fig8(&quick(1_000, 500));
        let _ = confidence_error_bound_holds(&runs.perfect, &runs.back_to_back, 1.5);
    }
}
