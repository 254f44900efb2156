//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * [`run_adjudicator_ablation`] (A1) — how the selection policy among
//!   valid, differing responses (random — the paper's choice — vs
//!   fastest vs majority) shifts system correctness and responsiveness;
//! * [`run_mode_ablation`] (A2) — the four operating modes of
//!   Section 4.2 on one workload: reliability vs response time vs
//!   back-end load;
//! * [`run_coverage_ablation`] (A3) — Section 5.1.2's open question: how
//!   detection coverage maps to confidence error and switch timing;
//! * [`run_prior_ablation`] (A4) — sensitivity of the switch timing to
//!   the coincidence prior (indifference vs more optimistic choices).

use wsu_bayes::whitebox::{CoincidencePrior, Resolution};
use wsu_core::adjudicate::{Adjudicator, SelectionPolicy};
use wsu_core::middleware::MiddlewareConfig;
use wsu_core::modes::{OperatingMode, SequentialOrder};
use wsu_simcore::par::{par_map, par_map_slice, Jobs};
use wsu_simcore::rng::MasterSeed;
use wsu_simcore::time::SimDuration;
use wsu_workload::demand::DemandPlanner;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::scenario::Scenario;
use wsu_workload::timing::ExecTimeModel;

use crate::bayes_study::{run_study, Detection, StudyConfig};
use crate::figures::confidence_error_bound_holds;
use crate::midsim::{simulate_cell, CellResult};
use crate::report::TextTable;

/// A1 result row.
#[derive(Debug, Clone)]
pub struct AdjudicatorRow {
    /// Policy label.
    pub policy: String,
    /// The simulated cell.
    pub cell: CellResult,
}

/// A1: selection-policy ablation on the run-1 correlated workload.
pub fn run_adjudicator_ablation(seed: MasterSeed, requests: u64) -> Vec<AdjudicatorRow> {
    run_adjudicator_ablation_jobs(seed, requests, Jobs::serial())
}

/// [`run_adjudicator_ablation`] over a worker pool: one replication per
/// policy, all sharing the demand plan computed up front. Rows come back
/// in policy order, so the output is identical for any `jobs`.
pub fn run_adjudicator_ablation_jobs(
    seed: MasterSeed,
    requests: u64,
    jobs: Jobs,
) -> Vec<AdjudicatorRow> {
    let spec = RunSpec::run1();
    let gen = CorrelatedOutcomes::from_run(&spec);
    let mut planner = DemandPlanner::new(&gen, ExecTimeModel::paper());
    let mut plan_rng = seed.stream("ablation/adjudicators/plan");
    let plan = planner.plan_batch(requests as usize, &mut plan_rng);
    const POLICIES: [SelectionPolicy; 3] = [
        SelectionPolicy::Random,
        SelectionPolicy::Fastest,
        SelectionPolicy::Majority,
    ];
    par_map_slice(jobs, &POLICIES, |_, policy| {
        let mut config = MiddlewareConfig::paper(2.0);
        config.adjudicator = Adjudicator::new(*policy);
        AdjudicatorRow {
            policy: format!("{policy:?}"),
            cell: simulate_cell(&plan, config, seed),
        }
    })
}

/// A2 result row.
#[derive(Debug, Clone)]
pub struct ModeRow {
    /// Mode label.
    pub mode: String,
    /// The simulated cell.
    pub cell: CellResult,
    /// Total release invocations (back-end load; parallel modes invoke
    /// every active release on every demand, sequential often only one).
    pub backend_invocations: u64,
}

/// A2: operating-mode ablation on the run-2 correlated workload.
pub fn run_mode_ablation(seed: MasterSeed, requests: u64) -> Vec<ModeRow> {
    run_mode_ablation_jobs(seed, requests, Jobs::serial())
}

/// [`run_mode_ablation`] over a worker pool: one replication per
/// operating mode, all sharing the demand plan computed up front. Rows
/// come back in mode order, so the output is identical for any `jobs`.
pub fn run_mode_ablation_jobs(seed: MasterSeed, requests: u64, jobs: Jobs) -> Vec<ModeRow> {
    let spec = RunSpec::run2();
    let gen = CorrelatedOutcomes::from_run(&spec);
    let mut planner = DemandPlanner::new(&gen, ExecTimeModel::paper());
    let mut plan_rng = seed.stream("ablation/modes/plan");
    let plan = planner.plan_batch(requests as usize, &mut plan_rng);
    let modes = [
        OperatingMode::ParallelReliability,
        OperatingMode::ParallelResponsiveness,
        OperatingMode::ParallelDynamic { quorum: 1 },
        OperatingMode::Sequential {
            order: SequentialOrder::Deployment,
        },
    ];
    par_map_slice(jobs, &modes, |_, &mode| {
        let mut config = MiddlewareConfig::paper(2.0);
        config.mode = mode;
        let cell = simulate_cell(&plan, config, seed);
        let backend = [cell.rel1, cell.rel2]
            .iter()
            .map(|g| g.total + g.nrdt)
            .sum();
        ModeRow {
            mode: mode.label().into_owned(),
            cell,
            backend_invocations: backend,
        }
    })
}

/// A3 result row.
#[derive(Debug, Clone, Copy)]
pub struct CoverageRow {
    /// Omission probability (1 − coverage).
    pub p_omit: f64,
    /// Criterion 1 duration under this detection.
    pub criterion1: Option<u64>,
    /// Criterion 3 duration under this detection.
    pub criterion3: Option<u64>,
    /// Fraction of checkpoints on which the paper's "90%-perfect below
    /// 99%-imperfect" bound held.
    pub bound_held: f64,
}

/// A3: detection-coverage sweep on Scenario 1.
pub fn run_coverage_ablation(config: &StudyConfig, p_omits: &[f64]) -> Vec<CoverageRow> {
    run_coverage_ablation_jobs(config, p_omits, Jobs::serial())
}

/// [`run_coverage_ablation`] over a worker pool: the perfect-detection
/// baseline runs first (every row compares against it), then one
/// replication per omission probability. Rows come back in `p_omits`
/// order, so the output is identical for any `jobs`.
pub fn run_coverage_ablation_jobs(
    config: &StudyConfig,
    p_omits: &[f64],
    jobs: Jobs,
) -> Vec<CoverageRow> {
    let scenario = Scenario::one();
    let perfect = run_study(&scenario, Detection::Perfect, config);
    par_map_slice(jobs, p_omits, |_, &p| {
        let run = if p == 0.0 {
            perfect.clone()
        } else {
            run_study(&scenario, Detection::Omission(p), config)
        };
        CoverageRow {
            p_omit: p,
            criterion1: run.first_met[0],
            criterion3: run.first_met[2],
            bound_held: confidence_error_bound_holds(&perfect, &run, 1.0),
        }
    })
}

/// A4 result row.
#[derive(Debug, Clone)]
pub struct PriorRow {
    /// The coincidence prior used.
    pub prior: String,
    /// Criterion 1 duration.
    pub criterion1: Option<u64>,
    /// Criterion 3 duration.
    pub criterion3: Option<u64>,
}

/// A4: coincidence-prior sensitivity on Scenario 1 with perfect
/// detection.
pub fn run_prior_ablation(config: &StudyConfig) -> Vec<PriorRow> {
    run_prior_ablation_jobs(config, Jobs::serial())
}

/// [`run_prior_ablation`] over a worker pool: one replication per prior
/// variant. Rows come back in variant order, so the output is identical
/// for any `jobs`.
pub fn run_prior_ablation_jobs(config: &StudyConfig, jobs: Jobs) -> Vec<PriorRow> {
    let variants: [(&str, CoincidencePrior); 4] = [
        (
            "indifference U[0, min]",
            CoincidencePrior::IndifferenceUniform,
        ),
        (
            "optimistic U[0, 0.5*min]",
            CoincidencePrior::ScaledUniform(0.5),
        ),
        ("fixed 0.3*min", CoincidencePrior::FixedFraction(0.3)),
        ("independence", CoincidencePrior::Independent),
    ];
    par_map_slice(jobs, &variants, |_, &(label, coincidence)| {
        let mut scenario = Scenario::one();
        scenario.priors.coincidence = coincidence;
        let run = run_study(&scenario, Detection::Perfect, config);
        PriorRow {
            prior: label.to_owned(),
            criterion1: run.first_met[0],
            criterion3: run.first_met[2],
        }
    })
}

/// Renders the A1 rows.
pub fn render_adjudicator_table(rows: &[AdjudicatorRow]) -> String {
    let mut table = TextTable::new(
        "Ablation A1: selection policy among valid differing responses",
        &["Policy", "System CR", "System NER", "System MET", "NRDT"],
    );
    for row in rows {
        table.push_row(vec![
            row.policy.clone(),
            row.cell.system.cr.to_string(),
            row.cell.system.ner.to_string(),
            format!("{:.4}", row.cell.system.met),
            row.cell.system.nrdt.to_string(),
        ]);
    }
    table.render()
}

/// Renders the A2 rows.
pub fn render_mode_table(rows: &[ModeRow]) -> String {
    let mut table = TextTable::new(
        "Ablation A2: operating modes (Section 4.2)",
        &[
            "Mode",
            "System CR frac",
            "System MET",
            "NRDT",
            "Backend invocations",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.mode.clone(),
            format!("{:.4}", row.cell.system.correct_fraction()),
            format!("{:.4}", row.cell.system.met),
            row.cell.system.nrdt.to_string(),
            row.backend_invocations.to_string(),
        ]);
    }
    table.render()
}

/// Renders the A3 rows.
pub fn render_coverage_table(rows: &[CoverageRow]) -> String {
    let mut table = TextTable::new(
        "Ablation A3: detection coverage vs confidence error (Scenario 1)",
        &["P_omit", "Criterion 1", "Criterion 3", "90/99 bound held"],
    );
    for row in rows {
        let fmt = |v: Option<u64>| v.map_or("not met".to_owned(), |d| d.to_string());
        table.push_row(vec![
            format!("{:.2}", row.p_omit),
            fmt(row.criterion1),
            fmt(row.criterion3),
            format!("{:.0}%", row.bound_held * 100.0),
        ]);
    }
    table.render()
}

/// Renders the A4 rows.
pub fn render_prior_table(rows: &[PriorRow]) -> String {
    let mut table = TextTable::new(
        "Ablation A4: coincidence-prior sensitivity (Scenario 1, perfect detection)",
        &["Coincidence prior", "Criterion 1", "Criterion 3"],
    );
    for row in rows {
        let fmt = |v: Option<u64>| v.map_or("not met".to_owned(), |d| d.to_string());
        table.push_row(vec![
            row.prior.clone(),
            fmt(row.criterion1),
            fmt(row.criterion3),
        ]);
    }
    table.render()
}

/// A convenience duration used by the mode ablation tests: the paper's
/// `dT`.
pub const ADJUDICATION_DELAY: SimDuration = SimDuration::ZERO;

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_study() -> StudyConfig {
        StudyConfig {
            demands: 4_000,
            checkpoint_every: 500,
            resolution: Resolution {
                a_cells: 32,
                b_cells: 32,
                q_cells: 8,
            },
            confidence: 0.99,
            target: 1e-3,
            seed: MasterSeed::new(61),
        }
    }

    #[test]
    fn adjudicator_ablation_shapes() {
        let rows = run_adjudicator_ablation(MasterSeed::new(51), 2_000);
        assert_eq!(rows.len(), 3);
        // Fastest trades correctness for speed: its MET must be the
        // smallest... no — in parallel-reliability the wait is the same;
        // the *policy* only changes which response is forwarded. What
        // must hold: all policies see identical per-release stats.
        for w in rows.windows(2) {
            assert_eq!(w[0].cell.rel1, w[1].cell.rel1);
            assert_eq!(w[0].cell.rel2, w[1].cell.rel2);
        }
        let text = render_adjudicator_table(&rows);
        assert!(text.contains("Random"));
        assert!(text.contains("Majority"));
    }

    #[test]
    fn mode_ablation_shapes() {
        let rows = run_mode_ablation(MasterSeed::new(52), 2_000);
        assert_eq!(rows.len(), 4);
        let by_label = |needle: &str| {
            rows.iter()
                .find(|r| r.mode.contains(needle))
                .unwrap_or_else(|| panic!("mode {needle} missing"))
        };
        let reliability = by_label("parallel-reliability");
        let responsiveness = by_label("parallel-responsiveness");
        let sequential = by_label("sequential");
        // Responsiveness answers faster than reliability.
        assert!(responsiveness.cell.system.met < reliability.cell.system.met);
        // Sequential loads the back end less than any parallel mode.
        assert!(sequential.backend_invocations < reliability.backend_invocations);
        let text = render_mode_table(&rows);
        assert!(text.contains("Backend invocations"));
    }

    #[test]
    fn coverage_ablation_monotone_bias() {
        let rows = run_coverage_ablation(&quick_study(), &[0.0, 0.5]);
        assert_eq!(rows.len(), 2);
        // With perfect detection the bound holds trivially.
        assert!((rows[0].bound_held - 1.0).abs() < 1e-12);
        let text = render_coverage_table(&rows);
        assert!(text.contains("P_omit"));
    }

    #[test]
    fn class_detection_ablation_bias_direction() {
        let rows = run_class_detection_ablation(
            3_000,
            Resolution {
                a_cells: 32,
                b_cells: 32,
                q_cells: 8,
            },
            MasterSeed::new(77),
            0.5,
            &[1.0, 0.5],
        );
        assert_eq!(rows.len(), 2);
        // Full coverage: both detectors match the perfect posterior.
        assert!((rows[0].uniform_b_p99 - rows[0].perfect_b_p99).abs() < 1e-9);
        assert!((rows[0].class_aware_b_p99 - rows[0].perfect_b_p99).abs() < 1e-9);
        // Reduced coverage: both detectors can only hide failures, so
        // their posteriors stay close to the perfect one, but neither
        // direction is guaranteed pointwise — masking one side of a
        // *coincident* failure converts an r1 count into r3, which the
        // coincidence prior can translate into a *higher* marginal for
        // B. Only loose relative bounds hold for every seed.
        let rel_uniform =
            (rows[1].uniform_b_p99 - rows[1].perfect_b_p99).abs() / rows[1].perfect_b_p99;
        assert!(rel_uniform < 0.3, "uniform deviated {rel_uniform}");
        let rel = (rows[1].class_aware_b_p99 - rows[1].perfect_b_p99).abs() / rows[1].perfect_b_p99;
        assert!(rel < 0.3, "class-aware deviated {rel}");
        let text = render_class_detection_table(&rows);
        assert!(text.contains("class-aware"));
    }

    #[test]
    fn abort_ablation_directionality() {
        let rows = run_abort_ablation(
            3,
            4_000,
            Resolution {
                a_cells: 32,
                b_cells: 32,
                q_cells: 8,
            },
            MasterSeed::new(123),
            &[0.5, 20.0],
        );
        assert_eq!(rows.len(), 2);
        // A much better new release never gets aborted.
        assert_eq!(rows[0].aborted, 0, "{:?}", rows[0]);
        // A 20x worse release is caught on every seed.
        assert_eq!(rows[1].aborted, 3, "{:?}", rows[1]);
        assert!(rows[1].median_abort_demand.is_some());
        let text = render_abort_table(&rows);
        assert!(text.contains("rollback-guard"));
    }

    #[test]
    fn prior_ablation_runs_all_variants() {
        let rows = run_prior_ablation(&quick_study());
        assert_eq!(rows.len(), 4);
        let text = render_prior_table(&rows);
        assert!(text.contains("indifference"));
        assert!(text.contains("independence"));
    }
}

/// A5 result row: uniform omission vs class-aware detection at equal
/// average coverage.
#[derive(Debug, Clone, Copy)]
pub struct ClassDetectionRow {
    /// NER-detection coverage of the class-aware oracle.
    pub ner_coverage: f64,
    /// The uniform omission probability with the same *average* miss
    /// rate (misses spread over all failures instead of only NER).
    pub equivalent_p_omit: f64,
    /// New release's posterior 99% percentile under uniform omission.
    pub uniform_b_p99: f64,
    /// New release's posterior 99% percentile under class-aware
    /// detection.
    pub class_aware_b_p99: f64,
    /// Ground-truth posterior 99% percentile (perfect detection).
    pub perfect_b_p99: f64,
}

/// A5: does it matter *which* failures the oracle misses? The paper's
/// omission model misses uniformly; real monitors catch every evident
/// failure and miss only non-evident ones. Both variants here have the
/// same average coverage; only the *concentration* of misses differs.
pub fn run_class_detection_ablation(
    demands: u64,
    resolution: wsu_bayes::whitebox::Resolution,
    seed: MasterSeed,
    ner_share: f64,
    coverages: &[f64],
) -> Vec<ClassDetectionRow> {
    use wsu_bayes::counts::JointCounts;
    use wsu_bayes::whitebox::WhiteBoxInference;
    use wsu_detect::classaware::ClassAwareDetector;
    use wsu_detect::classify::ClassOracle;
    use wsu_detect::oracle::{FailureDetector, OmissionOracle};
    use wsu_wstack::outcome::ResponseClass;

    assert!((0.0..=1.0).contains(&ner_share), "ner share in [0, 1]");
    let scenario = Scenario::one();
    let engine = WhiteBoxInference::with_resolution(
        scenario.priors.prior_a,
        scenario.priors.prior_b,
        scenario.priors.coincidence,
        resolution,
    );

    // One shared truth stream: binary failures plus a class label for
    // each failure (NER with probability `ner_share`, else ER).
    let mut truth_rng = seed.stream("ablation/class-detect/truth");
    let mut label_rng = seed.stream("ablation/class-detect/labels");
    let truths: Vec<(
        wsu_detect::oracle::DemandOutcome,
        ResponseClass,
        ResponseClass,
    )> = (0..demands)
        .map(|_| {
            let outcome = scenario.truth.sample(&mut truth_rng);
            let classify = |failed: bool, rng: &mut wsu_simcore::rng::StreamRng| {
                if !failed {
                    ResponseClass::Correct
                } else if rng.bernoulli(ner_share) {
                    ResponseClass::NonEvidentFailure
                } else {
                    ResponseClass::EvidentFailure
                }
            };
            let class_a = classify(outcome.a_failed, &mut label_rng);
            let class_b = classify(outcome.b_failed, &mut label_rng);
            (outcome, class_a, class_b)
        })
        .collect();

    let mut perfect_counts = JointCounts::new();
    for (outcome, _, _) in &truths {
        perfect_counts.record(outcome.a_failed, outcome.b_failed);
    }
    let perfect_b_p99 = engine
        .posterior(&perfect_counts)
        .marginal_b()
        .percentile(0.99);

    coverages
        .iter()
        .map(|&coverage| {
            let equivalent_p_omit = ner_share * (1.0 - coverage);

            let mut uniform = OmissionOracle::new(equivalent_p_omit);
            let mut uniform_rng = seed.stream("ablation/class-detect/uniform");
            let mut uniform_counts = JointCounts::new();
            for (outcome, _, _) in &truths {
                let seen = uniform.observe(*outcome, &mut uniform_rng);
                uniform_counts.record(seen.a_failed, seen.b_failed);
            }

            let mut aware = ClassAwareDetector::symmetric(ClassOracle::new(coverage, 0.0));
            let mut aware_rng = seed.stream("ablation/class-detect/aware");
            let mut aware_counts = JointCounts::new();
            for (_, class_a, class_b) in &truths {
                let seen = aware.observe_pair(*class_a, *class_b, &mut aware_rng);
                aware_counts.record(seen.a_failed, seen.b_failed);
            }

            ClassDetectionRow {
                ner_coverage: coverage,
                equivalent_p_omit,
                uniform_b_p99: engine
                    .posterior(&uniform_counts)
                    .marginal_b()
                    .percentile(0.99),
                class_aware_b_p99: engine
                    .posterior(&aware_counts)
                    .marginal_b()
                    .percentile(0.99),
                perfect_b_p99,
            }
        })
        .collect()
}

/// Renders the A5 rows.
pub fn render_class_detection_table(rows: &[ClassDetectionRow]) -> String {
    let mut table = TextTable::new(
        "Ablation A5: uniform omission vs class-aware detection (equal average coverage)",
        &[
            "NER coverage",
            "equiv. P_omit",
            "B p99 (uniform)",
            "B p99 (class-aware)",
            "B p99 (perfect)",
        ],
    );
    for row in rows {
        table.push_row(vec![
            format!("{:.2}", row.ner_coverage),
            format!("{:.3}", row.equivalent_p_omit),
            format!("{:.3e}", row.uniform_b_p99),
            format!("{:.3e}", row.class_aware_b_p99),
            format!("{:.3e}", row.perfect_b_p99),
        ]);
    }
    table.render()
}

/// A6 result row: the rollback guard's operating characteristic at one
/// ratio of new-release to old-release pfd.
#[derive(Debug, Clone, Copy)]
pub struct AbortRow {
    /// True pfd ratio `p_B / p_A`.
    pub pfd_ratio: f64,
    /// Seeds on which the guard aborted the upgrade.
    pub aborted: usize,
    /// Seeds on which the upgrade switched to the new release.
    pub switched: usize,
    /// Seeds still transitional at the horizon.
    pub undecided: usize,
    /// Median demand count of the aborts, if any.
    pub median_abort_demand: Option<u64>,
}

/// A6: the rollback guard's operating characteristic. For each ratio of
/// the new release's true pfd to the old one's, run several seeds of a
/// managed upgrade with both the switch criterion (criterion 3, 99%) and
/// the abort guard (99%) armed, and count the decisions. A good guard
/// aborts quickly when the ratio is large and never fires when the new
/// release is genuinely better.
pub fn run_abort_ablation(
    seeds: u64,
    demands: u64,
    resolution: Resolution,
    base_seed: MasterSeed,
    ratios: &[f64],
) -> Vec<AbortRow> {
    run_abort_ablation_jobs(
        seeds,
        demands,
        resolution,
        base_seed,
        ratios,
        Jobs::serial(),
    )
}

/// [`run_abort_ablation`] over a worker pool: one replication per
/// `(ratio, seed)` pair, ratio-major and seed-minor (the sequential
/// iteration order). Each pair's upgrade uses its own derived seed, so
/// trials are independent; the terminal phases are folded back into
/// per-ratio rows in pair order, and the output is identical for any
/// `jobs`.
pub fn run_abort_ablation_jobs(
    seeds: u64,
    demands: u64,
    resolution: Resolution,
    base_seed: MasterSeed,
    ratios: &[f64],
    jobs: Jobs,
) -> Vec<AbortRow> {
    use wsu_core::upgrade::UpgradePhase;

    let per_ratio = seeds as usize;
    let phases: Vec<UpgradePhase> = par_map(jobs, ratios.len() * per_ratio, |t| {
        abort_trial(
            ratios[t / per_ratio],
            (t % per_ratio) as u64,
            demands,
            resolution,
            base_seed,
        )
    });
    ratios
        .iter()
        .enumerate()
        .map(|(r, &ratio)| {
            let mut aborted = 0;
            let mut switched = 0;
            let mut undecided = 0;
            let mut abort_demands = Vec::new();
            for phase in &phases[r * per_ratio..(r + 1) * per_ratio] {
                match phase {
                    UpgradePhase::Aborted { at_demand } => {
                        aborted += 1;
                        abort_demands.push(*at_demand);
                    }
                    UpgradePhase::Switched { .. } => switched += 1,
                    UpgradePhase::Transitional => undecided += 1,
                }
            }
            abort_demands.sort_unstable();
            AbortRow {
                pfd_ratio: ratio,
                aborted,
                switched,
                undecided,
                median_abort_demand: abort_demands
                    .get(abort_demands.len() / 2)
                    .copied()
                    .filter(|_| !abort_demands.is_empty()),
            }
        })
        .collect()
}

/// One A6 trial: a managed upgrade with the switch criterion and abort
/// guard armed, run to the demand horizon; returns the terminal phase.
fn abort_trial(
    ratio: f64,
    trial: u64,
    demands: u64,
    resolution: Resolution,
    base_seed: MasterSeed,
) -> wsu_core::upgrade::UpgradePhase {
    use wsu_core::manage::AbortPolicy;
    use wsu_core::upgrade::{ManagedUpgrade, UpgradeConfig};
    use wsu_wstack::endpoint::SyntheticService;
    use wsu_wstack::outcome::OutcomeProfile;

    let p_a = 2e-3;
    let p_b = (p_a * ratio).min(0.5);
    let seed = MasterSeed::new(base_seed.value() ^ (0x9e37 + trial * 7919));
    let old = SyntheticService::builder("Svc", "1.0")
        .outcomes(OutcomeProfile::new(1.0 - p_a, p_a / 2.0, p_a / 2.0))
        .exec_time_mean(0.1)
        .build();
    let new = SyntheticService::builder("Svc", "1.1")
        .outcomes(OutcomeProfile::new(1.0 - p_b, p_b / 2.0, p_b / 2.0))
        .exec_time_mean(0.1)
        .build();
    let config = UpgradeConfig::default()
        .with_resolution(resolution)
        .with_assess_interval(500)
        .with_priors(
            wsu_bayes::beta::ScaledBeta::new(2.0, 8.0, 0.05).expect("valid prior"),
            wsu_bayes::beta::ScaledBeta::new(2.0, 8.0, 0.05).expect("valid prior"),
        )
        .with_criterion(wsu_core::manage::SwitchCriterion::better_than_old(0.99))
        .with_abort(AbortPolicy::new(0.99));
    let mut upgrade = ManagedUpgrade::new(old, new, config, seed);
    upgrade.run_demands(demands);
    upgrade.phase()
}

/// Renders the A6 rows.
pub fn render_abort_table(rows: &[AbortRow]) -> String {
    let mut table = TextTable::new(
        "Ablation A6: rollback-guard operating characteristic (abort at 99%)",
        &[
            "pfd ratio B/A",
            "aborted",
            "switched",
            "undecided",
            "median abort demand",
        ],
    );
    for row in rows {
        table.push_row(vec![
            format!("{:.1}", row.pfd_ratio),
            row.aborted.to_string(),
            row.switched.to_string(),
            row.undecided.to_string(),
            row.median_abort_demand
                .map_or("-".to_owned(), |d| d.to_string()),
        ]);
    }
    table.render()
}
