//! The paper's qualitative results ("shapes"), asserted at reduced scale
//! so they are checked on every `cargo test` run. Full-scale numbers are
//! in EXPERIMENTS.md and regenerated by the experiment binaries.

use wsu_bayes::whitebox::Resolution;
use wsu_experiments::bayes_study::{run_study, Detection, StudyConfig};
use wsu_experiments::figures::confidence_error_bound_holds;
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::table5::run_table5_with;
use wsu_experiments::table6::run_table6_jobs;
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::scenario::Scenario;
use wsu_workload::timing::ExecTimeModel;

const SEED: MasterSeed = MasterSeed::new(0xDEAD_BEEF);

fn quick_res() -> Resolution {
    Resolution {
        a_cells: 48,
        b_cells: 48,
        q_cells: 16,
    }
}

fn study(demands: u64, every: u64) -> StudyConfig {
    StudyConfig {
        demands,
        checkpoint_every: every,
        resolution: quick_res(),
        confidence: 0.99,
        target: 1e-3,
        seed: SEED,
    }
}

/// Table 2 shape: Scenario 2 needs far fewer demands than Scenario 1
/// under every criterion that fires in both.
#[test]
fn scenario2_is_orders_of_magnitude_faster() {
    let horizon = 10_000;
    let s1 = run_study(&Scenario::one(), Detection::Perfect, &study(horizon, 500));
    let s2 = run_study(&Scenario::two(), Detection::Perfect, &study(4_000, 100));
    // If scenario 1's criterion has not fired by the horizon, the horizon
    // itself is a lower bound on its duration.
    let s1c3 = s1.first_met[2].unwrap_or(horizon);
    let s2c3 = s2.first_met[2].expect("criterion 3 in scenario 2");
    assert!(
        s2c3 * 2 <= s1c3,
        "scenario2 ({s2c3}) should be much faster than scenario1 ({s1c3})"
    );
}

/// Table 2 shape: criterion 2 (explicit 1e-3 target at 99%) is the
/// hardest in Scenario 1 — not attainable at a horizon where the other
/// criteria fire.
#[test]
fn criterion2_is_hardest_in_scenario1() {
    let run = run_study(&Scenario::one(), Detection::Perfect, &study(10_000, 500));
    assert!(
        run.first_met[1].is_none(),
        "criterion 2 must not fire early"
    );
    // Whenever another criterion fires at this horizon, it fires before
    // criterion 2 would (which never does here).
    for other in [0usize, 2] {
        if let Some(d) = run.first_met[other] {
            assert!(d <= 10_000);
        }
    }
}

/// Figs. 7–8 shape: the 90% percentile under perfect detection stays
/// below the 99% percentile under imperfect detection (the <= 9%
/// confidence-error observation), in Scenario 2 over the whole decision
/// range.
#[test]
fn ninety_percent_perfect_below_ninetynine_imperfect() {
    let config = study(3_000, 100);
    let perfect = run_study(&Scenario::two(), Detection::Perfect, &config);
    let b2b = run_study(&Scenario::two(), Detection::BackToBack, &config);
    let frac = confidence_error_bound_holds(&perfect, &b2b, 1.0);
    assert!(frac >= 0.9, "bound held on only {frac} of checkpoints");
}

/// Figs. 7–8 shape: percentile curves fall as demands accumulate
/// (clean-ish runs tighten the posterior).
#[test]
fn percentile_curves_fall() {
    let run = run_study(&Scenario::two(), Detection::Perfect, &study(3_000, 100));
    let first = &run.checkpoints[0];
    let last = run.checkpoints.last().unwrap();
    assert!(last.b_high < first.b_high);
    assert!(last.b_p90 < first.b_p90);
}

/// Table 5 shape: the system (1-out-of-2) is more available than either
/// release, for every run and timeout.
#[test]
fn table5_system_availability_dominates() {
    let table = run_table5_with(SEED, 2_000, &[1.5, 3.0], ExecTimeModel::paper());
    for run in &table.runs {
        for cell in &run.cells {
            assert!(
                cell.system.nrdt <= cell.rel1.nrdt.min(cell.rel2.nrdt),
                "run {} timeout {}",
                run.run,
                cell.timeout
            );
        }
    }
}

/// Table 5 shape: at high correlation (run 1) the system's correctness is
/// at least the worse release's and close to the better one's; at low
/// correlation (run 4) it sits strictly between the two releases.
#[test]
fn table5_correlation_shape() {
    let table = run_table5_with(SEED, 4_000, &[3.0], ExecTimeModel::paper());
    for run in &table.runs {
        let cell = &run.cells[0];
        let worse = cell
            .rel1
            .correct_fraction()
            .min(cell.rel2.correct_fraction());
        let sys = cell.system.correct_fraction();
        assert!(
            sys >= worse - 0.01,
            "run {}: system {sys} below the worse release {worse}",
            run.run
        );
    }
    // At reduced correlation (runs 2–4) the random pick among
    // disagreeing valid responses keeps the system's *per-response*
    // correctness from beating the better release's (unlike the
    // independence case of Table 6). Per-demand correctness can still
    // beat it through the system's availability advantage.
    let among_responses = |g: &wsu_experiments::midsim::GroupStats| g.cr as f64 / g.total as f64;
    for run in &table.runs[1..] {
        let cell = &run.cells[0];
        let better = among_responses(&cell.rel1).max(among_responses(&cell.rel2));
        assert!(
            among_responses(&cell.system) <= better + 0.005,
            "run {}: system {} above better release {}",
            run.run,
            among_responses(&cell.system),
            better
        );
    }
}

/// Table 6 shape: under independence the system beats both releases —
/// "fault-tolerance works".
#[test]
fn table6_independence_shape() {
    let table = run_table6_jobs(
        SEED,
        4_000,
        &[3.0],
        ExecTimeModel::paper(),
        &ObsSinks::default(),
        Jobs::serial(),
    );
    for run in &table.runs {
        let cell = &run.cells[0];
        let best = cell
            .rel1
            .correct_fraction()
            .max(cell.rel2.correct_fraction());
        assert!(
            cell.system.correct_fraction() > best - 0.005,
            "run {}",
            run.run
        );
    }
}

/// Table 5/6 shape: the system's response time exceeds the releases'
/// (it waits for the slower response plus dT) once the timeout no longer
/// truncates the comparison.
#[test]
fn system_pays_for_dependability_with_latency() {
    let table = run_table5_with(SEED, 2_000, &[3.0], ExecTimeModel::calibrated());
    for run in &table.runs {
        let cell = &run.cells[0];
        assert!(cell.system.met > cell.rel1.met.max(cell.rel2.met) * 0.99);
    }
}

/// Detection-imperfection shape: omission *tends* to shorten the
/// measured duration for criterion 1 in scenario 1 — the dangerous
/// optimistic bias of Section 5.1.1.3. The direction is not guaranteed
/// on every seed (masking one side of a coincident failure shifts the
/// joint posterior, which the coincidence prior can turn into a later
/// firing), so the bias is asserted on a majority of seeds.
#[test]
fn omission_rarely_delays_criterion1() {
    let seeds = 5u64;
    let optimistic = (0..seeds)
        .filter(|&i| {
            let mut config = study(10_000, 500);
            config.seed = MasterSeed::new(SEED.value().wrapping_add(i));
            let perfect = run_study(&Scenario::one(), Detection::Perfect, &config);
            let omission = run_study(&Scenario::one(), Detection::Omission(0.5), &config);
            match (perfect.first_met[0], omission.first_met[0]) {
                (Some(p), Some(o)) => o <= p,
                // Omission fired where perfect had not: optimistic.
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => true,
            }
        })
        .count();
    assert!(
        optimistic * 2 > seeds as usize,
        "omission optimistic on only {optimistic}/{seeds} seeds"
    );
}
