//! Pins the skip rule of the pruned `PosteriorUpdater::rebase`: it
//! recomputes only the grid blocks that can still carry posterior
//! mass, and must leave every marginal bit exactly where the full
//! recompute puts it.
//!
//! A 32-seed sweep over all four coincidence priors, full-support,
//! windowed (adaptive-fine) and dead-cell grids (prior ranges near 1,
//! so cells with `p00 ≤ 0` die), and count trajectories that
//! concentrate up to 10M demands — with `r1 = 0` throughout or with
//! `r1` bursts — checks three bit-for-bit equalities:
//!
//! 1. `rebase` marginals and p99s equal `engine.posterior()` and a full
//!    `kernels::scalar::recompute_max` + `scalar::exp_stride_sums`;
//! 2. `rebase → update_to → rebase` sequences equal the same sequences
//!    run on the full grid with the scalar kernels;
//! 3. in particular, `update_to` after a pruned rebase equals
//!    `update_to` after a full one.

use wsu_bayes::beta::ScaledBeta;
use wsu_bayes::counts::JointCounts;
use wsu_bayes::kernels::{scalar, Term};
use wsu_bayes::posterior::GridPosterior;
use wsu_bayes::whitebox::{
    CoincidencePrior, LogTables, PosteriorUpdater, Resolution, WhiteBoxInference,
};
use wsu_simcore::rng::StreamRng;

const SEEDS: u64 = 32;

const COINCIDENCE: [CoincidencePrior; 4] = [
    CoincidencePrior::IndifferenceUniform,
    CoincidencePrior::ScaledUniform(0.5),
    CoincidencePrior::FixedFraction(0.3),
    CoincidencePrior::Independent,
];

/// The seed's grid: the coincidence prior cycles with the seed, and
/// every fourth seed of each kind is windowed, every fourth has prior
/// ranges near 1 (dead cells), the rest span `[0, 0.01]`.
fn engine(seed: u64, rng: &mut StreamRng) -> WhiteBoxInference {
    let coincidence = COINCIDENCE[(seed % 4) as usize];
    let resolution = Resolution {
        a_cells: 12 + rng.next_below(21) as usize,
        b_cells: 12 + rng.next_below(21) as usize,
        q_cells: 1 + rng.next_below(12) as usize,
    };
    match (seed / 4) % 4 {
        // Windowed: the fine stage of the adaptive mode, a sub-window of
        // the support around the truth.
        1 => WhiteBoxInference::windowed(
            ScaledBeta::new(1.0, 10.0, 0.01).unwrap(),
            ScaledBeta::new(2.0, 3.0, 0.01).unwrap(),
            coincidence,
            resolution,
            (0.0004, 0.004),
            (0.0001, 0.0025),
        ),
        // Prior ranges near 1: every cell with p_A + p_B − p_AB ≥ 1 is
        // dead in every table.
        2 => WhiteBoxInference::with_resolution(
            ScaledBeta::new(1.5, 2.0, 0.95).unwrap(),
            ScaledBeta::new(1.2, 1.5, 0.9).unwrap(),
            coincidence,
            resolution,
        ),
        _ => WhiteBoxInference::with_resolution(
            ScaledBeta::new(1.0, 10.0, 0.01).unwrap(),
            ScaledBeta::new(2.0, 3.0, 0.01).unwrap(),
            coincidence,
            resolution,
        ),
    }
}

/// Monotone cumulative counts along a run that concentrates the
/// posterior: the demand count grows about tenfold per checkpoint up to
/// 10M, with one checkpoint repeated (a zero-delta update). Odd seeds
/// keep `r1 = 0`; even seeds add `r1` bursts.
fn trajectory(seed: u64, dead_cells: bool, rng: &mut StreamRng) -> Vec<JointCounts> {
    let (pa, pb) = if dead_cells {
        (rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4))
    } else {
        (rng.uniform(8e-4, 3e-3), rng.uniform(3e-4, 2e-3))
    };
    let bursts = seed.is_multiple_of(2);
    let mut points = vec![JointCounts::new()];
    let (mut r1, mut r2, mut r3) = (0u64, 0u64, 0u64);
    for n in [
        300u64, 2_500, 20_000, 150_000, 1_000_000, 4_096_000, 10_000_000,
    ] {
        if bursts && rng.bernoulli(0.5) {
            r1 += 1 + rng.next_below(n / 2_000 + 2);
        }
        r2 = r2.max((n as f64 * pa * rng.uniform(0.9, 1.1)) as u64);
        r3 = r3.max((n as f64 * pb * rng.uniform(0.9, 1.1)) as u64);
        points.push(JointCounts::from_raw(n, r1.min(n - r2 - r3), r2, r3));
        if n == 20_000 {
            // The same counts again: a zero-delta checkpoint.
            points.push(JointCounts::from_raw(n, r1.min(n - r2 - r3), r2, r3));
        }
    }
    points
}

fn class_counts(counts: &JointCounts) -> [f64; 4] {
    [
        counts.both_failed() as f64,
        counts.only_a_failed() as f64,
        counts.only_b_failed() as f64,
        counts.both_succeeded() as f64,
    ]
}

fn terms<'a>(tables: &LogTables<'a>, counts: [f64; 4]) -> Vec<Term<'a>> {
    tables
        .ln_p
        .iter()
        .zip(counts)
        .filter(|&(_, d)| d > 0.0)
        .map(|(&table, d)| (table, d))
        .collect()
}

/// The full-grid updater of the scalar kernels: every rebase
/// recomputes every cell, every update adds the deltas to every cell.
struct FullGrid<'a> {
    tables: LogTables<'a>,
    counts: JointCounts,
    ln_w: Vec<f64>,
    a: GridPosterior,
    b: GridPosterior,
}

impl<'a> FullGrid<'a> {
    fn new(engine: &'a WhiteBoxInference, updater: &PosteriorUpdater) -> FullGrid<'a> {
        let tables = engine.log_tables();
        let mut full = FullGrid {
            tables,
            counts: JointCounts::new(),
            ln_w: vec![f64::NEG_INFINITY; tables.ln_prior.len()],
            a: updater.marginal_a_posterior(),
            b: updater.marginal_b_posterior(),
        };
        full.rebase(&JointCounts::new());
        full
    }

    fn rebase(&mut self, counts: &JointCounts) {
        let terms = terms(&self.tables, class_counts(counts));
        let max = scalar::recompute_max(&mut self.ln_w, self.tables.ln_prior, &terms);
        self.counts = *counts;
        self.marginals(max);
    }

    fn update_to(&mut self, counts: &JointCounts) {
        let (old, new) = (class_counts(&self.counts), class_counts(counts));
        let deltas: [f64; 4] = std::array::from_fn(|i| new[i] - old[i]);
        if deltas.iter().any(|&d| d < 0.0) {
            return self.rebase(counts);
        }
        let terms = terms(&self.tables, deltas);
        if terms.is_empty() {
            return;
        }
        let max = scalar::fused_axpy_max(&mut self.ln_w, &terms);
        self.counts = *counts;
        self.marginals(max);
    }

    fn marginals(&mut self, max: f64) {
        let mut a_sums = vec![0.0; self.a.masses().len()];
        let mut b_sums = vec![0.0; self.b.masses().len()];
        scalar::exp_stride_sums(
            &self.ln_w,
            max,
            self.tables.q_points,
            &mut a_sums,
            &mut b_sums,
        );
        self.a = GridPosterior::from_weights(edges(&self.a), a_sums);
        self.b = GridPosterior::from_weights(edges(&self.b), b_sums);
    }
}

fn edges(marginal: &GridPosterior) -> Vec<f64> {
    marginal.as_view().edges().to_vec()
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell {i}: {g:e} vs {w:e}");
    }
}

/// The updater's marginals, masses and p99s, against a reference pair.
fn assert_marginals(updater: &PosteriorUpdater, a: &GridPosterior, b: &GridPosterior, what: &str) {
    assert_bits(
        updater.marginal_a().masses(),
        a.masses(),
        &format!("{what}: A masses"),
    );
    assert_bits(
        updater.marginal_b().masses(),
        b.masses(),
        &format!("{what}: B masses"),
    );
    assert_bits(
        updater.marginal_a_posterior().masses(),
        a.masses(),
        &format!("{what}: A posterior"),
    );
    for (got, want, axis) in [
        (
            updater.marginal_a().percentile(0.99),
            a.percentile(0.99),
            "A",
        ),
        (
            updater.marginal_b().percentile(0.99),
            b.percentile(0.99),
            "B",
        ),
    ] {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: {axis} p99 {got:e} vs {want:e}"
        );
    }
}

#[test]
fn pruned_rebase_is_bit_identical_to_the_full_grid() {
    let mut pruned_rebases = 0;
    for seed in 0..SEEDS {
        let mut rng = StreamRng::from_seed(0x5EED_0000 + seed);
        let dead_cells = (seed / 4) % 4 == 2;
        let engine = engine(seed, &mut rng);
        let cells = engine.resolution().a_cells * engine.resolution().b_cells;
        let points = trajectory(seed, dead_cells, &mut rng);

        // 1. Every checkpoint rebased from its totals: pruned == batch ==
        //    scalar full grid.
        let mut updater = engine.updater();
        let mut full = FullGrid::new(&engine, &updater);
        for counts in &points {
            updater.rebase(counts);
            if updater.live_blocks() < cells {
                pruned_rebases += 1;
            }
            let batch = engine.posterior(counts);
            let what = format!("seed {seed} rebase {counts}");
            assert_marginals(&updater, &batch.marginal_a(), &batch.marginal_b(), &what);
            full.rebase(counts);
            assert_marginals(&updater, &full.a, &full.b, &what);
        }

        // 2./3. Rebases and delta updates interleaved: the pruned updater
        //    tracks the full grid bit for bit, including every update_to
        //    that follows a pruned rebase.
        let mut updater = engine.updater();
        let mut full = FullGrid::new(&engine, &updater);
        for (step, counts) in points.iter().enumerate() {
            let rebase = step.is_multiple_of(3) || rng.bernoulli(0.3);
            if rebase {
                updater.rebase(counts);
                full.rebase(counts);
            } else {
                updater.update_to(counts);
                full.update_to(counts);
            }
            let kind = if rebase { "rebase" } else { "update_to" };
            let what = format!("seed {seed} step {step} {kind} {counts}");
            assert_marginals(&updater, &full.a, &full.b, &what);
            assert_eq!(updater.counts(), *counts, "{what}");
        }
    }
    assert!(
        pruned_rebases >= SEEDS as usize,
        "the sweep must exercise pruning: {pruned_rebases} pruned rebases"
    );
}
