//! Pins the skip rule of the pruned `PosteriorUpdater::rebase`: it
//! recomputes only the grid blocks that can still carry posterior
//! mass, and must leave every marginal bit exactly where the full
//! recompute puts it.
//!
//! A 32-seed sweep over all four coincidence priors, grids over wide
//! and narrow prior ranges and dead-cell grids (prior ranges near 1,
//! so cells with `p00 ≤ 0` die), and count trajectories that
//! concentrate up to 2⁴⁰ demands (where the rounding allowance of the
//! row and column bounds grows to thousandths of a nat) — with `r1 = 0`
//! throughout or with `r1` bursts — checks three bit-for-bit equalities:
//!
//! 1. `rebase` marginals and p99s equal `engine.posterior()` and a full
//!    `kernels::scalar::recompute_max` + `scalar::exp_stride_sums`;
//! 2. `rebase → update_to → rebase` sequences equal the same sequences
//!    run on the full grid with the scalar kernels;
//! 3. in particular, `update_to` after a pruned rebase equals
//!    `update_to` after a full one.
//!
//! Each rebase must also keep no block that the whole-grid run-bound
//! rule (every half block bounded, recomputed here from `LogTables`)
//! would skip: the row and column bounds only ever remove blocks. On
//! the default grid with counts like the benchmark's managed upgrade,
//! the number of live blocks is pinned.

use wsu_bayes::beta::ScaledBeta;
use wsu_bayes::counts::JointCounts;
use wsu_bayes::kernels::{scalar, RowSpan, Term, SKIP_MARGIN};
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
/// every fourth seed of each kind has narrow prior ranges close around
/// the truth, every fourth has prior ranges near 1 (dead cells), the
/// rest span `[0, 0.01]`.
fn engine(seed: u64, rng: &mut StreamRng) -> WhiteBoxInference {
    let coincidence = COINCIDENCE[(seed % 4) as usize];
    let resolution = Resolution {
        a_cells: 12 + rng.next_below(21) as usize,
        b_cells: 12 + rng.next_below(21) as usize,
        q_cells: 1 + rng.next_below(12) as usize,
    };
    match (seed / 4) % 4 {
        // Narrow ranges: the truth spreads across each axis instead of
        // its lowest third, and B's axis is shorter than A's.
        1 => WhiteBoxInference::with_resolution(
            ScaledBeta::new(1.0, 10.0, 0.004).unwrap(),
            ScaledBeta::new(2.0, 3.0, 0.0025).unwrap(),
            coincidence,
            resolution,
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
/// 10M, then to 2³⁰ and 2⁴⁰, with one checkpoint repeated (a zero-delta
/// update). Odd seeds keep `r1 = 0`; even seeds add `r1` bursts.
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
        300u64,
        2_500,
        20_000,
        150_000,
        1_000_000,
        4_096_000,
        10_000_000,
        1 << 30,
        1 << 40,
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

/// The live spans of the whole-grid run-bound rule: every block's
/// cells split into two runs, each run bounded by the recompute over
/// its per-table maxima; an exact lower bound `L` from the block with
/// the largest bound (the first on a tie) and the block holding the
/// maximum-likelihood `(P_A, P_B)`; per `a` row, the blocks from the
/// first to the last with a run bound of at least `L − SKIP_MARGIN`.
fn run_bound_spans(
    engine: &WhiteBoxInference,
    edges: [&[f64]; 2],
    counts: &JointCounts,
) -> Vec<RowSpan> {
    let tables = engine.log_tables();
    let [a_edges, b_edges] = edges;
    let (na, nb, q) = (a_edges.len() - 1, b_edges.len() - 1, tables.q_points);
    let run_len = q.div_ceil(2);
    let runs = q.div_ceil(run_len);
    let d = class_counts(counts);

    let mut cells = vec![f64::NEG_INFINITY; tables.ln_prior.len()];
    scalar::recompute_max(&mut cells, tables.ln_prior, &terms(&tables, d));
    let run_max = |table: &[f64]| -> Vec<f64> {
        (0..na * nb * runs)
            .map(|run| {
                let start = (run / runs) * q + (run % runs) * run_len;
                let end = ((run / runs) * q + q).min(start + run_len);
                table[start..end]
                    .iter()
                    .fold(f64::NEG_INFINITY, |max, &v| if v > max { v } else { max })
            })
            .collect()
    };
    let run_prior = run_max(tables.ln_prior);
    let run_p: Vec<Vec<f64>> = tables.ln_p.iter().map(|table| run_max(table)).collect();
    let run_tables = LogTables {
        ln_prior: &run_prior,
        ln_p: [&run_p[0], &run_p[1], &run_p[2], &run_p[3]],
        q_points: runs,
    };
    let mut bounds = vec![f64::NEG_INFINITY; run_prior.len()];
    let top_bound = scalar::recompute_max(&mut bounds, &run_prior, &terms(&run_tables, d));
    let top = bounds.iter().position(|&b| b == top_bound).unwrap_or(0) / runs;

    let n = counts.demands() as f64;
    let cell = |edges: &[f64], p: f64| {
        let (lo, hi) = (edges[0], edges[edges.len() - 1]);
        (((p - lo) / (hi - lo) * (edges.len() - 1) as f64) as usize).min(edges.len() - 2)
    };
    let likeliest = cell(a_edges, (d[0] + d[1]) / n) * nb + cell(b_edges, (d[0] + d[2]) / n);
    let block_max = |block: usize| {
        cells[block * q..(block + 1) * q]
            .iter()
            .fold(f64::NEG_INFINITY, |max, &v| max.max(v))
    };
    let floor = block_max(top).max(block_max(likeliest)) - SKIP_MARGIN;
    bounds
        .chunks_exact(nb * runs)
        .map(|row| {
            let live = |block: &[f64]| block.iter().any(|&b| b >= floor);
            let blocks = || row.chunks_exact(runs);
            match (blocks().position(live), blocks().rposition(live)) {
                (Some(lo), Some(hi)) => (lo, hi + 1),
                _ => (0, 0),
            }
        })
        .collect()
}

/// Every block `updater`'s last rebase recomputed is one the whole-grid
/// run-bound rule recomputes too.
fn assert_live_subset(engine: &WhiteBoxInference, updater: &PosteriorUpdater, what: &str) {
    let edges = [updater.marginal_a().edges(), updater.marginal_b().edges()];
    let reference = run_bound_spans(engine, edges, &updater.counts());
    for (a, (&(lo, hi), &(ref_lo, ref_hi))) in
        updater.live_spans().iter().zip(&reference).enumerate()
    {
        assert!(
            lo == hi || (ref_lo <= lo && hi <= ref_hi),
            "{what}: row {a} keeps blocks {lo}..{hi} outside the run-bound span {ref_lo}..{ref_hi}"
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
            assert_live_subset(&engine, &updater, &what);
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

/// The default grid and priors of a managed upgrade, with counts like
/// the benchmark's `upgrade-whitebox` run (`p_A ≈ 1.75e-3`,
/// `p_B ≈ 4.8e-4`, no coincident failure): the row and column bounds
/// leave about a hundred live blocks of 9,216 at 5M demands, where the
/// run bounds alone kept about 400.
#[test]
fn benchmark_like_counts_leave_few_live_blocks() {
    let engine = WhiteBoxInference::new(
        ScaledBeta::new(1.0, 10.0, 0.01).unwrap(),
        ScaledBeta::new(2.0, 3.0, 0.01).unwrap(),
        CoincidencePrior::IndifferenceUniform,
    );
    let mut updater = engine.updater();
    for (n, most) in [(5_000_000u64, 110), (10_000_000, 70)] {
        let counts = JointCounts::from_raw(
            n,
            0,
            (n as f64 * 1.75e-3) as u64,
            (n as f64 * 4.8e-4) as u64,
        );
        updater.rebase(&counts);
        let what = format!("default grid {counts}");
        let live = updater.live_blocks();
        assert!(
            live <= most,
            "{what}: {live} live blocks, at most {most} expected"
        );
        let batch = engine.posterior(&counts);
        assert_marginals(&updater, &batch.marginal_a(), &batch.marginal_b(), &what);
        assert_live_subset(&engine, &updater, &what);
    }
}
