//! White-box (trivariate) inference for two releases run side by side
//! (paper Section 5.1, eqs. (2)–(6)).
//!
//! When the managed upgrade runs the old release A and the new release B
//! in parallel, each demand is scored into one of the four events of
//! Table 1. The failure behaviour of the pair is described by three
//! probabilities — `P_A`, `P_B` and the coincident-failure probability
//! `P_AB` — with joint prior
//!
//! ```text
//! f(p_A, p_B, p_AB) = f_A(p_A) · f_B(p_B) · f(p_AB | p_A, p_B)
//! ```
//!
//! The paper's "indifference" choice makes `P_AB | P_A, P_B` uniform on
//! `[0, min(P_A, P_B)]` — a deliberately conservative prior (expected
//! coincidence = half the smaller marginal). The multinomial likelihood of
//! the observed counts `(r1, r2, r3, n−r1−r2−r3)` then updates the joint,
//! and the marginals of eqs. (3)–(5) fall out by summation over the grid.
//!
//! The joint is discretised on a `(p_A, p_B, q)` grid with
//! `p_AB = q · min(p_A, p_B)`; a uniform `q` on `[0, 1]` is *exactly* the
//! indifference prior, and other [`CoincidencePrior`] variants support the
//! prior-sensitivity ablation.
//!
//! # Skipping cells that cannot carry mass
//!
//! The managed upgrade re-assesses from total counts every interval
//! ([`PosteriorUpdater::rebase`]). As evidence accumulates, the
//! posterior concentrates on a few `(p_A, p_B)` cells: after 5M demands
//! of a typical upgrade, under 1% of the grid's blocks hold a cell
//! within 750 nats of the maximum log-weight. Every other cell
//! exponentiates to exactly `+0.0` (`exp` underflows below about
//! −745.1; see [`kernels::EXP_UNDERFLOW`]) and adds exactly nothing to
//! the marginals. A rebase rules such cells out in two stages before it
//! recomputes any, each against an exact lower bound on the grid
//! maximum taken from recomputed blocks:
//!
//! 1. **Whole rows and columns.** Every cell of grid row `a` splits A's
//!    failures between two events with `p11 + p10 = p_A`, and A's
//!    successes between two with `p01 + p00 = 1 − p_A`. By Gibbs'
//!    inequality neither split can beat the pooled Bernoulli, so every
//!    cell of the row has
//!    `ℓ ≤ max ln prior + (r1+r2)·ln p_A + (r3+r4)·ln(1−p_A) + H(r1,r2) + H(r3,r4)`,
//!    where `H(r,s) = r·ln(r/(r+s)) + s·ln(s/(r+s))` and `0·ln 0 = 0`.
//!    Column `b` has the same bound over `(r1+r3, r2+r4)` with `p_B`.
//!    Each line costs three stored terms and a few flops, and only the
//!    rectangle spanned by the rows and columns that can reach the
//!    maximum survives.
//! 2. **Runs of `q` cells inside that rectangle.** Each block of `q`
//!    cells sharing one `(p_A, p_B)` keeps, per half of its `q` range,
//!    the maximum of the log prior and of each event's log-probability.
//!    The recompute of a cell is `ln prior + Σ d·ln p`, each term a
//!    separately rounded `+=`; the same sequence over the maxima is an
//!    upper bound on every cell of the half block, because IEEE rounding
//!    is monotone. Only the blocks whose bound reaches the lower bound
//!    minus [`kernels::SKIP_MARGIN`] are recomputed.
//!
//! A skipped cell is at least 751 nats below the true maximum, so it
//! would have contributed `+0.0`; the marginals, their percentiles and
//! every switching decision are bit-identical to the full recompute,
//! which [`WhiteBoxInference::posterior`] still performs and the tests
//! compare against. While the posterior is broad, every block is live
//! and the rebase is the full recompute.
//!
//! # One grid per set of inputs
//!
//! Building a default grid takes about 1.5M logarithms, and a process
//! often builds the same grid again: a deployment torn down and stood
//! up with unchanged priors, a fault campaign's upgrade per plan, an
//! ablation's loop over variants. The tables are immutable and depend
//! on nothing but the construction inputs, so every engine built from
//! equal inputs (compared by bit pattern) shares one table set for as
//! long as any engine holds it, and the most recently requested grid
//! stays resident after its last engine is dropped, until another
//! grid is requested. At most one grid that no engine holds is
//! resident at a time. See [`WhiteBoxInference::with_resolution`].

use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::beta::ScaledBeta;
use crate::counts::JointCounts;
use crate::kernels::{self, LaneBuf, RowSpan, Term, SKIP_MARGIN};
use crate::posterior::{self, GridPosterior, MarginalView};

/// The conditional prior of the coincident-failure probability
/// `P_AB | P_A, P_B`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoincidencePrior {
    /// Uniform on `[0, min(P_A, P_B)]` — the paper's "indifference"
    /// assumption.
    IndifferenceUniform,
    /// Uniform on `[0, c·min(P_A, P_B)]` for `c` in `(0, 1]`; smaller `c`
    /// encodes optimism about coincident failures (ablation A4).
    ScaledUniform(f64),
    /// Deterministic `P_AB = f·min(P_A, P_B)`.
    FixedFraction(f64),
    /// Deterministic independence, `P_AB = P_A·P_B`.
    Independent,
}

impl CoincidencePrior {
    fn validate(self) {
        match self {
            CoincidencePrior::ScaledUniform(c) => {
                assert!(
                    c > 0.0 && c <= 1.0,
                    "ScaledUniform parameter {c} not in (0, 1]"
                );
            }
            CoincidencePrior::FixedFraction(f) => {
                assert!(
                    (0.0..=1.0).contains(&f),
                    "FixedFraction parameter {f} not in [0, 1]"
                );
            }
            _ => {}
        }
    }

    /// The variant and the bits of its parameter, for [`GridKey`].
    fn key(self) -> (u8, u64) {
        match self {
            CoincidencePrior::IndifferenceUniform => (0, 0),
            CoincidencePrior::ScaledUniform(c) => (1, c.to_bits()),
            CoincidencePrior::FixedFraction(f) => (2, f.to_bits()),
            CoincidencePrior::Independent => (3, 0),
        }
    }

    /// Grid points of the mixing variable with their prior masses.
    fn q_grid(self, resolution: usize) -> Vec<(QPoint, f64)> {
        match self {
            CoincidencePrior::IndifferenceUniform => uniform_q(1.0, resolution),
            CoincidencePrior::ScaledUniform(c) => uniform_q(c, resolution),
            CoincidencePrior::FixedFraction(f) => vec![(QPoint::Fraction(f), 1.0)],
            CoincidencePrior::Independent => vec![(QPoint::Product, 1.0)],
        }
    }
}

/// One grid point of the coincidence mixing variable.
#[derive(Debug, Clone, Copy, PartialEq)]
enum QPoint {
    /// `P_AB = q · min(P_A, P_B)`.
    Fraction(f64),
    /// `P_AB = P_A · P_B`.
    Product,
}

impl QPoint {
    #[inline]
    fn p_ab(self, pa: f64, pb: f64) -> f64 {
        match self {
            QPoint::Fraction(q) => q * pa.min(pb),
            QPoint::Product => pa * pb,
        }
    }
}

fn uniform_q(upper: f64, resolution: usize) -> Vec<(QPoint, f64)> {
    let mass = 1.0 / resolution as f64;
    (0..resolution)
        .map(|k| {
            let q = upper * (k as f64 + 0.5) / resolution as f64;
            (QPoint::Fraction(q), mass)
        })
        .collect()
}

/// Grid resolution of the joint prior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Cells along the `P_A` axis.
    pub a_cells: usize,
    /// Cells along the `P_B` axis.
    pub b_cells: usize,
    /// Grid points of the coincidence mixing variable.
    pub q_cells: usize,
}

impl Default for Resolution {
    /// 96 × 96 × 32 — accurate to well under a grid cell for the paper's
    /// scenarios. In release builds on a 2-vCPU x86-64 host, a
    /// full-grid update (a delta checkpoint, or a rebase while the
    /// posterior is still broad) costs 1–3 ms; once the evidence
    /// concentrates the posterior, a rebase recomputes only the blocks
    /// that can carry mass, inside the rows and columns that can, and
    /// costs tens of microseconds once a typical upgrade has seen 2M
    /// demands (see EXPERIMENTS.md).
    fn default() -> Resolution {
        Resolution {
            a_cells: 96,
            b_cells: 96,
            q_cells: 32,
        }
    }
}

/// The precomputed grid tables — prior masses, per-cell event
/// log-probabilities, their maxima over runs of cells, the coincidence grid and
/// axis edges. Shared via [`Arc`] between every engine built from the
/// same inputs (see [`WhiteBoxInference::with_resolution`]), every posterior
/// they produce and any incremental updaters, so neither construction
/// nor queries copy the ~300k `f64` of tables.
///
/// The log tables live in cache-aligned, lane-padded [`LaneBuf`]s
/// (structure-of-arrays): each of the four event classes is its own
/// contiguous stream, padded with dead-cell `-inf` up to a lane
/// multiple, so the chunked kernels in [`crate::kernels`] sweep whole
/// lanes with no tail inside the per-term loops and no per-cell
/// liveness branch.
///
/// Cells are laid out `(a, b, q)`-major: the `q` cells of one `(a, b)`
/// pair form a contiguous *block*, and block `a·nb + b` covers cells
/// `(a·nb + b)·q ..` of every table. Each block is split into at most
/// [`RUNS`] runs of consecutive `q` cells, and each run keeps the
/// maximum of every table over its cells; each grid row and column
/// keeps the three [`Line`] terms of its Gibbs bound. From these
/// [`PosteriorUpdater::rebase`] bounds the log-weights of whole lines
/// and of single runs without touching their cells.
#[derive(Debug)]
pub(crate) struct GridTables {
    pub(crate) a_edges: Vec<f64>,
    pub(crate) b_edges: Vec<f64>,
    /// Per-cell log prior mass; NEG_INFINITY where the prior vanishes.
    ln_prior: LaneBuf,
    /// Per-cell `ln` of the four event probabilities (p11, p10, p01, p00).
    ln_p11: LaneBuf,
    ln_p10: LaneBuf,
    ln_p01: LaneBuf,
    ln_p00: LaneBuf,
    /// Per-run maximum of `ln_prior`, run `r` of block `k` at
    /// `k·runs + r`.
    run_prior: Vec<f64>,
    /// Per-run maxima of the four event tables, in `ln_p11..ln_p00`
    /// order.
    run_p: [Vec<f64>; 4],
    /// Runs per block: [`RUNS`], or 1 when a block has a single cell.
    runs: usize,
    /// The Gibbs-bound terms of every `a` row, at `p = p_A`.
    rows: Vec<Line>,
    /// The Gibbs-bound terms of every `b` column, at `p = p_B`.
    cols: Vec<Line>,
    /// `1/(1 − p)` at the largest grid point of either axis, which
    /// scales the rounding allowance of the line bounds (see
    /// [`PosteriorUpdater::rebase`]).
    line_slack: f64,
    /// The coincidence grid points, in cell order within a block.
    q_grid: Vec<QPoint>,
    /// Number of q points actually used.
    pub(crate) q_points: usize,
    /// Support of the coincidence marginal, `min(range_A, range_B)`.
    pab_range: f64,
}

/// Most runs a block's `q` cells are split into for the log-weight
/// bounds of [`PosteriorUpdater::rebase`]. Within a block, `p10`, `p01`
/// fall and `p00` rises with `q`, so one maximum per table over the
/// whole block pairs the best of opposite ends; halving the block
/// roughly halves that slack for 0.35 MiB more summaries on the
/// default grid.
const RUNS: usize = 2;

/// The three terms of the Gibbs bound on one grid row (fixed `p_A`) or
/// column (fixed `p_B`); see [`PosteriorUpdater::rebase`].
#[derive(Debug, Clone, Copy)]
struct Line {
    /// The largest `ln_prior` over the line's cells (`-inf` when every
    /// cell is dead).
    ln_prior: f64,
    /// `ln p` at the line's grid point.
    ln_p: f64,
    /// `ln(1 − p)` at the line's grid point.
    ln_1mp: f64,
}

impl Line {
    fn new(p: f64, ln_prior: f64) -> Line {
        Line {
            ln_prior,
            ln_p: p.ln(),
            ln_1mp: (-p).ln_1p(),
        }
    }

    /// The bound on every cell of the line: `ln_prior + hits·ln p +
    /// misses·ln(1 − p) + entropy`, with `entropy` the two `H` terms.
    fn bound(self, [hits, misses]: [f64; 2], entropy: f64) -> f64 {
        self.ln_prior + hits * self.ln_p + misses * self.ln_1mp + entropy
    }
}

/// The smallest range of `lines` holding every line whose bound reaches
/// `floor`; empty when none does.
fn live_lines(lines: &[Line], counts: [f64; 2], entropy: f64, floor: f64) -> Range<usize> {
    let live = |line: &Line| line.bound(counts, entropy) >= floor;
    match (lines.iter().position(live), lines.iter().rposition(live)) {
        (Some(lo), Some(hi)) => lo..hi + 1,
        _ => 0..0,
    }
}

/// `H(r, s) = r·ln(r/(r+s)) + s·ln(s/(r+s))`, with `0·ln 0 = 0`: the
/// largest value of `r·ln x + s·ln(1 − x)` over `x` in `[0, 1]`
/// (Gibbs' inequality).
fn gibbs(r: f64, s: f64) -> f64 {
    if r == 0.0 || s == 0.0 {
        return 0.0;
    }
    let n = r + s;
    r * (r / n).ln() + s * (s / n).ln()
}

/// The count of each Table 1 event class, in the reference order
/// `r1..r4` (both failed, only A, only B, both succeeded).
fn event_counts(counts: &JointCounts) -> [f64; 4] {
    [
        counts.both_failed() as f64,
        counts.only_a_failed() as f64,
        counts.only_b_failed() as f64,
        counts.both_succeeded() as f64,
    ]
}

/// The live (count > 0) likelihood terms over `tables` in the reference
/// order `r1..r4`. Returns the filled prefix length; no allocation.
fn live_terms<'a>(tables: [&'a [f64]; 4], deltas: [f64; 4]) -> ([Term<'a>; 4], usize) {
    let mut terms: [Term<'a>; 4] = [(&[], 0.0); 4];
    let mut n = 0;
    for (&d, table) in deltas.iter().zip(tables) {
        if d > 0.0 {
            terms[n] = (table, d);
            n += 1;
        }
    }
    (terms, n)
}

impl GridTables {
    pub(crate) fn cells(&self) -> usize {
        self.ln_prior.len()
    }

    /// Lane-padded cell count — the length of every padded table slice
    /// and of the `ln_w` buffers the kernels sweep.
    fn padded_cells(&self) -> usize {
        self.ln_prior.padded_len()
    }

    pub(crate) fn a_cells(&self) -> usize {
        self.a_edges.len() - 1
    }

    pub(crate) fn b_cells(&self) -> usize {
        self.b_edges.len() - 1
    }

    /// The block holding the maximum-likelihood estimate of `(P_A,
    /// P_B)` under `counts`, clamped into the grid (block 0 without
    /// demands).
    fn block_of(&self, counts: &JointCounts) -> usize {
        let n = counts.demands() as f64;
        let pa = (counts.both_failed() + counts.only_a_failed()) as f64 / n;
        let pb = (counts.both_failed() + counts.only_b_failed()) as f64 / n;
        // `as usize` saturates: NaN maps to 0.
        let cell = |edges: &[f64], p: f64| {
            let n = edges.len() - 1;
            ((p / edges[n] * n as f64) as usize).min(n - 1)
        };
        cell(&self.a_edges, pa) * self.b_cells() + cell(&self.b_edges, pb)
    }

    /// The four per-cell event tables, lane-padded.
    fn cell_tables(&self) -> [&[f64]; 4] {
        [
            self.ln_p11.padded(),
            self.ln_p10.padded(),
            self.ln_p01.padded(),
            self.ln_p00.padded(),
        ]
    }

    /// Recomputes the cells of `blocks` in `ln_w` from total counts
    /// via the one shared batch kernel, returning their maximum. The
    /// operation order — prior, then the `r1..r4` terms guarded on
    /// positive counts, each a separately rounded `+=` — is the
    /// reference order every other path must reproduce. Dead cells
    /// come out `-inf` (`-inf + d·(-inf)` for the live counts), exactly
    /// as they went in, and cells outside `blocks` are not touched.
    ///
    /// This is the **single** recompute path: both
    /// [`WhiteBoxInference::posterior`] (all blocks) and
    /// [`PosteriorUpdater::rebase`] (the blocks that can carry mass)
    /// call it, which is what makes batch and rebased-incremental
    /// results bit-identical by construction.
    fn recompute_blocks(&self, counts: [f64; 4], ln_w: &mut [f64], blocks: Range<usize>) -> f64 {
        let cells = blocks.start * self.q_points..blocks.end * self.q_points;
        recompute_range(
            self.ln_prior.padded(),
            self.cell_tables(),
            counts,
            &mut ln_w[cells.clone()],
            cells,
        )
    }

    /// Bounds every run of `blocks` into `bounds` (one entry per run,
    /// `bounds` covering exactly those runs) with the cell recompute's
    /// operation sequence over the runs' maxima, returning the largest
    /// bound.
    fn bound_runs(&self, counts: [f64; 4], bounds: &mut [f64], blocks: Range<usize>) -> f64 {
        recompute_range(
            &self.run_prior,
            self.run_p.each_ref().map(Vec::as_slice),
            counts,
            bounds,
            blocks.start * self.runs..blocks.end * self.runs,
        )
    }
}

/// `out = prior + Σ d·table` over `range` of the tables, through the
/// shared batch kernel, in the reference order of
/// [`GridTables::recompute_blocks`]; returns the maximum.
fn recompute_range(
    prior: &[f64],
    tables: [&[f64]; 4],
    counts: [f64; 4],
    out: &mut [f64],
    range: Range<usize>,
) -> f64 {
    let (mut terms, n) = live_terms(tables, counts);
    for term in &mut terms[..n] {
        term.0 = &term.0[range.clone()];
    }
    kernels::recompute_max(out, &prior[range], &terms[..n])
}

/// Every construction input of a grid, floats by bit pattern: equal
/// keys build bit-identical tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GridKey {
    /// `(α, β, range)` of the A and B priors.
    priors: [[u64; 3]; 2],
    coincidence: (u8, u64),
    resolution: Resolution,
}

/// The process's grids: a weak handle on every grid built, and a strong
/// one on the grid most recently requested.
struct GridCache {
    grids: Vec<(GridKey, Weak<GridTables>)>,
    recent: Option<Arc<GridTables>>,
}

static GRIDS: Mutex<GridCache> = Mutex::new(GridCache {
    grids: Vec::new(),
    recent: None,
});

/// The grid of `key`: the resident one, or a new one from `build`.
///
/// The lock is held through a build, so concurrent requests for one key
/// wait for its first build instead of making their own. A miss drops
/// the most recent grid before it builds, so a grid no engine holds and
/// a new one are never resident together. Nothing panics under the
/// lock (the constructor validates its inputs first), and a poisoned
/// lock is recovered: the cache holds no invariant a panic could break.
fn shared_tables(key: GridKey, build: impl FnOnce() -> GridTables) -> Arc<GridTables> {
    let mut cache = GRIDS.lock().unwrap_or_else(PoisonError::into_inner);
    let resident = cache
        .grids
        .iter()
        .filter(|(k, _)| *k == key)
        .find_map(|(_, grid)| grid.upgrade());
    let tables = resident.unwrap_or_else(|| {
        cache.recent = None;
        cache.grids.retain(|(_, grid)| grid.strong_count() > 0);
        let tables = Arc::new(build());
        cache.grids.push((key, Arc::downgrade(&tables)));
        tables
    });
    cache.recent = Some(Arc::clone(&tables));
    tables
}

impl GridTables {
    /// Builds the tables of one grid (see
    /// [`WhiteBoxInference::with_resolution`] for the inputs, validated
    /// there). Every cell is written straight into its lane-padded
    /// table, whose padding already holds the dead-cell `-inf`.
    fn build(
        prior_a: ScaledBeta,
        prior_b: ScaledBeta,
        coincidence: CoincidencePrior,
        resolution: Resolution,
    ) -> GridTables {
        let (na, nb) = (resolution.a_cells, resolution.b_cells);
        // Each axis covers its prior's support `[0, range]`; the committed
        // results pin these edges, so the multiply stays before the divide.
        let edges = |range: f64, n: usize| -> Vec<f64> {
            (0..=n).map(|i| range * i as f64 / n as f64).collect()
        };
        let a_edges = edges(prior_a.range(), na);
        let b_edges = edges(prior_b.range(), nb);
        let midpoint = |edges: &[f64], k: usize| 0.5 * (edges[k] + edges[k + 1]);
        // The lines' log-prior maxima start at -inf and grow with the
        // blocks below. Allocated before the multi-megabyte tables, like
        // the edges and the stored q grid: small long-lived allocations
        // between those tables kept freed table memory from being reused
        // when engines were built and dropped in turn, and raised peak
        // RSS.
        let mut rows: Vec<Line> = (0..na)
            .map(|i| Line::new(midpoint(&a_edges, i), f64::NEG_INFINITY))
            .collect();
        let mut cols: Vec<Line> = (0..nb)
            .map(|j| Line::new(midpoint(&b_edges, j), f64::NEG_INFINITY))
            .collect();
        let a_mass: Vec<f64> = (0..na)
            .map(|i| prior_a.mass(a_edges[i], a_edges[i + 1]))
            .collect();
        let b_mass: Vec<f64> = (0..nb)
            .map(|j| prior_b.mass(b_edges[j], b_edges[j + 1]))
            .collect();
        let q_grid = coincidence.q_grid(resolution.q_cells);
        let q_points = q_grid.len();
        let q_points_kept: Vec<QPoint> = q_grid.iter().map(|&(qp, _)| qp).collect();

        let cells = na * nb * q_points;
        // ln_prior, ln_p11, ln_p10, ln_p01, ln_p00: the maximum over
        // each run of a block's cells, and per cell.
        let run_len = q_points.div_ceil(RUNS);
        let runs = q_points.div_ceil(run_len);
        let mut run_columns: [Vec<f64>; 5] =
            std::array::from_fn(|_| Vec::with_capacity(na * nb * runs));
        let mut tables: [LaneBuf; 5] =
            std::array::from_fn(|_| LaneBuf::filled(cells, f64::NEG_INFINITY));
        let mut columns = tables
            .each_mut()
            .map(|table| &mut table.padded_mut()[..cells]);

        let mut cell = 0;
        for i in 0..na {
            let pa = midpoint(&a_edges, i);
            for j in 0..nb {
                let pb = midpoint(&b_edges, j);
                let base_mass = a_mass[i] * b_mass[j];
                let mut run_max = [[f64::NEG_INFINITY; 5]; RUNS];
                for (k, &(qp, q_mass)) in q_grid.iter().enumerate() {
                    let p11 = qp.p_ab(pa, pb);
                    let p10 = pa - p11;
                    let p01 = pb - p11;
                    let p00 = 1.0 - pa - pb + p11;
                    let prior = base_mass * q_mass;
                    let valid = prior > 0.0 && p11 >= 0.0 && p10 >= 0.0 && p01 >= 0.0 && p00 > 0.0;
                    // ln(0) = -inf is fine: xlny handles zero counts.
                    let logs = if valid {
                        [prior.ln(), p11.ln(), p10.ln(), p01.ln(), p00.ln()]
                    } else {
                        [f64::NEG_INFINITY; 5]
                    };
                    let maxima = &mut run_max[k / run_len];
                    for ((column, max), v) in columns.iter_mut().zip(maxima).zip(logs) {
                        column[cell] = v;
                        if v > *max {
                            *max = v;
                        }
                    }
                    cell += 1;
                }
                for maxima in &run_max[..runs] {
                    for (column, &max) in run_columns.iter_mut().zip(maxima) {
                        column.push(max);
                    }
                    rows[i].ln_prior = rows[i].ln_prior.max(maxima[0]);
                    cols[j].ln_prior = cols[j].ln_prior.max(maxima[0]);
                }
            }
        }
        let p_max = midpoint(&a_edges, na - 1).max(midpoint(&b_edges, nb - 1));

        let [ln_prior, ln_p11, ln_p10, ln_p01, ln_p00] = tables;
        let [run_prior, run_p @ ..] = run_columns;
        GridTables {
            a_edges,
            b_edges,
            ln_prior,
            ln_p11,
            ln_p10,
            ln_p01,
            ln_p00,
            run_prior,
            run_p,
            runs,
            rows,
            cols,
            line_slack: 1.0 / (1.0 - p_max),
            q_grid: q_points_kept,
            q_points,
            pab_range: prior_a.range().min(prior_b.range()),
        }
    }
}

/// White-box inference engine. Construction precomputes the prior masses
/// and the per-cell log-probabilities of the four Table 1 events, or
/// finds them already built for the same inputs, so each posterior
/// update is a single fused pass over the grid.
#[derive(Debug, Clone)]
pub struct WhiteBoxInference {
    prior_a: ScaledBeta,
    prior_b: ScaledBeta,
    coincidence: CoincidencePrior,
    resolution: Resolution,
    tables: Arc<GridTables>,
}

impl WhiteBoxInference {
    /// Creates an engine with the default resolution.
    pub fn new(
        prior_a: ScaledBeta,
        prior_b: ScaledBeta,
        coincidence: CoincidencePrior,
    ) -> WhiteBoxInference {
        WhiteBoxInference::with_resolution(prior_a, prior_b, coincidence, Resolution::default())
    }

    /// Creates an engine with an explicit grid resolution, over the
    /// priors' full supports.
    ///
    /// Every engine is built here, and engines built from equal inputs
    /// share one grid ([`Self::shares_grid`]): while any engine holds
    /// it, or while it is the grid most recently requested, the same
    /// inputs return it instead of building it again. A request for a
    /// grid that is not resident releases the most recent one before
    /// it builds, and concurrent requests for one grid build it once.
    ///
    /// # Panics
    ///
    /// Panics if any resolution component is zero or a coincidence-prior
    /// parameter is out of range.
    pub fn with_resolution(
        prior_a: ScaledBeta,
        prior_b: ScaledBeta,
        coincidence: CoincidencePrior,
        resolution: Resolution,
    ) -> WhiteBoxInference {
        assert!(
            resolution.a_cells > 0 && resolution.b_cells > 0 && resolution.q_cells > 0,
            "grid resolution components must be positive"
        );
        coincidence.validate();
        let bits =
            |prior: ScaledBeta| [prior.alpha(), prior.beta(), prior.range()].map(f64::to_bits);
        let key = GridKey {
            priors: [bits(prior_a), bits(prior_b)],
            coincidence: coincidence.key(),
            resolution,
        };
        let tables = shared_tables(key, || {
            GridTables::build(prior_a, prior_b, coincidence, resolution)
        });
        WhiteBoxInference {
            prior_a,
            prior_b,
            coincidence,
            resolution,
            tables,
        }
    }

    /// Whether this engine and `other` read one shared grid, as every
    /// two engines built from equal inputs do (see
    /// [`Self::with_resolution`]).
    pub fn shares_grid(&self, other: &WhiteBoxInference) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }

    /// The prior over the old release's pfd.
    pub fn prior_a(&self) -> ScaledBeta {
        self.prior_a
    }

    /// The prior over the new release's pfd.
    pub fn prior_b(&self) -> ScaledBeta {
        self.prior_b
    }

    /// The coincidence prior.
    pub fn coincidence(&self) -> CoincidencePrior {
        self.coincidence
    }

    /// The grid resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Computes the joint posterior given observed counts.
    ///
    /// Sweeps every block of the grid through the incremental engine's
    /// recompute kernel: the floating-point operation order is
    /// identical, so batch and incremental results agree bit-for-bit at
    /// the same totals. This full sweep is the independent reference the
    /// pruned [`PosteriorUpdater::rebase`] is tested against. The
    /// log-weights are exponentiated in place and kept as the weights,
    /// so the query holds one grid-sized buffer.
    pub fn posterior(&self, counts: &JointCounts) -> WhiteBoxPosterior {
        let tables = &self.tables;
        let mut weights = vec![f64::NEG_INFINITY; tables.padded_cells()];
        let blocks = tables.a_cells() * tables.b_cells();
        let max = tables.recompute_blocks(event_counts(counts), &mut weights, 0..blocks);
        assert!(
            max.is_finite(),
            "posterior vanished everywhere: counts {counts} are impossible under the prior"
        );
        weights.truncate(tables.cells());
        kernels::exp_weights_in_place(&mut weights, max);
        WhiteBoxPosterior {
            tables: Arc::clone(tables),
            weights,
        }
    }

    /// The joint prior expressed as a posterior with no evidence.
    pub fn prior_posterior(&self) -> WhiteBoxPosterior {
        self.posterior(&JointCounts::new())
    }

    /// The grid's per-cell log tables in kernel layout, for reference
    /// computations against the [`kernels::scalar`] implementations.
    pub fn log_tables(&self) -> LogTables<'_> {
        let t = &self.tables;
        LogTables {
            ln_prior: t.ln_prior.as_slice(),
            ln_p: [
                t.ln_p11.as_slice(),
                t.ln_p10.as_slice(),
                t.ln_p01.as_slice(),
                t.ln_p00.as_slice(),
            ],
            q_points: t.q_points,
        }
    }

    /// Creates an incremental updater positioned at the prior (zero
    /// counts). All scratch buffers are allocated here, once; steady-state
    /// [`PosteriorUpdater::update_to`] and [`PosteriorUpdater::rebase`]
    /// calls are allocation-free.
    pub fn updater(&self) -> PosteriorUpdater {
        let (na, nb) = (self.tables.a_cells(), self.tables.b_cells());
        let mut updater = PosteriorUpdater {
            tables: Arc::clone(&self.tables),
            counts: JointCounts::new(),
            ln_w: LaneBuf::filled(self.tables.cells(), f64::NEG_INFINITY),
            max: f64::NEG_INFINITY,
            bounds: vec![f64::NEG_INFINITY; self.tables.run_prior.len()],
            spans: vec![(0, nb); na],
            a_weights: vec![0.0; na],
            b_weights: vec![0.0; nb],
            a_masses: vec![0.0; na],
            b_masses: vec![0.0; nb],
        };
        updater.rebase(&JointCounts::new());
        updater
    }
}

/// Borrowed per-cell log tables of a [`WhiteBoxInference`] grid
/// (unpadded, `(a, b, q)`-major cell order).
#[derive(Debug, Clone, Copy)]
pub struct LogTables<'a> {
    /// Log prior mass per cell; `-inf` for dead cells.
    pub ln_prior: &'a [f64],
    /// `ln` of the four event probabilities per cell, in the reference
    /// order `p11, p10, p01, p00` (Table 1's `r1..r4`).
    pub ln_p: [&'a [f64]; 4],
    /// Cells per `(a, b)` block (coincidence grid points).
    pub q_points: usize,
}

/// The (unnormalised) joint posterior on the grid, with marginalisation
/// queries (paper eqs. (3)–(5)). Holds only its own weights; the grid
/// tables are shared with the engine that produced it.
#[derive(Debug, Clone)]
pub struct WhiteBoxPosterior {
    tables: Arc<GridTables>,
    weights: Vec<f64>,
}

impl WhiteBoxPosterior {
    /// Marginal posterior of `P_A` (eq. (4)). Each sum is an
    /// element-wise serial chain in grid order — the one marginal
    /// association, shared with the incremental updater's fused pass
    /// ([`kernels::exp_stride_sums`]), so batch and incremental
    /// marginals agree bit for bit at equal weights.
    pub fn marginal_a(&self) -> GridPosterior {
        let t = &self.tables;
        let mut sums = vec![0.0; t.a_cells()];
        let mut idx = 0;
        for sum_i in sums.iter_mut() {
            for _ in 0..t.b_cells() * t.q_points {
                *sum_i += self.weights[idx];
                idx += 1;
            }
        }
        GridPosterior::from_weights(t.a_edges.clone(), sums)
    }

    /// Marginal posterior of `P_B` (eq. (5)); same element-wise serial
    /// chains as [`Self::marginal_a`].
    pub fn marginal_b(&self) -> GridPosterior {
        let t = &self.tables;
        let mut sums = vec![0.0; t.b_cells()];
        let mut idx = 0;
        for _ in 0..t.a_cells() {
            for sum_j in sums.iter_mut() {
                for _ in 0..t.q_points {
                    *sum_j += self.weights[idx];
                    idx += 1;
                }
            }
        }
        GridPosterior::from_weights(t.b_edges.clone(), sums)
    }

    /// Marginal posterior of the coincident-failure probability `P_AB`
    /// (eq. (3)), projected onto a uniform grid of `bins` cells over
    /// `[0, min(range_A, range_B)]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn marginal_ab(&self, bins: usize) -> GridPosterior {
        assert!(bins > 0, "need at least one bin");
        let t = &self.tables;
        let range = t.pab_range;
        let mut sums = vec![0.0; bins];
        let mut cells = self.weights.chunks_exact(t.q_points);
        // p_AB per cell from the cell's midpoints, exactly as the
        // construction computes p11.
        for i in 0..t.a_cells() {
            let pa = 0.5 * (t.a_edges[i] + t.a_edges[i + 1]);
            for j in 0..t.b_cells() {
                let pb = 0.5 * (t.b_edges[j] + t.b_edges[j + 1]);
                let block = cells.next().expect("one block per (a, b) pair");
                for (&w, &qp) in block.iter().zip(&t.q_grid) {
                    if w == 0.0 {
                        continue;
                    }
                    let bin = ((qp.p_ab(pa, pb) / range) * bins as f64) as usize;
                    sums[bin.min(bins - 1)] += w;
                }
            }
        }
        let edges: Vec<f64> = (0..=bins).map(|i| range * i as f64 / bins as f64).collect();
        GridPosterior::from_weights(edges, sums)
    }
}

/// Stateful incremental posterior engine (the hot path of the confidence
/// study). Owns all scratch it needs, so steady-state updates perform
/// **zero heap allocation**:
///
/// * `update_to` applies **delta counts** in place — `ln_w += Δr_i ·
///   ln p_i` — as **one** fused, lane-chunked pass over the grid
///   ([`kernels::fused_axpy_max`]): every event class whose count moved
///   is a term of the same sweep, with the running max for stable
///   renormalisation folded in, so a checkpoint touches the ~300k-cell
///   buffer once instead of once per class;
/// * `rebase` recomputes from total counts only the blocks that can
///   still carry posterior mass (see [`PosteriorUpdater::rebase`]);
/// * one further fused pass ([`kernels::exp_stride_sums_rows`])
///   exponentiates the current cells and accumulates both marginal
///   stride sums, in the same order as the batch marginals — skipping
///   the `exp` for cells that provably underflow to exactly `0.0` — so
///   at equal `ln_w` the marginals agree bit-for-bit;
/// * [`PosteriorUpdater::marginal_a`]/[`PosteriorUpdater::marginal_b`]
///   return borrowed [`MarginalView`]s over the cached masses instead of
///   freshly allocated grids.
///
/// Counts normally grow monotonically; if a checkpoint moves any count
/// backwards the updater transparently **rebases**, through the same
/// recompute kernel call [`WhiteBoxInference::posterior`] makes, so the
/// two stay bit-identical by construction. Repeated counts are a no-op.
/// The accumulated delta path can drift from the batch result by a few
/// units in the last place of `ln_w` (one rounding per update);
/// `rebase` restores exact batch bits.
#[derive(Debug, Clone)]
pub struct PosteriorUpdater {
    tables: Arc<GridTables>,
    counts: JointCounts,
    /// Log-weights at `counts`. Only the cells inside `spans` are
    /// current; a pruned rebase leaves the rest stale.
    ln_w: LaneBuf,
    max: f64,
    /// Reused buffer: the upper bound of every run's log-weights. Only
    /// the runs inside the last rebase's surviving rectangle are
    /// current.
    bounds: Vec<f64>,
    /// Per `a` row, the blocks of `ln_w` that are current: `(0, nb)`
    /// everywhere except after a pruned rebase.
    spans: Vec<RowSpan>,
    a_weights: Vec<f64>,
    b_weights: Vec<f64>,
    a_masses: Vec<f64>,
    b_masses: Vec<f64>,
}

impl PosteriorUpdater {
    /// Advances the posterior to the given cumulative counts.
    ///
    /// # Panics
    ///
    /// Panics if the posterior vanishes everywhere (counts impossible
    /// under the prior).
    pub fn update_to(&mut self, counts: &JointCounts) {
        let old = self.counts;
        let monotone = counts.both_failed() >= old.both_failed()
            && counts.only_a_failed() >= old.only_a_failed()
            && counts.only_b_failed() >= old.only_b_failed()
            && counts.both_succeeded() >= old.both_succeeded();
        if !monotone {
            self.rebase(counts);
            return;
        }
        let deltas = [
            (counts.both_failed() - old.both_failed()) as f64,
            (counts.only_a_failed() - old.only_a_failed()) as f64,
            (counts.only_b_failed() - old.only_b_failed()) as f64,
            (counts.both_succeeded() - old.both_succeeded()) as f64,
        ];
        if deltas.iter().all(|&d| d == 0.0) {
            return; // zero-delta checkpoint: nothing moved
        }
        self.restore_skipped();
        let (terms, n) = live_terms(self.tables.cell_tables(), deltas);
        self.max = kernels::fused_axpy_max(self.ln_w.padded_mut(), &terms[..n]);
        self.counts = *counts;
        self.finish_update();
    }

    /// Exact in-place recompute from total counts, restoring batch-path
    /// bits (also the escape hatch for non-monotone count sequences).
    ///
    /// Only the blocks that can carry posterior mass are recomputed:
    ///
    /// 1. the block holding the counts' maximum-likelihood `(P_A, P_B)`
    ///    is recomputed exactly; its maximum `L₀` is a lower bound on
    ///    the grid maximum `M`;
    /// 2. every `a` row and every `b` column is bounded by Gibbs'
    ///    inequality from its three stored line terms (see the module
    ///    docs), and only the rectangle spanned by the lines whose
    ///    bound reaches `L₀ −` [`kernels::SKIP_MARGIN`] `− slack`
    ///    survives;
    /// 3. inside the rectangle, every run of every block is bounded from
    ///    its per-table maxima with the cell recompute's own operation
    ///    sequence (the prior, then one rounded `+= d·max` per live
    ///    term). Rounding is monotone, so no cell of a run exceeds its
    ///    bound. The block with the largest run bound is recomputed
    ///    too, and `L`, the larger of its maximum and `L₀`, is again a
    ///    lower bound on `M`;
    /// 4. each `a` row of the rectangle recomputes the range of blocks
    ///    from its first to its last block with a run bound of at least
    ///    `L − SKIP_MARGIN`.
    ///
    /// Every skipped cell lies below `M − SKIP_MARGIN`, so its `exp`
    /// against `M` is exactly `+0.0` and its contribution to the
    /// marginals is the `+0.0` the full recompute would add; the block
    /// holding `M` is never skipped, so the maximum itself is exact.
    /// The marginals therefore equal the full recompute's bit for bit.
    /// With a broad posterior every block is live and this is the full
    /// recompute.
    ///
    /// # The slack of the line bounds
    ///
    /// The run bounds of step 3 repeat the cells' own rounded
    /// operations; the line bounds of step 2 do not, so they carry a
    /// rounding allowance. Write `u = 2⁻⁵³`, `n` for the demands and
    /// `F = L₀ − SKIP_MARGIN`. Every table entry is `≤ 0` (masses and
    /// probabilities are `≤ 1`), so every sum below adds terms of one
    /// sign. Take a cell whose computed log-weight `v` reaches `F`:
    ///
    /// * its exact sum `V` of table entries is within `5u|V|` of `v`
    ///   (four rounded products and additions), so `V ≥ F − 6u|F|`;
    /// * each table entry is within one ulp, `2u|ln p|`, of the exact
    ///   log of its rounded probability: another `2u|V|`;
    /// * the rounded `p11 + p10` of a cell is at most `p_A(1 + u)`, and
    ///   its rounded `p01 + p00` exceeds `1 − p_A` by at most `4u`, as
    ///   every operand is at most 1 (likewise for columns), so pooling
    ///   loses at most `4u·n/(1 − p)` with `p` the largest grid point
    ///   (`GridTables::line_slack`);
    /// * the line bound itself rounds `ln p` and `ln(1 − p)` (via
    ///   `ln_1p`) to one ulp, `H` to `u·n + 4u|H|` and its four
    ///   additions to `γ₄`: within `8u|B| + u·n` of exact.
    ///
    /// So the cell's line bound is at least `F − 17u|F| − 5u·n/(1 − p)`,
    /// and `slack = 16ε·(|F| + n/(1 − p))` (`ε = 2u`) covers that with
    /// room for the rounding of `F − slack` itself. At 2⁴⁰ demands on
    /// the default grid the slack is about 0.004 nats: it hardly ever
    /// decides a line, but it keeps the skip rule a proof.
    pub fn rebase(&mut self, counts: &JointCounts) {
        let tables = &*self.tables;
        let d = event_counts(counts);
        let [r1, r2, r3, r4] = d;
        let (nb, runs) = (tables.b_cells(), tables.runs);
        let ln_w = self.ln_w.padded_mut();

        // 1. The exact lower bound L₀.
        let likeliest = tables.block_of(counts);
        let lower = tables.recompute_blocks(d, ln_w, likeliest..likeliest + 1);

        // 2. The rows and columns that can reach L₀ − SKIP_MARGIN.
        let floor = lower - SKIP_MARGIN;
        let n = counts.demands() as f64;
        let slack = 16.0 * f64::EPSILON * (floor.abs() + n * tables.line_slack);
        let line_floor = floor - slack;
        let rows = live_lines(
            &tables.rows,
            [r1 + r2, r3 + r4],
            gibbs(r1, r2) + gibbs(r3, r4),
            line_floor,
        );
        let cols = live_lines(
            &tables.cols,
            [r1 + r3, r2 + r4],
            gibbs(r1, r3) + gibbs(r2, r4),
            line_floor,
        );

        // 3. Run bounds inside the rectangle, and the block with the
        //    largest (the first one in grid order on a tie).
        let mut top = (f64::NEG_INFINITY, likeliest);
        for a in rows.clone() {
            let blocks = a * nb + cols.start..a * nb + cols.end;
            let bounds = &mut self.bounds[blocks.start * runs..blocks.end * runs];
            let row_top = tables.bound_runs(d, bounds, blocks.clone());
            if row_top > top.0 {
                let at = bounds.iter().position(|&b| b == row_top).unwrap_or(0);
                top = (row_top, blocks.start + at / runs);
            }
        }
        let lower = if top.1 == likeliest {
            lower
        } else {
            lower.max(tables.recompute_blocks(d, ln_w, top.1..top.1 + 1))
        };

        // 4. Each row's span of blocks that can reach L − SKIP_MARGIN.
        let floor = lower - SKIP_MARGIN;
        let live = |block: &[f64]| block.iter().any(|&b| b >= floor);
        let mut max = f64::NEG_INFINITY;
        for (a, span) in self.spans.iter_mut().enumerate() {
            *span = (0, 0);
            if !rows.contains(&a) {
                continue;
            }
            let row = a * nb;
            let bounds = &self.bounds[(row + cols.start) * runs..(row + cols.end) * runs];
            let blocks = || bounds.chunks_exact(runs);
            if let (Some(lo), Some(hi)) = (blocks().position(live), blocks().rposition(live)) {
                *span = (cols.start + lo, cols.start + hi + 1);
                max = max.max(tables.recompute_blocks(d, ln_w, row + span.0..row + span.1));
            }
        }
        self.max = max;
        self.counts = *counts;
        self.finish_update();
    }

    /// Recomputes, at the current counts, the cells a pruned rebase
    /// skipped, so the delta path continues from the full grid's bits.
    /// The skipped cells all lie far below the maximum, which stays.
    fn restore_skipped(&mut self) {
        let tables = &*self.tables;
        let nb = tables.b_cells();
        let counts_by_class = event_counts(&self.counts);
        let ln_w = self.ln_w.padded_mut();
        for (a, span) in self.spans.iter_mut().enumerate() {
            if *span != (0, nb) {
                let row = a * nb;
                tables.recompute_blocks(counts_by_class, ln_w, row..row + span.0);
                tables.recompute_blocks(counts_by_class, ln_w, row + span.1..row + nb);
                *span = (0, nb);
            }
        }
    }

    fn finish_update(&mut self) {
        let counts = self.counts;
        assert!(
            self.max.is_finite(),
            "posterior vanished everywhere: counts {counts} are impossible under the prior"
        );
        self.refresh_marginals();
    }

    /// One fused pass: exponentiate every current cell against the
    /// running max and accumulate both marginal stride sums in grid
    /// order (the exact addition order of the batch marginals), then
    /// normalise into the cached mass buffers. Cells whose shifted
    /// log-weight provably underflows to `0.0` — including every cell a
    /// pruned rebase skipped — skip both the `exp` and the no-op
    /// additions (bit-identical; see [`kernels::EXP_UNDERFLOW`]).
    fn refresh_marginals(&mut self) {
        kernels::exp_stride_sums_rows(
            self.ln_w.padded(),
            self.max,
            self.tables.q_points,
            &self.spans,
            &mut self.a_weights,
            &mut self.b_weights,
        );
        posterior::normalize_into(&self.a_weights, &mut self.a_masses);
        posterior::normalize_into(&self.b_weights, &mut self.b_masses);
    }

    /// The cumulative counts the posterior currently reflects.
    pub fn counts(&self) -> JointCounts {
        self.counts
    }

    /// How many `(a, b)` blocks of the grid hold current log-weights:
    /// those the last [`Self::rebase`] recomputed, or every block after
    /// [`Self::update_to`] moved the counts.
    pub fn live_blocks(&self) -> usize {
        self.spans.iter().map(|&(lo, hi)| hi - lo).sum()
    }

    /// Per `a` row, the range `lo..hi` of `b` blocks that hold current
    /// log-weights (the blocks [`Self::live_blocks`] counts).
    pub fn live_spans(&self) -> &[RowSpan] {
        &self.spans
    }

    /// Borrowed marginal of `P_A` (eq. (4)); allocation-free.
    pub fn marginal_a(&self) -> MarginalView<'_> {
        MarginalView::new(&self.tables.a_edges, &self.a_masses)
    }

    /// Borrowed marginal of `P_B` (eq. (5)); allocation-free.
    pub fn marginal_b(&self) -> MarginalView<'_> {
        MarginalView::new(&self.tables.b_edges, &self.b_masses)
    }

    /// Owned marginal of `P_A`, bit-identical to
    /// `posterior(counts).marginal_a()` at the same `ln_w` (allocates).
    pub fn marginal_a_posterior(&self) -> GridPosterior {
        GridPosterior::from_weights(self.tables.a_edges.clone(), self.a_weights.clone())
    }

    /// Owned marginal of `P_B` (allocates).
    pub fn marginal_b_posterior(&self) -> GridPosterior {
        GridPosterior::from_weights(self.tables.b_edges.clone(), self.b_weights.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario1_engine(res: Resolution) -> WhiteBoxInference {
        let prior_a = ScaledBeta::new(20.0, 20.0, 0.002).unwrap();
        let prior_b = ScaledBeta::new(2.0, 3.0, 0.002).unwrap();
        WhiteBoxInference::with_resolution(
            prior_a,
            prior_b,
            CoincidencePrior::IndifferenceUniform,
            res,
        )
    }

    fn small() -> Resolution {
        Resolution {
            a_cells: 40,
            b_cells: 40,
            q_cells: 12,
        }
    }

    #[test]
    fn prior_marginals_match_the_priors() {
        let engine = scenario1_engine(small());
        let prior = engine.prior_posterior();
        let ma = prior.marginal_a();
        let mb = prior.marginal_b();
        assert!((ma.mean() - 1e-3).abs() < 2e-5, "mean_a {}", ma.mean());
        assert!((mb.mean() - 0.8e-3).abs() < 2e-5, "mean_b {}", mb.mean());
        // 99th percentile of the A prior ~ mean + 2.33 sd.
        let exact = engine.prior_a().quantile(0.99);
        assert!(
            (ma.percentile(0.99) - exact).abs() < 5e-5,
            "{} vs {}",
            ma.percentile(0.99),
            exact
        );
    }

    #[test]
    fn indifference_prior_halves_the_smaller_marginal() {
        // E[P_AB | P_A, P_B] = min(P_A, P_B)/2 under indifference; so the
        // prior mean of P_AB should be E[min(P_A,P_B)]/2 < min of means/2.
        let engine = scenario1_engine(small());
        let mab = engine.prior_posterior().marginal_ab(64);
        let mean = mab.mean();
        assert!(mean > 0.0 && mean < 0.8e-3 / 2.0 + 1e-5, "mean {mean}");
    }

    #[test]
    fn clean_evidence_tightens_b() {
        let engine = scenario1_engine(small());
        let prior_p99 = engine.prior_posterior().marginal_b().percentile(0.99);
        let counts = JointCounts::from_raw(20_000, 0, 0, 0);
        let post_p99 = engine.posterior(&counts).marginal_b().percentile(0.99);
        assert!(post_p99 < prior_p99, "{post_p99} !< {prior_p99}");
    }

    #[test]
    fn failures_of_b_push_b_up_not_a() {
        let engine = scenario1_engine(small());
        let prior = engine.prior_posterior();
        // 30 B-only failures in 10_000 demands.
        let counts = JointCounts::from_raw(10_000, 0, 0, 30);
        let post = engine.posterior(&counts);
        assert!(post.marginal_b().mean() > prior.marginal_b().mean());
        // A's posterior should have *fallen* (10_000 clean demands for A).
        assert!(post.marginal_a().mean() < prior.marginal_a().mean());
    }

    #[test]
    fn posterior_concentrates_on_true_marginals() {
        // Large-sample check: posterior means approach the empirical rates.
        let engine = scenario1_engine(Resolution {
            a_cells: 80,
            b_cells: 80,
            q_cells: 16,
        });
        // pa = 1e-3, pb = 0.8e-3, pab = 0.3e-3 over 50_000 demands.
        let counts = JointCounts::from_raw(50_000, 15, 35, 25);
        let post = engine.posterior(&counts);
        let ma = post.marginal_a().mean();
        let mb = post.marginal_b().mean();
        assert!((ma - 1e-3).abs() < 2e-4, "ma {ma}");
        assert!((mb - 0.8e-3).abs() < 2e-4, "mb {mb}");
        let mab = post.marginal_ab(64).mean();
        assert!((mab - 0.3e-3).abs() < 1.5e-4, "mab {mab}");
    }

    #[test]
    fn coincident_failures_update_pab() {
        let engine = scenario1_engine(small());
        let prior_ab = engine.prior_posterior().marginal_ab(32).mean();
        let counts = JointCounts::from_raw(10_000, 20, 0, 0);
        let post_ab = engine.posterior(&counts).marginal_ab(32).mean();
        assert!(post_ab > prior_ab, "{post_ab} !< {prior_ab}");
    }

    #[test]
    fn independent_coincidence_prior_is_supported() {
        let prior = ScaledBeta::new(2.0, 3.0, 0.002).unwrap();
        let engine = WhiteBoxInference::with_resolution(
            prior,
            prior,
            CoincidencePrior::Independent,
            small(),
        );
        // Under independence with pfds <= 0.002, P_AB <= 4e-6: all the
        // mass must land in the lowest projection bin.
        let mab = engine.prior_posterior().marginal_ab(32);
        let first_bin_width = 0.002 / 32.0;
        assert!(mab.confidence(first_bin_width) > 0.999);
        assert!(mab.mean() <= first_bin_width);
    }

    #[test]
    fn fixed_fraction_prior_is_supported() {
        let prior = ScaledBeta::new(2.0, 3.0, 0.002).unwrap();
        let engine = WhiteBoxInference::with_resolution(
            prior,
            prior,
            CoincidencePrior::FixedFraction(0.5),
            small(),
        );
        let post = engine.posterior(&JointCounts::from_raw(1000, 1, 1, 1));
        assert!(post.marginal_a().mean() > 0.0);
    }

    #[test]
    fn scaled_uniform_is_less_conservative_than_indifference() {
        let prior_a = ScaledBeta::new(20.0, 20.0, 0.002).unwrap();
        let prior_b = ScaledBeta::new(2.0, 3.0, 0.002).unwrap();
        let indiff = WhiteBoxInference::with_resolution(
            prior_a,
            prior_b,
            CoincidencePrior::IndifferenceUniform,
            small(),
        );
        let optimistic = WhiteBoxInference::with_resolution(
            prior_a,
            prior_b,
            CoincidencePrior::ScaledUniform(0.2),
            small(),
        );
        let ab_indiff = indiff.prior_posterior().marginal_ab(32).mean();
        let ab_opt = optimistic.prior_posterior().marginal_ab(32).mean();
        assert!(ab_opt < ab_indiff, "{ab_opt} !< {ab_indiff}");
    }

    #[test]
    fn marginals_are_normalised() {
        let engine = scenario1_engine(small());
        let post = engine.posterior(&JointCounts::from_raw(5_000, 2, 3, 1));
        for marg in [post.marginal_a(), post.marginal_b(), post.marginal_ab(16)] {
            let total: f64 = marg.masses().iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "not in (0, 1]")]
    fn scaled_uniform_rejects_bad_parameter() {
        let prior = ScaledBeta::new(2.0, 3.0, 0.002).unwrap();
        let _ = WhiteBoxInference::new(prior, prior, CoincidencePrior::ScaledUniform(0.0));
    }

    #[test]
    fn accessors_round_trip() {
        let engine = scenario1_engine(small());
        assert_eq!(engine.resolution(), small());
        assert_eq!(engine.coincidence(), CoincidencePrior::IndifferenceUniform);
        assert_eq!(engine.prior_a().alpha(), 20.0);
        assert_eq!(engine.prior_b().alpha(), 2.0);
    }

    /// FNV-1a over the bits of a marginal's edges and masses.
    fn bits_digest(marginal: &GridPosterior) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &v in marginal.grid().iter().chain(marginal.masses()) {
            for byte in v.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn marginal_ab_bits_are_pinned() {
        // Digests recorded when marginal_ab still read a stored per-cell
        // p_AB table; the per-cell recomputation must bin every weight
        // exactly as before.
        let prior = ScaledBeta::new(2.0, 3.0, 0.002).unwrap();
        let scaled = WhiteBoxInference::with_resolution(
            prior,
            ScaledBeta::new(20.0, 20.0, 0.003).unwrap(),
            CoincidencePrior::ScaledUniform(0.5),
            Resolution {
                a_cells: 24,
                b_cells: 20,
                q_cells: 6,
            },
        );
        let independent = WhiteBoxInference::with_resolution(
            prior,
            prior,
            CoincidencePrior::Independent,
            small(),
        );
        let indifference = scenario1_engine(small());
        let digests = [
            bits_digest(
                &indifference
                    .posterior(&JointCounts::from_raw(10_000, 20, 3, 1))
                    .marginal_ab(64),
            ),
            bits_digest(
                &scaled
                    .posterior(&JointCounts::from_raw(50_000, 15, 35, 25))
                    .marginal_ab(64),
            ),
            bits_digest(&independent.prior_posterior().marginal_ab(64)),
        ];
        assert_eq!(
            digests,
            [
                0xd874_4601_3715_d7e6,
                0x434a_c6d6_7914_4501,
                0x8a82_6bdf_fc11_bc1d
            ]
        );
    }

    /// The reference tables of [`copying_build`]: the axis edges,
    /// `ln_prior, ln_p11..ln_p00` per cell and per run, and the lines'
    /// log-prior maxima.
    struct CopyingBuild {
        edges: [Vec<f64>; 2],
        columns: [Vec<f64>; 5],
        run_columns: [Vec<f64>; 5],
        rows: Vec<f64>,
        cols: Vec<f64>,
    }

    /// The edges, the per-cell columns, the run maxima and the lines'
    /// log-prior maxima as the construction computed them when it
    /// filled plain `Vec` columns and then copied each into its lane
    /// buffer (padded with `-inf`), and when an axis could cover a
    /// window `(lo, hi)` of its support, here the whole support: the
    /// reference the in-place build must match bit for bit.
    fn copying_build(
        prior_a: ScaledBeta,
        prior_b: ScaledBeta,
        coincidence: CoincidencePrior,
        resolution: Resolution,
    ) -> CopyingBuild {
        let (na, nb) = (resolution.a_cells, resolution.b_cells);
        let windowed_edges = |(lo, hi): (f64, f64), n: usize| -> Vec<f64> {
            (0..=n)
                .map(|i| lo + (hi - lo) * i as f64 / n as f64)
                .collect()
        };
        let a_edges = windowed_edges((0.0, prior_a.range()), na);
        let b_edges = windowed_edges((0.0, prior_b.range()), nb);
        let midpoint = |edges: &[f64], k: usize| 0.5 * (edges[k] + edges[k + 1]);
        let mut rows = vec![f64::NEG_INFINITY; na];
        let mut cols = vec![f64::NEG_INFINITY; nb];
        let a_mass: Vec<f64> = (0..na)
            .map(|i| prior_a.mass(a_edges[i], a_edges[i + 1]))
            .collect();
        let b_mass: Vec<f64> = (0..nb)
            .map(|j| prior_b.mass(b_edges[j], b_edges[j + 1]))
            .collect();
        let q_grid = coincidence.q_grid(resolution.q_cells);
        let q_points = q_grid.len();
        let cells = na * nb * q_points;
        let mut columns: [Vec<f64>; 5] = std::array::from_fn(|_| Vec::with_capacity(cells));
        let run_len = q_points.div_ceil(RUNS);
        let runs = q_points.div_ceil(run_len);
        let mut run_columns: [Vec<f64>; 5] =
            std::array::from_fn(|_| Vec::with_capacity(na * nb * runs));
        for i in 0..na {
            let pa = midpoint(&a_edges, i);
            for j in 0..nb {
                let pb = midpoint(&b_edges, j);
                let base_mass = a_mass[i] * b_mass[j];
                let mut run_max = [[f64::NEG_INFINITY; 5]; RUNS];
                for (k, &(qp, q_mass)) in q_grid.iter().enumerate() {
                    let p11 = qp.p_ab(pa, pb);
                    let p10 = pa - p11;
                    let p01 = pb - p11;
                    let p00 = 1.0 - pa - pb + p11;
                    let prior = base_mass * q_mass;
                    let valid = prior > 0.0 && p11 >= 0.0 && p10 >= 0.0 && p01 >= 0.0 && p00 > 0.0;
                    let logs = if valid {
                        [prior.ln(), p11.ln(), p10.ln(), p01.ln(), p00.ln()]
                    } else {
                        [f64::NEG_INFINITY; 5]
                    };
                    let maxima = &mut run_max[k / run_len];
                    for ((column, max), v) in columns.iter_mut().zip(maxima).zip(logs) {
                        column.push(v);
                        if v > *max {
                            *max = v;
                        }
                    }
                }
                for maxima in &run_max[..runs] {
                    for (column, &max) in run_columns.iter_mut().zip(maxima) {
                        column.push(max);
                    }
                    rows[i] = rows[i].max(maxima[0]);
                    cols[j] = cols[j].max(maxima[0]);
                }
            }
        }
        CopyingBuild {
            edges: [a_edges, b_edges],
            columns,
            run_columns,
            rows,
            cols,
        }
    }

    #[test]
    fn in_place_build_matches_the_copying_build() {
        let prior_a = ScaledBeta::new(20.0, 20.0, 0.002).unwrap();
        let prior_b = ScaledBeta::new(2.0, 3.0, 0.003).unwrap();
        // An odd q count, so the second run of a block is the shorter.
        let res = Resolution {
            a_cells: 24,
            b_cells: 20,
            q_cells: 7,
        };
        // Axes of other lengths and an even q count.
        let other = Resolution {
            a_cells: 9,
            b_cells: 31,
            q_cells: 10,
        };
        for (coincidence, res) in [
            (CoincidencePrior::IndifferenceUniform, res),
            (CoincidencePrior::ScaledUniform(0.3), res),
            (CoincidencePrior::FixedFraction(0.5), res),
            (CoincidencePrior::Independent, res),
            (CoincidencePrior::IndifferenceUniform, other),
        ] {
            let engine = WhiteBoxInference::with_resolution(prior_a, prior_b, coincidence, res);
            let reference = copying_build(prior_a, prior_b, coincidence, res);
            let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let t = &engine.tables;
            assert_eq!(bits(&t.a_edges), bits(&reference.edges[0]), "{res:?}");
            assert_eq!(bits(&t.b_edges), bits(&reference.edges[1]), "{res:?}");
            let got = engine.log_tables();
            for (table, want) in [got.ln_prior]
                .iter()
                .chain(&got.ln_p)
                .zip(&reference.columns)
            {
                assert_eq!(bits(table), bits(want), "{coincidence:?} {res:?}");
            }
            for (table, want) in [&t.run_prior]
                .into_iter()
                .chain(&t.run_p)
                .zip(&reference.run_columns)
            {
                assert_eq!(bits(table), bits(want), "{coincidence:?} run maxima");
            }
            let line_priors = |lines: &[Line]| lines.iter().map(|l| l.ln_prior).collect::<Vec<_>>();
            assert_eq!(bits(&line_priors(&t.rows)), bits(&reference.rows));
            assert_eq!(bits(&line_priors(&t.cols)), bits(&reference.cols));
            for table in [&t.ln_prior, &t.ln_p11, &t.ln_p10, &t.ln_p01, &t.ln_p00] {
                assert!(table.padded()[t.cells()..]
                    .iter()
                    .all(|&v| v == f64::NEG_INFINITY));
            }
        }
    }

    #[test]
    fn skipped_blocks_lie_below_the_underflow_floor() {
        let engine = WhiteBoxInference::new(
            ScaledBeta::new(1.0, 10.0, 0.01).unwrap(),
            ScaledBeta::new(2.0, 3.0, 0.01).unwrap(),
            CoincidencePrior::IndifferenceUniform,
        );
        let tables = &engine.tables;
        let (na, nb, q) = (tables.a_cells(), tables.b_cells(), tables.q_points);
        let mut updater = engine.updater();
        let mut skipped_somewhere = false;
        for counts in [
            JointCounts::new(),
            JointCounts::from_raw(2_500, 0, 4, 1),
            JointCounts::from_raw(400_000, 3, 700, 190),
            JointCounts::from_raw(4_096_000, 0, 7_173, 1_934),
            JointCounts::from_raw(10_000_000, 900, 17_000, 5_000),
        ] {
            updater.rebase(&counts);
            let mut exact = vec![f64::NEG_INFINITY; tables.padded_cells()];
            let max = tables.recompute_blocks(event_counts(&counts), &mut exact, 0..na * nb);
            assert_eq!(updater.max.to_bits(), max.to_bits(), "{counts}");
            for a in 0..na {
                let (lo, hi) = updater.spans[a];
                for b in 0..nb {
                    let block = (a * nb + b) * q..(a * nb + b + 1) * q;
                    if (lo..hi).contains(&b) {
                        for c in block {
                            assert_eq!(updater.ln_w.as_slice()[c].to_bits(), exact[c].to_bits());
                        }
                    } else {
                        skipped_somewhere = true;
                        for &w in &exact[block] {
                            assert!(
                                w < max - 750.0,
                                "{counts}: block ({a}, {b}) cell {w} vs max {max}"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            skipped_somewhere,
            "concentrated counts must prune some blocks"
        );
    }
}
