//! Black-box inference (paper Section 5.1, eq. (1)).
//!
//! The WS is a black box: on each demand it either succeeds or fails
//! (Fig. 6). Given a scaled-Beta prior over the pfd and an observation of
//! `r` failures in `n` demands, the posterior is
//!
//! ```text
//! f(x | r, n) ∝ L(n, r | x) · f(x),   L(n, r | x) = C(n, r) xʳ (1−x)ⁿ⁻ʳ
//! ```
//!
//! computed here on a 1-D grid in log-space. When the prior support is the
//! whole unit interval the Beta prior is conjugate and the posterior is
//! `Beta(α+r, β+n−r)` exactly; the grid implementation is validated
//! against that closed form in the tests.

use std::sync::Arc;

use crate::beta::ScaledBeta;
use crate::kernels;
use crate::posterior::{self, GridPosterior, MarginalView};

/// Black-box Bayesian inference for a single release's pfd.
///
/// # Example
///
/// ```
/// use wsu_bayes::beta::ScaledBeta;
/// use wsu_bayes::blackbox::BlackBoxInference;
///
/// let prior = ScaledBeta::standard(1.0, 1.0).unwrap(); // uniform
/// let inf = BlackBoxInference::new(prior, 1024);
/// let post = inf.posterior(10, 1);
/// // Conjugate answer: Beta(2, 10), mean 2/12.
/// assert!((post.mean() - 2.0 / 12.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct BlackBoxInference {
    prior: ScaledBeta,
    cells: usize,
    tables: Arc<BlackBoxTables>,
}

/// Precomputed per-cell tables, shared (via `Arc`) with any incremental
/// updaters so queries never copy them.
#[derive(Debug)]
struct BlackBoxTables {
    /// Per-cell prior masses, precomputed.
    prior_mass: Vec<f64>,
    /// Per-cell `ln(mid)` and `ln(1 − mid)` for the likelihood.
    ln_mid: Vec<f64>,
    ln_one_minus_mid: Vec<f64>,
    edges: Vec<f64>,
}

impl BlackBoxTables {
    /// Recomputes `ln_w` from total counts with the reference operation
    /// order of the batch posterior, returning nothing; the caller folds
    /// the max exactly as the batch path does.
    fn accumulate_ln_w(&self, demands: u64, failures: u64, ln_w: &mut [f64]) {
        let r = failures as f64;
        let s = (demands - failures) as f64;
        for (i, slot) in ln_w.iter_mut().enumerate() {
            let prior = self.prior_mass[i];
            *slot = if prior == 0.0 {
                f64::NEG_INFINITY
            } else {
                // xlny convention: a zero count contributes nothing even
                // when the log-probability is -inf at a grid endpoint.
                let like_fail = if r == 0.0 { 0.0 } else { r * self.ln_mid[i] };
                let like_ok = if s == 0.0 {
                    0.0
                } else {
                    s * self.ln_one_minus_mid[i]
                };
                prior.ln() + like_fail + like_ok
            };
        }
    }
}

impl BlackBoxInference {
    /// Creates an inference engine over a uniform grid of `cells` cells
    /// spanning the prior's support.
    ///
    /// # Panics
    ///
    /// Panics if `cells == 0`.
    pub fn new(prior: ScaledBeta, cells: usize) -> BlackBoxInference {
        assert!(cells > 0, "need at least one grid cell");
        let range = prior.range();
        let w = range / cells as f64;
        let edges: Vec<f64> = (0..=cells).map(|i| i as f64 * w).collect();
        let mut prior_mass = Vec::with_capacity(cells);
        let mut ln_mid = Vec::with_capacity(cells);
        let mut ln_one_minus_mid = Vec::with_capacity(cells);
        // `prior.mass(lo, hi)` is `(cdf(hi) − cdf(lo)).max(0.0)`; each
        // interior edge's CDF is evaluated once and reused as the next
        // cell's lower end, with the same subtraction.
        let mut cdf_lo = prior.cdf(edges[0]);
        for i in 0..cells {
            let lo = edges[i];
            let hi = edges[i + 1];
            let mid = 0.5 * (lo + hi);
            let cdf_hi = prior.cdf(hi);
            prior_mass.push((cdf_hi - cdf_lo).max(0.0));
            cdf_lo = cdf_hi;
            ln_mid.push(mid.ln());
            ln_one_minus_mid.push((1.0 - mid).ln());
        }
        BlackBoxInference {
            prior,
            cells,
            tables: Arc::new(BlackBoxTables {
                prior_mass,
                ln_mid,
                ln_one_minus_mid,
                edges,
            }),
        }
    }

    /// The prior this engine was built with.
    pub fn prior(&self) -> ScaledBeta {
        self.prior
    }

    /// Grid resolution.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The prior's mass in each grid cell, in cell order (the table
    /// every posterior starts from).
    pub fn prior_masses(&self) -> &[f64] {
        &self.tables.prior_mass
    }

    /// Posterior over the pfd after observing `failures` failures in
    /// `demands` demands.
    ///
    /// # Panics
    ///
    /// Panics if `failures > demands`.
    pub fn posterior(&self, demands: u64, failures: u64) -> GridPosterior {
        assert!(
            failures <= demands,
            "failures ({failures}) exceed demands ({demands})"
        );
        let mut ln_w = vec![f64::NEG_INFINITY; self.cells];
        self.tables.accumulate_ln_w(demands, failures, &mut ln_w);
        let max = ln_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = ln_w
            .into_iter()
            .map(|w| if w.is_finite() { (w - max).exp() } else { 0.0 })
            .collect();
        GridPosterior::from_weights(self.tables.edges.clone(), weights)
    }

    /// The prior expressed on the same grid (posterior with no evidence).
    pub fn prior_on_grid(&self) -> GridPosterior {
        self.posterior(0, 0)
    }

    /// Creates an incremental updater positioned at the prior. All
    /// scratch is allocated here, once; steady-state
    /// [`BlackBoxUpdater::update_to`] calls are allocation-free.
    pub fn updater(&self) -> BlackBoxUpdater {
        let mut updater = BlackBoxUpdater {
            tables: Arc::clone(&self.tables),
            demands: 0,
            failures: 0,
            ln_w: vec![f64::NEG_INFINITY; self.cells],
            max: f64::NEG_INFINITY,
            weights: vec![0.0; self.cells],
            masses: vec![0.0; self.cells],
        };
        updater.rebase(0, 0);
        updater
    }
}

/// Incremental counterpart of [`BlackBoxInference::posterior`]: applies
/// delta counts in place (`ln_w += Δr·ln x + Δs·ln(1−x)`), keeps the
/// cached weights and normalised masses up to date, and answers queries
/// through a borrowed [`MarginalView`] — zero heap allocation in steady
/// state. Non-monotone count sequences transparently rebase (an exact
/// recompute with the batch operation order).
#[derive(Debug, Clone)]
pub struct BlackBoxUpdater {
    tables: Arc<BlackBoxTables>,
    demands: u64,
    failures: u64,
    ln_w: Vec<f64>,
    max: f64,
    weights: Vec<f64>,
    masses: Vec<f64>,
}

impl BlackBoxUpdater {
    /// Advances the posterior to the given cumulative evidence.
    ///
    /// # Panics
    ///
    /// Panics if `failures > demands`.
    pub fn update_to(&mut self, demands: u64, failures: u64) {
        assert!(
            failures <= demands,
            "failures ({failures}) exceed demands ({demands})"
        );
        let old_successes = self.demands - self.failures;
        let successes = demands - failures;
        if failures < self.failures || successes < old_successes {
            self.rebase(demands, failures);
            return;
        }
        let dr = (failures - self.failures) as f64;
        let ds = (successes - old_successes) as f64;
        if dr == 0.0 && ds == 0.0 {
            return;
        }
        if dr > 0.0 {
            for (w, &p) in self.ln_w.iter_mut().zip(&self.tables.ln_mid) {
                *w += dr * p;
            }
        }
        if ds > 0.0 {
            for (w, &p) in self.ln_w.iter_mut().zip(&self.tables.ln_one_minus_mid) {
                *w += ds * p;
            }
        }
        self.demands = demands;
        self.failures = failures;
        self.refresh();
    }

    /// Exact in-place recompute from total counts (batch-path bits).
    pub fn rebase(&mut self, demands: u64, failures: u64) {
        assert!(
            failures <= demands,
            "failures ({failures}) exceed demands ({demands})"
        );
        let tables = Arc::clone(&self.tables);
        tables.accumulate_ln_w(demands, failures, &mut self.ln_w);
        self.demands = demands;
        self.failures = failures;
        self.refresh();
    }

    /// Recomputes the weights `exp(ln w − max)` (`0.0` for dead cells)
    /// and the normalised masses from `ln_w`. The chunked kernel is bit
    /// for bit the plain libm loop ([`kernels::scalar::exp_weights`]).
    fn refresh(&mut self) {
        self.max = self.ln_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        kernels::exp_weights(&self.ln_w, self.max, &mut self.weights);
        posterior::normalize_into(&self.weights, &mut self.masses);
    }

    /// Demands reflected in the posterior.
    pub fn demands(&self) -> u64 {
        self.demands
    }

    /// Failures reflected in the posterior.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// The cached per-cell log-weights (`-inf` where the prior
    /// vanishes).
    pub fn ln_weights(&self) -> &[f64] {
        &self.ln_w
    }

    /// The cached unnormalised weights, `exp(ln w − max ln w)` per cell.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Borrowed view of the current posterior; allocation-free.
    pub fn posterior_view(&self) -> MarginalView<'_> {
        MarginalView::new(&self.tables.edges, &self.masses)
    }

    /// `P(pfd ≤ target)` from the cached posterior.
    pub fn confidence(&self, target: f64) -> f64 {
        self.posterior_view().confidence(target)
    }

    /// The `c`-percentile from the cached posterior.
    pub fn percentile(&self, c: f64) -> f64 {
        self.posterior_view().percentile(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With support [0, 1] the Beta prior is conjugate; the grid result
    /// must match `Beta(α+r, β+n−r)` percentiles closely.
    #[test]
    fn grid_matches_conjugate_posterior() {
        let prior = ScaledBeta::standard(2.0, 3.0).unwrap();
        let inf = BlackBoxInference::new(prior, 4096);
        let (n, r) = (50u64, 4u64);
        let grid = inf.posterior(n, r);
        let exact = ScaledBeta::standard(2.0 + r as f64, 3.0 + (n - r) as f64).unwrap();
        for &c in &[0.1, 0.5, 0.9, 0.99] {
            let g = grid.percentile(c);
            let e = exact.quantile(c);
            assert!((g - e).abs() < 2e-3, "c={c}: grid {g} vs exact {e}");
        }
        assert!((grid.mean() - exact.mean()).abs() < 1e-3);
    }

    #[test]
    fn no_evidence_returns_prior() {
        let prior = ScaledBeta::new(20.0, 20.0, 0.002).unwrap();
        let inf = BlackBoxInference::new(prior, 1024);
        let post = inf.prior_on_grid();
        assert!((post.mean() - prior.mean()).abs() < 1e-6);
        assert!((post.percentile(0.99) - prior.quantile(0.99)).abs() < 1e-5);
    }

    #[test]
    fn clean_run_tightens_the_posterior() {
        let prior = ScaledBeta::new(2.0, 3.0, 0.002).unwrap();
        let inf = BlackBoxInference::new(prior, 1024);
        let p0 = inf.posterior(0, 0).percentile(0.99);
        let p1 = inf.posterior(1_000, 0).percentile(0.99);
        let p2 = inf.posterior(10_000, 0).percentile(0.99);
        assert!(p1 < p0, "{p1} !< {p0}");
        assert!(p2 < p1, "{p2} !< {p1}");
    }

    #[test]
    fn failures_push_posterior_up() {
        let prior = ScaledBeta::new(2.0, 3.0, 0.01).unwrap();
        let inf = BlackBoxInference::new(prior, 1024);
        let clean = inf.posterior(1_000, 0).mean();
        let dirty = inf.posterior(1_000, 8).mean();
        assert!(dirty > clean);
        // With 8/1000 observed, the posterior mean should approach 8e-3.
        assert!((dirty - 8e-3).abs() < 2e-3, "mean {dirty}");
    }

    #[test]
    fn confidence_grows_with_clean_evidence() {
        let prior = ScaledBeta::new(2.0, 3.0, 0.002).unwrap();
        let inf = BlackBoxInference::new(prior, 1024);
        let target = 1e-3;
        let c0 = inf.posterior(0, 0).confidence(target);
        let c1 = inf.posterior(2_000, 0).confidence(target);
        let c2 = inf.posterior(20_000, 0).confidence(target);
        assert!(c0 < c1 && c1 < c2, "{c0} {c1} {c2}");
        assert!(c2 > 0.99);
    }

    #[test]
    fn posterior_concentrates_on_true_rate() {
        // 100 failures in 100_000 demands -> pfd ~ 1e-3.
        let prior = ScaledBeta::new(1.0, 1.0, 0.01).unwrap();
        let inf = BlackBoxInference::new(prior, 2048);
        let post = inf.posterior(100_000, 100);
        assert!((post.mean() - 1e-3).abs() < 2e-4, "mean {}", post.mean());
        // 99% credible upper bound is near the Poisson upper bound (~1.25e-3).
        let ub = post.percentile(0.99);
        assert!(ub > 1e-3 && ub < 1.5e-3, "ub {ub}");
    }

    #[test]
    #[should_panic(expected = "exceed demands")]
    fn rejects_more_failures_than_demands() {
        let prior = ScaledBeta::standard(1.0, 1.0).unwrap();
        BlackBoxInference::new(prior, 16).posterior(1, 2);
    }

    #[test]
    fn accessors() {
        let prior = ScaledBeta::standard(1.0, 1.0).unwrap();
        let inf = BlackBoxInference::new(prior, 16);
        assert_eq!(inf.cells(), 16);
        assert_eq!(inf.prior(), prior);
    }
}
