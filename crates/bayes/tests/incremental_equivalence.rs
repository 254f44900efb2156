//! Golden-equivalence suite: the incremental updaters must agree with
//! the batch `posterior()` path.
//!
//! * `rebase()` recomputes in place with the exact batch loop, so its
//!   marginals are **bit-for-bit** equal to the batch marginals.
//! * the delta path (`update_to` across checkpoints) accumulates the
//!   same log-weights up to floating-point re-association; across
//!   realistic sequences the drift is ~1e-13 relative, far below the
//!   7 significant digits the experiment artefacts print. The tests
//!   bound it at 1e-9 relative.
//! * the black-box grid's prior table equals `prior.mass(lo, hi)` per
//!   cell, and its updater's weights and masses equal a plain libm
//!   exponentiation of its own log-weights, bit for bit.
//!
//! Sequences are generated with a seeded LCG (the crate has no RNG
//! dependency), covering all four [`CoincidencePrior`] variants plus
//! zero-delta and out-of-order (non-monotone) checkpoints.

use wsu_bayes::beta::ScaledBeta;
use wsu_bayes::blackbox::BlackBoxInference;
use wsu_bayes::counts::JointCounts;
use wsu_bayes::whitebox::{CoincidencePrior, Resolution, WhiteBoxInference};

struct Lcg(u64);

impl Lcg {
    fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    fn below(&mut self, n: u32) -> u64 {
        u64::from(self.next_u32() % n)
    }
}

const RES: Resolution = Resolution {
    a_cells: 24,
    b_cells: 24,
    q_cells: 8,
};

fn engine(coincidence: CoincidencePrior) -> WhiteBoxInference {
    WhiteBoxInference::with_resolution(
        ScaledBeta::new(20.0, 20.0, 0.002).unwrap(),
        ScaledBeta::new(2.0, 3.0, 0.002).unwrap(),
        coincidence,
        RES,
    )
}

fn assert_close(incremental: f64, batch: f64, what: &str) {
    let tol = 1e-9 * batch.abs().max(f64::MIN_POSITIVE);
    assert!(
        (incremental - batch).abs() <= tol,
        "{what}: incremental {incremental:e} vs batch {batch:e}"
    );
}

fn assert_bits_equal(incremental: &[f64], batch: &[f64], what: &str) {
    assert_eq!(incremental.len(), batch.len(), "{what}: length mismatch");
    for (i, (a, b)) in incremental.iter().zip(batch).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: cell {i} differs: {a:e} vs {b:e}"
        );
    }
}

fn random_monotone_step(rng: &mut Lcg, counts: &JointCounts) -> JointCounts {
    JointCounts::from_raw(
        counts.demands() + 50 + rng.below(200),
        counts.both_failed() + rng.below(2),
        counts.only_a_failed() + rng.below(3),
        counts.only_b_failed() + rng.below(3),
    )
}

#[test]
fn delta_path_tracks_batch_for_all_coincidence_priors() {
    for (variant, coincidence) in [
        CoincidencePrior::IndifferenceUniform,
        CoincidencePrior::ScaledUniform(0.5),
        CoincidencePrior::FixedFraction(0.3),
        CoincidencePrior::Independent,
    ]
    .into_iter()
    .enumerate()
    {
        let engine = engine(coincidence);
        let mut updater = engine.updater();
        let mut rng = Lcg(0x9E37_79B9 + variant as u64);
        let mut counts = JointCounts::new();
        for _ in 0..12 {
            counts = random_monotone_step(&mut rng, &counts);
            updater.update_to(&counts);
            let batch = engine.posterior(&counts);
            let (batch_a, batch_b) = (batch.marginal_a(), batch.marginal_b());
            let (inc_a, inc_b) = (updater.marginal_a(), updater.marginal_b());
            for c in [0.90, 0.99] {
                assert_close(
                    inc_a.percentile(c),
                    batch_a.percentile(c),
                    &format!("{coincidence:?} A p{c}"),
                );
                assert_close(
                    inc_b.percentile(c),
                    batch_b.percentile(c),
                    &format!("{coincidence:?} B p{c}"),
                );
            }
            assert_close(inc_a.mean(), batch_a.mean(), "A mean");
            assert_close(
                inc_b.confidence(1e-3),
                batch_b.confidence(1e-3),
                "B confidence",
            );
        }
    }
}

#[test]
fn rebase_is_bit_for_bit_equal_to_batch() {
    let engine = engine(CoincidencePrior::IndifferenceUniform);
    let mut updater = engine.updater();
    let mut rng = Lcg(42);
    let mut counts = JointCounts::new();
    for _ in 0..6 {
        counts = random_monotone_step(&mut rng, &counts);
        updater.rebase(&counts);
        let batch = engine.posterior(&counts);
        assert_bits_equal(
            updater.marginal_a_posterior().masses(),
            batch.marginal_a().masses(),
            "marginal A after rebase",
        );
        assert_bits_equal(
            updater.marginal_b_posterior().masses(),
            batch.marginal_b().masses(),
            "marginal B after rebase",
        );
        assert_eq!(
            updater.marginal_a().percentile(0.99).to_bits(),
            batch.marginal_a().percentile(0.99).to_bits(),
            "p99 A after rebase"
        );
    }
}

#[test]
fn fresh_updater_matches_prior_only_batch() {
    let engine = engine(CoincidencePrior::IndifferenceUniform);
    let updater = engine.updater();
    let batch = engine.posterior(&JointCounts::new());
    assert_bits_equal(
        updater.marginal_a_posterior().masses(),
        batch.marginal_a().masses(),
        "prior-only marginal A",
    );
    assert_bits_equal(
        updater.marginal_b_posterior().masses(),
        batch.marginal_b().masses(),
        "prior-only marginal B",
    );
}

#[test]
fn zero_delta_checkpoint_is_a_no_op() {
    let engine = engine(CoincidencePrior::IndifferenceUniform);
    let mut updater = engine.updater();
    let counts = JointCounts::from_raw(1_000, 1, 3, 2);
    updater.update_to(&counts);
    let before_a: Vec<u64> = updater
        .marginal_a()
        .masses()
        .iter()
        .map(|m| m.to_bits())
        .collect();
    let before_p99 = updater.marginal_b().percentile(0.99).to_bits();
    updater.update_to(&counts);
    let after_a: Vec<u64> = updater
        .marginal_a()
        .masses()
        .iter()
        .map(|m| m.to_bits())
        .collect();
    assert_eq!(before_a, after_a, "zero-delta update changed marginal A");
    assert_eq!(
        before_p99,
        updater.marginal_b().percentile(0.99).to_bits(),
        "zero-delta update changed B p99"
    );
    assert_eq!(updater.counts().demands(), 1_000);
}

#[test]
fn out_of_order_counts_rebase_to_exact_batch() {
    let engine = engine(CoincidencePrior::IndifferenceUniform);
    let mut updater = engine.updater();
    updater.update_to(&JointCounts::from_raw(5_000, 2, 10, 8));
    // Checkpoint moves backwards (fewer demands): the updater must fall
    // back to an exact recompute and agree with batch to the bit.
    let earlier = JointCounts::from_raw(2_000, 1, 4, 3);
    updater.update_to(&earlier);
    assert_eq!(updater.counts().demands(), 2_000);
    let batch = engine.posterior(&earlier);
    assert_bits_equal(
        updater.marginal_a_posterior().masses(),
        batch.marginal_a().masses(),
        "marginal A after out-of-order checkpoint",
    );
    assert_bits_equal(
        updater.marginal_b_posterior().masses(),
        batch.marginal_b().masses(),
        "marginal B after out-of-order checkpoint",
    );
}

#[test]
fn blackbox_updater_tracks_batch() {
    let prior = ScaledBeta::new(2.0, 3.0, 0.01).unwrap();
    let inference = BlackBoxInference::new(prior, 256);
    let mut updater = inference.updater();
    let mut rng = Lcg(7);
    let (mut demands, mut failures) = (0u64, 0u64);
    for _ in 0..15 {
        demands += 20 + rng.below(500);
        failures += rng.below(3).min(demands - failures);
        updater.update_to(demands, failures);
        let batch = inference.posterior(demands, failures);
        assert_close(
            updater.confidence(1e-2),
            batch.confidence(1e-2),
            "black-box confidence",
        );
        assert_close(
            updater.percentile(0.99),
            batch.percentile(0.99),
            "black-box p99",
        );
    }
    // Rebase restores exact batch bits.
    updater.rebase(demands, failures);
    let batch = inference.posterior(demands, failures);
    assert_bits_equal(
        updater.posterior_view().masses(),
        batch.masses(),
        "black-box masses after rebase",
    );
}

#[test]
fn blackbox_out_of_order_rebases() {
    let prior = ScaledBeta::new(1.0, 1.0, 0.1).unwrap();
    let inference = BlackBoxInference::new(prior, 128);
    let mut updater = inference.updater();
    updater.update_to(1_000, 5);
    // Failure count drops — impossible as a delta, must rebase.
    updater.update_to(1_500, 2);
    assert_eq!((updater.demands(), updater.failures()), (1_500, 2));
    let batch = inference.posterior(1_500, 2);
    assert_bits_equal(
        updater.posterior_view().masses(),
        batch.masses(),
        "black-box masses after out-of-order counts",
    );
}

/// Priors whose grids cover a flat, a skewed, a narrow scaled and a
/// U-shaped (infinite density at both ends) prior mass.
fn blackbox_priors() -> [ScaledBeta; 4] {
    [
        ScaledBeta::standard(1.0, 1.0).unwrap(),
        ScaledBeta::standard(2.0, 3.0).unwrap(),
        ScaledBeta::new(20.0, 20.0, 0.002).unwrap(),
        ScaledBeta::new(0.5, 0.5, 0.01).unwrap(),
    ]
}

/// The prior table evaluates each edge's CDF once; every cell must still
/// carry exactly `prior.mass(lo, hi)` over the grid's own edges.
#[test]
fn blackbox_prior_table_equals_cell_masses() {
    for prior in blackbox_priors() {
        for cells in [1, 16, 400, 4_096] {
            let inference = BlackBoxInference::new(prior, cells);
            let updater = inference.updater();
            let edges = updater.posterior_view().edges();
            let want: Vec<f64> = edges.windows(2).map(|e| prior.mass(e[0], e[1])).collect();
            assert_bits_equal(
                inference.prior_masses(),
                &want,
                &format!("prior table of {prior:?} at {cells} cells"),
            );
        }
    }
}

/// The libm refresh the updater ran before it used the chunked kernel:
/// weights `exp(ln w − max)` (`0.0` for dead cells), then masses
/// `w / Σw` with the sum taken in cell order.
fn libm_refresh(ln_w: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let max = ln_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = ln_w
        .iter()
        .map(|&w| if w.is_finite() { (w - max).exp() } else { 0.0 })
        .collect();
    let total: f64 = weights.iter().sum();
    let masses = weights.iter().map(|w| w / total).collect();
    (weights, masses)
}

/// After every `update_to` — steady steps, failure bursts, jumps to 10⁷
/// demands and out-of-order counts that rebase — the updater's weights
/// and masses equal the libm refresh of its own log-weights, bit for
/// bit.
#[test]
fn blackbox_refresh_equals_libm_reference() {
    for (k, prior) in blackbox_priors().into_iter().enumerate() {
        let inference = BlackBoxInference::new(prior, 400);
        let mut updater = inference.updater();
        let mut rng = Lcg(0xB1AC_B0C5 + k as u64);
        let (mut demands, mut failures) = (0u64, 0u64);
        let mut checked = 0;
        while demands < 10_000_000 {
            match rng.below(20) {
                // A failure burst.
                0 => {
                    let burst = 1 + rng.below(200);
                    demands += burst;
                    failures += burst;
                }
                // Out of order: the counts go back, so the updater rebases.
                1 => {
                    demands -= demands / 8;
                    failures = (failures - failures / 4).min(demands);
                }
                // A clean stretch of half the demands so far.
                2 => demands += demands / 2 + 1,
                // An assessment interval with a few failures.
                _ => {
                    let step = 100 + rng.below(400);
                    demands += step;
                    failures += rng.below(6).min(step);
                }
            }
            updater.update_to(demands, failures);
            let (weights, masses) = libm_refresh(updater.ln_weights());
            let at = format!("prior {k} at ({demands}, {failures})");
            assert_bits_equal(updater.weights(), &weights, &format!("weights, {at}"));
            assert_bits_equal(
                updater.posterior_view().masses(),
                &masses,
                &format!("masses, {at}"),
            );
            checked += 1;
        }
        assert!(checked > 250, "prior {k}: only {checked} updates checked");
    }
}
