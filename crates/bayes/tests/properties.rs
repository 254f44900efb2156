//! Property-style tests of the inference machinery.
//!
//! Originally written with `proptest`; rewritten as deterministic
//! seeded-loop checks (no external dev-dependencies — see the note in
//! `crates/simcore/tests/properties.rs`).

use wsu_bayes::beta::ScaledBeta;
use wsu_bayes::blackbox::BlackBoxInference;
use wsu_bayes::counts::JointCounts;
use wsu_bayes::special::{betainc, ln_gamma, log_sum_exp};
use wsu_bayes::whitebox::{CoincidencePrior, Resolution, WhiteBoxInference};
use wsu_simcore::rng::{MasterSeed, StreamRng};

fn rng_for(test: &str) -> StreamRng {
    MasterSeed::new(0x42_41_59_45_53_50_52_4F).stream(test)
}

fn f64_in(rng: &mut StreamRng, lo: f64, hi: f64) -> f64 {
    let unit = rng.next_u64() as f64 / u64::MAX as f64;
    lo + unit * (hi - lo)
}

/// I_x(a,b) is a CDF: within [0,1], monotone in x, symmetric under
/// (a,b,x) -> (b,a,1-x).
#[test]
fn betainc_is_a_cdf() {
    let mut rng = rng_for("betainc_cdf");
    for _ in 0..64 {
        let a = f64_in(&mut rng, 0.1, 50.0);
        let b = f64_in(&mut rng, 0.1, 50.0);
        let x = f64_in(&mut rng, 0.0, 1.0);
        let y = f64_in(&mut rng, 0.0, 1.0);
        let fx = betainc(a, b, x);
        let fy = betainc(a, b, y);
        assert!((0.0..=1.0).contains(&fx));
        if x <= y {
            assert!(fx <= fy + 1e-9);
        } else {
            assert!(fy <= fx + 1e-9);
        }
        let sym = 1.0 - betainc(b, a, 1.0 - x);
        assert!((fx - sym).abs() < 1e-9);
    }
}

/// The log-gamma recurrence holds across the domain.
#[test]
fn ln_gamma_recurrence() {
    let mut rng = rng_for("ln_gamma_rec");
    for _ in 0..128 {
        let x = f64_in(&mut rng, 0.05, 100.0);
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        assert!((lhs - rhs).abs() < 1e-8, "x={x}: {lhs} vs {rhs}");
    }
}

/// log_sum_exp is shift-invariant.
#[test]
fn log_sum_exp_shift_invariant() {
    let mut rng = rng_for("lse_shift");
    for _ in 0..64 {
        let len = 1 + rng.next_below(19) as usize;
        let xs: Vec<f64> = (0..len).map(|_| f64_in(&mut rng, -50.0, 50.0)).collect();
        let shift = f64_in(&mut rng, -100.0, 100.0);
        let base = log_sum_exp(&xs);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        assert!((log_sum_exp(&shifted) - (base + shift)).abs() < 1e-8);
    }
}

/// Grid tolerances of the incremental black-box posterior on 400 cells
/// against the conjugate form. A percentile is off by at most one cell
/// width, as it interpolates linearly inside the straddling cell (the
/// sweep below reaches 0.0009). A confidence at a cell edge carries the
/// midpoint rule's error in the cells around it, which grows as the
/// posterior narrows towards a cell's width (0.004 at 3,000 demands
/// with p = 0.05).
const BLACKBOX_PERCENTILE_TOL: f64 = 1.0 / 400.0;
const BLACKBOX_CONFIDENCE_TOL: f64 = 0.01;

/// The grid black-box posterior — the batch path and the incremental
/// updater — matches the conjugate closed form on the unit support,
/// across priors and observations.
#[test]
fn blackbox_matches_conjugate() {
    let mut rng = rng_for("blackbox_conjugate");
    for _ in 0..24 {
        let alpha = f64_in(&mut rng, 0.5, 10.0);
        let beta = f64_in(&mut rng, 0.5, 10.0);
        let n = rng.next_below(500);
        let fail_fraction = f64_in(&mut rng, 0.0, 1.0);
        let q = f64_in(&mut rng, 0.05, 0.95);
        let r = (n as f64 * fail_fraction) as u64;
        let prior = ScaledBeta::standard(alpha, beta).unwrap();
        let inf = BlackBoxInference::new(prior, 2048);
        let grid = inf.posterior(n, r).percentile(q);
        let exact = ScaledBeta::standard(alpha + r as f64, beta + (n - r) as f64)
            .unwrap()
            .quantile(q);
        assert!((grid - exact).abs() < 5e-3, "grid {grid} vs exact {exact}");
    }
    // The fleet canary's incremental path: the default 400-cell uniform
    // grid, advanced with `update_to` every 100 demands.
    let inf = BlackBoxInference::new(ScaledBeta::standard(1.0, 1.0).unwrap(), 400);
    for p in [0.0, 0.01, 0.05, 0.3] {
        let mut updater = inf.updater();
        let (mut n, mut r) = (0u64, 0u64);
        while n < 3_000 {
            for _ in 0..100 {
                n += 1;
                if f64_in(&mut rng, 0.0, 1.0) < p {
                    r += 1;
                }
            }
            updater.update_to(n, r);
            let exact = ScaledBeta::standard(1.0 + r as f64, 1.0 + (n - r) as f64).unwrap();
            let confidence = updater.confidence(0.05);
            let want = exact.cdf(0.05);
            assert!(
                (confidence - want).abs() < BLACKBOX_CONFIDENCE_TOL,
                "p={p} at ({n}, {r}): confidence {confidence} vs exact {want}"
            );
            let p99 = updater.percentile(0.99);
            let want = exact.quantile(0.99);
            assert!(
                (p99 - want).abs() < BLACKBOX_PERCENTILE_TOL,
                "p={p} at ({n}, {r}): p99 {p99} vs exact {want}"
            );
        }
    }
}

/// Black-box confidence is monotone in the number of failures: more
/// failures can only reduce confidence at any fixed target.
#[test]
fn more_failures_less_confidence() {
    let mut rng = rng_for("monotone_confidence");
    for _ in 0..24 {
        let n = 10 + rng.next_below(1_990);
        let target = f64_in(&mut rng, 0.001, 0.05);
        let prior = ScaledBeta::new(1.0, 1.0, 0.1).unwrap();
        let inf = BlackBoxInference::new(prior, 512);
        let mut prev = f64::INFINITY;
        for failures in [0u64, 1, 2, 5, n.min(10)] {
            if failures > n {
                break;
            }
            let c = inf.posterior(n, failures).confidence(target);
            assert!(c <= prev + 1e-9, "failures {failures}: {c} > {prev}");
            prev = c;
        }
    }
}

/// White-box marginals are proper distributions for arbitrary counts.
#[test]
fn whitebox_marginals_are_normalised() {
    let mut rng = rng_for("whitebox_normalised");
    for _ in 0..16 {
        let r1 = rng.next_below(20);
        let r2 = rng.next_below(20);
        let r3 = rng.next_below(20);
        let n = (r1 + r2 + r3) + 1 + rng.next_below(5_000);
        let engine = WhiteBoxInference::with_resolution(
            ScaledBeta::new(2.0, 3.0, 0.02).unwrap(),
            ScaledBeta::new(2.0, 3.0, 0.02).unwrap(),
            CoincidencePrior::IndifferenceUniform,
            Resolution {
                a_cells: 16,
                b_cells: 16,
                q_cells: 4,
            },
        );
        let counts = JointCounts::from_raw(n, r1, r2, r3);
        let posterior = engine.posterior(&counts);
        for marginal in [
            posterior.marginal_a(),
            posterior.marginal_b(),
            posterior.marginal_ab(8),
        ] {
            let mass: f64 = marginal.masses().iter().sum();
            assert!((mass - 1.0).abs() < 1e-9);
            let p99 = marginal.percentile(0.99);
            assert!(p99.is_finite() && p99 >= 0.0);
        }
    }
}

/// Scaled-Beta mass over a partition of the support always sums to 1.
#[test]
fn scaled_beta_partition_of_unity() {
    let mut rng = rng_for("beta_partition");
    for _ in 0..48 {
        let alpha = f64_in(&mut rng, 0.5, 20.0);
        let beta = f64_in(&mut rng, 0.5, 20.0);
        let range = f64_in(&mut rng, 1e-4, 1.0);
        let parts = 1 + rng.next_below(29) as usize;
        let dist = ScaledBeta::new(alpha, beta, range).unwrap();
        let w = range / parts as f64;
        let total: f64 = (0..parts)
            .map(|i| dist.mass(i as f64 * w, (i + 1) as f64 * w))
            .sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }
}

/// Joint-count merging is associative with addition of raw counts.
#[test]
fn joint_counts_merge() {
    let mut rng = rng_for("joint_counts_merge");
    for _ in 0..64 {
        let draw = |rng: &mut StreamRng| {
            let r1 = rng.next_below(10);
            let r2 = rng.next_below(10);
            let r3 = rng.next_below(10);
            let n = r1 + r2 + r3 + rng.next_below(1000);
            (n, r1, r2, r3)
        };
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        let mut left = JointCounts::from_raw(a.0, a.1, a.2, a.3);
        let right = JointCounts::from_raw(b.0, b.1, b.2, b.3);
        left += right;
        assert_eq!(
            left,
            JointCounts::from_raw(a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3)
        );
    }
}
