//! Property tests pinning the chunked kernels against the scalar
//! references in `wsu_bayes::kernels::scalar`, **bit for bit**, across
//! 32 seeded random shapes per kernel — including odd-length tails,
//! all-dead (`-inf`) slices and single-live-class updates — plus the
//! `fast_exp` == libm identity sweep the equivalence rests on.

use wsu_bayes::kernels::{self, scalar, Term, EXP_UNDERFLOW, LANES};
use wsu_simcore::rng::StreamRng;

const SEEDS: u64 = 32;

/// Random slice length that lands on every tail residue mod LANES,
/// including lengths shorter than one chunk.
fn random_len(rng: &mut StreamRng) -> usize {
    1 + rng.next_below(257) as usize
}

/// A random log-weight slice: mostly live cells in the realistic
/// shifted-log-weight band, a sprinkling of dead (`-inf`) cells, and
/// occasionally an entirely dead slice.
fn random_weights(rng: &mut StreamRng, len: usize) -> Vec<f64> {
    if rng.bernoulli(0.1) {
        return vec![f64::NEG_INFINITY; len];
    }
    (0..len)
        .map(|_| {
            if rng.bernoulli(0.15) {
                f64::NEG_INFINITY
            } else {
                // Spans deep underflow (< EXP_UNDERFLOW), the skip band
                // and the fast-exp range.
                rng.uniform(-800.0, 4.0)
            }
        })
        .collect()
}

/// A random per-cell log-probability table (finite, non-positive).
fn random_table(rng: &mut StreamRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.uniform(-20.0, 0.0)).collect()
}

/// Non-zero positive count delta, as the updaters pass.
fn random_delta(rng: &mut StreamRng) -> f64 {
    rng.next_below(500) as f64 + 1.0
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str, seed: u64) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: seed {seed} cell {i}: {g} vs {w}"
        );
    }
}

fn assert_bit_eq(got: f64, want: f64, what: &str, seed: u64) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}: seed {seed}: {got} vs {want}"
    );
}

#[test]
fn axpy_matches_scalar() {
    for seed in 0..SEEDS {
        let mut rng = StreamRng::from_seed(seed);
        let len = random_len(&mut rng);
        let base = random_weights(&mut rng, len);
        let p = random_table(&mut rng, len);
        let d = random_delta(&mut rng);
        let mut chunked = base.clone();
        let mut reference = base;
        kernels::axpy(&mut chunked, &p, d);
        scalar::axpy(&mut reference, &p, d);
        assert_bits_eq(&chunked, &reference, "axpy", seed);
    }
}

#[test]
fn axpy_max_matches_scalar() {
    for seed in 0..SEEDS {
        let mut rng = StreamRng::from_seed(seed);
        let len = random_len(&mut rng);
        let base = random_weights(&mut rng, len);
        let p = random_table(&mut rng, len);
        let d = random_delta(&mut rng);
        let mut chunked = base.clone();
        let mut reference = base;
        let got = kernels::axpy_max(&mut chunked, &p, d);
        let want = scalar::axpy_max(&mut reference, &p, d);
        assert_bits_eq(&chunked, &reference, "axpy_max weights", seed);
        assert_bit_eq(got, want, "axpy_max max", seed);
    }
}

#[test]
fn fused_axpy_max_matches_scalar_for_one_to_four_terms() {
    for seed in 0..SEEDS {
        let mut rng = StreamRng::from_seed(seed);
        let len = random_len(&mut rng);
        let base = random_weights(&mut rng, len);
        // Single-live-class updates (one term) up to the full four-term
        // fused update of the white-box grid.
        let n_terms = 1 + rng.next_below(4) as usize;
        let tables: Vec<Vec<f64>> = (0..n_terms).map(|_| random_table(&mut rng, len)).collect();
        let deltas: Vec<f64> = (0..n_terms).map(|_| random_delta(&mut rng)).collect();
        let terms: Vec<Term<'_>> = tables
            .iter()
            .zip(&deltas)
            .map(|(t, &d)| (t.as_slice(), d))
            .collect();
        let mut chunked = base.clone();
        let mut reference = base;
        let got = kernels::fused_axpy_max(&mut chunked, &terms);
        let want = scalar::fused_axpy_max(&mut reference, &terms);
        assert_bits_eq(&chunked, &reference, "fused_axpy_max weights", seed);
        assert_bit_eq(got, want, "fused_axpy_max max", seed);
    }
}

#[test]
fn recompute_max_matches_scalar_for_zero_to_four_terms() {
    for seed in 0..SEEDS {
        let mut rng = StreamRng::from_seed(seed);
        let len = random_len(&mut rng);
        let prior = random_weights(&mut rng, len);
        let n_terms = rng.next_below(5) as usize;
        let tables: Vec<Vec<f64>> = (0..n_terms).map(|_| random_table(&mut rng, len)).collect();
        let deltas: Vec<f64> = (0..n_terms).map(|_| random_delta(&mut rng)).collect();
        let terms: Vec<Term<'_>> = tables
            .iter()
            .zip(&deltas)
            .map(|(t, &d)| (t.as_slice(), d))
            .collect();
        let mut chunked = vec![0.0; len];
        let mut reference = vec![0.0; len];
        let got = kernels::recompute_max(&mut chunked, &prior, &terms);
        let want = scalar::recompute_max(&mut reference, &prior, &terms);
        assert_bits_eq(&chunked, &reference, "recompute_max weights", seed);
        assert_bit_eq(got, want, "recompute_max max", seed);
    }
}

#[test]
fn exp_weights_matches_scalar() {
    for seed in 0..SEEDS {
        let mut rng = StreamRng::from_seed(seed);
        let len = random_len(&mut rng);
        let w = random_weights(&mut rng, len);
        let max = w.iter().cloned().fold(f64::NEG_INFINITY, f64::max).max(0.0);
        let mut chunked = vec![f64::NAN; len];
        let mut reference = vec![f64::NAN; len];
        kernels::exp_weights(&w, max, &mut chunked);
        scalar::exp_weights(&w, max, &mut reference);
        assert_bits_eq(&chunked, &reference, "exp_weights", seed);
    }
}

#[test]
fn exp_weights_in_place_matches_scalar() {
    for seed in 0..SEEDS {
        let mut rng = StreamRng::from_seed(seed);
        let len = random_len(&mut rng);
        let w = random_weights(&mut rng, len);
        let max = w.iter().cloned().fold(f64::NEG_INFINITY, f64::max).max(0.0);
        let mut in_place = w.clone();
        let mut reference = vec![f64::NAN; len];
        kernels::exp_weights_in_place(&mut in_place, max);
        scalar::exp_weights(&w, max, &mut reference);
        assert_bits_eq(&in_place, &reference, "exp_weights_in_place", seed);
    }
}

#[test]
fn exp_stride_sums_long_stride_matches_scalar() {
    // q beyond the interleaved path's stack buffer exercises the serial
    // fallback; the association must not change with it.
    for seed in 0..SEEDS {
        let mut rng = StreamRng::from_seed(seed);
        let na = 1 + rng.next_below(5) as usize;
        let nb = 1 + rng.next_below(5) as usize;
        let q = 65 + rng.next_below(40) as usize;
        let w = random_weights(&mut rng, na * nb * q);
        let max = w.iter().cloned().fold(f64::NEG_INFINITY, f64::max).max(0.0);
        let (mut a_got, mut b_got) = (vec![f64::NAN; na], vec![f64::NAN; nb]);
        let (mut a_want, mut b_want) = (vec![f64::NAN; na], vec![f64::NAN; nb]);
        kernels::exp_stride_sums(&w, max, q, &mut a_got, &mut b_got);
        scalar::exp_stride_sums(&w, max, q, &mut a_want, &mut b_want);
        assert_bits_eq(&a_got, &a_want, "exp_stride_sums long a", seed);
        assert_bits_eq(&b_got, &b_want, "exp_stride_sums long b", seed);
    }
}

#[test]
fn exp_stride_sums_matches_scalar() {
    for seed in 0..SEEDS {
        let mut rng = StreamRng::from_seed(seed);
        // Random grid shapes, with q deliberately hitting odd lengths
        // and sub-chunk strides.
        let na = 1 + rng.next_below(9) as usize;
        let nb = 1 + rng.next_below(9) as usize;
        let q = 1 + rng.next_below(11) as usize;
        let w = random_weights(&mut rng, na * nb * q);
        let max = w.iter().cloned().fold(f64::NEG_INFINITY, f64::max).max(0.0);
        let (mut a_got, mut b_got) = (vec![f64::NAN; na], vec![f64::NAN; nb]);
        let (mut a_want, mut b_want) = (vec![f64::NAN; na], vec![f64::NAN; nb]);
        kernels::exp_stride_sums(&w, max, q, &mut a_got, &mut b_got);
        scalar::exp_stride_sums(&w, max, q, &mut a_want, &mut b_want);
        assert_bits_eq(&a_got, &a_want, "exp_stride_sums a", seed);
        assert_bits_eq(&b_got, &b_want, "exp_stride_sums b", seed);
    }
}

#[test]
fn all_dead_slices_stay_dead_through_every_kernel() {
    let len = 23; // odd tail on purpose
    let p = vec![-1.5; len];
    let mut w = vec![f64::NEG_INFINITY; len];
    let max = kernels::axpy_max(&mut w, &p, 7.0);
    assert!(max.is_infinite() && max < 0.0);
    assert!(w.iter().all(|v| v.is_infinite() && *v < 0.0));
    let max = kernels::fused_axpy_max(&mut w, &[(&p, 3.0), (&p, 1.0)]);
    assert!(max.is_infinite() && max < 0.0);
    let mut x = vec![f64::NAN; len];
    kernels::exp_weights(&w, 0.0, &mut x);
    assert!(x.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
    let (mut a, mut b) = (vec![f64::NAN; 1], vec![f64::NAN; 1]);
    kernels::exp_stride_sums(&w, 0.0, len, &mut a, &mut b);
    assert_eq!(a[0].to_bits(), 0.0f64.to_bits());
    assert_eq!(b[0].to_bits(), 0.0f64.to_bits());
}

#[test]
fn fast_exp_is_bit_identical_to_libm() {
    // Random sweep across the whole band the kernels produce, both the
    // fast path (2^-54 ≤ |x| < 512) and every delegation band.
    let mut rng = StreamRng::from_seed(1234);
    for _ in 0..200_000 {
        let x = rng.uniform(-800.0, 710.0);
        assert_eq!(
            kernels::fast_exp(x).to_bits(),
            x.exp().to_bits(),
            "fast_exp({x})"
        );
    }
    // Edge cases: zeros, subnormal-adjacent, the fast-path boundaries,
    // the underflow threshold, overflow and non-finite inputs.
    let edges = [
        0.0,
        -0.0,
        1e-300,
        -1e-300,
        f64::from_bits(0x3c90000000000000), // 2^-54, fast-path lower edge
        f64::from_bits(0x3c8fffffffffffff), // just below it
        511.9999999999999,
        512.0,
        -511.9999999999999,
        -512.0,
        EXP_UNDERFLOW,
        EXP_UNDERFLOW - 1.0,
        -745.133219101941,
        709.782712893384,
        710.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        1.0,
        -1.0,
    ];
    for x in edges {
        assert_eq!(
            kernels::fast_exp(x).to_bits(),
            x.exp().to_bits(),
            "fast_exp({x})"
        );
    }
    assert!(kernels::fast_exp(f64::NAN).is_nan());
    // And the 4-lane form agrees with the scalar one on mixed chunks.
    for seed in 0..SEEDS {
        let mut rng = StreamRng::from_seed(seed);
        let chunk = [
            rng.uniform(-800.0, 4.0),
            rng.uniform(-520.0, -500.0), // straddles the fast-path edge
            rng.uniform(-1e-16, 1e-16),  // below 2^-54: delegation band
            rng.uniform(-40.0, 0.0),
        ];
        let got = kernels::fast_exp4(chunk);
        for l in 0..LANES {
            assert_eq!(
                got[l].to_bits(),
                chunk[l].exp().to_bits(),
                "fast_exp4 lane {l} of {chunk:?}"
            );
        }
    }
}
