//! Vectorized grid kernels for the white-box posterior hot path.
//!
//! The white-box updater sweeps ~300k grid cells per checkpoint. Every
//! sweep is one of four shapes, and this module implements each as an
//! explicitly lane-chunked kernel (a `[f64; LANES]` accumulator block
//! that LLVM lowers to packed SIMD) next to a plain [`scalar`] reference
//! implementation used for equivalence testing:
//!
//! * [`axpy`] — `w[i] += d·p[i]`;
//! * [`axpy_max`] — the same, fused with a running-max scan;
//! * [`fused_axpy_max`] — the multi-term update `w[i] += Σ_k d_k·p_k[i]`
//!   applied term-by-term per cell, fused with the max scan (one memory
//!   pass instead of one per event class);
//! * [`recompute_max`] — the batch recompute `w[i] = prior[i] +
//!   Σ_k d_k·p_k[i]` shared by `WhiteBoxInference::posterior` and
//!   `PosteriorUpdater::rebase`;
//! * [`exp_weights`] / [`exp_stride_sums`] — the exponentiation pass
//!   `x[i] = exp(w[i] − max)` (optionally fused with the marginal
//!   stride sums), with a branch that skips the `exp` call — and the
//!   `+= 0.0` that would follow — wherever the result provably
//!   underflows to exactly `0.0`; [`exp_stride_sums_rows`] restricts
//!   the fused pass to one span of blocks per grid row.
//!
//! # Bit-compatibility contract
//!
//! Every kernel here is **bit-identical** to its [`scalar`] reference,
//! by construction, not by tolerance:
//!
//! * the element-wise kernels perform the identical per-cell operation
//!   sequence (each `+=` is a separately rounded f64 addition, in term
//!   order), so chunking over cells cannot change any result bit;
//! * the running max is associative and commutative for the values that
//!   occur here (finite reals and `-inf`; never `NaN`), so per-lane
//!   maxima folded after the sweep equal the sequential scan;
//! * `exp(v)` underflows to exactly `+0.0` for every `v ≤`
//!   [`EXP_UNDERFLOW`], and `acc += 0.0` leaves a non-negative `acc`
//!   bit-unchanged, so the skip branch removes work without touching
//!   results. The same fact lets the white-box rebase skip whole grid
//!   blocks: a cell proved to lie [`SKIP_MARGIN`] below the maximum
//!   contributes `+0.0`, so [`exp_stride_sums_rows`] may leave it out —
//!   and need not even read it — without moving a bit.
//!
//! Two further ingredients carry the exponentiation pass, which
//! dominates a checkpoint once the additive sweeps are fused:
//!
//! * [`fast_exp`] — a pure-Rust port of the table-driven `exp` from
//!   ARM's optimized-routines (the exact algorithm behind glibc's and
//!   musl's `exp` on this target), bit-identical to the platform libm
//!   on every input (verified exhaustively over the kernel's input
//!   range in `tests/kernel_properties.rs`), roughly twice as fast
//!   when compiled with the `fma` target feature (see
//!   `.cargo/config.toml`);
//! * the [`exp_stride_sums`] row interleave — every marginal
//!   accumulator is an element-wise serial chain in grid order (the
//!   association the committed `results/` artefacts pin), so instead of
//!   re-associating within a chain the kernel walks four independent
//!   grid rows in lockstep: four whole chains run concurrently, which
//!   breaks the serial addition dependency that otherwise stalls the
//!   sweep without moving a single rounding.
//!
//! Dead cells (where the prior vanishes) are encoded as `-inf` in every
//! table, which keeps the kernels branch-free: `-inf + d·(-inf) = -inf`
//! for the non-zero deltas the callers pass, so dead cells stay dead
//! without a per-cell guard, and the exponentiation pass sees them as
//! ordinary underflow.

/// Lane width of the chunked kernels. Four f64 lanes fill one 256-bit
/// vector register and divide a 64-byte cache line exactly in half.
pub const LANES: usize = 4;

/// `exp(v)` is exactly `+0.0` for every `v` at or below this threshold
/// (the true cutoff is near `-745.2`; `-750` leaves a safety margin),
/// so the exponentiation kernels skip the call outright. Cells between
/// the threshold and the cutoff still go through `exp`, which keeps the
/// kernels bit-identical to the always-exp reference.
pub const EXP_UNDERFLOW: f64 = -750.0;

/// How far below the posterior's maximum log-weight a cell must provably
/// lie for the pruned rebase to skip it: one nat beyond
/// `-`[`EXP_UNDERFLOW`], so that `w − max` stays at or below
/// [`EXP_UNDERFLOW`] even after the threshold `lower_bound − SKIP_MARGIN`
/// is itself rounded. Such a cell's `exp` is exactly `+0.0`.
pub const SKIP_MARGIN: f64 = 751.0;

/// One additive term of a fused update: the per-cell log-probability
/// table of an event class and the (non-zero) count delta to apply.
pub type Term<'a> = (&'a [f64], f64);

// --- fast_exp: bit-identical table-driven exp ---------------------------
//
// A safe-Rust port of the `exp` algorithm from ARM's optimized-routines
// (MIT), which is also the implementation glibc ≥ 2.27 and musl ship on
// x86-64/aarch64 — so on these platforms `fast_exp(x) == x.exp()` bit
// for bit. The fast path covers 2^-54 ≤ |x| < 512, which is where the
// kernels' shifted log-weights live; anything outside (near-zero
// arguments, the deep-underflow band, non-finite input) delegates to
// the platform `exp`, keeping bit-identity trivially. `f64::mul_add` is
// correctly rounded whether or not the target has FMA hardware, so the
// result is the same everywhere; the `fma` target feature (enabled in
// `.cargo/config.toml`) only decides whether it compiles to a single
// instruction or a (slow) soft-float call.
//
// N = 128: exp(x) = 2^(k/N) · exp(r), with k an integer and
// |r| ≤ ln(2)/(2N). 2^(k/N) comes from EXP_TAB as a (tail, scale) pair
// of doubles; exp(r) is a degree-5 polynomial in r.

const INVLN2N: f64 = f64::from_bits(0x40671547652b82fe); // N/ln(2)
const NEGLN2HIN: f64 = f64::from_bits(0xbf762e42fefa0000); // -ln(2)/N, high
const NEGLN2LON: f64 = f64::from_bits(0xbd0cf79abc9e3b3a); // -ln(2)/N, low
const C2: f64 = f64::from_bits(0x3fdffffffffffdbd);
const C3: f64 = f64::from_bits(0x3fc555555555543c);
const C4: f64 = f64::from_bits(0x3fa55555cf172b91);
const C5: f64 = f64::from_bits(0x3f81111167a4d017);
/// 0x1.8p52: rounds-to-nearest-integer shift for |k| < 2^51.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);

/// 128 (tail, scale-bits) pairs: `2^(i/128) = scale + tail` with
/// `scale` read as a double from the stored bits (the low exponent bits
/// double as the fractional part of k, cancelled by the `ki << 45`
/// shift in [`fast_exp`]).
#[rustfmt::skip]
const EXP_TAB: [u64; 256] = [
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
];

/// `exp(x)`, bit-identical to the platform libm's `exp` (see the port
/// notes above). The fast path handles `2^-54 ≤ |x| < 512` — the range
/// the kernels' live shifted log-weights occupy — without a libm call.
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    // Top 12 bits of |x|: the fast path accepts exponents in
    // [0x3c9, 0x407], i.e. 2^-54 ≤ |x| < 512. Everything else (tiny,
    // huge, subnormal-result band, inf/NaN) delegates to libm, which
    // implements the same algorithm's special cases.
    let abstop = (x.to_bits() >> 52) & 0x7ff;
    if abstop.wrapping_sub(0x3c9) >= 0x3f {
        return x.exp();
    }
    // k = round(x·N/ln2) via the shift trick; ki holds k in its low
    // bits while kd_shifted - SHIFT recovers k as a double exactly.
    let kd_shifted = x.mul_add(INVLN2N, SHIFT);
    let ki = kd_shifted.to_bits();
    let kd = kd_shifted - SHIFT;
    // r = x - k·ln2/N in two pieces for an exactly representable hi part.
    let r = kd.mul_add(NEGLN2HIN, x);
    let r = kd.mul_add(NEGLN2LON, r);
    // 2^(k/N) = scale + tail from the table; the k/128 integer part
    // lands in the exponent via the << 45 (= 52 - log2(128)) shift.
    let idx = ((ki & 127) * 2) as usize;
    let tail = f64::from_bits(EXP_TAB[idx]);
    let sbits = EXP_TAB[idx + 1].wrapping_add(ki.wrapping_shl(45));
    // exp(r) - 1 ≈ r + C2·r² + C3·r³ + C4·r⁴ + C5·r⁵, evaluated in the
    // exact operation order of the reference (Estrin-style splits).
    let c23 = r.mul_add(C3, C2);
    let t3 = tail + r;
    let r2 = r * r;
    let c45 = r.mul_add(C5, C4);
    let tmp1 = c23.mul_add(r2, t3);
    let r4 = r2 * r2;
    let tmp = r4.mul_add(c45, tmp1);
    let scale = f64::from_bits(sbits);
    scale.mul_add(tmp, scale)
}

/// Four [`fast_exp`] evaluations at once. When every lane is on the
/// fast path (the overwhelmingly common case for live grid cells) the
/// whole computation is branch-free straight-line lane arithmetic that
/// the compiler lowers to packed FMA; otherwise each lane falls back to
/// the scalar [`fast_exp`]. Each lane performs the identical operation
/// sequence either way, so the results are bit-identical to four
/// scalar calls.
#[inline]
pub fn fast_exp4(x: [f64; LANES]) -> [f64; LANES] {
    if !all_fast_path(x) {
        return x.map(fast_exp);
    }
    exp4_core(x)
}

/// `true` when every lane satisfies [`fast_exp`]'s fast-path range
/// check (`2^-54 ≤ |x| < 512`).
#[inline]
fn all_fast_path(x: [f64; LANES]) -> bool {
    let mut fast = true;
    for &v in &x {
        fast &= ((v.to_bits() >> 52) & 0x7ff).wrapping_sub(0x3c9) < 0x3f;
    }
    fast
}

/// The branch-free four-lane fast path. Callers must have checked
/// [`all_fast_path`] first.
#[inline]
fn exp4_core(x: [f64; LANES]) -> [f64; LANES] {
    let mut kd_shifted = [0.0f64; LANES];
    let mut kd = [0.0f64; LANES];
    let mut ki = [0u64; LANES];
    for l in 0..LANES {
        kd_shifted[l] = x[l].mul_add(INVLN2N, SHIFT);
        ki[l] = kd_shifted[l].to_bits();
        kd[l] = kd_shifted[l] - SHIFT;
    }
    let mut r = [0.0f64; LANES];
    for l in 0..LANES {
        r[l] = kd[l].mul_add(NEGLN2LON, kd[l].mul_add(NEGLN2HIN, x[l]));
    }
    let mut tail = [0.0f64; LANES];
    let mut scale = [0.0f64; LANES];
    for l in 0..LANES {
        let idx = ((ki[l] & 127) * 2) as usize;
        tail[l] = f64::from_bits(EXP_TAB[idx]);
        scale[l] = f64::from_bits(EXP_TAB[idx + 1].wrapping_add(ki[l].wrapping_shl(45)));
    }
    // One short lane loop per operation: each loop is an independent
    // 4-wide map the SLP vectorizer turns into a single packed op.
    let mut c23 = [0.0f64; LANES];
    let mut t3 = [0.0f64; LANES];
    let mut r2 = [0.0f64; LANES];
    let mut c45 = [0.0f64; LANES];
    for l in 0..LANES {
        c23[l] = r[l].mul_add(C3, C2);
    }
    for l in 0..LANES {
        t3[l] = tail[l] + r[l];
    }
    for l in 0..LANES {
        r2[l] = r[l] * r[l];
    }
    for l in 0..LANES {
        c45[l] = r[l].mul_add(C5, C4);
    }
    let mut tmp = [0.0f64; LANES];
    for l in 0..LANES {
        tmp[l] = c23[l].mul_add(r2[l], t3[l]);
    }
    for l in 0..LANES {
        tmp[l] = (r2[l] * r2[l]).mul_add(c45[l], tmp[l]);
    }
    let mut y = [0.0f64; LANES];
    for l in 0..LANES {
        y[l] = scale[l].mul_add(tmp[l], scale[l]);
    }
    y
}

/// Scalar reference implementations of every kernel, kept permanently
/// for equivalence testing (`tests/kernel_properties.rs` pins the
/// chunked kernels against these, bit for bit, in both debug and
/// release builds).
pub mod scalar {
    /// `w[i] += d·p[i]`. `d` must be non-zero and finite so that dead
    /// cells (`-inf`) stay dead instead of turning into `NaN`.
    pub fn axpy(w: &mut [f64], p: &[f64], d: f64) {
        for (w, &p) in w.iter_mut().zip(p) {
            *w += d * p;
        }
    }

    /// As [`axpy`], fused with a running-max scan over the updated
    /// values.
    pub fn axpy_max(w: &mut [f64], p: &[f64], d: f64) -> f64 {
        let mut max = f64::NEG_INFINITY;
        for (w, &p) in w.iter_mut().zip(p) {
            *w += d * p;
            if *w > max {
                max = *w;
            }
        }
        max
    }

    /// Multi-term fused update: per cell, each term is added as its own
    /// rounded `+=` in slice order, then the updated value feeds the
    /// running max.
    pub fn fused_axpy_max(w: &mut [f64], terms: &[super::Term<'_>]) -> f64 {
        assert!(
            (1..=4).contains(&terms.len()),
            "fused_axpy_max supports 1..=4 terms, got {}",
            terms.len()
        );
        let mut max = f64::NEG_INFINITY;
        for (i, w) in w.iter_mut().enumerate() {
            let mut v = *w;
            for &(p, d) in terms {
                v += d * p[i];
            }
            *w = v;
            if v > max {
                max = v;
            }
        }
        max
    }

    /// Batch recompute: `w[i] = prior[i] + Σ_k d_k·p_k[i]`, one rounded
    /// `+=` per term in slice order, with the running max of the
    /// result.
    pub fn recompute_max(w: &mut [f64], prior: &[f64], terms: &[super::Term<'_>]) -> f64 {
        assert!(
            terms.len() <= 4,
            "recompute_max supports 0..=4 terms, got {}",
            terms.len()
        );
        let mut max = f64::NEG_INFINITY;
        for (i, w) in w.iter_mut().enumerate() {
            let mut v = prior[i];
            for &(p, d) in terms {
                v += d * p[i];
            }
            *w = v;
            if v > max {
                max = v;
            }
        }
        max
    }

    /// `x[i] = exp(w[i] − max)`, with `0.0` for non-finite `w[i]`.
    pub fn exp_weights(w: &[f64], max: f64, x: &mut [f64]) {
        for (x, &w) in x.iter_mut().zip(w) {
            *x = if w.is_finite() { (w - max).exp() } else { 0.0 };
        }
    }

    /// The fused exponentiation + marginal accumulation pass: walks the
    /// `(a, b, q)` grid cell by cell in memory order and adds every
    /// exponential *element-wise* into the straddling `a` and `b`
    /// accumulators. Each accumulator is one serially-rounded chain in
    /// grid order — **the** marginal association; every marginal path
    /// (batch and incremental) must reproduce it. Uses the libm `exp`
    /// (no underflow skip), so equivalence tests against this reference
    /// also pin [`super::fast_exp`] to libm.
    pub fn exp_stride_sums(w: &[f64], max: f64, q: usize, a_sums: &mut [f64], b_sums: &mut [f64]) {
        a_sums.fill(0.0);
        b_sums.fill(0.0);
        let mut idx = 0;
        for a_slot in a_sums.iter_mut() {
            for b_slot in b_sums.iter_mut() {
                for &v in &w[idx..idx + q] {
                    let x = if v.is_finite() { (v - max).exp() } else { 0.0 };
                    *a_slot += x;
                    *b_slot += x;
                }
                idx += q;
            }
        }
    }
}

/// Folds per-lane maxima into a running max with the same `>` predicate
/// the sequential scan uses.
#[inline]
fn fold_max(lanes: [f64; LANES], mut max: f64) -> f64 {
    for m in lanes {
        if m > max {
            max = m;
        }
    }
    max
}

/// `w[i] += d·p[i]`, lane-chunked. Bit-identical to [`scalar::axpy`].
///
/// `d` must be non-zero and finite (see the module docs on dead cells).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn axpy(w: &mut [f64], p: &[f64], d: f64) {
    assert_eq!(w.len(), p.len(), "axpy length mismatch");
    let (wc, wt) = w.as_chunks_mut::<LANES>();
    let (pc, pt) = p.as_chunks::<LANES>();
    for (wl, pl) in wc.iter_mut().zip(pc) {
        for l in 0..LANES {
            wl[l] += d * pl[l];
        }
    }
    for (w, &p) in wt.iter_mut().zip(pt) {
        *w += d * p;
    }
}

/// As [`axpy`], fused with the running-max scan. Bit-identical to
/// [`scalar::axpy_max`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn axpy_max(w: &mut [f64], p: &[f64], d: f64) -> f64 {
    assert_eq!(w.len(), p.len(), "axpy_max length mismatch");
    let mut maxl = [f64::NEG_INFINITY; LANES];
    let (wc, wt) = w.as_chunks_mut::<LANES>();
    let (pc, pt) = p.as_chunks::<LANES>();
    for (wl, pl) in wc.iter_mut().zip(pc) {
        for l in 0..LANES {
            let v = wl[l] + d * pl[l];
            wl[l] = v;
            if v > maxl[l] {
                maxl[l] = v;
            }
        }
    }
    let mut max = fold_max(maxl, f64::NEG_INFINITY);
    for (w, &p) in wt.iter_mut().zip(pt) {
        let v = *w + d * p;
        *w = v;
        if v > max {
            max = v;
        }
    }
    max
}

fn fused1(w: &mut [f64], (p0, d0): Term<'_>) -> f64 {
    assert_eq!(w.len(), p0.len(), "fused term length mismatch");
    let mut maxl = [f64::NEG_INFINITY; LANES];
    let (wc, wt) = w.as_chunks_mut::<LANES>();
    let (c0, t0) = p0.as_chunks::<LANES>();
    for (wl, a) in wc.iter_mut().zip(c0) {
        for l in 0..LANES {
            let v = wl[l] + d0 * a[l];
            wl[l] = v;
            if v > maxl[l] {
                maxl[l] = v;
            }
        }
    }
    let mut max = fold_max(maxl, f64::NEG_INFINITY);
    for (w, &a) in wt.iter_mut().zip(t0) {
        let v = *w + d0 * a;
        *w = v;
        if v > max {
            max = v;
        }
    }
    max
}

fn fused2(w: &mut [f64], (p0, d0): Term<'_>, (p1, d1): Term<'_>) -> f64 {
    assert!(
        w.len() == p0.len() && w.len() == p1.len(),
        "fused term length mismatch"
    );
    let mut maxl = [f64::NEG_INFINITY; LANES];
    let (wc, wt) = w.as_chunks_mut::<LANES>();
    let (c0, t0) = p0.as_chunks::<LANES>();
    let (c1, t1) = p1.as_chunks::<LANES>();
    for ((wl, a), b) in wc.iter_mut().zip(c0).zip(c1) {
        for l in 0..LANES {
            let mut v = wl[l];
            v += d0 * a[l];
            v += d1 * b[l];
            wl[l] = v;
            if v > maxl[l] {
                maxl[l] = v;
            }
        }
    }
    let mut max = fold_max(maxl, f64::NEG_INFINITY);
    for ((w, &a), &b) in wt.iter_mut().zip(t0).zip(t1) {
        let mut v = *w;
        v += d0 * a;
        v += d1 * b;
        *w = v;
        if v > max {
            max = v;
        }
    }
    max
}

fn fused3(w: &mut [f64], (p0, d0): Term<'_>, (p1, d1): Term<'_>, (p2, d2): Term<'_>) -> f64 {
    assert!(
        w.len() == p0.len() && w.len() == p1.len() && w.len() == p2.len(),
        "fused term length mismatch"
    );
    let mut maxl = [f64::NEG_INFINITY; LANES];
    let (wc, wt) = w.as_chunks_mut::<LANES>();
    let (c0, t0) = p0.as_chunks::<LANES>();
    let (c1, t1) = p1.as_chunks::<LANES>();
    let (c2, t2) = p2.as_chunks::<LANES>();
    for (((wl, a), b), c) in wc.iter_mut().zip(c0).zip(c1).zip(c2) {
        for l in 0..LANES {
            let mut v = wl[l];
            v += d0 * a[l];
            v += d1 * b[l];
            v += d2 * c[l];
            wl[l] = v;
            if v > maxl[l] {
                maxl[l] = v;
            }
        }
    }
    let mut max = fold_max(maxl, f64::NEG_INFINITY);
    for (((w, &a), &b), &c) in wt.iter_mut().zip(t0).zip(t1).zip(t2) {
        let mut v = *w;
        v += d0 * a;
        v += d1 * b;
        v += d2 * c;
        *w = v;
        if v > max {
            max = v;
        }
    }
    max
}

fn fused4(
    w: &mut [f64],
    (p0, d0): Term<'_>,
    (p1, d1): Term<'_>,
    (p2, d2): Term<'_>,
    (p3, d3): Term<'_>,
) -> f64 {
    assert!(
        w.len() == p0.len() && w.len() == p1.len() && w.len() == p2.len() && w.len() == p3.len(),
        "fused term length mismatch"
    );
    let mut maxl = [f64::NEG_INFINITY; LANES];
    let (wc, wt) = w.as_chunks_mut::<LANES>();
    let (c0, t0) = p0.as_chunks::<LANES>();
    let (c1, t1) = p1.as_chunks::<LANES>();
    let (c2, t2) = p2.as_chunks::<LANES>();
    let (c3, t3) = p3.as_chunks::<LANES>();
    for ((((wl, a), b), c), d) in wc.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3) {
        for l in 0..LANES {
            let mut v = wl[l];
            v += d0 * a[l];
            v += d1 * b[l];
            v += d2 * c[l];
            v += d3 * d[l];
            wl[l] = v;
            if v > maxl[l] {
                maxl[l] = v;
            }
        }
    }
    let mut max = fold_max(maxl, f64::NEG_INFINITY);
    for ((((w, &a), &b), &c), &d) in wt.iter_mut().zip(t0).zip(t1).zip(t2).zip(t3) {
        let mut v = *w;
        v += d0 * a;
        v += d1 * b;
        v += d2 * c;
        v += d3 * d;
        *w = v;
        if v > max {
            max = v;
        }
    }
    max
}

/// Multi-term fused update `w[i] += Σ_k d_k·p_k[i]` with the running
/// max of the updated values, in one memory pass. Bit-identical to
/// [`scalar::fused_axpy_max`] (each term is its own rounded `+=`, in
/// term order). Supports 1–4 terms — one per Table 1 event class —
/// each dispatched to a monomorphic lane-chunked loop.
///
/// # Panics
///
/// Panics if `terms` is empty, longer than 4, or any term's length
/// differs from `w`.
pub fn fused_axpy_max(w: &mut [f64], terms: &[Term<'_>]) -> f64 {
    match *terms {
        [t0] => fused1(w, t0),
        [t0, t1] => fused2(w, t0, t1),
        [t0, t1, t2] => fused3(w, t0, t1, t2),
        [t0, t1, t2, t3] => fused4(w, t0, t1, t2, t3),
        _ => panic!("fused_axpy_max supports 1..=4 terms, got {}", terms.len()),
    }
}

fn recompute0(w: &mut [f64], prior: &[f64]) -> f64 {
    assert_eq!(w.len(), prior.len(), "prior length mismatch");
    let mut maxl = [f64::NEG_INFINITY; LANES];
    let (wc, wt) = w.as_chunks_mut::<LANES>();
    let (prc, prt) = prior.as_chunks::<LANES>();
    for (wl, pl) in wc.iter_mut().zip(prc) {
        for l in 0..LANES {
            let v = pl[l];
            wl[l] = v;
            if v > maxl[l] {
                maxl[l] = v;
            }
        }
    }
    let mut max = fold_max(maxl, f64::NEG_INFINITY);
    for (w, &v) in wt.iter_mut().zip(prt) {
        *w = v;
        if v > max {
            max = v;
        }
    }
    max
}

fn recompute1(w: &mut [f64], prior: &[f64], (p0, d0): Term<'_>) -> f64 {
    assert!(
        w.len() == prior.len() && w.len() == p0.len(),
        "recompute length mismatch"
    );
    let mut maxl = [f64::NEG_INFINITY; LANES];
    let (wc, wt) = w.as_chunks_mut::<LANES>();
    let (prc, prt) = prior.as_chunks::<LANES>();
    let (c0, t0) = p0.as_chunks::<LANES>();
    for ((wl, pl), a) in wc.iter_mut().zip(prc).zip(c0) {
        for l in 0..LANES {
            let v = pl[l] + d0 * a[l];
            wl[l] = v;
            if v > maxl[l] {
                maxl[l] = v;
            }
        }
    }
    let mut max = fold_max(maxl, f64::NEG_INFINITY);
    for ((w, &pr), &a) in wt.iter_mut().zip(prt).zip(t0) {
        let v = pr + d0 * a;
        *w = v;
        if v > max {
            max = v;
        }
    }
    max
}

fn recompute2(w: &mut [f64], prior: &[f64], (p0, d0): Term<'_>, (p1, d1): Term<'_>) -> f64 {
    assert!(
        w.len() == prior.len() && w.len() == p0.len() && w.len() == p1.len(),
        "recompute length mismatch"
    );
    let mut maxl = [f64::NEG_INFINITY; LANES];
    let (wc, wt) = w.as_chunks_mut::<LANES>();
    let (prc, prt) = prior.as_chunks::<LANES>();
    let (c0, t0) = p0.as_chunks::<LANES>();
    let (c1, t1) = p1.as_chunks::<LANES>();
    for (((wl, pl), a), b) in wc.iter_mut().zip(prc).zip(c0).zip(c1) {
        for l in 0..LANES {
            let mut v = pl[l];
            v += d0 * a[l];
            v += d1 * b[l];
            wl[l] = v;
            if v > maxl[l] {
                maxl[l] = v;
            }
        }
    }
    let mut max = fold_max(maxl, f64::NEG_INFINITY);
    for (((w, &pr), &a), &b) in wt.iter_mut().zip(prt).zip(t0).zip(t1) {
        let mut v = pr;
        v += d0 * a;
        v += d1 * b;
        *w = v;
        if v > max {
            max = v;
        }
    }
    max
}

fn recompute3(
    w: &mut [f64],
    prior: &[f64],
    (p0, d0): Term<'_>,
    (p1, d1): Term<'_>,
    (p2, d2): Term<'_>,
) -> f64 {
    assert!(
        w.len() == prior.len() && w.len() == p0.len() && w.len() == p1.len() && w.len() == p2.len(),
        "recompute length mismatch"
    );
    let mut maxl = [f64::NEG_INFINITY; LANES];
    let (wc, wt) = w.as_chunks_mut::<LANES>();
    let (prc, prt) = prior.as_chunks::<LANES>();
    let (c0, t0) = p0.as_chunks::<LANES>();
    let (c1, t1) = p1.as_chunks::<LANES>();
    let (c2, t2) = p2.as_chunks::<LANES>();
    for ((((wl, pl), a), b), c) in wc.iter_mut().zip(prc).zip(c0).zip(c1).zip(c2) {
        for l in 0..LANES {
            let mut v = pl[l];
            v += d0 * a[l];
            v += d1 * b[l];
            v += d2 * c[l];
            wl[l] = v;
            if v > maxl[l] {
                maxl[l] = v;
            }
        }
    }
    let mut max = fold_max(maxl, f64::NEG_INFINITY);
    for ((((w, &pr), &a), &b), &c) in wt.iter_mut().zip(prt).zip(t0).zip(t1).zip(t2) {
        let mut v = pr;
        v += d0 * a;
        v += d1 * b;
        v += d2 * c;
        *w = v;
        if v > max {
            max = v;
        }
    }
    max
}

fn recompute4(
    w: &mut [f64],
    prior: &[f64],
    (p0, d0): Term<'_>,
    (p1, d1): Term<'_>,
    (p2, d2): Term<'_>,
    (p3, d3): Term<'_>,
) -> f64 {
    assert!(
        w.len() == prior.len()
            && w.len() == p0.len()
            && w.len() == p1.len()
            && w.len() == p2.len()
            && w.len() == p3.len(),
        "recompute length mismatch"
    );
    let mut maxl = [f64::NEG_INFINITY; LANES];
    let (wc, wt) = w.as_chunks_mut::<LANES>();
    let (prc, prt) = prior.as_chunks::<LANES>();
    let (c0, t0) = p0.as_chunks::<LANES>();
    let (c1, t1) = p1.as_chunks::<LANES>();
    let (c2, t2) = p2.as_chunks::<LANES>();
    let (c3, t3) = p3.as_chunks::<LANES>();
    for (((((wl, pl), a), b), c), d) in wc.iter_mut().zip(prc).zip(c0).zip(c1).zip(c2).zip(c3) {
        for l in 0..LANES {
            let mut v = pl[l];
            v += d0 * a[l];
            v += d1 * b[l];
            v += d2 * c[l];
            v += d3 * d[l];
            wl[l] = v;
            if v > maxl[l] {
                maxl[l] = v;
            }
        }
    }
    let mut max = fold_max(maxl, f64::NEG_INFINITY);
    for (((((w, &pr), &a), &b), &c), &d) in wt.iter_mut().zip(prt).zip(t0).zip(t1).zip(t2).zip(t3) {
        let mut v = pr;
        v += d0 * a;
        v += d1 * b;
        v += d2 * c;
        v += d3 * d;
        *w = v;
        if v > max {
            max = v;
        }
    }
    max
}

/// Batch recompute `w[i] = prior[i] + Σ_k d_k·p_k[i]` with the running
/// max, in one memory pass. Bit-identical to [`scalar::recompute_max`].
/// This is the one shared kernel behind both `WhiteBoxInference::
/// posterior` and `PosteriorUpdater::rebase`. Zero terms (the prior
/// itself) are allowed.
///
/// # Panics
///
/// Panics if `terms` is longer than 4 or any slice length differs from
/// `w`.
pub fn recompute_max(w: &mut [f64], prior: &[f64], terms: &[Term<'_>]) -> f64 {
    match *terms {
        [] => recompute0(w, prior),
        [t0] => recompute1(w, prior, t0),
        [t0, t1] => recompute2(w, prior, t0, t1),
        [t0, t1, t2] => recompute3(w, prior, t0, t1, t2),
        [t0, t1, t2, t3] => recompute4(w, prior, t0, t1, t2, t3),
        _ => panic!("recompute_max supports 0..=4 terms, got {}", terms.len()),
    }
}

/// `x[i] = exp(w[i] − max)`, skipping the `exp` call where the result
/// provably underflows to `+0.0`. Bit-identical to
/// [`scalar::exp_weights`], which also maps `-inf` — and every shifted
/// value at or below [`EXP_UNDERFLOW`] — to exactly `0.0`, only
/// through the full `exp`.
///
/// # Panics
///
/// Panics if the slice lengths differ or `max` is `NaN`-producing
/// (callers assert a finite max first).
pub fn exp_weights(w: &[f64], max: f64, x: &mut [f64]) {
    assert_eq!(w.len(), x.len(), "exp_weights length mismatch");
    exp_chunks(Some(w), max, x);
}

/// [`exp_weights`] in place: `w[i] = exp(w[i] − max)`, the bits
/// [`exp_weights`] would write into a second buffer.
pub fn exp_weights_in_place(w: &mut [f64], max: f64) {
    exp_chunks(None, max, w);
}

/// The one chunk loop behind [`exp_weights`] and
/// [`exp_weights_in_place`]: `x[i] = exp(src[i] − max)`, with `x`
/// itself as the source when `src` is `None`.
#[inline(always)]
fn exp_chunks(src: Option<&[f64]>, max: f64, x: &mut [f64]) {
    let (wc, wt) = src.map_or((&[][..], &[][..]), <[f64]>::as_chunks::<LANES>);
    let (xc, xt) = x.as_chunks_mut::<LANES>();
    for (i, xl) in xc.iter_mut().enumerate() {
        let wl = if src.is_some() { wc[i] } else { *xl };
        *xl = exp4_or_zero(wl.map(|w| w - max));
    }
    for (i, x) in xt.iter_mut().enumerate() {
        let v = if src.is_some() { wt[i] } else { *x } - max;
        *x = if v >= EXP_UNDERFLOW { fast_exp(v) } else { 0.0 };
    }
}

/// Largest `q` the interleaved [`exp_stride_sums`] fast path buffers on
/// the stack; larger strides take the serial fallback (they only occur
/// for custom resolutions far off the paper's grid).
const QBUF: usize = 64;

/// The live `b` blocks of one `a` row, as a half-open range `lo..hi` of
/// block indices (see [`exp_stride_sums_rows`]).
pub type RowSpan = (usize, usize);

/// Fused exponentiation + marginal stride sums, bit-identical to
/// [`scalar::exp_stride_sums`]: every marginal accumulator is a plain
/// *element-wise serial chain* in grid order — `a_sums[a]` adds its
/// row's `nb·q` exponentials left to right, `b_sums[b]` adds its
/// `na` blocks of `q` exponentials in `(a, k)` order — the association
/// the committed `results/` artefacts pin.
///
/// The chunking therefore interleaves four *independent rows* rather
/// than re-associating within a chain: lanes `l = 0..4` walk rows
/// `a₀..a₀+4` in lockstep, so each row's `a`-chain stays a single
/// serially-rounded chain while the four chains run concurrently (the
/// additions vectorize vertically and the `exp`s feed [`exp4_core`]
/// four at a time). Each lane's `q`-block is buffered and drained into
/// `b_sums[b]` in `(row, k)` order, reproducing the scalar `b`-chain
/// bit for bit. Underflowed cells contribute exactly `+0.0` — a
/// bit-exact no-op on the non-negative accumulators — so skipping
/// their `exp` changes nothing. Leftover rows (`na mod 4`) run the
/// scalar order directly.
///
/// This is the all-live case of [`exp_stride_sums_rows`]: every row
/// spans all `nb` blocks.
///
/// `w` may be lane-padded beyond the structural cell count; only the
/// first `a_sums.len()·b_sums.len()·q` cells are read.
///
/// # Panics
///
/// Panics if `w` is shorter than the structural cell count.
pub fn exp_stride_sums(w: &[f64], max: f64, q: usize, a_sums: &mut [f64], b_sums: &mut [f64]) {
    let nb = b_sums.len();
    stride_sums(w, max, q, |_| (0, nb), a_sums, b_sums);
}

/// [`exp_stride_sums`] restricted to one span of `b` blocks per `a`
/// row: row `a` reads only the cells of blocks `rows[a].0..rows[a].1`
/// and every cell outside its span counts as exactly `+0.0` — whatever
/// `w` holds there. When the caller has proved that every cell outside
/// the spans has `w ≤ max −` [`SKIP_MARGIN`], those cells would have
/// contributed exactly `+0.0` anyway (their shifted log-weight is at or
/// below [`EXP_UNDERFLOW`]), so the sums are bit-identical to the
/// full-grid [`scalar::exp_stride_sums`]. A row with an empty span sums
/// to `+0.0`.
///
/// Same four-row interleave as [`exp_stride_sums`]: each group of four
/// rows walks the union of its non-empty spans, and a lane outside its
/// own span feeds `+0.0` into its chains.
///
/// # Panics
///
/// Panics if `rows.len() != a_sums.len()`, a span is inverted or ends
/// past `b_sums.len()`, or `w` is shorter than the structural cell
/// count.
pub fn exp_stride_sums_rows(
    w: &[f64],
    max: f64,
    q: usize,
    rows: &[RowSpan],
    a_sums: &mut [f64],
    b_sums: &mut [f64],
) {
    let nb = b_sums.len();
    assert_eq!(rows.len(), a_sums.len(), "one span per a row");
    assert!(
        rows.iter().all(|&(lo, hi)| lo <= hi && hi <= nb),
        "row span outside 0..{nb}"
    );
    stride_sums(w, max, q, |a| rows[a], a_sums, b_sums);
}

/// `exp(v)` for four lanes, `+0.0` wherever `v` is at or below
/// [`EXP_UNDERFLOW`] (including `-inf`).
#[inline(always)]
fn exp4_or_zero(v: [f64; LANES]) -> [f64; LANES] {
    if all_fast_path(v) {
        return exp4_core(v);
    }
    let mut e = [0.0f64; LANES];
    for l in 0..LANES {
        if v[l] >= EXP_UNDERFLOW {
            e[l] = fast_exp(v[l]);
        }
    }
    e
}

/// The one implementation behind [`exp_stride_sums`] and
/// [`exp_stride_sums_rows`]; `span(a)` is row `a`'s live block range.
#[inline(always)]
fn stride_sums(
    w: &[f64],
    max: f64,
    q: usize,
    span: impl Fn(usize) -> RowSpan,
    a_sums: &mut [f64],
    b_sums: &mut [f64],
) {
    let na = a_sums.len();
    let nb = b_sums.len();
    let row = nb * q;
    assert!(w.len() >= na * row, "weight buffer shorter than the grid");
    a_sums.fill(0.0);
    b_sums.fill(0.0);
    let mut a0 = 0;
    if q <= QBUF {
        let mut eb = [[0.0f64; QBUF]; LANES];
        while a0 + LANES <= na {
            let spans: [RowSpan; LANES] = std::array::from_fn(|l| span(a0 + l));
            let group = RowGroup {
                w,
                max,
                q,
                first: a0 * row,
                row,
            };
            // Four whole rows take the loop without per-lane span tests.
            let sums = if spans == [(0, nb); LANES] {
                group.sums::<true>(spans, &mut eb, b_sums)
            } else {
                group.sums::<false>(spans, &mut eb, b_sums)
            };
            a_sums[a0..a0 + LANES].copy_from_slice(&sums);
            a0 += LANES;
        }
    }
    // Leftover rows (and the q > QBUF fallback): the scalar order, with
    // the same exp-skip for provably underflowed cells.
    for (a, a_slot) in a_sums.iter_mut().enumerate().skip(a0) {
        let (lo, hi) = span(a);
        for (jb, b_slot) in b_sums.iter_mut().enumerate().take(hi).skip(lo) {
            let idx = a * row + jb * q;
            for &wv in &w[idx..idx + q] {
                let v = wv - max;
                if v >= EXP_UNDERFLOW {
                    let e = fast_exp(v);
                    *a_slot += e;
                    *b_slot += e;
                }
            }
        }
    }
}

/// Four consecutive grid rows walked in lockstep by [`stride_sums`].
struct RowGroup<'a> {
    w: &'a [f64],
    max: f64,
    q: usize,
    /// Index of the group's first cell.
    first: usize,
    /// Cells per row.
    row: usize,
}

impl RowGroup<'_> {
    /// Accumulates the group's cells into `b_sums` and returns its four
    /// `a` sums. With `ALL_LIVE` every span must be the whole row.
    #[inline(always)]
    fn sums<const ALL_LIVE: bool>(
        &self,
        spans: [RowSpan; LANES],
        eb: &mut [[f64; QBUF]; LANES],
        b_sums: &mut [f64],
    ) -> [f64; LANES] {
        let RowGroup {
            w,
            max,
            q,
            first,
            row,
        } = *self;
        // The union of the non-empty spans: an empty row's `(0, 0)` must
        // not stretch the walk back to block 0. An all-empty group walks
        // nothing.
        let live_spans = || spans.iter().filter(|s| s.0 < s.1);
        let lo = live_spans().map(|s| s.0).min().unwrap_or(0);
        let hi = live_spans().map(|s| s.1).max().unwrap_or(0);
        let mut aacc = [0.0f64; LANES];
        for (jb, b_slot) in b_sums.iter_mut().enumerate().take(hi).skip(lo) {
            let j = first + jb * q;
            let live: [bool; LANES] =
                std::array::from_fn(|l| ALL_LIVE || (spans[l].0 <= jb && jb < spans[l].1));
            for k in 0..q {
                // A lane outside its row's span feeds -inf, which
                // exponentiates to +0.0 without reading its cell.
                let mut v = [f64::NEG_INFINITY; LANES];
                for l in 0..LANES {
                    if live[l] {
                        v[l] = w[l * row + j + k] - max;
                    }
                }
                let e = exp4_or_zero(v);
                for l in 0..LANES {
                    aacc[l] += e[l];
                    eb[l][k] = e[l];
                }
            }
            // Drain in (row, k) order: lane 0's whole block before
            // lane 1's — the exact scalar b-chain.
            let mut acc = *b_slot;
            for lane in eb.iter() {
                for &e in &lane[..q] {
                    acc += e;
                }
            }
            *b_slot = acc;
        }
        aacc
    }
}

/// A 64-byte-aligned, lane-padded `f64` buffer.
///
/// The crate forbids `unsafe`, so alignment comes from over-allocating
/// by one cache line and slicing at the first aligned element; the
/// allocation is never resized, so the offset stays valid. The logical
/// content is padded up to a multiple of [`LANES`] with a caller-chosen
/// fill value (dead-cell `-inf` for log tables, `0.0` for probability
/// values), so chunked kernels can sweep whole lanes with empty tails.
#[derive(Debug)]
pub struct LaneBuf {
    storage: Box<[f64]>,
    offset: usize,
    padded: usize,
    len: usize,
    pad_value: f64,
}

/// Bytes per cache line (the alignment target of [`LaneBuf`]).
const CACHE_LINE: usize = 64;
const LINE_F64S: usize = CACHE_LINE / std::mem::size_of::<f64>();

impl LaneBuf {
    /// Builds a buffer holding `values`, padded to a lane multiple with
    /// `pad_value`.
    pub fn new(values: &[f64], pad_value: f64) -> LaneBuf {
        let mut buf = LaneBuf::filled(values.len(), pad_value);
        buf.padded_mut()[..values.len()].copy_from_slice(values);
        buf
    }

    /// A buffer of `len` logical elements, all set to `fill` (which is
    /// also the padding value), in one allocation. A caller that
    /// computes the values writes them through [`Self::padded_mut`].
    pub fn filled(len: usize, fill: f64) -> LaneBuf {
        let padded = len.div_ceil(LANES) * LANES;
        let storage = vec![fill; padded + LINE_F64S].into_boxed_slice();
        let offset = {
            let addr = storage.as_ptr() as usize;
            (CACHE_LINE - addr % CACHE_LINE) % CACHE_LINE / std::mem::size_of::<f64>()
        };
        LaneBuf {
            storage,
            offset,
            padded,
            len,
            pad_value: fill,
        }
    }

    /// Logical (unpadded) length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Padded length: the smallest lane multiple holding [`Self::len`].
    pub fn padded_len(&self) -> usize {
        self.padded
    }

    /// The full lane-padded slice (logical values then padding).
    pub fn padded(&self) -> &[f64] {
        &self.storage[self.offset..self.offset + self.padded]
    }

    /// Mutable lane-padded slice. Callers must preserve the padding
    /// invariant (padding cells keep the fill value).
    pub fn padded_mut(&mut self) -> &mut [f64] {
        &mut self.storage[self.offset..self.offset + self.padded]
    }

    /// The logical (unpadded) values.
    pub fn as_slice(&self) -> &[f64] {
        &self.storage[self.offset..self.offset + self.len]
    }
}

impl Clone for LaneBuf {
    fn clone(&self) -> LaneBuf {
        // Re-derive the aligned offset for the fresh allocation instead
        // of copying it: the clone's base address differs.
        LaneBuf::new(self.as_slice(), self.pad_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_buf_is_cache_aligned_and_padded() {
        for n in [0usize, 1, 3, 4, 5, 31, 32, 4096] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let buf = LaneBuf::new(&values, f64::NEG_INFINITY);
            assert_eq!(buf.len(), n);
            assert_eq!(buf.padded_len() % LANES, 0);
            assert!(buf.padded_len() >= n && buf.padded_len() < n + LANES);
            assert_eq!(buf.padded().as_ptr() as usize % CACHE_LINE, 0);
            assert_eq!(buf.as_slice(), &values[..]);
            for &pad in &buf.padded()[n..] {
                assert_eq!(pad, f64::NEG_INFINITY);
            }
            let clone = buf.clone();
            assert_eq!(clone.padded().as_ptr() as usize % CACHE_LINE, 0);
            assert_eq!(clone.as_slice(), buf.as_slice());
            assert_eq!(clone.padded()[n..], buf.padded()[n..]);
            let filled = LaneBuf::filled(n, f64::NEG_INFINITY);
            assert_eq!(filled.padded().as_ptr() as usize % CACHE_LINE, 0);
            assert_eq!(filled.padded_len(), buf.padded_len());
            assert!(filled.padded().iter().all(|&v| v == f64::NEG_INFINITY));
        }
    }

    #[test]
    fn chunked_axpy_matches_scalar_bitwise() {
        let p: Vec<f64> = (0..103).map(|i| -(i as f64) * 0.37 - 0.01).collect();
        let mut w1: Vec<f64> = (0..103).map(|i| -(i as f64) * 1.7).collect();
        let mut w2 = w1.clone();
        axpy(&mut w1, &p, 13.0);
        scalar::axpy(&mut w2, &p, 13.0);
        assert_eq!(
            w1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            w2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn underflow_threshold_is_exact() {
        // exp must return exactly +0.0 at and below the threshold, so
        // the skip branch is invisible in the results.
        assert_eq!(EXP_UNDERFLOW.exp(), 0.0);
        assert_eq!((EXP_UNDERFLOW - 1.0).exp(), 0.0);
        assert_eq!((2.0 * EXP_UNDERFLOW).exp(), 0.0);
        assert!(EXP_UNDERFLOW.exp().is_sign_positive());
    }

    #[test]
    fn row_spans_sum_only_their_blocks() {
        // Two four-row groups (one mixing empty rows with late spans, one
        // all empty) and two leftover rows. Cells outside the spans hold
        // a value whose exp overflows, so reading one would show.
        let (na, nb, q) = (10, 12, 5);
        let spans: [RowSpan; 10] = [
            (0, 0),
            (5, 9),
            (7, 12),
            (0, 0),
            (0, 0),
            (0, 0),
            (0, 0),
            (0, 0),
            (3, 4),
            (0, 0),
        ];
        let mut w = vec![1e3; na * nb * q];
        let mut reference = vec![f64::NEG_INFINITY; na * nb * q];
        for (a, &(lo, hi)) in spans.iter().enumerate() {
            for cell in (a * nb + lo) * q..(a * nb + hi) * q {
                w[cell] = -((cell % 13) as f64) * 0.25;
                reference[cell] = w[cell];
            }
        }
        let (mut a_got, mut b_got) = (vec![0.0; na], vec![0.0; nb]);
        let (mut a_want, mut b_want) = (vec![0.0; na], vec![0.0; nb]);
        exp_stride_sums_rows(&w, 0.0, q, &spans, &mut a_got, &mut b_got);
        scalar::exp_stride_sums(&reference, 0.0, q, &mut a_want, &mut b_want);
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a_got), bits(&a_want));
        assert_eq!(bits(&b_got), bits(&b_want));
    }

    #[test]
    #[should_panic(expected = "1..=4 terms")]
    fn fused_rejects_empty_terms() {
        let mut w = [0.0; 4];
        let _ = fused_axpy_max(&mut w, &[]);
    }

    #[test]
    #[should_panic(expected = "0..=4 terms")]
    fn recompute_rejects_too_many_terms() {
        let mut w = [0.0; 4];
        let p = [0.0; 4];
        let terms: Vec<Term<'_>> = (0..5).map(|_| (&p[..], 1.0)).collect();
        let _ = recompute_max(&mut w, &p, &terms);
    }
}
