//! Micro-benchmarks of the Bayesian machinery: the white-box posterior
//! update (the per-checkpoint cost of the study), its marginalisation,
//! and the black-box conjugate-grid path.

use std::hint::black_box;
use wsu_bayes::beta::ScaledBeta;
use wsu_bayes::blackbox::BlackBoxInference;
use wsu_bayes::counts::JointCounts;
use wsu_bayes::kernels;
use wsu_bayes::whitebox::{CoincidencePrior, Resolution, WhiteBoxInference};
use wsu_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wsu_core::upgrade::UpgradeConfig;

fn whitebox_engine(res: Resolution) -> WhiteBoxInference {
    WhiteBoxInference::with_resolution(
        ScaledBeta::new(20.0, 20.0, 0.002).unwrap(),
        ScaledBeta::new(2.0, 3.0, 0.002).unwrap(),
        CoincidencePrior::IndifferenceUniform,
        res,
    )
}

fn whitebox_posterior(c: &mut Criterion) {
    let mut group = c.benchmark_group("bayes/whitebox_posterior");
    let counts = JointCounts::from_raw(50_000, 15, 35, 25);
    for (label, res) in [
        (
            "48x48x16",
            Resolution {
                a_cells: 48,
                b_cells: 48,
                q_cells: 16,
            },
        ),
        (
            "64x64x24",
            Resolution {
                a_cells: 64,
                b_cells: 64,
                q_cells: 24,
            },
        ),
        (
            "96x96x32",
            Resolution {
                a_cells: 96,
                b_cells: 96,
                q_cells: 32,
            },
        ),
    ] {
        let engine = whitebox_engine(res);
        group.bench_with_input(BenchmarkId::from_parameter(label), &counts, |b, counts| {
            b.iter(|| black_box(engine.posterior(counts)));
        });
    }
    group.finish();
}

fn whitebox_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("bayes/incremental");
    // One study checkpoint: fold in the counts accumulated over another
    // 500 demands (mostly r4, a couple of single failures) and read the
    // switching-criterion percentiles off the cached marginals. This is
    // the steady-state hot path of `run_study` / `assess_incremental`.
    for (label, res) in [
        (
            "48x48x16",
            Resolution {
                a_cells: 48,
                b_cells: 48,
                q_cells: 16,
            },
        ),
        (
            "96x96x32",
            Resolution {
                a_cells: 96,
                b_cells: 96,
                q_cells: 32,
            },
        ),
    ] {
        let engine = whitebox_engine(res);
        let mut updater = engine.updater();
        let mut counts = JointCounts::new();
        group.bench_with_input(BenchmarkId::new("checkpoint", label), &(), move |b, ()| {
            b.iter(|| {
                counts = JointCounts::from_raw(
                    counts.demands() + 500,
                    counts.both_failed(),
                    counts.only_a_failed() + 1,
                    counts.only_b_failed() + 1,
                );
                updater.update_to(&counts);
                black_box(
                    updater.marginal_a().percentile(0.99) + updater.marginal_b().percentile(0.99),
                )
            });
        });
    }
    // The same checkpoint through the batch API, for the ns/op ratio the
    // BENCH_bayes.json report is meant to expose.
    let engine = whitebox_engine(Resolution::default());
    let counts = JointCounts::from_raw(50_000, 15, 35, 25);
    group.bench_function("batch_equivalent/96x96x32", |b| {
        b.iter(|| {
            let posterior = engine.posterior(&counts);
            black_box(
                posterior.marginal_a().percentile(0.99) + posterior.marginal_b().percentile(0.99),
            )
        });
    });
    // Marginal queries alone on the cached views (no update).
    let mut updater = engine.updater();
    updater.update_to(&counts);
    group.bench_function("view_queries/96x96x32", |b| {
        b.iter(|| {
            black_box(updater.marginal_a().percentile(0.99) + updater.marginal_b().percentile(0.99))
        });
    });
    group.finish();
}

/// `PosteriorUpdater::rebase`, the managed upgrade's per-assessment
/// recompute, on the default `UpgradeConfig` engine at both ends of a
/// run: at the prior every block can carry mass and the whole grid is
/// recomputed (the first assessments, and every plan of a short fault
/// campaign); at the counts the `upgrade-whitebox` workload reaches
/// after about 4M demands the posterior fills ~1% of the blocks and the
/// rest are skipped.
fn whitebox_rebase(c: &mut Criterion) {
    let mut group = c.benchmark_group("bayes/rebase");
    let config = UpgradeConfig::default();
    let engine = WhiteBoxInference::with_resolution(
        config.prior_a,
        config.prior_b,
        config.coincidence,
        config.resolution,
    );
    let mut updater = engine.updater();
    for (label, counts) in [
        ("prior", JointCounts::new()),
        ("n4m", JointCounts::from_raw(4_096_000, 0, 7_173, 1_934)),
    ] {
        group.bench_function(format!("96x96x32/{label}"), |b| {
            b.iter(|| {
                updater.rebase(black_box(&counts));
                black_box(updater.marginal_b().percentile(0.99))
            });
        });
    }
    group.finish();
}

/// Engine construction on the default grid. `cold` asks for a prior no
/// earlier iteration used, so every call builds a grid (and releases
/// the previous one); `shared` asks for the grid an engine held outside
/// the loop already has, as a deployment rebuilt with unchanged priors
/// does.
fn engine_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("bayes/engine");
    let build = |alpha: f64| {
        WhiteBoxInference::new(
            ScaledBeta::new(alpha, 20.0, 0.002).unwrap(),
            ScaledBeta::new(2.0, 3.0, 0.002).unwrap(),
            CoincidencePrior::IndifferenceUniform,
        )
    };
    let mut alpha = 20.0;
    group.bench_function("96x96x32/cold", |b| {
        b.iter(|| {
            alpha += 1e-6;
            build(alpha)
        });
    });
    let held = build(20.0);
    group.bench_function("96x96x32/shared", |b| {
        b.iter(|| build(black_box(20.0)));
    });
    drop(held);
    group.finish();
}

/// Per-kernel throughput over a default-grid-sized buffer (96×96×32 =
/// 294,912 cells): the lane-chunked structure-of-arrays kernels the
/// white-box hot paths are built from.
fn whitebox_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bayes/kernels");
    const CELLS: usize = 96 * 96 * 32;
    // Synthetic but realistically-shaped data: log-weights spread over
    // the post-shift band the updater produces, log-probability tables
    // in the per-demand range, and a sprinkle of dead (-inf) cells.
    let base: Vec<f64> = (0..CELLS)
        .map(|i| {
            if i % 37 == 0 {
                f64::NEG_INFINITY
            } else {
                -((i % 7919) as f64) * 1.5e-3
            }
        })
        .collect();
    let p1: Vec<f64> = (0..CELLS)
        .map(|i| -1e-4 * ((i % 997) as f64) - 1e-6)
        .collect();
    let p2: Vec<f64> = (0..CELLS)
        .map(|i| -2e-4 * ((i % 641) as f64) - 1e-6)
        .collect();
    let p3: Vec<f64> = (0..CELLS)
        .map(|i| -5e-5 * ((i % 1301) as f64) - 1e-6)
        .collect();

    let mut w = base.clone();
    group.bench_function("fused3/96x96x32", |b| {
        b.iter(|| {
            black_box(kernels::fused_axpy_max(
                black_box(&mut w),
                &[(&p1, 498.0), (&p2, 1.0), (&p3, 1.0)],
            ))
        });
    });
    group.bench_function("exp_weights/96x96x32", |b| {
        let mut x = vec![0.0; CELLS];
        b.iter(|| kernels::exp_weights(black_box(&base), 0.0, black_box(&mut x)));
    });
    group.bench_function("exp_stride_sums/96x96x32", |b| {
        let mut a_sums = vec![0.0; 96];
        let mut b_sums = vec![0.0; 96];
        b.iter(|| {
            kernels::exp_stride_sums(black_box(&base), 0.0, 32, &mut a_sums, &mut b_sums);
            black_box(a_sums[0] + b_sums[0])
        });
    });
    group.finish();
}

fn blackbox_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("bayes/blackbox_incremental");
    let prior = ScaledBeta::new(2.0, 3.0, 0.01).unwrap();
    let inf = BlackBoxInference::new(prior, 512);
    let mut updater = inf.updater();
    let mut demands = 0u64;
    group.bench_function("per_demand/512", move |b| {
        b.iter(|| {
            demands += 1;
            updater.update_to(demands, demands / 1_000);
            black_box(updater.confidence(1e-3))
        });
    });
    group.finish();
}

fn whitebox_marginals(c: &mut Criterion) {
    let mut group = c.benchmark_group("bayes/marginals");
    let engine = whitebox_engine(Resolution::default());
    let posterior = engine.posterior(&JointCounts::from_raw(50_000, 15, 35, 25));
    group.bench_function("marginal_b_p99", |b| {
        b.iter(|| black_box(posterior.marginal_b().percentile(0.99)));
    });
    group.bench_function("marginal_ab_64bins", |b| {
        b.iter(|| black_box(posterior.marginal_ab(64)));
    });
    group.finish();
}

fn blackbox_posterior(c: &mut Criterion) {
    let mut group = c.benchmark_group("bayes/blackbox_posterior");
    for cells in [256usize, 1024, 4096] {
        let prior = ScaledBeta::new(2.0, 3.0, 0.01).unwrap();
        let inf = BlackBoxInference::new(prior, cells);
        group.bench_with_input(BenchmarkId::from_parameter(cells), &cells, |b, _| {
            b.iter(|| black_box(inf.posterior(10_000, 8).percentile(0.99)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    whitebox_posterior,
    whitebox_incremental,
    whitebox_rebase,
    engine_construction,
    whitebox_kernels,
    whitebox_marginals,
    blackbox_posterior,
    blackbox_incremental,
);
criterion_main!(benches);
