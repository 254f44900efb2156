//! The sharing contract of white-box grids
//! (`WhiteBoxInference::with_resolution`): engines built from equal inputs
//! share one table set, changing any single input gives another, a grid
//! rebuilt after eviction equals its first build bit for bit, a
//! constructor that panics in validation leaves later constructions
//! working, and concurrent requests for one key get one grid.
//!
//! The tests of this binary run in parallel against one process-wide
//! cache, so each test builds from an `α` of the A prior that no other
//! test uses.

use std::panic;
use std::sync::Barrier;
use std::thread;

use wsu_bayes::beta::ScaledBeta;
use wsu_bayes::counts::JointCounts;
use wsu_bayes::whitebox::{CoincidencePrior, Resolution, WhiteBoxInference};

fn small() -> Resolution {
    Resolution {
        a_cells: 20,
        b_cells: 18,
        q_cells: 6,
    }
}

fn beta(alpha: f64, beta: f64, range: f64) -> ScaledBeta {
    ScaledBeta::new(alpha, beta, range).unwrap()
}

/// An engine on the small full-support grid whose A prior has shape
/// `alpha`.
fn engine(alpha: f64, resolution: Resolution) -> WhiteBoxInference {
    WhiteBoxInference::with_resolution(
        beta(alpha, 20.0, 0.002),
        beta(2.0, 3.0, 0.002),
        CoincidencePrior::IndifferenceUniform,
        resolution,
    )
}

/// The bits of every per-cell log table, in `log_tables` order.
fn table_bits(engine: &WhiteBoxInference) -> Vec<u64> {
    let tables = engine.log_tables();
    [tables.ln_prior]
        .iter()
        .chain(&tables.ln_p)
        .flat_map(|table| table.iter().map(|v| v.to_bits()))
        .collect()
}

/// Every construction input of an engine.
#[derive(Clone, Copy)]
struct Inputs {
    prior_a: ScaledBeta,
    prior_b: ScaledBeta,
    coincidence: CoincidencePrior,
    resolution: Resolution,
}

impl Inputs {
    /// These inputs with one changed by `change`.
    fn with(mut self, change: impl FnOnce(&mut Inputs)) -> Inputs {
        change(&mut self);
        self
    }

    fn engine(self) -> WhiteBoxInference {
        WhiteBoxInference::with_resolution(
            self.prior_a,
            self.prior_b,
            self.coincidence,
            self.resolution,
        )
    }
}

#[test]
fn equal_inputs_share_one_grid_and_any_changed_input_builds_another() {
    let base = Inputs {
        prior_a: beta(11.0, 20.0, 0.002),
        prior_b: beta(2.0, 3.0, 0.002),
        coincidence: CoincidencePrior::ScaledUniform(0.5),
        resolution: small(),
    };
    let engine = base.engine();
    assert!(engine.shares_grid(&base.engine()));

    let cells = |a_cells, b_cells, q_cells| Resolution {
        a_cells,
        b_cells,
        q_cells,
    };
    let changed = [
        base.with(|i| i.prior_a = beta(11.5, 20.0, 0.002)),
        base.with(|i| i.prior_a = beta(11.0, 21.0, 0.002)),
        base.with(|i| i.prior_a = beta(11.0, 20.0, 0.0025)),
        base.with(|i| i.prior_b = beta(2.5, 3.0, 0.002)),
        base.with(|i| i.prior_b = beta(2.0, 3.5, 0.002)),
        base.with(|i| i.prior_b = beta(2.0, 3.0, 0.0025)),
        base.with(|i| i.coincidence = CoincidencePrior::ScaledUniform(0.25)),
        base.with(|i| i.coincidence = CoincidencePrior::IndifferenceUniform),
        base.with(|i| i.coincidence = CoincidencePrior::FixedFraction(0.5)),
        base.with(|i| i.coincidence = CoincidencePrior::Independent),
        base.with(|i| i.resolution = cells(21, 18, 6)),
        base.with(|i| i.resolution = cells(20, 19, 6)),
        base.with(|i| i.resolution = cells(20, 18, 7)),
    ]
    .map(Inputs::engine);
    for (i, changed_engine) in changed.iter().enumerate() {
        assert!(
            !changed_engine.shares_grid(&engine),
            "change {i} shares the base grid"
        );
        for (j, other) in changed.iter().enumerate().skip(i + 1) {
            assert!(
                !changed_engine.shares_grid(other),
                "changes {i} and {j} share a grid"
            );
        }
    }
    // Thirteen other grids later, equal inputs still find the base grid.
    assert!(base.engine().shares_grid(&engine));
}

#[test]
fn a_grid_rebuilt_after_eviction_equals_its_first_build() {
    let counts = JointCounts::from_raw(40_000, 3, 20, 9);
    let first = engine(12.0, small());
    let first_tables = table_bits(&first);
    let first_marginal = first.posterior(&counts).marginal_b();
    drop(first);
    // No engine holds the grid now; requesting another evicts it.
    let other = engine(12.5, small());
    let rebuilt = engine(12.0, small());
    assert!(!rebuilt.shares_grid(&other));
    assert_eq!(table_bits(&rebuilt), first_tables);
    let marginal = rebuilt.posterior(&counts).marginal_b();
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(marginal.masses()), bits(first_marginal.masses()));
    assert_eq!(bits(marginal.grid()), bits(first_marginal.grid()));
}

#[test]
fn a_constructor_that_panics_in_validation_leaves_later_constructions_working() {
    let prior = beta(13.0, 20.0, 0.002);
    let scaled_zero = panic::catch_unwind(|| {
        WhiteBoxInference::with_resolution(
            prior,
            prior,
            CoincidencePrior::ScaledUniform(0.0),
            small(),
        )
    });
    assert!(scaled_zero.is_err());
    let no_q_cells = panic::catch_unwind(|| {
        WhiteBoxInference::with_resolution(
            prior,
            prior,
            CoincidencePrior::IndifferenceUniform,
            Resolution {
                q_cells: 0,
                ..small()
            },
        )
    });
    assert!(no_q_cells.is_err());

    let engine = engine(13.0, small());
    assert!(engine.shares_grid(&self::engine(13.0, small())));
    let posterior = engine.posterior(&JointCounts::from_raw(1_000, 0, 1, 0));
    assert!(posterior.marginal_b().mean() > 0.0);
}

#[test]
fn concurrent_requests_for_one_key_get_one_grid() {
    // A default-size grid takes long enough to build that the four
    // requests overlap.
    let start = Barrier::new(4);
    let engines: Vec<WhiteBoxInference> = thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    engine(14.0, Resolution::default())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().unwrap())
            .collect()
    });
    for engine in &engines[1..] {
        assert!(engine.shares_grid(&engines[0]));
    }
}
