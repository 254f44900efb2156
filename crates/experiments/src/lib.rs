//! Reproduction harness for the paper's evaluation.
//!
//! One module per experiment, each exposing a `run_*` function returning
//! structured results plus a text rendering that mirrors the paper's
//! table/figure:
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Table 2 (duration of managed upgrade) | [`table2`] | `table2` |
//! | Fig. 7 (Scenario 1 percentiles) | [`figures`] | `fig7` |
//! | Fig. 8 (Scenario 2 percentiles) | [`figures`] | `fig8` |
//! | Table 5 (correlated releases) | [`table5`] | `table5` |
//! | Table 6 (independent releases) | [`table6`] | `table6` |
//! | Ablations (adjudicators, modes, coverage, priors) | [`ablation`] | `ablations` |
//!
//! Shared drivers: [`bayes_study`] (Monte-Carlo demands + white-box
//! inference checkpoints, Section 5.1) and [`midsim`] (the event-driven
//! middleware simulation, Section 5.2). [`report`] renders aligned text
//! tables.
//!
//! Serving: [`serve`] (binary `wsu-serve`) runs the upgrade middleware
//! behind the workspace's one HTTP server, one worker per core, and
//! [`loadgen`] (binary `wsu-loadgen`) drives it closed-loop and
//! publishes `results/BENCH_http.json`.
//!
//! All experiments are deterministic given a [`MasterSeed`]; the
//! binaries use [`DEFAULT_SEED`].
//!
//! [`MasterSeed`]: wsu_simcore::rng::MasterSeed

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod analyze;
pub mod bayes_study;
pub mod campaign;
pub mod capacity;
pub mod cli;
pub mod figures;
pub mod fleetstudy;
pub mod loadgen;
pub mod midsim;
pub mod obs;
pub mod replicate;
pub mod report;
pub mod scalestudy;
pub mod serve;
pub mod table2;
pub mod table5;
pub mod table6;
pub mod validation;

use wsu_simcore::rng::MasterSeed;

/// The seed all experiment binaries use, so published numbers are
/// reproducible bit for bit.
pub const DEFAULT_SEED: MasterSeed = MasterSeed::new(0x5745_4253_5643_5550); // "WEBSVCUP"

/// Number of requests in the paper's middleware simulation (Tables 5–6).
pub const PAPER_REQUESTS: u64 = 10_000;

/// The timeouts of the paper's middleware simulation, in seconds.
pub const PAPER_TIMEOUTS: [f64; 3] = [1.5, 2.0, 3.0];
