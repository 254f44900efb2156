//! Bayesian confidence-in-correctness inference.
//!
//! The paper's central measure is *confidence*: the posterior probability
//! that a release's probability of failure on demand (pfd) is at or below
//! a target. This crate implements both inference modes used in
//! Section 5.1:
//!
//! * [`blackbox`] — the release is a black box; successes/failures are
//!   counted and combined with a scaled-Beta prior via the binomial
//!   likelihood (paper eq. (1));
//! * [`whitebox`] — two releases run side by side; demands are scored
//!   jointly (Table 1's four outcomes) and a trivariate prior over
//!   (P_A, P_B, P_AB) is updated via the multinomial likelihood (paper
//!   eqs. (2)–(6)), yielding marginal posteriors for each release and for
//!   coincident failure.
//!
//! Supporting modules: [`special`] (log-gamma, regularized incomplete
//! beta, log-sum-exp), [`beta`] (Beta and scaled-Beta distributions),
//! [`counts`] (joint outcome bookkeeping), [`posterior`] (grid
//! marginals with percentile/confidence queries) and [`kernels`] (the
//! vectorized structure-of-arrays grid kernels).
//!
//! # Example: black-box confidence after observing 1000 clean demands
//!
//! ```
//! use wsu_bayes::beta::ScaledBeta;
//! use wsu_bayes::blackbox::BlackBoxInference;
//!
//! // Prior: pfd somewhere in [0, 0.01], expected ~1e-3 (paper scenario 2).
//! let prior = ScaledBeta::new(1.0, 10.0, 0.01).unwrap();
//! let inference = BlackBoxInference::new(prior, 512);
//! let posterior = inference.posterior(1000, 0);
//! // Confidence that pfd <= 1e-2 is essentially certain.
//! assert!(posterior.confidence(1e-2) > 0.999);
//! // And the posterior is tighter than the prior.
//! assert!(posterior.percentile(0.99) < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beta;
pub mod blackbox;
pub mod counts;
pub mod kernels;
pub mod posterior;
pub mod special;
pub mod whitebox;

pub use beta::ScaledBeta;
pub use blackbox::{BlackBoxInference, BlackBoxUpdater};
pub use counts::JointCounts;
pub use posterior::{GridPosterior, MarginalView, PosteriorQueries};
pub use whitebox::{CoincidencePrior, PosteriorUpdater, WhiteBoxInference, WhiteBoxPosterior};
