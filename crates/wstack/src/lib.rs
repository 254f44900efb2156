//! Simulated Web-Service stack.
//!
//! The paper's system is built on the early-2000s WS technology stack:
//! SOAP messages, WSDL service descriptions and a UDDI registry. A real
//! wire-level stack is irrelevant to the evaluation (and the Rust WS-*
//! ecosystem is thin), so this crate provides an in-process, simulation-
//! friendly equivalent that preserves the semantics the paper exercises:
//!
//! * [`message`] — SOAP-like envelopes with typed parts and faults;
//! * [`outcome`] — the paper's response taxonomy (correct, evident
//!   failure, non-evident failure) from Section 2.1;
//! * [`wsdl`] — WSDL-like service descriptions, including the three
//!   confidence-publishing extensions of Section 6.2;
//! * [`registry`] — a UDDI-like registry with release links (the
//!   notification option of Section 7.2);
//! * [`endpoint`] — the [`endpoint::ServiceEndpoint`] abstraction plus
//!   synthetic and scripted implementations used by the simulations.
//!
//! A lossy, delaying network between the middleware and a release is
//! modelled by `wsu_faults::FaultInjector`'s network faults (dropped
//! responses, latency spikes, corrupted messages).
//!
//! # Example
//!
//! ```
//! use wsu_simcore::rng::StreamRng;
//! use wsu_wstack::endpoint::{ServiceEndpoint, SyntheticService};
//! use wsu_wstack::message::Envelope;
//! use wsu_wstack::outcome::OutcomeProfile;
//!
//! let mut svc = SyntheticService::builder("Quote", "1.0")
//!     .outcomes(OutcomeProfile::new(0.7, 0.15, 0.15))
//!     .exec_time_mean(0.7)
//!     .build();
//! let mut rng = StreamRng::from_seed(9);
//! let invocation = svc.invoke(&Envelope::request("getQuote"), &mut rng);
//! assert!(invocation.exec_time.as_secs() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endpoint;
pub mod message;
pub mod outcome;
pub mod registry;
pub mod wsdl;

pub use endpoint::{Invocation, ServiceEndpoint, SyntheticService};
pub use message::{Envelope, Fault, Value};
pub use outcome::{OutcomeProfile, ResponseClass};
pub use registry::{Registry, ServiceRecord};
pub use wsdl::ServiceDescription;
