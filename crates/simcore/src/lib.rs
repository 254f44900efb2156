//! Deterministic discrete-event simulation engine.
//!
//! `wsu-simcore` is the substrate underneath every experiment in this
//! workspace. It provides:
//!
//! * [`time`] — virtual time ([`SimTime`]) and durations ([`SimDuration`])
//!   with total ordering suitable for event queues;
//! * [`rng`] — deterministic, named random-number streams
//!   ([`rng::StreamRng`]) derived from a single master seed, so that every
//!   table and figure regenerated by the workspace is exactly reproducible;
//! * [`dist`] — the random variates the paper's simulation model needs
//!   (exponential and constant delays);
//! * [`par`] — a deterministic parallel runner (results merged in
//!   index order, so outputs are byte-identical for any worker count),
//!   used for replications and for the scale study's shards alike;
//! * [`queue`] — a stable priority queue of timestamped events;
//! * [`engine`] — a minimal event-driven simulation loop over a
//!   user-supplied world;
//! * [`stats`] — streaming statistics (Welford mean/variance, min/max,
//!   counters, histograms) used by the monitoring subsystem;
//! * [`series`] — checkpointed series for figure-style outputs.
//!
//! # Example
//!
//! ```
//! use wsu_simcore::engine::{Engine, Handler};
//! use wsu_simcore::time::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev {
//!     Ping(u32),
//! }
//!
//! struct World {
//!     pings: Vec<(SimTime, u32)>,
//! }
//!
//! impl Handler<Ev> for World {
//!     fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) {
//!         let Ev::Ping(n) = event;
//!         self.pings.push((engine.now(), n));
//!         if n < 3 {
//!             engine.schedule_in(SimDuration::from_secs(1.0), Ev::Ping(n + 1));
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, Ev::Ping(1));
//! let mut world = World { pings: Vec::new() };
//! engine.run(&mut world);
//! assert_eq!(world.pings.len(), 3);
//! assert_eq!(world.pings[2].0, SimTime::from_secs(2.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod engine;
pub mod par;
pub mod queue;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use engine::{Engine, Handler};
pub use rng::{MasterSeed, StreamRng};
pub use time::{SimDuration, SimTime};
