//! Zero-dependency observability for the managed-upgrade workspace.
//!
//! The paper's management subsystem is "responsible … for logging the
//! information which may be needed for further analysis" (§4.1). This
//! crate is that logging layer, grown to production shape:
//!
//! * [`event::TraceEvent`] — typed trace events keyed on **virtual
//!   time** (the `simcore` clock, in seconds) and demand number, one
//!   variant per interesting middleware decision (dispatch, collected
//!   response, timeout, adjudication, confidence update, switch
//!   decision, release recovery).
//! * [`recorder::Recorder`] — the sink trait the hot paths write to.
//!   [`recorder::NullRecorder`] is the no-op default (uninstrumented
//!   runs stay bit-identical and near-zero-cost);
//!   [`recorder::MemoryRecorder`] collects events in memory;
//!   [`recorder::SharedRecorder`] shares one sink between subsystems.
//! * [`metrics::MetricsRegistry`] — labeled counters, gauges and
//!   fixed-bucket histograms, snapshotable to a Prometheus-text-style
//!   string and mergeable across runs.
//! * [`quantile::QuantileSketch`] — a log-scale-bucket quantile sketch
//!   with an exact relative-error bound, mergeable across replication
//!   shards, rendered as Prometheus summary series by the registry. Its
//!   buckets are found by an exact table lookup, not a logarithm.
//! * [`slo::SloWindow`] — a ring of virtual-time windows tracking
//!   availability, fault rate, false-alarm rate and latency-threshold
//!   violations, polled as a [`slo::DependabilitySnapshot`].
//! * [`jsonl`] — a hand-rolled JSONL exporter (no serde) plus a small
//!   JSON parser and renderer ([`jsonl::JsonValue`]).
//! * [`bench`](mod@bench) — the `wsu-bench/1` record of every `BENCH_*.json`
//!   file ([`bench::BenchRecord`]): its one writer, its one reader and
//!   the [`bench::stamp`] of the host and build it was measured on.
//! * [`span`] — wall-clock phase timers ([`span::PhaseTimings`]) and
//!   per-demand virtual-time span decomposition
//!   ([`span::DemandSpan`], [`span::SpanProfile`]).
//! * [`http`] — the shared hand-rolled HTTP/1.1 layer over `std::net`
//!   (framed request/response parsing, `Content-Length` bodies,
//!   keep-alive, bounded reads) behind every network surface in the
//!   workspace, and [`http::Server`], the one listener both HTTP
//!   endpoints run on.
//! * [`export::MetricsExporter`] — a `/metrics` + `/health` +
//!   `/snapshot` endpoint: that server with one worker.
//!
//! Everything is plain `std`: the crate adds no dependencies, its only
//! global state is the default quantile sketch's bucket table (built
//! once per process, read-only from then on), and the only threads it
//! ever spawns are an [`http::Server`]'s workers, such as the opt-in
//! metrics exporter's one (the simulation itself stays
//! single-threaded).
//!
//! # Example
//!
//! ```
//! use wsu_obs::event::TraceEvent;
//! use wsu_obs::metrics::MetricsRegistry;
//! use wsu_obs::recorder::{MemoryRecorder, Recorder};
//!
//! let mut recorder = MemoryRecorder::new();
//! recorder.record(TraceEvent::SwitchDecision {
//!     t: 12.5,
//!     demand: 400,
//!     decision: "switch-to-new".into(),
//!     reason: "criterion 3 satisfied".into(),
//! });
//! assert_eq!(recorder.events().len(), 1);
//!
//! let mut metrics = MetricsRegistry::new();
//! metrics.inc_counter("wsu_demands_total", &[("mode", "parallel")]);
//! assert!(metrics.snapshot().contains("wsu_demands_total"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod event;
pub mod export;
pub mod fleet;
pub mod http;
pub mod jsonl;
pub mod metrics;
pub mod quantile;
pub mod recorder;
pub mod slo;
pub mod span;

pub use bench::{BenchRecord, BenchRow};
pub use event::TraceEvent;
pub use export::MetricsExporter;
pub use fleet::FleetGauges;
pub use http::{http_get, HttpClient, HttpConn, HttpResponse};
pub use jsonl::{parse_jsonl, JsonValue};
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry, SharedRegistry, SketchId};
pub use quantile::QuantileSketch;
pub use recorder::{MemoryRecorder, NullRecorder, Recorder, SharedRecorder};
pub use slo::{DependabilitySnapshot, SloConfig, SloObservation, SloWindow};
pub use span::{DemandSpan, PhaseTimings, SpanProfile, SPAN_PHASES};
