//! Phase attribution, on both clocks.
//!
//! [`PhaseTimings`] collects real elapsed times: where does an
//! experiment binary actually spend its seconds? [`DemandSpan`] and
//! [`SpanProfile`] work on the **virtual** clock instead: each demand's
//! simulated response time is decomposed into middleware phases
//! (transport, detection, adjudication, Bayes update, recovery),
//! emitted as [`TraceEvent::SpanClosed`] and aggregated into a
//! per-phase profile table.

use std::fmt::Write as _;
use std::time::Duration;

use crate::event::TraceEvent;
use crate::metrics::SharedRegistry;

/// The span phases, in attribution order.
pub const SPAN_PHASES: [&str; 5] = [
    "transport",
    "detection",
    "adjudication",
    "bayes",
    "recovery",
];

/// An ordered list of named phase durations.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    entries: Vec<(String, Duration)>,
}

impl PhaseTimings {
    /// An empty set of timings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an externally measured duration.
    pub fn record(&mut self, name: &str, duration: Duration) {
        self.entries.push((name.to_string(), duration));
    }

    /// The recorded `(name, duration)` pairs, in recording order.
    pub fn entries(&self) -> &[(String, Duration)] {
        &self.entries
    }

    /// Sum of all recorded durations.
    pub fn total(&self) -> Duration {
        self.entries.iter().map(|(_, d)| *d).sum()
    }

    /// Renders a small aligned report.
    pub fn render(&self) -> String {
        let mut out = String::from("Phase timings (wall clock):\n");
        for (name, duration) in &self.entries {
            out.push_str(&format!(
                "  {name:<40} {:>10.3} ms\n",
                duration.as_secs_f64() * 1e3
            ));
        }
        out.push_str(&format!(
            "  {:<40} {:>10.3} ms\n",
            "total",
            self.total().as_secs_f64() * 1e3
        ));
        out
    }

    /// Exports each phase as a `wsu_phase_seconds{phase="…"}` gauge.
    pub fn export(&self, registry: &SharedRegistry) {
        for (name, duration) in &self.entries {
            registry.set_gauge(
                "wsu_phase_seconds",
                &[("phase", name)],
                duration.as_secs_f64(),
            );
        }
    }
}

/// One demand's virtual-time cost, attributed per phase (seconds).
///
/// In the paper's timing model (eq. 8) the whole response time is
/// transport (waiting on releases) plus adjudication (`dT`); detection,
/// Bayes updates and recovery happen between demands and cost zero
/// virtual seconds. The span carries all five phases anyway, so the
/// attribution is explicit and richer timing models extend it without
/// changing the schema.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DemandSpan {
    /// Virtual time of dispatch, in seconds.
    pub t: f64,
    /// Demand sequence number.
    pub demand: u64,
    /// Seconds waiting on release responses.
    pub transport: f64,
    /// Seconds attributed to failure detection.
    pub detection: f64,
    /// Seconds attributed to adjudication (the paper's `dT`).
    pub adjudication: f64,
    /// Seconds attributed to the Bayesian confidence update.
    pub bayes: f64,
    /// Seconds attributed to recovery actions.
    pub recovery: f64,
}

impl DemandSpan {
    /// Total virtual-time cost of the demand.
    pub fn total(&self) -> f64 {
        self.transport + self.detection + self.adjudication + self.bayes + self.recovery
    }

    /// The phase values in [`SPAN_PHASES`] order.
    pub fn phases(&self) -> [f64; 5] {
        [
            self.transport,
            self.detection,
            self.adjudication,
            self.bayes,
            self.recovery,
        ]
    }

    /// The matching [`TraceEvent::SpanClosed`]. All-numeric payload, so
    /// this does not allocate.
    pub fn to_event(&self) -> TraceEvent {
        TraceEvent::SpanClosed {
            t: self.t,
            demand: self.demand,
            transport: self.transport,
            detection: self.detection,
            adjudication: self.adjudication,
            bayes: self.bayes,
            recovery: self.recovery,
        }
    }
}

/// Aggregates [`DemandSpan`]s into a per-phase profile: count, total
/// and mean virtual seconds and each phase's share of the whole.
///
/// Fixed-size accumulators, so [`record`](SpanProfile::record) is
/// allocation-free on the per-demand path, and profiles from
/// replication shards [`merge`](SpanProfile::merge) by addition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanProfile {
    demands: u64,
    totals: [f64; 5],
}

impl SpanProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one demand's span in. Allocation-free.
    pub fn record(&mut self, span: &DemandSpan) {
        self.demands += 1;
        for (acc, v) in self.totals.iter_mut().zip(span.phases()) {
            *acc += v;
        }
    }

    /// Number of demands recorded.
    pub fn demands(&self) -> u64 {
        self.demands
    }

    /// Total virtual seconds attributed to `phase` (a [`SPAN_PHASES`]
    /// name), or `None` for an unknown phase.
    pub fn phase_total(&self, phase: &str) -> Option<f64> {
        SPAN_PHASES
            .iter()
            .position(|&p| p == phase)
            .map(|i| self.totals[i])
    }

    /// Total virtual seconds across all phases.
    pub fn total(&self) -> f64 {
        self.totals.iter().sum()
    }

    /// Adds another profile's mass (shard folding).
    pub fn merge(&mut self, other: &SpanProfile) {
        self.demands += other.demands;
        for (acc, v) in self.totals.iter_mut().zip(other.totals) {
            *acc += v;
        }
    }

    /// Renders the per-phase profile table.
    pub fn render(&self) -> String {
        let mut out = String::from("Span profile (virtual time):\n");
        let grand = self.total();
        for (name, total) in SPAN_PHASES.iter().zip(self.totals) {
            let mean = if self.demands == 0 {
                0.0
            } else {
                total / self.demands as f64
            };
            let share = if grand > 0.0 {
                total / grand * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {name:<14} {total:>12.3} s  {mean:>10.6} s/demand  {share:>6.2} %"
            );
        }
        let _ = writeln!(
            out,
            "  {:<14} {grand:>12.3} s  over {} demands",
            "total", self.demands
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_records_in_order() {
        let mut spans = PhaseTimings::new();
        spans.record("first", Duration::from_millis(1));
        spans.record("second", Duration::from_millis(5));
        assert_eq!(spans.entries().len(), 2);
        assert_eq!(spans.entries()[0].0, "first");
        assert!(spans.total() >= Duration::from_millis(5));
        assert!(spans.render().contains("second"));
    }

    #[test]
    fn demand_span_totals_and_event_round_trip() {
        let span = DemandSpan {
            t: 10.0,
            demand: 7,
            transport: 0.6,
            adjudication: 0.1,
            ..DemandSpan::default()
        };
        assert!((span.total() - 0.7).abs() < 1e-12);
        let event = span.to_event();
        assert_eq!(event.kind(), "SpanClosed");
        assert_eq!(event.virtual_time(), 10.0);
        assert_eq!(event.demand(), 7);
        let json = event.to_json();
        assert!(json.contains("\"transport\":0.6"), "{json}");
        assert!(json.contains("\"total\":0.7"), "{json}");
    }

    #[test]
    fn span_profile_aggregates_and_merges() {
        let mut a = SpanProfile::new();
        let mut b = SpanProfile::new();
        let span = DemandSpan {
            transport: 0.5,
            adjudication: 0.1,
            ..DemandSpan::default()
        };
        a.record(&span);
        b.record(&span);
        b.record(&span);
        a.merge(&b);
        assert_eq!(a.demands(), 3);
        assert!((a.phase_total("transport").unwrap() - 1.5).abs() < 1e-12);
        assert!((a.phase_total("adjudication").unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(a.phase_total("warp"), None);
        assert!((a.total() - 1.8).abs() < 1e-12);
        let table = a.render();
        assert!(table.contains("transport"), "{table}");
        assert!(table.contains("over 3 demands"), "{table}");
    }

    #[test]
    fn export_writes_gauges() {
        let mut spans = PhaseTimings::new();
        spans.record("run", Duration::from_secs(2));
        let registry = SharedRegistry::new();
        spans.export(&registry);
        assert_eq!(
            registry.with(|r| r.gauge("wsu_phase_seconds", &[("phase", "run")])),
            Some(2.0)
        );
    }
}
