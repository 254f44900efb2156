//! Typed trace events keyed on virtual time and demand number.
//!
//! Every variant carries `t` — the **dispatch instant of the demand in
//! virtual time** (seconds on the `simcore` clock) — and the demand
//! sequence number. Stamping all of a demand's events with its dispatch
//! instant keeps a trace monotonically non-decreasing in both `t` and
//! `demand` whenever demands are processed in order; per-event latencies
//! (execution time, response time) travel as payload fields instead.

use std::borrow::Cow;
use std::fmt::Write as _;

/// One structured trace event.
///
/// Serialised to a single JSON object per line by [`TraceEvent::to_json`];
/// the `kind` field names the variant.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A demand was dispatched to the active releases.
    DemandDispatched {
        /// Virtual time of dispatch, in seconds.
        t: f64,
        /// Demand sequence number (1-based).
        demand: u64,
        /// Number of releases the demand was dispatched to.
        releases: usize,
        /// Operating-mode label (e.g. `parallel-reliability`). Borrowed
        /// for the fixed modes, so per-demand emission does not allocate.
        mode: Cow<'static, str>,
    },
    /// A release responded within the timeout.
    ResponseCollected {
        /// Virtual time of dispatch, in seconds.
        t: f64,
        /// Demand sequence number.
        demand: u64,
        /// Index of the responding release in deployment order.
        release: usize,
        /// Response classification label (`CR`, `ER` or `NER`); always a
        /// borrowed `&'static` label on the hot path.
        class: Cow<'static, str>,
        /// Execution time of this release, in seconds.
        exec_time: f64,
    },
    /// A release failed to respond within the timeout.
    Timeout {
        /// Virtual time of dispatch, in seconds.
        t: f64,
        /// Demand sequence number.
        demand: u64,
        /// Index of the timed-out release.
        release: usize,
        /// The timeout that was exceeded, in seconds.
        timeout: f64,
    },
    /// The adjudicator produced the system response.
    Adjudicated {
        /// Virtual time of dispatch, in seconds.
        t: f64,
        /// Demand sequence number.
        demand: u64,
        /// System verdict label (`CR`, `ER`, `NER` or `NRDT`); always a
        /// borrowed `&'static` label on the hot path.
        verdict: Cow<'static, str>,
        /// Release whose response was selected, if any.
        source: Option<usize>,
        /// How many releases responded within the timeout.
        responders: usize,
        /// System response time, in seconds.
        response_time: f64,
    },
    /// A Bayesian assessment refreshed the confidence in the releases.
    ConfidenceUpdated {
        /// Virtual time, in seconds.
        t: f64,
        /// Demands observed so far.
        demand: u64,
        /// 99% posterior percentile of the old release's pfd.
        old_p99: f64,
        /// 99% posterior percentile of the new release's pfd.
        new_p99: f64,
        /// Switching-criterion label being evaluated.
        criterion: String,
        /// Whether the criterion was satisfied at this assessment.
        satisfied: bool,
    },
    /// The management subsystem changed (or aborted) the upgrade phase.
    SwitchDecision {
        /// Virtual time, in seconds.
        t: f64,
        /// Demand at which the decision was taken.
        demand: u64,
        /// Decision label (`switch-to-new` or `abort`).
        decision: String,
        /// Human-readable rationale.
        reason: String,
    },
    /// A release was suspended or restarted by the recovery policy.
    ReleaseSuspended {
        /// Virtual time, in seconds.
        t: f64,
        /// Demand at which recovery acted.
        demand: u64,
        /// Index of the affected release.
        release: usize,
        /// Recovery action label (`suspended` or `restarted`).
        action: String,
    },
    /// A fault injector perturbed (or suppressed) a release's response.
    FaultInjected {
        /// Virtual time, in seconds (the injector's last-seen clock).
        t: f64,
        /// Injector-local demand sequence number (1-based).
        demand: u64,
        /// Release label of the wrapped endpoint.
        release: String,
        /// Name of the fault clause that fired.
        clause: String,
        /// Stable fault-kind label (e.g. `crash`, `wrong-evident`).
        kind: String,
    },
    /// A demand's virtual-time span closed, with its cost attributed
    /// per middleware phase. All fields are in seconds; phases that the
    /// paper's timing model charges nothing for (detection, Bayes
    /// update, recovery) are carried explicitly so the attribution is
    /// auditable and richer timing models slot in without a schema
    /// change. Payload is all-numeric, so per-demand emission does not
    /// allocate.
    SpanClosed {
        /// Virtual time of dispatch, in seconds.
        t: f64,
        /// Demand sequence number.
        demand: u64,
        /// Time spent waiting on release responses (transport +
        /// execution), in seconds.
        transport: f64,
        /// Time attributed to failure detection, in seconds.
        detection: f64,
        /// Time attributed to adjudication (the paper's `dT`), in
        /// seconds.
        adjudication: f64,
        /// Time attributed to the Bayesian confidence update, in
        /// seconds.
        bayes: f64,
        /// Time attributed to recovery actions, in seconds.
        recovery: f64,
    },
    /// A free-form log line, such as a binary's wall-clock phase
    /// timing.
    Log {
        /// Virtual time, in seconds (0 when the logger has no clock).
        t: f64,
        /// Demand the message refers to.
        demand: u64,
        /// Severity label (`Info`, `Warning`, `Decision`).
        level: String,
        /// The message text.
        message: String,
    },
}

impl TraceEvent {
    /// The variant name, as serialised in the `kind` JSON field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::DemandDispatched { .. } => "DemandDispatched",
            TraceEvent::ResponseCollected { .. } => "ResponseCollected",
            TraceEvent::Timeout { .. } => "Timeout",
            TraceEvent::Adjudicated { .. } => "Adjudicated",
            TraceEvent::ConfidenceUpdated { .. } => "ConfidenceUpdated",
            TraceEvent::SwitchDecision { .. } => "SwitchDecision",
            TraceEvent::ReleaseSuspended { .. } => "ReleaseSuspended",
            TraceEvent::FaultInjected { .. } => "FaultInjected",
            TraceEvent::SpanClosed { .. } => "SpanClosed",
            TraceEvent::Log { .. } => "Log",
        }
    }

    /// The virtual timestamp, in seconds.
    pub fn virtual_time(&self) -> f64 {
        match self {
            TraceEvent::DemandDispatched { t, .. }
            | TraceEvent::ResponseCollected { t, .. }
            | TraceEvent::Timeout { t, .. }
            | TraceEvent::Adjudicated { t, .. }
            | TraceEvent::ConfidenceUpdated { t, .. }
            | TraceEvent::SwitchDecision { t, .. }
            | TraceEvent::ReleaseSuspended { t, .. }
            | TraceEvent::FaultInjected { t, .. }
            | TraceEvent::SpanClosed { t, .. }
            | TraceEvent::Log { t, .. } => *t,
        }
    }

    /// The demand sequence number the event refers to.
    pub fn demand(&self) -> u64 {
        match self {
            TraceEvent::DemandDispatched { demand, .. }
            | TraceEvent::ResponseCollected { demand, .. }
            | TraceEvent::Timeout { demand, .. }
            | TraceEvent::Adjudicated { demand, .. }
            | TraceEvent::ConfidenceUpdated { demand, .. }
            | TraceEvent::SwitchDecision { demand, .. }
            | TraceEvent::ReleaseSuspended { demand, .. }
            | TraceEvent::FaultInjected { demand, .. }
            | TraceEvent::SpanClosed { demand, .. }
            | TraceEvent::Log { demand, .. } => *demand,
        }
    }

    /// Serialises the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonObject::new();
        w.str_field("kind", self.kind());
        w.num_field("t", self.virtual_time());
        w.uint_field("demand", self.demand());
        match self {
            TraceEvent::DemandDispatched { releases, mode, .. } => {
                w.uint_field("releases", *releases as u64);
                w.str_field("mode", mode);
            }
            TraceEvent::ResponseCollected {
                release,
                class,
                exec_time,
                ..
            } => {
                w.uint_field("release", *release as u64);
                w.str_field("class", class);
                w.num_field("exec_time", *exec_time);
            }
            TraceEvent::Timeout {
                release, timeout, ..
            } => {
                w.uint_field("release", *release as u64);
                w.num_field("timeout", *timeout);
            }
            TraceEvent::Adjudicated {
                verdict,
                source,
                responders,
                response_time,
                ..
            } => {
                w.str_field("verdict", verdict);
                match source {
                    Some(s) => w.uint_field("source", *s as u64),
                    None => w.null_field("source"),
                }
                w.uint_field("responders", *responders as u64);
                w.num_field("response_time", *response_time);
            }
            TraceEvent::ConfidenceUpdated {
                old_p99,
                new_p99,
                criterion,
                satisfied,
                ..
            } => {
                w.num_field("old_p99", *old_p99);
                w.num_field("new_p99", *new_p99);
                w.str_field("criterion", criterion);
                w.bool_field("satisfied", *satisfied);
            }
            TraceEvent::SwitchDecision {
                decision, reason, ..
            } => {
                w.str_field("decision", decision);
                w.str_field("reason", reason);
            }
            TraceEvent::ReleaseSuspended {
                release, action, ..
            } => {
                w.uint_field("release", *release as u64);
                w.str_field("action", action);
            }
            TraceEvent::FaultInjected {
                release,
                clause,
                kind,
                ..
            } => {
                w.str_field("release", release);
                w.str_field("clause", clause);
                w.str_field("fault", kind);
            }
            TraceEvent::SpanClosed {
                transport,
                detection,
                adjudication,
                bayes,
                recovery,
                ..
            } => {
                w.num_field("transport", *transport);
                w.num_field("detection", *detection);
                w.num_field("adjudication", *adjudication);
                w.num_field("bayes", *bayes);
                w.num_field("recovery", *recovery);
                w.num_field(
                    "total",
                    transport + detection + adjudication + bayes + recovery,
                );
            }
            TraceEvent::Log { level, message, .. } => {
                w.str_field("level", level);
                w.str_field("message", message);
            }
        }
        w.finish()
    }
}

/// Escapes a string for inclusion in JSON output (without quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Incremental writer for a flat JSON object.
struct JsonObject {
    out: String,
}

impl JsonObject {
    fn new() -> Self {
        Self {
            out: String::from("{"),
        }
    }

    fn sep(&mut self) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
    }

    fn str_field(&mut self, key: &str, value: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "\"{}\":\"{}\"",
            json_escape(key),
            json_escape(value)
        );
    }

    fn num_field(&mut self, key: &str, value: f64) {
        self.sep();
        if value.is_finite() {
            let _ = write!(self.out, "\"{}\":{}", json_escape(key), fmt_f64(value));
        } else {
            let _ = write!(self.out, "\"{}\":null", json_escape(key));
        }
    }

    fn uint_field(&mut self, key: &str, value: u64) {
        self.sep();
        let _ = write!(self.out, "\"{}\":{}", json_escape(key), value);
    }

    fn bool_field(&mut self, key: &str, value: bool) {
        self.sep();
        let _ = write!(self.out, "\"{}\":{}", json_escape(key), value);
    }

    fn null_field(&mut self, key: &str) {
        self.sep();
        let _ = write!(self.out, "\"{}\":null", json_escape(key));
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Formats a finite `f64` so the output is valid JSON and round-trips.
/// (`{}` on f64 round-trips; integers print without a dot, which JSON
/// still accepts as a number.)
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_accessors() {
        let ev = TraceEvent::Adjudicated {
            t: 1.5,
            demand: 3,
            verdict: "CR".into(),
            source: Some(1),
            responders: 2,
            response_time: 0.4,
        };
        assert_eq!(ev.kind(), "Adjudicated");
        assert_eq!(ev.virtual_time(), 1.5);
        assert_eq!(ev.demand(), 3);
    }

    #[test]
    fn json_shape() {
        let ev = TraceEvent::SwitchDecision {
            t: 2.0,
            demand: 10,
            decision: "switch-to-new".into(),
            reason: "criterion \"3\"".into(),
        };
        let json = ev.to_json();
        assert!(json.starts_with("{\"kind\":\"SwitchDecision\""), "{json}");
        assert!(json.contains("\"t\":2"), "{json}");
        assert!(json.contains("\\\"3\\\""), "{json}");
        assert!(json.ends_with('}'));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let ev = TraceEvent::ConfidenceUpdated {
            t: 0.0,
            demand: 1,
            old_p99: f64::NAN,
            new_p99: 0.5,
            criterion: "c1".into(),
            satisfied: false,
        };
        let json = ev.to_json();
        assert!(json.contains("\"old_p99\":null"), "{json}");
        assert!(json.contains("\"new_p99\":0.5"), "{json}");
    }

    #[test]
    fn escape_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
