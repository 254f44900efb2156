//! The monitoring subsystem (paper Section 4.3).
//!
//! "Every time the consumer invokes the WS this subsystem monitors the
//! availability (timeout can be used to detect if the service is down),
//! execution time and the correctness of the responses for each release
//! of the WS and stores these parameters in a database."
//!
//! [`MonitoringSubsystem`] consumes the [`DemandRecord`]s the middleware
//! produces and maintains:
//!
//! * per-release outcome counts (CR / ER / NER), NRDT counts and
//!   execution-time statistics — the rows of the paper's Tables 5–6;
//! * the same for the *system* (the adjudicated response);
//! * joint failure counts of a designated (old, new) release pair,
//!   scored through a configurable [`FailureDetector`] — the observations
//!   driving the white-box Bayesian inference;
//! * a bounded in-memory log of recent records ("the database");
//! * streaming dependability telemetry: tail-latency quantile sketches
//!   (system response time and per-release execution time) and a
//!   windowed availability/SLO tracker ([`SloWindow`]) polled as a
//!   [`DependabilitySnapshot`]. Both are always on — fixed-size
//!   structures fed allocation-free on the per-demand path — so the
//!   campaign reports get p99/p999 and worst-window availability even
//!   without a metrics registry attached.

use wsu_bayes::counts::JointCounts;
use wsu_detect::coverage::DetectionAudit;
use wsu_detect::oracle::{DemandOutcome, FailureDetector, PerfectOracle};
use wsu_obs::{
    CounterId, DependabilitySnapshot, HistogramId, QuantileSketch, SharedRegistry, SketchId,
    SloConfig, SloObservation, SloWindow,
};
use wsu_simcore::rng::StreamRng;
use wsu_simcore::stats::{CountTable, Summary};
use wsu_wstack::outcome::ResponseClass;

use crate::adjudicate::SystemVerdict;
use crate::middleware::DemandRecord;
use crate::release::ReleaseId;

/// Dependability statistics of one release (one column group of the
/// paper's Tables 5–6).
#[derive(Debug, Clone)]
pub struct ReleaseStats {
    counts: CountTable,
    nrdt: u64,
    exec_all: Summary,
    exec_within: Summary,
    exec_sketch: QuantileSketch,
}

impl ReleaseStats {
    fn new() -> ReleaseStats {
        ReleaseStats {
            counts: CountTable::new(&["CR", "ER", "NER"]),
            nrdt: 0,
            exec_all: Summary::new(),
            exec_within: Summary::new(),
            exec_sketch: QuantileSketch::default(),
        }
    }

    /// Responses of the given class received within the timeout.
    pub fn count(&self, class: ResponseClass) -> u64 {
        self.counts.count(class.index())
    }

    /// Responses received within the timeout (the tables' "Total").
    pub fn total_responses(&self) -> u64 {
        self.counts.total()
    }

    /// Demands with no response within the timeout ("NRDT").
    pub fn nrdt(&self) -> u64 {
        self.nrdt
    }

    /// Mean execution time over *all* responses, late ones included (the
    /// per-release MET of the tables, which the paper reports independent
    /// of the timeout).
    pub fn mean_exec_time(&self) -> f64 {
        self.exec_all.mean()
    }

    /// Execution-time statistics over all responses.
    pub fn exec_summary(&self) -> &Summary {
        &self.exec_all
    }

    /// Execution-time statistics over responses within the timeout.
    pub fn exec_within_summary(&self) -> &Summary {
        &self.exec_within
    }

    /// Tail-latency quantile sketch over all execution times (p50/p90/
    /// p99/p999 within a 1% relative-error bound).
    pub fn exec_quantiles(&self) -> &QuantileSketch {
        &self.exec_sketch
    }

    /// Availability: fraction of demands with a response within the
    /// timeout.
    pub fn availability(&self) -> f64 {
        let demands = self.total_responses() + self.nrdt;
        if demands == 0 {
            return 1.0;
        }
        self.total_responses() as f64 / demands as f64
    }

    /// Observed failure rate among responses (ER + NER over total).
    pub fn failure_rate(&self) -> f64 {
        let total = self.total_responses();
        if total == 0 {
            return 0.0;
        }
        (self.count(ResponseClass::EvidentFailure) + self.count(ResponseClass::NonEvidentFailure))
            as f64
            / total as f64
    }
}

/// Dependability statistics of the composite (adjudicated) service.
#[derive(Debug, Clone)]
pub struct SystemStats {
    counts: CountTable,
    nrdt: u64,
    response_time: Summary,
}

impl SystemStats {
    fn new() -> SystemStats {
        SystemStats {
            counts: CountTable::new(&["CR", "ER", "NER"]),
            nrdt: 0,
            response_time: Summary::new(),
        }
    }

    /// Adjudicated responses of the given class.
    pub fn count(&self, class: ResponseClass) -> u64 {
        self.counts.count(class.index())
    }

    /// Demands on which a response (of any class) was returned.
    pub fn total_responses(&self) -> u64 {
        self.counts.total()
    }

    /// Demands reported "Web Service unavailable".
    pub fn nrdt(&self) -> u64 {
        self.nrdt
    }

    /// Mean consumer-visible response time, unavailable demands included
    /// (the consumer waits out the timeout to learn of the failure).
    pub fn mean_response_time(&self) -> f64 {
        self.response_time.mean()
    }

    /// Response-time statistics.
    pub fn response_time_summary(&self) -> &Summary {
        &self.response_time
    }

    /// Availability of the composite service.
    pub fn availability(&self) -> f64 {
        let demands = self.total_responses() + self.nrdt;
        if demands == 0 {
            return 1.0;
        }
        self.total_responses() as f64 / demands as f64
    }
}

/// Joint scoring of a designated (old, new) release pair.
pub struct PairTracker {
    old: ReleaseId,
    new: ReleaseId,
    detector: Box<dyn FailureDetector>,
    truth: JointCounts,
    observed: JointCounts,
    audit: DetectionAudit,
}

impl PairTracker {
    /// Ground-truth joint counts (what an omniscient observer would see).
    pub fn truth(&self) -> JointCounts {
        self.truth
    }

    /// Observed joint counts (what the detector reported) — the input to
    /// the Bayesian inference.
    pub fn observed(&self) -> JointCounts {
        self.observed
    }

    /// Confusion-matrix audit of the detector.
    pub fn audit(&self) -> DetectionAudit {
        self.audit
    }

    /// The tracked old release.
    pub fn old_release(&self) -> ReleaseId {
        self.old
    }

    /// The tracked new release.
    pub fn new_release(&self) -> ReleaseId {
        self.new
    }
}

impl std::fmt::Debug for PairTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairTracker")
            .field("old", &self.old)
            .field("new", &self.new)
            .field("detector", &self.detector.name())
            .field("observed", &self.observed)
            .finish()
    }
}

/// Lazily resolved handles for the system-level metric series. Each id
/// is resolved on the first write that would create the series, so the
/// set of exported series — and hence rendered snapshots — matches the
/// String-keyed path exactly; afterwards a write is an array index.
#[derive(Debug, Default)]
struct SystemMetricHandles {
    demands: Option<CounterId>,
    responses: [Option<CounterId>; 3],
    unavailable: Option<CounterId>,
    response_time: Option<HistogramId>,
    response_sketch: Option<SketchId>,
}

/// Lazily resolved handles for one release's metric series, with the
/// release label rendered once instead of per demand.
#[derive(Debug)]
struct ReleaseMetricHandles {
    label: String,
    responses: [Option<CounterId>; 3],
    timeouts: Option<CounterId>,
    exec_time: Option<HistogramId>,
    exec_sketch: Option<SketchId>,
}

impl ReleaseMetricHandles {
    fn new(release: usize) -> ReleaseMetricHandles {
        ReleaseMetricHandles {
            label: release.to_string(),
            responses: [None; 3],
            timeouts: None,
            exec_time: None,
            exec_sketch: None,
        }
    }
}

/// The monitoring subsystem.
pub struct MonitoringSubsystem {
    per_release: Vec<ReleaseStats>,
    system: SystemStats,
    pair: Option<PairTracker>,
    recent: std::collections::VecDeque<DemandRecord>,
    recent_capacity: usize,
    demands: u64,
    response_sketch: QuantileSketch,
    slo: SloWindow,
    metrics: Option<SharedRegistry>,
    system_handles: SystemMetricHandles,
    release_handles: Vec<ReleaseMetricHandles>,
}

impl MonitoringSubsystem {
    /// Creates a monitor keeping the last `recent_capacity` demand
    /// records in its in-memory database.
    pub fn new(recent_capacity: usize) -> MonitoringSubsystem {
        MonitoringSubsystem {
            per_release: Vec::new(),
            system: SystemStats::new(),
            pair: None,
            recent: std::collections::VecDeque::with_capacity(recent_capacity.min(4096)),
            recent_capacity,
            demands: 0,
            response_sketch: QuantileSketch::default(),
            slo: SloWindow::default(),
            metrics: None,
            system_handles: SystemMetricHandles::default(),
            release_handles: Vec::new(),
        }
    }

    /// Reconfigures the windowed availability/SLO tracker (window width,
    /// ring depth, latency threshold). Resets any windows accumulated so
    /// far, so call it before the first demand — [`crate::upgrade`] does,
    /// aligning the latency threshold with the middleware timeout.
    pub fn configure_slo(&mut self, config: SloConfig) {
        self.slo = SloWindow::new(config);
    }

    /// Routes per-demand counters and timing histograms into a shared
    /// metrics registry (`wsu_demands_total`, `wsu_responses_total`,
    /// `wsu_timeouts_total`, `wsu_system_responses_total`,
    /// `wsu_system_unavailable_total`, `wsu_exec_time_seconds`,
    /// `wsu_response_time_seconds`).
    pub fn set_metrics(&mut self, metrics: SharedRegistry) {
        self.metrics = Some(metrics);
        // Resolved ids index into the previous registry; drop them so
        // they are re-resolved against the new one on first use.
        self.system_handles = SystemMetricHandles::default();
        self.release_handles.clear();
    }

    /// Tracks the joint failures of the pair `(old, new)` through a
    /// perfect detector.
    pub fn track_pair(&mut self, old: ReleaseId, new: ReleaseId) {
        self.track_pair_with(old, new, PerfectOracle);
    }

    /// Tracks the pair through a custom failure detector (omission,
    /// back-to-back, a chain, …).
    pub fn track_pair_with(
        &mut self,
        old: ReleaseId,
        new: ReleaseId,
        detector: impl FailureDetector + 'static,
    ) {
        self.pair = Some(PairTracker {
            old,
            new,
            detector: Box::new(detector),
            truth: JointCounts::new(),
            observed: JointCounts::new(),
            audit: DetectionAudit::new(),
        });
    }

    /// Ingests one demand record.
    pub fn observe(&mut self, record: &DemandRecord, rng: &mut StreamRng) {
        self.demands += 1;
        for obs in &record.per_release {
            let idx = obs.release.index();
            while self.per_release.len() <= idx {
                self.per_release.push(ReleaseStats::new());
            }
            let stats = &mut self.per_release[idx];
            stats.exec_all.record(obs.exec_time.as_secs());
            stats.exec_sketch.observe(obs.exec_time.as_secs());
            if obs.within_timeout {
                stats.counts.bump(obs.class.index());
                stats.exec_within.record(obs.exec_time.as_secs());
            } else {
                stats.nrdt += 1;
            }
        }
        match record.system.verdict {
            SystemVerdict::Response(class) => self.system.counts.bump(class.index()),
            SystemVerdict::Unavailable => self.system.nrdt += 1,
        }
        self.system
            .response_time
            .record(record.system.response_time.as_secs());
        self.response_sketch
            .observe(record.system.response_time.as_secs());

        let mut false_alarm = false;
        if let Some(pair) = &mut self.pair {
            let a = record.observation(pair.old);
            let b = record.observation(pair.new);
            if let (Some(a), Some(b)) = (a, b) {
                // A failure here is any deviation from a correct response
                // within the timeout: wrong answers and timeouts both count.
                let truth = DemandOutcome::new(
                    a.class.is_failure() || !a.within_timeout,
                    b.class.is_failure() || !b.within_timeout,
                );
                let seen = pair.detector.observe(truth, rng);
                false_alarm =
                    (seen.a_failed && !truth.a_failed) || (seen.b_failed && !truth.b_failed);
                pair.truth.record(truth.a_failed, truth.b_failed);
                pair.observed.record(seen.a_failed, seen.b_failed);
                pair.audit.record(truth, seen);
            }
        }

        self.slo.observe(SloObservation {
            t: record.t,
            available: matches!(record.system.verdict, SystemVerdict::Response(_)),
            fault: record
                .per_release
                .iter()
                .any(|o| o.class.is_failure() || !o.within_timeout),
            false_alarm,
            response_time: record.system.response_time.as_secs(),
        });

        if self.recent_capacity > 0 {
            if self.recent.len() == self.recent_capacity {
                // Overwrite the evicted record in place: its buffer is
                // reused, so a full ring takes no allocation per demand.
                let DemandRecord {
                    seq,
                    t,
                    per_release,
                    system,
                } = record;
                let mut slot = self.recent.pop_front().expect("ring is full");
                slot.seq = *seq;
                slot.t = *t;
                slot.per_release.clone_from(per_release);
                slot.system = *system;
                self.recent.push_back(slot);
            } else {
                self.recent.push_back(record.clone());
            }
        }

        if let Some(metrics) = &self.metrics {
            let demands = *self
                .system_handles
                .demands
                .get_or_insert_with(|| metrics.counter_id("wsu_demands_total", &[]));
            metrics.inc_counter_id(demands);
            for obs in &record.per_release {
                let idx = obs.release.index();
                while self.release_handles.len() <= idx {
                    let next = self.release_handles.len();
                    self.release_handles.push(ReleaseMetricHandles::new(next));
                }
                let ReleaseMetricHandles {
                    label,
                    responses,
                    timeouts,
                    exec_time,
                    exec_sketch,
                } = &mut self.release_handles[idx];
                if obs.within_timeout {
                    let id = *responses[obs.class.index()].get_or_insert_with(|| {
                        metrics.counter_id(
                            "wsu_responses_total",
                            &[("release", label), ("class", obs.class.abbrev())],
                        )
                    });
                    metrics.inc_counter_id(id);
                } else {
                    let id = *timeouts.get_or_insert_with(|| {
                        metrics.counter_id("wsu_timeouts_total", &[("release", label)])
                    });
                    metrics.inc_counter_id(id);
                }
                let id = *exec_time.get_or_insert_with(|| {
                    metrics.histogram_id("wsu_exec_time_seconds", &[("release", label)])
                });
                metrics.observe_id(id, obs.exec_time.as_secs());
                let id = *exec_sketch.get_or_insert_with(|| {
                    metrics.sketch_id("wsu_exec_time_quantiles", &[("release", label)])
                });
                metrics.observe_sketch_id(id, obs.exec_time.as_secs());
            }
            match record.system.verdict {
                SystemVerdict::Response(class) => {
                    let id =
                        *self.system_handles.responses[class.index()].get_or_insert_with(|| {
                            metrics.counter_id(
                                "wsu_system_responses_total",
                                &[("class", class.abbrev())],
                            )
                        });
                    metrics.inc_counter_id(id);
                }
                SystemVerdict::Unavailable => {
                    let id = *self.system_handles.unavailable.get_or_insert_with(|| {
                        metrics.counter_id("wsu_system_unavailable_total", &[])
                    });
                    metrics.inc_counter_id(id);
                }
            }
            let id = *self
                .system_handles
                .response_time
                .get_or_insert_with(|| metrics.histogram_id("wsu_response_time_seconds", &[]));
            metrics.observe_id(id, record.system.response_time.as_secs());
            let id = *self
                .system_handles
                .response_sketch
                .get_or_insert_with(|| metrics.sketch_id("wsu_response_time_quantiles", &[]));
            metrics.observe_sketch_id(id, record.system.response_time.as_secs());
        }
    }

    /// Statistics for one release, if it has been observed.
    pub fn release_stats(&self, release: ReleaseId) -> Option<&ReleaseStats> {
        self.per_release.get(release.index())
    }

    /// Statistics for the composite service.
    pub fn system_stats(&self) -> &SystemStats {
        &self.system
    }

    /// The tracked pair, if any.
    pub fn pair(&self) -> Option<&PairTracker> {
        self.pair.as_ref()
    }

    /// Demands observed.
    pub fn demands(&self) -> u64 {
        self.demands
    }

    /// Tail-latency quantile sketch over consumer-visible response times
    /// (p50/p90/p99/p999 within a 1% relative-error bound).
    pub fn response_quantiles(&self) -> &QuantileSketch {
        &self.response_sketch
    }

    /// The windowed availability/SLO tracker.
    pub fn slo(&self) -> &SloWindow {
        &self.slo
    }

    /// Current dependability snapshot: lifetime availability, fault and
    /// false-alarm rates, latency-violation rate and worst-window
    /// availability, taken from the SLO tracker.
    pub fn dependability_snapshot(&self) -> DependabilitySnapshot {
        self.slo.snapshot()
    }

    /// The most recent demand records, oldest first.
    pub fn recent_records(&self) -> impl Iterator<Item = &DemandRecord> {
        self.recent.iter()
    }

    /// Renders an operator-facing dependability report: one line per
    /// observed release plus the composite service, with outcome counts,
    /// availability and timing — the "reporting on the use of the
    /// deployed WS" capability of the paper's Service Management idea
    /// (Section 2).
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "dependability report after {} demands
",
            self.demands
        ));
        out.push_str(
            "  who        CR      ER      NER     NRDT    avail   MET(s)
",
        );
        for (idx, stats) in self.per_release.iter().enumerate() {
            out.push_str(&format!(
                "  release#{idx}  {:<7} {:<7} {:<7} {:<7} {:<7.4} {:.4}
",
                stats.count(ResponseClass::Correct),
                stats.count(ResponseClass::EvidentFailure),
                stats.count(ResponseClass::NonEvidentFailure),
                stats.nrdt(),
                stats.availability(),
                stats.mean_exec_time(),
            ));
        }
        out.push_str(&format!(
            "  system     {:<7} {:<7} {:<7} {:<7} {:<7.4} {:.4}
",
            self.system.count(ResponseClass::Correct),
            self.system.count(ResponseClass::EvidentFailure),
            self.system.count(ResponseClass::NonEvidentFailure),
            self.system.nrdt(),
            self.system.availability(),
            self.system.mean_response_time(),
        ));
        if let Some(pair) = &self.pair {
            out.push_str(&format!(
                "  pair tracking ({} vs {}): observed {}
",
                pair.old, pair.new, pair.observed
            ));
        }
        out
    }
}

impl std::fmt::Debug for MonitoringSubsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitoringSubsystem")
            .field("demands", &self.demands)
            .field("releases", &self.per_release.len())
            .field("pair", &self.pair)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjudicate::SystemVerdict;
    use crate::middleware::{ReleaseObservation, SystemObservation};
    use wsu_detect::oracle::OmissionOracle;
    use wsu_simcore::time::SimDuration;

    fn record(
        seq: u64,
        a: (ResponseClass, f64, bool),
        b: (ResponseClass, f64, bool),
        verdict: SystemVerdict,
        rt: f64,
    ) -> DemandRecord {
        DemandRecord {
            seq,
            t: seq as f64,
            per_release: vec![
                ReleaseObservation {
                    release: ReleaseId::new(0),
                    class: a.0,
                    exec_time: SimDuration::from_secs(a.1),
                    within_timeout: a.2,
                },
                ReleaseObservation {
                    release: ReleaseId::new(1),
                    class: b.0,
                    exec_time: SimDuration::from_secs(b.1),
                    within_timeout: b.2,
                },
            ],
            system: SystemObservation {
                verdict,
                response_time: SimDuration::from_secs(rt),
                source: None,
                responders: 2,
            },
        }
    }

    #[test]
    fn per_release_counts_and_nrdt() {
        let mut mon = MonitoringSubsystem::new(16);
        let mut rng = StreamRng::from_seed(1);
        mon.observe(
            &record(
                0,
                (ResponseClass::Correct, 0.5, true),
                (ResponseClass::EvidentFailure, 0.7, true),
                SystemVerdict::Response(ResponseClass::Correct),
                0.8,
            ),
            &mut rng,
        );
        mon.observe(
            &record(
                1,
                (ResponseClass::Correct, 0.4, true),
                (ResponseClass::Correct, 3.0, false),
                SystemVerdict::Response(ResponseClass::Correct),
                1.6,
            ),
            &mut rng,
        );
        let a = mon.release_stats(ReleaseId::new(0)).unwrap();
        assert_eq!(a.count(ResponseClass::Correct), 2);
        assert_eq!(a.nrdt(), 0);
        assert_eq!(a.total_responses(), 2);
        assert!((a.mean_exec_time() - 0.45).abs() < 1e-12);
        assert_eq!(a.availability(), 1.0);
        let b = mon.release_stats(ReleaseId::new(1)).unwrap();
        assert_eq!(b.count(ResponseClass::EvidentFailure), 1);
        assert_eq!(b.nrdt(), 1);
        assert_eq!(b.availability(), 0.5);
        assert!((b.failure_rate() - 1.0).abs() < 1e-12);
        // MET over all responses includes the late one.
        assert!((b.mean_exec_time() - 1.85).abs() < 1e-12);
        assert!(b.exec_within_summary().count() == 1);
        assert_eq!(mon.demands(), 2);
    }

    #[test]
    fn system_counts_and_response_time() {
        let mut mon = MonitoringSubsystem::new(0);
        let mut rng = StreamRng::from_seed(2);
        mon.observe(
            &record(
                0,
                (ResponseClass::Correct, 0.5, true),
                (ResponseClass::Correct, 0.7, true),
                SystemVerdict::Response(ResponseClass::Correct),
                0.8,
            ),
            &mut rng,
        );
        mon.observe(
            &record(
                1,
                (ResponseClass::Correct, 5.0, false),
                (ResponseClass::Correct, 5.0, false),
                SystemVerdict::Unavailable,
                1.6,
            ),
            &mut rng,
        );
        let sys = mon.system_stats();
        assert_eq!(sys.count(ResponseClass::Correct), 1);
        assert_eq!(sys.nrdt(), 1);
        assert_eq!(sys.total_responses(), 1);
        assert!((sys.mean_response_time() - 1.2).abs() < 1e-12);
        assert_eq!(sys.availability(), 0.5);
        assert_eq!(sys.response_time_summary().count(), 2);
    }

    #[test]
    fn pair_tracking_with_perfect_detector() {
        let mut mon = MonitoringSubsystem::new(0);
        mon.track_pair(ReleaseId::new(0), ReleaseId::new(1));
        let mut rng = StreamRng::from_seed(3);
        // A fails (non-evident), B ok.
        mon.observe(
            &record(
                0,
                (ResponseClass::NonEvidentFailure, 0.5, true),
                (ResponseClass::Correct, 0.6, true),
                SystemVerdict::Response(ResponseClass::Correct),
                0.7,
            ),
            &mut rng,
        );
        // Both fail (B by timing out).
        mon.observe(
            &record(
                1,
                (ResponseClass::EvidentFailure, 0.5, true),
                (ResponseClass::Correct, 9.0, false),
                SystemVerdict::Response(ResponseClass::EvidentFailure),
                1.6,
            ),
            &mut rng,
        );
        let pair = mon.pair().unwrap();
        assert_eq!(pair.truth().demands(), 2);
        assert_eq!(pair.truth().only_a_failed(), 1);
        assert_eq!(pair.truth().both_failed(), 1);
        assert_eq!(pair.observed(), pair.truth());
        assert_eq!(pair.old_release(), ReleaseId::new(0));
        assert_eq!(pair.new_release(), ReleaseId::new(1));
        assert_eq!(pair.audit().demands(), 2);
    }

    #[test]
    fn pair_tracking_with_omission_detector() {
        let mut mon = MonitoringSubsystem::new(0);
        mon.track_pair_with(
            ReleaseId::new(0),
            ReleaseId::new(1),
            OmissionOracle::new(1.0),
        );
        let mut rng = StreamRng::from_seed(4);
        mon.observe(
            &record(
                0,
                (ResponseClass::NonEvidentFailure, 0.5, true),
                (ResponseClass::NonEvidentFailure, 0.6, true),
                SystemVerdict::Response(ResponseClass::NonEvidentFailure),
                0.7,
            ),
            &mut rng,
        );
        let pair = mon.pair().unwrap();
        assert_eq!(pair.truth().both_failed(), 1);
        // Total omission: nothing observed.
        assert_eq!(pair.observed().both_failed(), 0);
        assert_eq!(pair.audit().release_a().false_negatives, 1);
    }

    #[test]
    fn recent_ring_buffer_is_bounded() {
        let mut mon = MonitoringSubsystem::new(2);
        let mut rng = StreamRng::from_seed(5);
        for i in 0..5 {
            mon.observe(
                &record(
                    i,
                    (ResponseClass::Correct, 0.5, true),
                    (ResponseClass::Correct, 0.6, true),
                    SystemVerdict::Response(ResponseClass::Correct),
                    0.7,
                ),
                &mut rng,
            );
        }
        let seqs: Vec<u64> = mon.recent_records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn zero_capacity_keeps_no_records() {
        let mut mon = MonitoringSubsystem::new(0);
        let mut rng = StreamRng::from_seed(6);
        mon.observe(
            &record(
                0,
                (ResponseClass::Correct, 0.5, true),
                (ResponseClass::Correct, 0.6, true),
                SystemVerdict::Response(ResponseClass::Correct),
                0.7,
            ),
            &mut rng,
        );
        assert_eq!(mon.recent_records().count(), 0);
    }

    #[test]
    fn empty_stats_defaults() {
        let mon = MonitoringSubsystem::new(0);
        assert!(mon.release_stats(ReleaseId::new(0)).is_none());
        assert_eq!(mon.system_stats().availability(), 1.0);
        assert!(mon.pair().is_none());
    }

    #[test]
    fn metrics_registry_mirrors_observations() {
        let mut mon = MonitoringSubsystem::new(0);
        let registry = SharedRegistry::new();
        mon.set_metrics(registry.clone());
        let mut rng = StreamRng::from_seed(11);
        mon.observe(
            &record(
                0,
                (ResponseClass::Correct, 0.5, true),
                (ResponseClass::Correct, 3.0, false),
                SystemVerdict::Response(ResponseClass::Correct),
                1.6,
            ),
            &mut rng,
        );
        mon.observe(
            &record(
                1,
                (ResponseClass::EvidentFailure, 0.4, true),
                (ResponseClass::Correct, 0.6, true),
                SystemVerdict::Unavailable,
                2.1,
            ),
            &mut rng,
        );
        registry.with(|r| {
            assert_eq!(r.counter("wsu_demands_total", &[]), 2);
            assert_eq!(
                r.counter("wsu_responses_total", &[("release", "0"), ("class", "CR")]),
                1
            );
            assert_eq!(
                r.counter("wsu_responses_total", &[("release", "0"), ("class", "ER")]),
                1
            );
            assert_eq!(r.counter("wsu_timeouts_total", &[("release", "1")]), 1);
            assert_eq!(
                r.counter("wsu_system_responses_total", &[("class", "CR")]),
                1
            );
            assert_eq!(r.counter("wsu_system_unavailable_total", &[]), 1);
            assert_eq!(
                r.histogram_count("wsu_exec_time_seconds", &[("release", "0")]),
                2
            );
            assert_eq!(r.histogram_count("wsu_response_time_seconds", &[]), 2);
            assert_eq!(
                r.sketch("wsu_response_time_quantiles", &[])
                    .unwrap()
                    .count(),
                2
            );
            assert_eq!(
                r.sketch("wsu_exec_time_quantiles", &[("release", "0")])
                    .unwrap()
                    .count(),
                2
            );
            assert_eq!(
                r.sketch("wsu_exec_time_quantiles", &[("release", "1")])
                    .unwrap()
                    .count(),
                2
            );
        });
    }

    #[test]
    fn quantile_sketches_are_always_on() {
        let mut mon = MonitoringSubsystem::new(0);
        let mut rng = StreamRng::from_seed(12);
        for i in 0..100 {
            mon.observe(
                &record(
                    i,
                    (ResponseClass::Correct, 0.5, true),
                    (ResponseClass::Correct, 0.6, true),
                    SystemVerdict::Response(ResponseClass::Correct),
                    0.7,
                ),
                &mut rng,
            );
        }
        let sketch = mon.response_quantiles();
        assert_eq!(sketch.count(), 100);
        assert!((sketch.p50() - 0.7).abs() / 0.7 <= sketch.alpha());
        assert!((sketch.p999() - 0.7).abs() / 0.7 <= sketch.alpha());
        let rel = mon.release_stats(ReleaseId::new(1)).unwrap();
        assert_eq!(rel.exec_quantiles().count(), 100);
        assert!((rel.exec_quantiles().p99() - 0.6).abs() / 0.6 <= sketch.alpha());
    }

    #[test]
    fn slo_window_tracks_availability_faults_and_false_alarms() {
        let mut mon = MonitoringSubsystem::new(0);
        mon.configure_slo(SloConfig {
            window_secs: 10.0,
            windows: 8,
            latency_threshold: 1.0,
        });
        mon.track_pair_with(
            ReleaseId::new(0),
            ReleaseId::new(1),
            wsu_detect::oracle::FalseAlarmOracle::new(1.0),
        );
        let mut rng = StreamRng::from_seed(13);
        // Window [0, 10): two good demands (but every demand trips the
        // false-alarm detector).
        for i in 0..2 {
            mon.observe(
                &record(
                    i,
                    (ResponseClass::Correct, 0.5, true),
                    (ResponseClass::Correct, 0.6, true),
                    SystemVerdict::Response(ResponseClass::Correct),
                    0.7,
                ),
                &mut rng,
            );
        }
        // Window [10, 20): one unavailable demand with a real fault and a
        // latency violation (2.1 s > 1.0 s threshold).
        mon.observe(
            &record(
                12,
                (ResponseClass::Correct, 5.0, false),
                (ResponseClass::Correct, 5.0, false),
                SystemVerdict::Unavailable,
                2.1,
            ),
            &mut rng,
        );
        // Window [20, 30): close the previous ones.
        mon.observe(
            &record(
                25,
                (ResponseClass::Correct, 0.5, true),
                (ResponseClass::Correct, 0.6, true),
                SystemVerdict::Response(ResponseClass::Correct),
                0.7,
            ),
            &mut rng,
        );
        let snap = mon.dependability_snapshot();
        assert_eq!(snap.demands, 4);
        assert!((snap.availability - 0.75).abs() < 1e-12);
        assert!((snap.fault_rate - 0.25).abs() < 1e-12);
        assert!((snap.false_alarm_rate - 0.75).abs() < 1e-12);
        assert!((snap.latency_violation_rate - 0.25).abs() < 1e-12);
        assert_eq!(mon.slo().complete_windows(), 2);
        // Worst completed window is the one holding the unavailable demand.
        assert_eq!(snap.worst_window_availability, 0.0);
    }

    #[test]
    fn report_renders_all_parties() {
        let mut mon = MonitoringSubsystem::new(0);
        mon.track_pair(ReleaseId::new(0), ReleaseId::new(1));
        let mut rng = StreamRng::from_seed(9);
        mon.observe(
            &record(
                0,
                (ResponseClass::Correct, 0.5, true),
                (ResponseClass::NonEvidentFailure, 0.6, true),
                SystemVerdict::Response(ResponseClass::Correct),
                0.7,
            ),
            &mut rng,
        );
        let report = mon.render_report();
        assert!(report.contains("after 1 demands"));
        assert!(report.contains("release#0"));
        assert!(report.contains("release#1"));
        assert!(report.contains("system"));
        assert!(report.contains("pair tracking"));
        assert!(report.contains("n=1 r1=0 r2=0 r3=1 r4=0"));
    }
}
