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
//! * per-release outcome counts (CR / ER / NER), NRDT counts and mean
//!   execution times — the rows of the paper's Tables 5–6;
//! * the same for the *system* (the adjudicated response and its mean
//!   response time);
//! * joint failure counts of a designated (old, new) release pair,
//!   scored through a configurable [`FailureDetector`] — the observations
//!   driving the white-box Bayesian inference;
//! * a bounded in-memory log of recent records ("the database");
//! * once [`MonitoringSubsystem::configure_slo`] is called, SLO
//!   telemetry: a tail-latency sketch of the system response time and a
//!   windowed availability/SLO tracker ([`SloWindow`]) polled as a
//!   [`DependabilitySnapshot`], both fixed-size and fed allocation-free.
//!   [`crate::upgrade`] configures it, so the campaign reports get
//!   p99/p999 and worst-window availability without a metrics registry;
//!   a Table 5/6 cell reads none of it and pays for none of it.

use wsu_bayes::counts::JointCounts;
use wsu_detect::coverage::DetectionAudit;
use wsu_detect::oracle::{DemandOutcome, FailureDetector, PerfectOracle};
use wsu_obs::{
    CounterId, DependabilitySnapshot, HistogramId, QuantileSketch, SharedRegistry, SketchId,
    SloConfig, SloObservation, SloWindow,
};
use wsu_simcore::rng::StreamRng;
use wsu_wstack::outcome::ResponseClass;

use crate::adjudicate::SystemVerdict;
use crate::middleware::DemandRecord;
use crate::release::ReleaseId;

/// A count and a running mean (Welford's update, the bits
/// [`Summary::mean`](wsu_simcore::stats::Summary::mean) gives).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct RunningMean {
    n: f64,
    mean: f64,
}

impl RunningMean {
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "cannot record non-finite value {x}");
        self.n += 1.0;
        self.mean += (x - self.mean) / self.n;
    }
}

/// Dependability statistics of one release (one column group of the
/// paper's Tables 5–6).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReleaseStats {
    /// Responses within the timeout, per [`ResponseClass::index`].
    counts: [u64; 3],
    nrdt: u64,
    exec_all: RunningMean,
}

impl ReleaseStats {
    /// Responses of the given class received within the timeout.
    pub fn count(&self, class: ResponseClass) -> u64 {
        self.counts[class.index()]
    }

    /// Responses received within the timeout (the tables' "Total").
    pub fn total_responses(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Demands with no response within the timeout ("NRDT").
    pub fn nrdt(&self) -> u64 {
        self.nrdt
    }

    /// Mean execution time over *all* responses, late ones included (the
    /// per-release MET of the tables, which the paper reports independent
    /// of the timeout).
    pub fn mean_exec_time(&self) -> f64 {
        self.exec_all.mean
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
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SystemStats {
    /// Adjudicated responses, per [`ResponseClass::index`].
    counts: [u64; 3],
    nrdt: u64,
    response_time: RunningMean,
}

impl SystemStats {
    /// Adjudicated responses of the given class.
    pub fn count(&self, class: ResponseClass) -> u64 {
        self.counts[class.index()]
    }

    /// Demands on which a response (of any class) was returned.
    pub fn total_responses(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Demands reported "Web Service unavailable".
    pub fn nrdt(&self) -> u64 {
        self.nrdt
    }

    /// Mean consumer-visible response time, unavailable demands included
    /// (the consumer waits out the timeout to learn of the failure).
    pub fn mean_response_time(&self) -> f64 {
        self.response_time.mean
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

/// The SLO telemetry [`MonitoringSubsystem::configure_slo`] switches on.
struct Telemetry {
    response_sketch: QuantileSketch,
    slo: SloWindow,
}

/// The monitoring subsystem.
pub struct MonitoringSubsystem {
    per_release: Vec<ReleaseStats>,
    system: SystemStats,
    pair: Option<PairTracker>,
    recent: std::collections::VecDeque<DemandRecord>,
    recent_capacity: usize,
    demands: u64,
    telemetry: Option<Telemetry>,
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
            system: SystemStats::default(),
            pair: None,
            recent: std::collections::VecDeque::with_capacity(recent_capacity.min(4096)),
            recent_capacity,
            demands: 0,
            telemetry: None,
            metrics: None,
            system_handles: SystemMetricHandles::default(),
            release_handles: Vec::new(),
        }
    }

    /// Switches on the SLO telemetry: a response-time quantile sketch and
    /// an availability/SLO tracker with `config`'s windows and latency
    /// threshold. Calling it again resets both, so call it before the
    /// first demand — [`crate::upgrade`] does, at the middleware timeout.
    pub fn configure_slo(&mut self, config: SloConfig) {
        self.telemetry = Some(Telemetry {
            response_sketch: QuantileSketch::default(),
            slo: SloWindow::new(config),
        });
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
                self.per_release.push(ReleaseStats::default());
            }
            let stats = &mut self.per_release[idx];
            stats.exec_all.record(obs.exec_time.as_secs());
            if obs.within_timeout {
                stats.counts[obs.class.index()] += 1;
            } else {
                stats.nrdt += 1;
            }
        }
        match record.system.verdict {
            SystemVerdict::Response(class) => self.system.counts[class.index()] += 1,
            SystemVerdict::Unavailable => self.system.nrdt += 1,
        }
        self.system
            .response_time
            .record(record.system.response_time.as_secs());

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

        if let Some(telemetry) = &mut self.telemetry {
            telemetry
                .response_sketch
                .observe(record.system.response_time.as_secs());
            telemetry.slo.observe(SloObservation {
                t: record.t,
                available: matches!(record.system.verdict, SystemVerdict::Response(_)),
                fault: record
                    .per_release
                    .iter()
                    .any(|o| o.class.is_failure() || !o.within_timeout),
                false_alarm,
                response_time: record.system.response_time.as_secs(),
            });
        }

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
    /// (p50/p90/p99/p999 within a 1% relative-error bound), once configured.
    pub fn response_quantiles(&self) -> Option<&QuantileSketch> {
        self.telemetry.as_ref().map(|t| &t.response_sketch)
    }

    /// The windowed availability/SLO tracker, once configured.
    pub fn slo(&self) -> Option<&SloWindow> {
        self.telemetry.as_ref().map(|t| &t.slo)
    }

    /// Current dependability snapshot, once configured: lifetime
    /// availability, fault and false-alarm rates, latency-violation rate
    /// and worst-window availability, taken from the SLO tracker.
    pub fn dependability_snapshot(&self) -> Option<DependabilitySnapshot> {
        self.slo().map(SloWindow::snapshot)
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
        assert_eq!(sys.total_responses() + sys.nrdt(), 2);
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

    /// A demand record drawn from `rng`: each release answers with a
    /// random class after a random execution time, within a 2 s timeout
    /// or not; the system returns the first release's answer if it came
    /// in time, else the second's, else reports the service unavailable
    /// at the timeout.
    fn random_record(seq: u64, rng: &mut StreamRng) -> DemandRecord {
        const CLASSES: [ResponseClass; 3] = [
            ResponseClass::Correct,
            ResponseClass::EvidentFailure,
            ResponseClass::NonEvidentFailure,
        ];
        let mut release = || {
            let class = *rng.pick(&CLASSES);
            let exec = rng.uniform(0.05, 3.0);
            (class, exec, exec <= 2.0)
        };
        let (a, b) = (release(), release());
        let (verdict, rt) = match [a, b].into_iter().find(|r| r.2) {
            Some((class, exec, _)) => (SystemVerdict::Response(class), exec),
            None => (SystemVerdict::Unavailable, 2.0),
        };
        record(seq, a, b, verdict, rt)
    }

    /// The monitor's running means equal `Summary::mean` bit for bit
    /// after every demand, over seeded sequences: one-element ones, and
    /// times at one magnitude from 1e-9 to 1e9 s or spread across all
    /// of them.
    #[test]
    fn running_means_match_summary_bit_for_bit() {
        use wsu_simcore::stats::Summary;
        for seed in 0..24u64 {
            let mut rng = StreamRng::from_seed(seed);
            let mut mon_rng = StreamRng::from_seed(seed + 1_000);
            let len = if seed < 4 {
                1
            } else {
                1 + rng.next_below(2_000)
            };
            let scale = [1e-9, 1e-3, 1.0, 1e3, 1e9][seed as usize % 5];
            let mut time = || match seed % 6 {
                5 => 10f64.powf(rng.uniform(-9.0, 9.0)),
                _ => scale * rng.uniform(0.0, 4.0),
            };
            let mut mon = MonitoringSubsystem::new(0);
            let (mut exec, mut response) = ([Summary::new(), Summary::new()], Summary::new());
            for i in 0..len {
                let (a, b, rt) = (time(), time(), time());
                mon.observe(
                    &record(
                        i,
                        (ResponseClass::Correct, a, true),
                        (ResponseClass::NonEvidentFailure, b, false),
                        SystemVerdict::Response(ResponseClass::Correct),
                        rt,
                    ),
                    &mut mon_rng,
                );
                exec[0].record(a);
                exec[1].record(b);
                response.record(rt);
                for (k, summary) in exec.iter().enumerate() {
                    let stats = mon.release_stats(ReleaseId::new(k)).unwrap();
                    assert_eq!(
                        stats.mean_exec_time().to_bits(),
                        summary.mean().to_bits(),
                        "seed {seed} demand {i} release {k}"
                    );
                }
                assert_eq!(
                    mon.system_stats().mean_response_time().to_bits(),
                    response.mean().to_bits(),
                    "seed {seed} demand {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn running_mean_rejects_non_finite_times() {
        RunningMean::default().record(f64::INFINITY);
    }

    const TEST_SLO: SloConfig = SloConfig {
        window_secs: 10.0,
        windows: 4,
        latency_threshold: 1.0,
    };

    #[test]
    fn unconfigured_monitor_keeps_no_telemetry() {
        let mut mon = MonitoringSubsystem::new(0);
        mon.track_pair(ReleaseId::new(0), ReleaseId::new(1));
        let mut records = StreamRng::from_seed(12);
        let mut rng = StreamRng::from_seed(13);
        for i in 0..100 {
            mon.observe(&random_record(i, &mut records), &mut rng);
        }
        assert_eq!(mon.demands(), 100);
        assert!(mon.response_quantiles().is_none());
        assert!(mon.slo().is_none());
        assert!(mon.dependability_snapshot().is_none());
    }

    #[test]
    fn configured_telemetry_matches_direct_feeds() {
        let mut mon = MonitoringSubsystem::new(0);
        mon.track_pair(ReleaseId::new(0), ReleaseId::new(1));
        mon.configure_slo(TEST_SLO);
        let mut sketch = QuantileSketch::default();
        let mut slo = SloWindow::new(TEST_SLO);
        let mut records = StreamRng::from_seed(14);
        let mut rng = StreamRng::from_seed(15);
        for i in 0..200 {
            let record = random_record(i, &mut records);
            mon.observe(&record, &mut rng);
            let response_time = record.system.response_time.as_secs();
            sketch.observe(response_time);
            slo.observe(SloObservation {
                t: record.t,
                available: matches!(record.system.verdict, SystemVerdict::Response(_)),
                fault: record
                    .per_release
                    .iter()
                    .any(|o| o.class.is_failure() || !o.within_timeout),
                // The perfect detector never raises a false alarm.
                false_alarm: false,
                response_time,
            });
        }
        assert_eq!(mon.response_quantiles(), Some(&sketch));
        assert_eq!(mon.slo(), Some(&slo));
        assert_eq!(mon.dependability_snapshot(), Some(slo.snapshot()));
        assert!(slo.complete_windows() > 0, "the ring cycled");
    }

    #[test]
    fn telemetry_does_not_perturb_tallies_or_detector_draws() {
        for seed in 0..16 {
            let run = |configured: bool| {
                let mut mon = MonitoringSubsystem::new(0);
                // Both stages draw from the monitor's stream.
                mon.track_pair_with(
                    ReleaseId::new(0),
                    ReleaseId::new(1),
                    wsu_detect::oracle::ChainDetector::new()
                        .then(OmissionOracle::new(0.3))
                        .then(wsu_detect::oracle::FalseAlarmOracle::new(0.1)),
                );
                if configured {
                    mon.configure_slo(TEST_SLO);
                }
                let mut records = StreamRng::from_seed(seed);
                let mut rng = StreamRng::from_seed(seed + 1000);
                for i in 0..500 {
                    mon.observe(&random_record(i, &mut records), &mut rng);
                }
                (mon, rng.next_u64())
            };
            let (plain, plain_next) = run(false);
            let (configured, configured_next) = run(true);
            assert!(plain.slo().is_none());
            assert_eq!(configured.slo().map(SloWindow::demands), Some(500));
            for release in [ReleaseId::new(0), ReleaseId::new(1)] {
                assert_eq!(
                    plain.release_stats(release),
                    configured.release_stats(release),
                    "seed {seed}"
                );
            }
            assert_eq!(
                plain.system_stats(),
                configured.system_stats(),
                "seed {seed}"
            );
            let (p, c) = (plain.pair().unwrap(), configured.pair().unwrap());
            assert_eq!(p.truth(), c.truth(), "seed {seed}");
            assert_eq!(p.observed(), c.observed(), "seed {seed}");
            assert_eq!(p.audit(), c.audit(), "seed {seed}");
            assert_eq!(plain_next, configured_next, "seed {seed}: detector draws");
        }
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
        let snap = mon.dependability_snapshot().expect("SLO configured");
        assert_eq!(snap.demands, 4);
        assert!((snap.availability - 0.75).abs() < 1e-12);
        assert!((snap.fault_rate - 0.25).abs() < 1e-12);
        assert!((snap.false_alarm_rate - 0.75).abs() < 1e-12);
        assert!((snap.latency_violation_rate - 0.25).abs() < 1e-12);
        assert_eq!(mon.slo().unwrap().complete_windows(), 2);
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
