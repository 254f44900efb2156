//! A `Send`-able serving facade over the upgrade middleware.
//!
//! The middleware itself is deliberately not `Send`: endpoints hand
//! out `Rc`-pooled response envelopes and the whole demand loop is
//! single-threaded by design. A real HTTP front, however, runs one
//! serving thread per core. This module bridges the two worlds the
//! same way the parallel replication runner does:
//!
//! * [`ServeSpec`] is a plain-data **blueprint** of a deployment
//!   (middleware config + per-release outcome/latency models + master
//!   seed). It is `Send + Sync`, so it can be shared across worker
//!   threads.
//! * [`DemandWorker`] is the **per-worker instantiation**: each
//!   serving thread builds its own middleware, endpoints and RNG
//!   stream from the shared spec (`spec.worker(index)`), so the
//!   steady-state demand path touches no cross-thread state at all —
//!   no locks, no atomics, no sharing. Worker `i`'s random stream is
//!   derived as `MasterSeed::indexed_stream("serve-worker", i)`, so a
//!   fleet of workers is deterministic given (seed, worker index,
//!   demand index) regardless of request interleaving across workers.
//!
//! [`DemandOutcome`] is the `Copy` summary a front returns to its
//! client: the same fields the middleware's `DemandRecord` carries,
//! minus the per-release buffer (which is recycled straight back into
//! the middleware's pool, keeping the loop allocation-free).

use wsu_simcore::dist::DelayModel;
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_wstack::endpoint::SyntheticService;
use wsu_wstack::message::Envelope;
use wsu_wstack::outcome::OutcomeProfile;

use crate::adjudicate::SystemVerdict;
use crate::error::CoreError;
use crate::middleware::{MiddlewareConfig, UpgradeMiddleware};

/// Blueprint of one deployed release: everything needed to rebuild its
/// synthetic endpoint on any worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseSpec {
    /// Service name (e.g. `"Quote"`).
    pub service: String,
    /// Release string (e.g. `"1.0"`).
    pub release: String,
    /// Outcome probabilities the release samples from.
    pub outcomes: OutcomeProfile,
    /// Execution-time model.
    pub exec_time: DelayModel,
    /// Traffic weight share under
    /// [`OperatingMode::WeightedFleet`](crate::modes::OperatingMode::WeightedFleet);
    /// ignored by the parallel/sequential modes.
    pub weight: f64,
}

impl ReleaseSpec {
    /// Creates a release blueprint at the default weight `1.0`.
    pub fn new(
        service: &str,
        release: &str,
        outcomes: OutcomeProfile,
        exec_time: DelayModel,
    ) -> ReleaseSpec {
        ReleaseSpec {
            service: service.to_string(),
            release: release.to_string(),
            outcomes,
            exec_time,
            weight: 1.0,
        }
    }

    /// Sets the weighted-fleet traffic share (builder style).
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> ReleaseSpec {
        self.weight = weight;
        self
    }
}

/// A `Send + Sync` blueprint of a served deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Middleware configuration (mode, timeout, adjudicator).
    pub middleware: MiddlewareConfig,
    /// The releases deployed behind the interface, in deploy order.
    pub releases: Vec<ReleaseSpec>,
    /// Master seed; each worker derives an independent stream from it.
    pub seed: u64,
    /// Operation name stamped on the request envelope.
    pub operation: String,
    /// Sharded serving: demand randomness is keyed by a fleet-global
    /// demand index (`indexed_stream("serve-demand", n)`) instead of
    /// one sequential per-worker stream, so a demand's outcome depends
    /// only on `(seed, n)` — not on which worker served it or how
    /// requests interleaved. Fronts claim `n` atomically and call
    /// [`DemandWorker::demand_indexed`], and the scale study's shards
    /// key their demands the same way; either can scale its worker or
    /// shard count without changing a single outcome.
    pub sharded: bool,
}

impl ServeSpec {
    /// A spec with no releases; push [`ReleaseSpec`]s before serving.
    pub fn new(middleware: MiddlewareConfig, seed: u64) -> ServeSpec {
        ServeSpec {
            middleware,
            releases: Vec::new(),
            seed,
            operation: "invoke".to_string(),
            sharded: false,
        }
    }

    /// Adds a release (builder style).
    #[must_use]
    pub fn with_release(mut self, release: ReleaseSpec) -> ServeSpec {
        self.releases.push(release);
        self
    }

    /// Switches the spec to sharded serving (builder style); see the
    /// [`sharded`](ServeSpec::sharded) field.
    #[must_use]
    pub fn with_sharding(mut self) -> ServeSpec {
        self.sharded = true;
        self
    }

    /// The paper's two-release upgrade scenario: release 1.0 and a
    /// slightly more reliable 1.1 running in parallel-reliability mode
    /// behind the default 2 s timeout.
    pub fn paper(seed: u64) -> ServeSpec {
        ServeSpec::new(MiddlewareConfig::default(), seed)
            .with_release(ReleaseSpec::new(
                "Quote",
                "1.0",
                OutcomeProfile::new(0.999, 0.0005, 0.0005),
                DelayModel::exponential(0.3),
            ))
            .with_release(ReleaseSpec::new(
                "Quote",
                "1.1",
                OutcomeProfile::new(0.9995, 0.00025, 0.00025),
                DelayModel::exponential(0.25),
            ))
    }

    /// A fully deterministic two-release deployment — every demand is
    /// answered correctly with constant execution times, so round-trip
    /// smoke tests can assert exact outcomes.
    pub fn deterministic(seed: u64) -> ServeSpec {
        ServeSpec::new(MiddlewareConfig::default(), seed)
            .with_release(ReleaseSpec::new(
                "Quote",
                "1.0",
                OutcomeProfile::always_correct(),
                DelayModel::constant(0.05),
            ))
            .with_release(ReleaseSpec::new(
                "Quote",
                "1.1",
                OutcomeProfile::always_correct(),
                DelayModel::constant(0.04),
            ))
    }

    /// A three-release staged canary fleet: a stable 1.0 carrying 70%
    /// of the traffic, a 1.1 canary at 20% and a 1.2 canary at 10%,
    /// all deterministic (always correct, constant execution times) so
    /// round-trip tests can pin exact counter agreement across a
    /// mid-run [`DemandWorker::promote`].
    pub fn canary_fleet(seed: u64) -> ServeSpec {
        let middleware = MiddlewareConfig {
            mode: crate::modes::OperatingMode::WeightedFleet,
            ..MiddlewareConfig::default()
        };
        ServeSpec::new(middleware, seed)
            .with_release(
                ReleaseSpec::new(
                    "Quote",
                    "1.0",
                    OutcomeProfile::always_correct(),
                    DelayModel::constant(0.05),
                )
                .with_weight(0.7),
            )
            .with_release(
                ReleaseSpec::new(
                    "Quote",
                    "1.1",
                    OutcomeProfile::always_correct(),
                    DelayModel::constant(0.04),
                )
                .with_weight(0.2),
            )
            .with_release(
                ReleaseSpec::new(
                    "Quote",
                    "1.2",
                    OutcomeProfile::always_correct(),
                    DelayModel::constant(0.03),
                )
                .with_weight(0.1),
            )
    }

    /// Builds worker `index`'s private demand loop: its own
    /// middleware, endpoints and RNG stream. Call once per serving
    /// thread, from that thread.
    pub fn worker(&self, index: u64) -> DemandWorker {
        let mut middleware = UpgradeMiddleware::new(self.middleware);
        for release in &self.releases {
            let id = middleware.deploy(
                SyntheticService::builder(&release.service, &release.release)
                    .outcomes(release.outcomes)
                    .exec_time(release.exec_time)
                    .build(),
            );
            middleware
                .releases_mut()
                .set_weight(id, release.weight)
                .expect("spec weights are finite and non-negative");
        }
        let master = MasterSeed::new(self.seed);
        DemandWorker {
            middleware,
            rng: master.indexed_stream("serve-worker", index),
            master,
            request: Envelope::request(&self.operation),
            clock: 0.0,
            worker: index,
        }
    }
}

/// The consumer-visible outcome of one served demand (`Copy`, so
/// fronts can hand it around without touching the record pool).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandOutcome {
    /// Worker-local demand sequence number.
    pub seq: u64,
    /// The worker that served it.
    pub worker: u64,
    /// Virtual dispatch instant (worker-local virtual clock), seconds.
    pub t: f64,
    /// The adjudicated verdict.
    pub verdict: SystemVerdict,
    /// The consumer's virtual wait, in seconds (includes `dT`).
    pub response_time: f64,
    /// How many releases responded within the timeout.
    pub responders: usize,
    /// Index of the release whose response was forwarded, if one was.
    pub source: Option<usize>,
}

impl DemandOutcome {
    /// The verdict's table label (`CR`, `ER`, `NER`, `NRDT`).
    pub fn verdict_label(&self) -> &'static str {
        self.verdict.label()
    }
}

/// One worker thread's private demand loop over the shared blueprint.
///
/// Not `Send` (and doesn't need to be): build it *on* the serving
/// thread via [`ServeSpec::worker`].
#[derive(Debug)]
pub struct DemandWorker {
    middleware: UpgradeMiddleware,
    rng: StreamRng,
    master: MasterSeed,
    request: Envelope,
    clock: f64,
    worker: u64,
}

impl DemandWorker {
    /// Serves one demand end to end on this worker's middleware and
    /// advances its virtual clock by the consumer's wait. The demand
    /// record's buffer is recycled immediately, so the steady-state
    /// path allocates nothing.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoActiveReleases`] if the spec deployed nothing.
    pub fn demand(&mut self) -> Result<DemandOutcome, CoreError> {
        self.middleware.set_virtual_time(self.clock);
        let record = self.middleware.process(&self.request, &mut self.rng)?;
        Ok(self.finish(record))
    }

    /// Serves one demand whose randomness is keyed by a fleet-global
    /// demand index: the draw stream is
    /// `indexed_stream("serve-demand", global)`, so the outcome
    /// depends only on `(spec.seed, global)` — identical no matter
    /// which worker serves it or how requests interleave across the
    /// fleet. Fronts serving a [sharded](ServeSpec::sharded) spec
    /// claim `global` atomically and call this instead of
    /// [`demand`](DemandWorker::demand).
    ///
    /// # Errors
    ///
    /// [`CoreError::NoActiveReleases`] if the spec deployed nothing.
    pub fn demand_indexed(&mut self, global: u64) -> Result<DemandOutcome, CoreError> {
        let mut rng = self.master.indexed_stream("serve-demand", global);
        self.middleware.set_virtual_time(self.clock);
        let record = self.middleware.process(&self.request, &mut rng)?;
        Ok(self.finish(record))
    }

    /// Folds a processed record into the worker's clock and outcome
    /// summary, recycling the record's buffer.
    fn finish(&mut self, record: crate::middleware::DemandRecord) -> DemandOutcome {
        let outcome = DemandOutcome {
            seq: record.seq,
            worker: self.worker,
            t: record.t,
            verdict: record.system.verdict,
            response_time: record.system.response_time.as_secs(),
            responders: record.system.responders,
            source: record.system.source.map(|r| r.index()),
        };
        self.clock += outcome.response_time;
        self.middleware.recycle(record);
        outcome
    }

    /// Demands served by this worker so far.
    pub fn demands(&self) -> u64 {
        self.middleware.demands()
    }

    /// This worker's index within the fleet.
    pub fn worker_index(&self) -> u64 {
        self.worker
    }

    /// The worker's virtual clock (sum of served response times).
    pub fn virtual_time(&self) -> f64 {
        self.clock
    }

    /// The middleware's configured timeout, in seconds — an upper
    /// bound (plus `dT`) on any single demand's virtual wait.
    pub fn timeout_secs(&self) -> f64 {
        self.middleware.config().timeout.as_secs()
    }

    /// Mid-run promotion for a weighted fleet: routes **all**
    /// subsequent traffic to `release` (weight `1.0`) and none to the
    /// other deployed releases (weight `0.0`). Idempotent; demands
    /// already served are unaffected, demands served afterwards go to
    /// the promoted release — none are dropped or double-counted.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownRelease`] if `release` is out of range.
    pub fn promote(&mut self, release: usize) -> Result<(), CoreError> {
        use crate::release::ReleaseId;
        let target = ReleaseId::new(release);
        let releases = self.middleware.releases_mut();
        // Validate the target before touching any weight.
        releases.weight(target)?;
        for index in 0..releases.len() {
            let id = ReleaseId::new(index);
            let weight = if id == target { 1.0 } else { 0.0 };
            releases.set_weight(id, weight)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_wstack::outcome::ResponseClass;

    /// The whole point of the facade: the blueprint crosses threads.
    #[test]
    fn serve_spec_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeSpec>();
        assert_send_sync::<ReleaseSpec>();
        assert_send_sync::<DemandOutcome>();
    }

    #[test]
    fn deterministic_spec_serves_correct_demands() {
        let spec = ServeSpec::deterministic(7);
        let mut worker = spec.worker(0);
        for seq in 0..10 {
            let outcome = worker.demand().expect("demand");
            assert_eq!(outcome.seq, seq);
            assert_eq!(outcome.worker, 0);
            assert_eq!(
                outcome.verdict,
                SystemVerdict::Response(ResponseClass::Correct)
            );
            assert_eq!(outcome.responders, 2);
            // max(0.05, 0.04) + dT = 0.15.
            assert!((outcome.response_time - 0.15).abs() < 1e-12);
        }
        assert_eq!(worker.demands(), 10);
        assert!((worker.virtual_time() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn virtual_clock_stamps_dispatch_instants() {
        let spec = ServeSpec::deterministic(7);
        let mut worker = spec.worker(3);
        let first = worker.demand().expect("demand");
        let second = worker.demand().expect("demand");
        assert_eq!(first.t, 0.0);
        assert!((second.t - first.response_time).abs() < 1e-12);
        assert_eq!(worker.worker_index(), 3);
    }

    #[test]
    fn workers_draw_independent_deterministic_streams() {
        let spec = ServeSpec::paper(42);
        // Same worker index twice: identical outcome sequence.
        let run = |index: u64| -> Vec<(u64, String, f64)> {
            let mut worker = spec.worker(index);
            (0..50)
                .map(|_| {
                    let o = worker.demand().expect("demand");
                    (o.seq, o.verdict_label().to_string(), o.response_time)
                })
                .collect()
        };
        assert_eq!(run(0), run(0));
        assert_eq!(run(5), run(5));
        // Distinct indices: distinct streams (response times differ).
        let a = run(0);
        let b = run(1);
        assert!(a.iter().zip(&b).any(|(x, y)| x.2 != y.2));
    }

    #[test]
    fn indexed_demands_depend_only_on_seed_and_global_index() {
        let spec = ServeSpec::paper(42).with_sharding();
        assert!(spec.sharded);
        let outcomes = |worker: u64| -> Vec<(String, f64)> {
            let mut w = spec.worker(worker);
            (0..40)
                .map(|g| {
                    let o = w.demand_indexed(g).expect("demand");
                    (o.verdict_label().to_string(), o.response_time)
                })
                .collect()
        };
        // Any worker serving global demand `g` sees the same outcome.
        let a = outcomes(0);
        assert_eq!(a, outcomes(1));
        // Interleaving demands across two workers changes nothing.
        let mut w2 = spec.worker(2);
        let mut w3 = spec.worker(3);
        let mut c = Vec::new();
        for g in 0..40u64 {
            let w = if g % 2 == 0 { &mut w2 } else { &mut w3 };
            let o = w.demand_indexed(g).expect("demand");
            c.push((o.verdict_label().to_string(), o.response_time));
        }
        assert_eq!(a, c);
        // The paper spec actually varies (exponential latencies).
        assert!(a.iter().any(|(_, t)| *t != a[0].1));
    }

    #[test]
    fn empty_spec_reports_no_active_releases() {
        let spec = ServeSpec::new(MiddlewareConfig::default(), 1);
        let mut worker = spec.worker(0);
        assert_eq!(worker.demand(), Err(CoreError::NoActiveReleases));
    }

    #[test]
    fn timeout_bound_is_exposed() {
        let spec = ServeSpec::deterministic(1);
        let worker = spec.worker(0);
        assert_eq!(worker.timeout_secs(), 2.0);
    }

    #[test]
    fn canary_fleet_routes_by_weight_to_one_release_per_demand() {
        let spec = ServeSpec::canary_fleet(9);
        let mut worker = spec.worker(0);
        let mut counts = [0u64; 3];
        for _ in 0..2_000 {
            let outcome = worker.demand().expect("demand");
            assert_eq!(outcome.responders, 1);
            counts[outcome.source.expect("weighted routing forwards")] += 1;
        }
        // 70/20/10 split, with slack for sampling noise.
        assert!(counts[0] > 1_250, "counts: {counts:?}");
        assert!(counts[1] > 250, "counts: {counts:?}");
        assert!(counts[2] > 100, "counts: {counts:?}");
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
    }

    #[test]
    fn promotion_redirects_all_traffic_without_losing_demands() {
        let spec = ServeSpec::canary_fleet(10);
        let mut worker = spec.worker(0);
        for _ in 0..100 {
            worker.demand().expect("demand");
        }
        worker.promote(2).expect("release 2 is deployed");
        for _ in 0..100 {
            let outcome = worker.demand().expect("demand");
            assert_eq!(outcome.source, Some(2));
        }
        // No demand was dropped or double-counted across the cutover.
        assert_eq!(worker.demands(), 200);
        assert_eq!(
            worker.promote(7),
            Err(CoreError::UnknownRelease(crate::release::ReleaseId::new(7)))
        );
    }
}
