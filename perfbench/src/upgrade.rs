//! `upgrade-whitebox`: `ManagedUpgrade` in parallel-reliability mode
//! with the default 96×96×32 white-box grid, assessing every 500
//! demands against a criterion the run cannot meet, so the upgrade
//! stays transitional and every 500th demand pays a full assessment.

use std::time::{Duration, Instant};

use wsu_bayes::counts::JointCounts;
use wsu_bayes::whitebox::WhiteBoxInference;
use wsu_core::manage::{ManagementSubsystem, SwitchCriterion};
use wsu_core::middleware::{DemandRecord, UpgradeMiddleware};
use wsu_core::monitor::MonitoringSubsystem;
use wsu_core::upgrade::{DetectorKind, ManagedUpgrade, UpgradeConfig, UpgradePhase};
use wsu_detect::back2back::BackToBackDetector;
use wsu_detect::oracle::{ChainDetector, OmissionOracle};
use wsu_obs::{SharedRegistry, SloConfig};
use wsu_simcore::rng::MasterSeed;
use wsu_wstack::endpoint::SyntheticService;
use wsu_wstack::message::Envelope;
use wsu_wstack::outcome::OutcomeProfile;

use crate::stats::{median, ns, timer_ns, Digest, Histogram, Report, Series};
use crate::{RunArgs, Setups, SETUP_BATCH, SETUP_Q_SERIAL};

const INTERVAL: u64 = 500;
/// The tail reported end to end: assessment demands are 0.2 % of all
/// demands, so p99.9 lands on the posterior-recompute stall.
const TAIL_Q: f64 = 0.999;
const OMISSION: f64 = 0.15;
/// Boundaries whose assessment the traced run replays, at most.
const ASSESS_REPLAYS: usize = 64;

fn config() -> UpgradeConfig {
    UpgradeConfig::default()
        // Criterion 2 with a target far below the new release's pfd
        // (≈5e-4): never met, so the run stays transitional.
        .with_criterion(SwitchCriterion::reach_target(1e-6, 0.99))
        .with_detector(DetectorKind::BackToBackThenOmission(OMISSION))
        .with_assess_interval(INTERVAL)
}

fn releases() -> (SyntheticService, SyntheticService) {
    let old = SyntheticService::builder("QuoteService", "1.0")
        .outcomes(OutcomeProfile::new(0.998, 0.001, 0.001))
        .exec_time_mean(0.2)
        .build();
    let new = SyntheticService::builder("QuoteService", "1.1")
        .outcomes(OutcomeProfile::new(0.9995, 0.00025, 0.00025))
        .exec_time_mean(0.2)
        .build();
    (old, new)
}

fn fold(digest: &mut Digest, record: &DemandRecord) {
    digest.word(u64::from(record.system.verdict.label().as_bytes()[0]));
    digest.word(record.system.source.map_or(u64::MAX, |r| r.index() as u64));
    digest.word(record.system.response_time.as_secs().to_bits());
}

struct Deployment {
    upgrade: ManagedUpgrade,
    registry: SharedRegistry,
    digest: Digest,
}

fn deploy(seed: u64, warmup: u64) -> Deployment {
    let (old, new) = releases();
    let mut upgrade = ManagedUpgrade::new(old, new, config(), MasterSeed::new(seed));
    // Only the manager reports into the registry: one counter bump and
    // two gauge writes per assessment, nothing on the plain demand path.
    let registry = SharedRegistry::new();
    upgrade.manager_mut().set_metrics(registry.clone());
    let mut digest = Digest::default();
    for _ in 0..warmup {
        let record = upgrade.run_demand();
        fold(&mut digest, &record);
        upgrade.middleware_mut().recycle(record);
    }
    Deployment {
        upgrade,
        registry,
        digest,
    }
}

/// One timed phase of `run_demand` calls. It runs for `length` and then
/// on to the next assessment boundary, so the phase ends on an
/// assessment.
struct Phase {
    all: Series,
    plain: Histogram,
    assess: Histogram,
    wall: Duration,
    /// The duration (ns) of every demand, traced phase only.
    spans: Vec<u32>,
}

fn timed_phase(d: &mut Deployment, length: Duration, every: u64, traced: bool) -> Phase {
    let start = Instant::now();
    let mut phase = Phase {
        all: Series::new(every, TAIL_Q),
        plain: Histogram::default(),
        assess: Histogram::default(),
        wall: Duration::ZERO,
        spans: Vec::new(),
    };
    loop {
        let began = Instant::now();
        if began.duration_since(start) >= length && d.upgrade.demands().is_multiple_of(INTERVAL) {
            phase.wall = began.duration_since(start);
            return phase;
        }
        let record = d.upgrade.run_demand();
        let done = Instant::now();
        let took = ns(done.duration_since(began));
        fold(&mut d.digest, &record);
        d.upgrade.middleware_mut().recycle(record);
        phase.all.record(took);
        if d.upgrade.demands().is_multiple_of(INTERVAL) {
            phase.assess.record(took);
        } else {
            phase.plain.record(took);
        }
        if traced {
            phase.spans.push(took as u32);
        }
    }
}

pub fn run(run: &RunArgs) -> Report {
    let mut report = Report::default();
    let seed = run.derive(2);
    let warmup = if run.quick { 500 } else { 1_000 };
    let mut setups = Setups::new(run);
    let mut d = setups.batch(SETUP_BATCH, || deploy(seed, warmup));

    let length = if run.traced {
        run.seconds / 2
    } else {
        run.seconds
    };
    // Chunks hold a whole number of assessment intervals.
    let every = if run.quick {
        5 * INTERVAL
    } else {
        50 * INTERVAL
    };
    let untraced = timed_phase(&mut d, length, every, false);
    let traced = run.traced.then(|| timed_phase(&mut d, length, every, true));

    let timed = untraced.all.all.count() as usize;
    let rate = timed as f64 / untraced.wall.as_secs_f64();
    report.metric("demands_per_s", rate, "1/s", timed);
    report.metric(
        "latency_p50_us",
        untraced.all.all.percentile(0.5) / 1e3,
        "us",
        timed,
    );
    report.metric("latency_tail_us", untraced.all.tail() / 1e3, "us", timed);
    let demands = d.upgrade.demands();
    report.attempted = demands;

    // Verification, outside the timed phases.
    report.check(
        d.upgrade.phase() == UpgradePhase::Transitional,
        format!(
            "upgrade-whitebox: phase {:?} is Transitional",
            d.upgrade.phase()
        ),
    );
    let assessments = d.registry.with(|r| r.counter("wsu_assessments_total", &[]));
    report.check(
        assessments == demands / INTERVAL && demands.is_multiple_of(INTERVAL),
        format!(
            "upgrade-whitebox: {assessments} assessments for {demands} demands, one per {INTERVAL}"
        ),
    );
    let gauge = |release: &str| {
        d.registry
            .with(|r| r.gauge("wsu_posterior_p99", &[("release", release)]))
            .unwrap_or(f64::NAN)
    };
    let (old_p99, new_p99) = (gauge("old"), gauge("new"));
    let batch = d.upgrade.confidence_report();
    report.check(
        old_p99.to_bits() == batch.old_release_p99.to_bits()
            && new_p99.to_bits() == batch.new_release_p99.to_bits(),
        format!(
            "upgrade-whitebox: last incremental p99s ({old_p99:e}, {new_p99:e}) == batch confidence_report ({:e}, {:e})",
            batch.old_release_p99, batch.new_release_p99
        ),
    );

    if let Some(traced) = traced {
        layers(&mut report, &d, seed, &untraced, &traced, length);
    }
    // The second batch of set-ups, once the run's deployment is freed so
    // that two grids never count in `peak_rss_mib`.
    drop(d);
    drop(setups.batch(SETUP_BATCH, || deploy(seed, warmup)));
    setups.report(SETUP_Q_SERIAL, &mut report);
    report
}

/// The per-layer split of one traced run: the workload's own timings split
/// by kind of demand, then middleware, monitor, management and Bayes
/// replayed from the start on the same seed.
fn layers(
    report: &mut Report,
    d: &Deployment,
    seed: u64,
    untraced: &Phase,
    traced: &Phase,
    length: Duration,
) {
    let per_demand = |p: &Phase| p.wall.as_secs_f64() / p.all.all.count().max(1) as f64;
    report.metric(
        "trace.overhead_share",
        per_demand(traced) / per_demand(untraced) - 1.0,
        "1",
        2,
    );
    // What the traced spans (one per run_demand call) leave uncovered.
    let covered: u64 = traced.spans.iter().map(|&took| u64::from(took)).sum();
    let traced_wall = ns(traced.wall);
    report.metric(
        "unattributed_share",
        1.0 - covered as f64 / traced_wall,
        "1",
        traced.spans.len(),
    );
    let wall_ns = ns(untraced.wall);
    let calls = untraced.all.all.count() as usize;
    let plain_ns = untraced.plain.percentile(0.5);
    let plain_n = untraced.plain.count() as usize;
    let assessments = untraced.assess.count() as usize;
    report.metric("core.upgrade.calls", calls as f64, "count", calls);
    report.metric("core.upgrade.plain_ns", plain_ns, "ns", plain_n);
    report.metric(
        "core.upgrade.assess_demand_us",
        untraced.assess.percentile(0.5) / 1e3,
        "us",
        assessments,
    );

    // Middleware and monitor, demand by demand, on the run's endpoints
    // and random streams.
    let cfg = config();
    let master = MasterSeed::new(seed);
    let (old, new) = releases();
    let mut middleware = UpgradeMiddleware::new(cfg.middleware);
    let old_id = middleware.deploy(old);
    let new_id = middleware.deploy(new);
    let mut monitor = MonitoringSubsystem::new(cfg.recent_capacity);
    monitor.track_pair_with(
        old_id,
        new_id,
        ChainDetector::new()
            .then(BackToBackDetector::pessimistic())
            .then(OmissionOracle::new(OMISSION)),
    );
    monitor.configure_slo(SloConfig {
        latency_threshold: middleware.config().timeout.as_secs(),
        ..SloConfig::default()
    });
    let mut demand_rng = master.stream("managed-upgrade/demands");
    let mut monitor_rng = master.stream("managed-upgrade/monitor");
    let request = Envelope::request(cfg.operation.clone());
    let timer = timer_ns();
    let n = d.upgrade.demands();
    let mut process_ns = Histogram::default();
    let mut observe_ns = Histogram::default();
    let mut boundaries: Vec<JointCounts> = Vec::new();
    let mut digest = Digest::default();
    let mut clock = 0.0;
    for i in 1..=n {
        middleware.set_virtual_time(clock);
        let t0 = Instant::now();
        let record = middleware
            .process(&request, &mut demand_rng)
            .expect("both releases active");
        let t1 = Instant::now();
        monitor.observe(&record, &mut monitor_rng);
        let t2 = Instant::now();
        process_ns.record(ns(t1 - t0) - timer);
        observe_ns.record(ns(t2 - t1) - timer);
        clock += record.system.response_time.as_secs();
        fold(&mut digest, &record);
        middleware.recycle(record);
        if i.is_multiple_of(INTERVAL) {
            boundaries.push(monitor.pair().map(|p| p.observed()).unwrap_or_default());
        }
    }
    report.check(
        digest.value() == d.digest.value(),
        format!(
            "upgrade-whitebox: middleware+monitor replay digest {:016x} == run digest {:016x}",
            digest.value(),
            d.digest.value()
        ),
    );
    let run_counts = d
        .upgrade
        .monitor()
        .pair()
        .map(|p| p.observed())
        .unwrap_or_default();
    report.check(
        boundaries.last() == Some(&run_counts),
        "upgrade-whitebox: replayed joint counts equal the run's",
    );
    let process = process_ns.percentile(0.5);
    let observe = observe_ns.percentile(0.5);
    report.metric("core.middleware.calls", n as f64, "count", n as usize);
    report.metric("core.middleware.process_ns", process, "ns", n as usize);
    report.metric("core.monitor.calls", n as f64, "count", n as usize);
    report.metric("core.monitor.observe_ns", observe, "ns", n as usize);
    report.metric(
        "core.upgrade.overhead_ns",
        plain_ns - process - observe,
        "ns",
        n as usize,
    );

    // Management and Bayes on the counts captured at evenly spread
    // boundaries (the last one always included).
    let step = boundaries.len().div_ceil(ASSESS_REPLAYS).max(1);
    let sampled: Vec<JointCounts> = boundaries
        .iter()
        .rev()
        .step_by(step)
        .rev()
        .copied()
        .collect();
    let mut manager = ManagementSubsystem::with_resolution(
        cfg.prior_a,
        cfg.prior_b,
        cfg.coincidence,
        cfg.criterion,
        cfg.resolution,
    );
    let mut assess_ns = Vec::with_capacity(sampled.len());
    let mut last_p99 = (f64::NAN, f64::NAN);
    for counts in &sampled {
        let started = Instant::now();
        let view = manager.assess_incremental(counts);
        assess_ns.push(ns(started.elapsed()));
        last_p99 = (
            view.marginal_a.percentile(0.99),
            view.marginal_b.percentile(0.99),
        );
    }
    let batch = d.upgrade.confidence_report();
    report.check(
        last_p99.0.to_bits() == batch.old_release_p99.to_bits()
            && last_p99.1.to_bits() == batch.new_release_p99.to_bits(),
        "upgrade-whitebox: replayed assess_incremental p99s equal the run's",
    );
    let assess_us = median(&mut assess_ns) / 1e3;
    report.metric(
        "core.manage.calls",
        sampled.len() as f64,
        "count",
        sampled.len(),
    );
    report.metric("core.manage.assess_us", assess_us, "us", sampled.len());
    report.metric(
        "core.manage.busy_share",
        assess_us * 1e3 * assessments as f64 / ns(length).max(wall_ns),
        "1",
        assessments,
    );
    let mut updater = WhiteBoxInference::with_resolution(
        cfg.prior_a,
        cfg.prior_b,
        cfg.coincidence,
        cfg.resolution,
    )
    .updater();
    let mut rebase_ns = Vec::with_capacity(sampled.len());
    for counts in &sampled {
        let started = Instant::now();
        updater.rebase(counts);
        rebase_ns.push(ns(started.elapsed()));
    }
    report.check(
        updater.marginal_b().percentile(0.99).to_bits() == batch.new_release_p99.to_bits(),
        "upgrade-whitebox: replayed PosteriorUpdater::rebase reproduces the new release's p99",
    );
    report.metric("bayes.calls", sampled.len() as f64, "count", sampled.len());
    report.metric(
        "bayes.rebase_us",
        median(&mut rebase_ns) / 1e3,
        "us",
        sampled.len(),
    );
}
