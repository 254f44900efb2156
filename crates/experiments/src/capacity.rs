//! Server-capacity study (extension E6): parallel vs sequential
//! execution under open arrivals.
//!
//! The paper motivates mode 4 as "sequential execution for minimal
//! server capacity" but never quantifies it — its simulation is
//! closed-loop, so queueing never appears. This experiment makes the
//! capacity argument measurable: demands arrive as a Poisson stream and
//! each release is a single-server FIFO queue whose service times follow
//! eq. (7). Parallel modes copy every demand to both releases (doubling
//! offered load); sequential tries the old release first and consults
//! the new one only on an evident failure or a timeout.
//!
//! Reported per (mode, arrival rate): consumer response-time mean and
//! p95, unavailability, and each release's server utilisation — the
//! back-end capacity actually consumed.

use std::collections::VecDeque;

use wsu_core::adjudicate::{Adjudicator, CollectedResponse};
use wsu_core::release::ReleaseId;
use wsu_simcore::engine::{Engine, Handler};
use wsu_simcore::par::{par_map, Jobs};
use wsu_simcore::rng::{MasterSeed, StreamRng};
use wsu_simcore::stats::{Histogram, Summary};
use wsu_simcore::time::{SimDuration, SimTime};
use wsu_workload::outcomes::OutcomePairGen;
use wsu_workload::timing::ExecTimeModel;
use wsu_wstack::outcome::ResponseClass;

use crate::report::TextTable;

/// Dispatch discipline under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Every demand is copied to both releases (modes 1–3).
    Parallel,
    /// The old release first; the new release only after an evident
    /// failure or an attempt timeout (mode 4).
    Sequential,
}

impl Dispatch {
    fn label(self) -> &'static str {
        match self {
            Dispatch::Parallel => "parallel",
            Dispatch::Sequential => "sequential",
        }
    }
}

/// Configuration of one capacity run.
#[derive(Debug, Clone, Copy)]
pub struct CapacityConfig {
    /// Poisson arrival rate, demands per second.
    pub arrival_rate: f64,
    /// Demands to simulate.
    pub demands: u64,
    /// Per-attempt timeout (from dispatch of that attempt), seconds.
    pub timeout: f64,
    /// Adjudication delay dT, seconds.
    pub adjudication_delay: f64,
}

/// Result of one (dispatch, rate) cell.
#[derive(Debug, Clone)]
pub struct CapacityResult {
    /// The discipline.
    pub dispatch: Dispatch,
    /// The configured arrival rate.
    pub arrival_rate: f64,
    /// Consumer response-time statistics (completed demands).
    pub response_time: Summary,
    /// Approximate 95th percentile of the response time.
    pub response_p95: f64,
    /// Demands answered correctly.
    pub correct: u64,
    /// Demands that ended "unavailable".
    pub unavailable: u64,
    /// Demands simulated.
    pub demands: u64,
    /// Utilisation of each release's server (busy time / makespan).
    pub utilisation: [f64; 2],
}

#[derive(Debug, Clone, Copy)]
struct Job {
    seq: usize,
    service: SimDuration,
    class: ResponseClass,
}

#[derive(Debug, Default)]
struct Server {
    queue: VecDeque<Job>,
    busy: Option<Job>,
    busy_time: f64,
}

#[derive(Debug, Clone)]
struct DemandState {
    dispatched: SimTime,
    /// The responses collected so far, in arrival order: the first
    /// `collected`. Each server answers a demand at most once.
    responses: [CollectedResponse; 2],
    collected: usize,
    expected: usize,
    attempt: u8,
    done: bool,
    deadline_attempt: u8,
}

#[derive(Debug)]
enum Ev {
    Arrival(usize),
    Finish { server: usize, seq: usize },
    Deadline { seq: usize, attempt: u8 },
}

struct World {
    dispatch: Dispatch,
    timeout: SimDuration,
    dt: SimDuration,
    servers: [Server; 2],
    demands: Vec<DemandState>,
    plans: Vec<[Job; 2]>,
    inter_arrivals: Vec<SimDuration>,
    adjudicator: Adjudicator,
    rng: StreamRng,
    // Outputs.
    response_time: Summary,
    response_hist: Histogram,
    correct: u64,
    unavailable: u64,
    completed: u64,
}

impl World {
    fn enqueue(&mut self, engine: &mut Engine<Ev>, server: usize, job: Job) {
        if self.servers[server].busy.is_none() {
            self.start(engine, server, job);
        } else {
            self.servers[server].queue.push_back(job);
        }
    }

    fn start(&mut self, engine: &mut Engine<Ev>, server: usize, job: Job) {
        self.servers[server].busy = Some(job);
        self.servers[server].busy_time += job.service.as_secs();
        engine.schedule_in(
            job.service,
            Ev::Finish {
                server,
                seq: job.seq,
            },
        );
    }

    fn complete(&mut self, now: SimTime, seq: usize) {
        let state = &mut self.demands[seq];
        if state.done {
            return;
        }
        state.done = true;
        let adjudication = self
            .adjudicator
            .adjudicate(&state.responses[..state.collected], &mut self.rng);
        let wait = now.duration_since(state.dispatched) + self.dt;
        self.response_time.record(wait.as_secs());
        self.response_hist.record(wait.as_secs());
        match adjudication.verdict.class() {
            Some(ResponseClass::Correct) => self.correct += 1,
            Some(_) => {}
            None => self.unavailable += 1,
        }
        self.completed += 1;
    }
}

impl Handler<Ev> for World {
    fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) {
        let now = engine.now();
        match event {
            Ev::Arrival(seq) => {
                let [job_a, job_b] = self.plans[seq];
                // A placeholder for each slot until its response arrives.
                let unanswered = CollectedResponse {
                    release: ReleaseId::new(0),
                    class: ResponseClass::Correct,
                    exec_time: SimDuration::ZERO,
                };
                self.demands.push(DemandState {
                    dispatched: now,
                    responses: [unanswered; 2],
                    collected: 0,
                    expected: match self.dispatch {
                        Dispatch::Parallel => 2,
                        Dispatch::Sequential => 1,
                    },
                    attempt: 1,
                    done: false,
                    deadline_attempt: 1,
                });
                debug_assert_eq!(self.demands.len() - 1, seq);
                match self.dispatch {
                    Dispatch::Parallel => {
                        self.enqueue(engine, 0, job_a);
                        self.enqueue(engine, 1, job_b);
                    }
                    Dispatch::Sequential => {
                        self.enqueue(engine, 0, job_a);
                    }
                }
                engine.schedule_in(self.timeout, Ev::Deadline { seq, attempt: 1 });
                if seq + 1 < self.plans.len() {
                    engine.schedule_in(self.inter_arrivals[seq], Ev::Arrival(seq + 1));
                }
            }
            Ev::Finish { server, seq } => {
                // Free the server and start the next queued job.
                self.servers[server].busy = None;
                if let Some(next) = self.servers[server].queue.pop_front() {
                    self.start(engine, server, next);
                }
                let state = &mut self.demands[seq];
                if state.done {
                    return;
                }
                state.responses[state.collected] = CollectedResponse {
                    release: ReleaseId::new(server),
                    class: self.plans[seq][server].class,
                    exec_time: now.duration_since(state.dispatched),
                };
                state.collected += 1;
                match self.dispatch {
                    Dispatch::Parallel => {
                        if self.demands[seq].collected >= self.demands[seq].expected {
                            self.complete(now, seq);
                        }
                    }
                    Dispatch::Sequential => {
                        let class = self.plans[seq][server].class;
                        if class.is_valid() {
                            self.complete(now, seq);
                        } else if server == 0 && self.demands[seq].attempt == 1 {
                            // Evident failure: escalate to the new release.
                            self.demands[seq].attempt = 2;
                            self.demands[seq].deadline_attempt = 2;
                            let job_b = self.plans[seq][1];
                            self.enqueue(engine, 1, job_b);
                            engine.schedule_in(self.timeout, Ev::Deadline { seq, attempt: 2 });
                        } else {
                            // Second attempt also evidently failed.
                            self.complete(now, seq);
                        }
                    }
                }
            }
            Ev::Deadline { seq, attempt } => {
                let state = &self.demands[seq];
                if state.done || state.deadline_attempt != attempt {
                    return;
                }
                match self.dispatch {
                    Dispatch::Parallel => self.complete(now, seq),
                    Dispatch::Sequential => {
                        if attempt == 1 {
                            // First attempt timed out: escalate.
                            self.demands[seq].attempt = 2;
                            self.demands[seq].deadline_attempt = 2;
                            let job_b = self.plans[seq][1];
                            self.enqueue(engine, 1, job_b);
                            engine.schedule_in(self.timeout, Ev::Deadline { seq, attempt: 2 });
                        } else {
                            self.complete(now, seq);
                        }
                    }
                }
            }
        }
    }
}

/// Runs one capacity cell.
pub fn run_capacity(
    dispatch: Dispatch,
    outcomes: &dyn OutcomePairGen,
    timing: ExecTimeModel,
    config: CapacityConfig,
    seed: MasterSeed,
) -> CapacityResult {
    assert!(config.arrival_rate > 0.0, "arrival rate must be positive");
    assert!(config.demands > 0, "need at least one demand");
    let mut plan_rng = seed.stream("capacity/plan");
    let mut arrival_rng = seed.stream("capacity/arrivals");
    let plans: Vec<[Job; 2]> = (0..config.demands as usize)
        .map(|seq| {
            let (class_a, class_b) = outcomes.sample_pair(&mut plan_rng);
            let (time_a, time_b) = timing.sample_pair(&mut plan_rng);
            [
                Job {
                    seq,
                    service: time_a,
                    class: class_a,
                },
                Job {
                    seq,
                    service: time_b,
                    class: class_b,
                },
            ]
        })
        .collect();
    let exp = wsu_simcore::dist::Exponential::with_mean(1.0 / config.arrival_rate);
    let inter_arrivals: Vec<SimDuration> = (0..config.demands)
        .map(|_| exp.sample_duration(&mut arrival_rng))
        .collect();

    let mut world = World {
        dispatch,
        timeout: SimDuration::from_secs(config.timeout),
        dt: SimDuration::from_secs(config.adjudication_delay),
        servers: [Server::default(), Server::default()],
        demands: Vec::with_capacity(plans.len()),
        plans,
        inter_arrivals,
        adjudicator: Adjudicator::paper(),
        rng: seed.stream("capacity/adjudicate"),
        response_time: Summary::new(),
        response_hist: Histogram::new(0.0, 4.0 * config.timeout, 400),
        correct: 0,
        unavailable: 0,
        completed: 0,
    };
    let mut engine = Engine::new();
    engine.schedule_at(SimTime::ZERO, Ev::Arrival(0));
    engine.run(&mut world);
    let makespan = engine.now().as_secs().max(f64::MIN_POSITIVE);

    CapacityResult {
        dispatch,
        arrival_rate: config.arrival_rate,
        response_p95: world.response_hist.quantile(0.95).unwrap_or(f64::NAN),
        response_time: world.response_time,
        correct: world.correct,
        unavailable: world.unavailable,
        demands: config.demands,
        utilisation: [
            world.servers[0].busy_time / makespan,
            world.servers[1].busy_time / makespan,
        ],
    }
}

/// Runs the full study, both disciplines across the given arrival
/// rates, over a worker pool: every `(rate, dispatch)` cell is one
/// replication with its own engine, servers and RNG streams, returned
/// in the sequential iteration order (rate-major, parallel before
/// sequential) so the rendered table is byte-identical for any `jobs`.
pub fn run_capacity_study_jobs(
    outcomes: &(dyn OutcomePairGen + Sync),
    timing: ExecTimeModel,
    rates: &[f64],
    demands: u64,
    seed: MasterSeed,
    jobs: Jobs,
) -> Vec<CapacityResult> {
    const DISPATCHES: [Dispatch; 2] = [Dispatch::Parallel, Dispatch::Sequential];
    par_map(jobs, rates.len() * DISPATCHES.len(), |r| {
        let rate = rates[r / DISPATCHES.len()];
        let dispatch = DISPATCHES[r % DISPATCHES.len()];
        run_capacity(
            dispatch,
            outcomes,
            timing,
            CapacityConfig {
                arrival_rate: rate,
                demands,
                timeout: 3.0,
                adjudication_delay: 0.1,
            },
            seed,
        )
    })
}

/// Renders the study.
pub fn render_capacity_table(results: &[CapacityResult]) -> String {
    let mut table = TextTable::new(
        "Capacity study (E6): open arrivals, each release a single-server queue",
        &[
            "dispatch",
            "rate (1/s)",
            "mean resp (s)",
            "p95 resp (s)",
            "correct frac",
            "unavail",
            "util rel1",
            "util rel2",
        ],
    );
    for r in results {
        table.push_row(vec![
            r.dispatch.label().to_owned(),
            format!("{:.2}", r.arrival_rate),
            format!("{:.3}", r.response_time.mean()),
            format!("{:.3}", r.response_p95),
            format!("{:.4}", r.correct as f64 / r.demands as f64),
            r.unavailable.to_string(),
            format!("{:.3}", r.utilisation[0]),
            format!("{:.3}", r.utilisation[1]),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_workload::outcomes::CorrelatedOutcomes;
    use wsu_workload::runs::RunSpec;

    fn study(rates: &[f64], demands: u64) -> Vec<CapacityResult> {
        let gen = CorrelatedOutcomes::from_run(&RunSpec::run2());
        run_capacity_study_jobs(
            &gen,
            ExecTimeModel::calibrated(),
            rates,
            demands,
            MasterSeed::new(71),
            Jobs::serial(),
        )
    }

    #[test]
    fn every_demand_is_accounted_for() {
        for r in study(&[0.3], 2_000) {
            assert_eq!(r.response_time.count(), r.demands);
            assert!(r.correct + r.unavailable <= r.demands);
        }
    }

    #[test]
    fn sequential_uses_far_less_second_server() {
        let results = study(&[0.4], 3_000);
        let parallel = &results[0];
        let sequential = &results[1];
        assert_eq!(parallel.dispatch, Dispatch::Parallel);
        assert_eq!(sequential.dispatch, Dispatch::Sequential);
        // The headline: the new release's server runs a fraction of the
        // load under sequential dispatch.
        assert!(
            sequential.utilisation[1] < parallel.utilisation[1] * 0.6,
            "sequential {} vs parallel {}",
            sequential.utilisation[1],
            parallel.utilisation[1]
        );
        // Both disciplines load the first server comparably.
        assert!((sequential.utilisation[0] - parallel.utilisation[0]).abs() < 0.1);
    }

    #[test]
    fn utilisation_tracks_offered_load() {
        // Parallel at rate λ with mean service 1.0 s: utilisation ≈ λ on
        // both servers (while stable).
        let results = study(&[0.3], 4_000);
        let parallel = &results[0];
        for util in parallel.utilisation {
            assert!((util - 0.3).abs() < 0.06, "util {util}");
        }
    }

    #[test]
    fn queueing_delay_grows_with_load() {
        let results = study(&[0.2, 0.7], 3_000);
        let low = &results[0];
        let high = &results[2];
        assert_eq!(low.dispatch, Dispatch::Parallel);
        assert_eq!(high.dispatch, Dispatch::Parallel);
        assert!(
            high.response_time.mean() > low.response_time.mean(),
            "high {} vs low {}",
            high.response_time.mean(),
            low.response_time.mean()
        );
        assert!(high.response_p95 >= low.response_p95);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = study(&[0.3], 500);
        let b = study(&[0.3], 500);
        assert_eq!(a[0].response_time, b[0].response_time);
        assert_eq!(a[1].correct, b[1].correct);
    }

    #[test]
    fn render_lists_both_disciplines() {
        let text = render_capacity_table(&study(&[0.3], 300));
        assert!(text.contains("parallel"));
        assert!(text.contains("sequential"));
        assert!(text.contains("util rel2"));
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn rejects_zero_rate() {
        let gen = CorrelatedOutcomes::from_run(&RunSpec::run1());
        let _ = run_capacity(
            Dispatch::Parallel,
            &gen,
            ExecTimeModel::paper(),
            CapacityConfig {
                arrival_rate: 0.0,
                demands: 1,
                timeout: 1.0,
                adjudication_delay: 0.1,
            },
            MasterSeed::new(1),
        );
    }
}
