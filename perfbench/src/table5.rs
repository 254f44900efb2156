//! `table5-seeds`: the paper's Table 5 at paper size (10 k requests ×
//! 4 runs × 3 timeouts) repeated over consecutive seeds derived from
//! the workload seed. Middleware fan-out with adjudication, the
//! monitor, the simcore engine and workload planning; no HTTP, no Bayes.

use std::time::Instant;

use wsu_core::middleware::{MiddlewareConfig, UpgradeMiddleware};
use wsu_core::monitor::MonitoringSubsystem;
use wsu_experiments::midsim::{plan_run, simulate_cell, GroupStats};
use wsu_experiments::table5::{run_table5, run_table5_with, RunResult, SimulationTable};
use wsu_experiments::{DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS};
use wsu_simcore::rng::MasterSeed;
use wsu_workload::demand::PlannedDemand;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;
use wsu_wstack::endpoint::ScriptedEndpoint;
use wsu_wstack::message::Envelope;
use wsu_wstack::outcome::ResponseClass;

use crate::batch::{Batch, BatchWork};
use crate::stats::{median, ns, timer_ns, Histogram, Report};
use crate::RunArgs;

const BATCH: Batch = Batch {
    name: "table5-seeds",
    // Tables of different seeds take different times, so a run samples
    // many seeds (about four passes in 20 s) to keep its figures
    // independent of which seeds `--seed` picked.
    seeds: 64,
    salt: 100,
    // A run holds 120–250 tables, so p90 is the highest percentile with
    // ten samples beyond it.
    tail_q: 0.9,
    layers: 2,
    golden: "table5.txt",
};
/// Layer slots of a traced table.
const PLAN: usize = 0;
const CELL: usize = 1;

/// Whole Table 5s at `requests` requests per cell.
struct Tables {
    requests: u64,
}

impl BatchWork for Tables {
    fn op(&self, seed: MasterSeed, layers: Option<&mut [Vec<f64>]>) -> (String, u64) {
        let table = match layers {
            Some(layers) => split_table(seed, self.requests, layers),
            None => run_table5_with(seed, self.requests, &PAPER_TIMEOUTS, ExecTimeModel::paper()),
        };
        let demands = self.requests * (PAPER_TIMEOUTS.len() * RunSpec::all().len()) as u64;
        (table.render(), demands)
    }
}

/// Table 5 assembled from its layers, the way `run_table5_with` does:
/// one plan per (run, timeout) cell, then the cell's simulation.
fn split_table(seed: MasterSeed, requests: u64, layers: &mut [Vec<f64>]) -> SimulationTable {
    let runs = RunSpec::all()
        .iter()
        .map(|spec| {
            let gen = CorrelatedOutcomes::from_run(spec);
            let run_tag = format!("table5/run{}", spec.run);
            let cells = PAPER_TIMEOUTS
                .iter()
                .map(|&timeout| {
                    let t0 = Instant::now();
                    let plan = plan_run(&gen, ExecTimeModel::paper(), requests, seed, &run_tag);
                    let t1 = Instant::now();
                    let cell = simulate_cell(&plan, MiddlewareConfig::paper(timeout), seed);
                    layers[PLAN].push(ns(t1 - t0));
                    layers[CELL].push(ns(t1.elapsed()));
                    cell
                })
                .collect();
            RunResult {
                run: spec.run,
                cells,
            }
        })
        .collect();
    SimulationTable {
        title: "Table 5: correlated release failures".to_owned(),
        runs,
    }
}

pub fn run(run: &RunArgs) -> Report {
    let requests = if run.quick { 2_000 } else { PAPER_REQUESTS };
    let done = BATCH.run(
        run,
        || Tables { requests },
        || run_table5(DEFAULT_SEED).render(),
    );
    let mut report = done.report;
    if let Some(mut layers) = done.layers {
        let plans = layers[PLAN].len();
        let cells = layers[CELL].len();
        let plan_ms = median(&mut layers[PLAN]) / 1e6;
        let cell_ms = median(&mut layers[CELL]) / 1e6;
        report.metric("workload.calls", plans as f64, "count", plans);
        report.metric("workload.plan_ms", plan_ms, "ms", plans);
        report.metric("midsim.calls", cells as f64, "count", cells);
        report.metric("midsim.cell_ms", cell_ms, "ms", cells);
        demand_path(&mut report, done.first_seed, requests);
    }
    report
}

/// Middleware and monitor timed demand by demand over every cell of one
/// table, replayed on the cell's plan and random streams, with each
/// replayed cell checked against `simulate_cell`'s result.
fn demand_path(report: &mut Report, seed: MasterSeed, requests: u64) {
    let timer = timer_ns();
    let mut process_ns = Histogram::default();
    let mut observe_ns = Histogram::default();
    let (mut invocations, mut release_responses, mut forwarded, mut demands) = (0, 0, 0, 0);
    let mut agree = true;
    for spec in RunSpec::all() {
        let gen = CorrelatedOutcomes::from_run(&spec);
        let plan = plan_run(
            &gen,
            ExecTimeModel::paper(),
            requests,
            seed,
            &format!("table5/run{}", spec.run),
        );
        for &timeout in &PAPER_TIMEOUTS {
            let config = MiddlewareConfig::paper(timeout);
            let cell = simulate_cell(&plan, config, seed);
            let system = replay_cell(&plan, config, seed, timer, &mut process_ns, &mut observe_ns);
            agree &= system == cell.system;
            for g in [cell.rel1, cell.rel2] {
                invocations += g.total + g.nrdt;
                release_responses += g.total;
            }
            forwarded += cell.system.total;
            demands += cell.requests;
        }
    }
    report.check(
        agree,
        "table5-seeds: middleware+monitor replay reproduces every cell's system column",
    );
    let n = process_ns.count() as usize;
    report.metric("core.middleware.calls", n as f64, "count", n);
    report.metric(
        "core.middleware.process_ns",
        process_ns.percentile(0.5),
        "ns",
        n,
    );
    report.metric(
        "core.middleware.fanout",
        invocations as f64 / demands as f64,
        "count",
        n,
    );
    report.metric(
        "core.middleware.useful_ratio",
        forwarded as f64 / release_responses as f64,
        "1",
        n,
    );
    report.metric("core.monitor.calls", n as f64, "count", n);
    report.metric(
        "core.monitor.observe_ns",
        observe_ns.percentile(0.5),
        "ns",
        n,
    );
}

/// One cell's demand loop as `midsim` runs it, without the engine.
fn replay_cell(
    plan: &[PlannedDemand],
    config: MiddlewareConfig,
    seed: MasterSeed,
    timer: f64,
    process_ns: &mut Histogram,
    observe_ns: &mut Histogram,
) -> GroupStats {
    let mut rel1 = ScriptedEndpoint::new("Component", "1.0");
    let mut rel2 = ScriptedEndpoint::new("Component", "1.1");
    for d in plan {
        rel1.push(d.rel1);
        rel2.push(d.rel2);
    }
    let mut middleware = UpgradeMiddleware::new(config);
    middleware.deploy(rel1);
    middleware.deploy(rel2);
    let mut monitor = MonitoringSubsystem::new(0);
    let request = Envelope::request("invoke");
    let mut mw_rng = seed.stream("midsim/middleware");
    let mut mon_rng = seed.stream("midsim/monitor");
    let mut clock = 0.0;
    for _ in plan {
        middleware.set_virtual_time(clock);
        let t0 = Instant::now();
        let record = middleware
            .process(&request, &mut mw_rng)
            .expect("releases deployed");
        let t1 = Instant::now();
        monitor.observe(&record, &mut mon_rng);
        let t2 = Instant::now();
        process_ns.record(ns(t1 - t0) - timer);
        observe_ns.record(ns(t2 - t1) - timer);
        clock += record.system.response_time.as_secs();
        middleware.recycle(record);
    }
    let system = monitor.system_stats();
    GroupStats {
        met: system.mean_response_time(),
        cr: system.count(ResponseClass::Correct),
        eer: system.count(ResponseClass::EvidentFailure),
        ner: system.count(ResponseClass::NonEvidentFailure),
        total: system.total_responses(),
        nrdt: system.nrdt(),
    }
}
