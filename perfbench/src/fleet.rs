//! `fleet-canary`: the fleet-study matrix (fleet sizes {2, 3, 4} × the
//! restart / rollback / substitute strategies at `FleetStudyConfig::paper()`)
//! repeated over consecutive seeds derived from the workload seed.
//! Weighted single-release routing, fault injection, black-box canary
//! inference, recovery strategies and registry substitution.

use std::time::Instant;

use wsu_experiments::fleetstudy::{
    run_fleetstudy, run_fleetstudy_jobs, standard_cells, CellResult, CellSpec, FleetStudyConfig,
    FleetTable,
};
use wsu_experiments::midsim::ObsSinks;
use wsu_experiments::DEFAULT_SEED;
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;

use crate::batch::{Batch, BatchWork};
use crate::stats::{median, ns, Report};
use crate::RunArgs;

const STRATEGIES: [&str; 3] = ["restart", "rollback", "substitute"];
const BATCH: Batch = Batch {
    name: "fleet-canary",
    // Study times differ by seed (6–10 ms), and with 8 seeds a run's
    // median moved 26 % between `--seed` values, so a run samples 128
    // seeds (about sixteen passes in 20 s).
    seeds: 128,
    salt: 200,
    // The study-time tail: p99 swung 12.7–21.6 ms across identical 5 s
    // runs (it lands on preemptions); p90 stays on the slowest seeds.
    tail_q: 0.9,
    // One slot per recovery strategy.
    layers: STRATEGIES.len(),
    golden: "fleetstudy.txt",
};

/// Whole fleet studies over the standard cells.
struct Studies {
    cells: Vec<CellSpec>,
    config: FleetStudyConfig,
}

impl Studies {
    fn study(&self, cells: &[CellSpec], seed: MasterSeed) -> FleetTable {
        run_fleetstudy_jobs(
            cells,
            &self.config,
            seed,
            &ObsSinks::default(),
            Jobs::serial(),
        )
    }
}

impl BatchWork for Studies {
    /// A traced study runs as one-cell slices, each timed into its
    /// strategy's slot, and assembles the table from them.
    fn op(&self, seed: MasterSeed, layers: Option<&mut [Vec<f64>]>) -> (String, u64) {
        let table = match layers {
            Some(layers) => {
                let mut rows = Vec::with_capacity(self.cells.len());
                let mut title = String::new();
                for cell in 0..self.cells.len() {
                    let t0 = Instant::now();
                    let slice = self.study(&self.cells[cell..=cell], seed);
                    let strategy = STRATEGIES
                        .iter()
                        .position(|name| *name == self.cells[cell].strategy.label())
                        .expect("standard strategies");
                    layers[strategy].push(ns(t0.elapsed()));
                    rows.extend(slice.rows);
                    title = slice.title;
                }
                FleetTable { title, rows }
            }
            None => self.study(&self.cells, seed),
        };
        let demands = table.rows.iter().map(|r| r.demands).sum();
        (table.render(), demands)
    }
}

pub fn run(run: &RunArgs) -> Report {
    let config = if run.quick {
        FleetStudyConfig::quick()
    } else {
        FleetStudyConfig::paper()
    };
    let done = BATCH.run(
        run,
        || Studies {
            cells: standard_cells(),
            config: config.clone(),
        },
        || run_fleetstudy(DEFAULT_SEED).render(),
    );
    let mut report = done.report;
    if let Some(mut layers) = done.layers {
        let calls: usize = layers.iter().map(Vec::len).sum();
        report.metric("core.fleet.calls", calls as f64, "count", calls);
        for (strategy, samples) in STRATEGIES.iter().zip(&mut layers) {
            let name = format!("core.fleet.cell_ms.{strategy}");
            let k = samples.len();
            report.metric(&name, median(samples) / 1e6, "ms", k);
        }
        // Lifecycle counts of the first seed's study: exact for a seed.
        let table = done.work.study(&done.work.cells, done.first_seed);
        let sum = |f: fn(&CellResult) -> u64| -> u64 { table.rows.iter().map(f).sum() };
        let incidents = sum(|r| r.incidents);
        let rows = table.rows.len();
        report.metric("core.fleet.incidents", incidents as f64, "count", rows);
        report.metric(
            "core.fleet.recovered_ratio",
            sum(|r| r.recovered) as f64 / incidents.max(1) as f64,
            "1",
            incidents as usize,
        );
        report.metric(
            "core.fleet.promotions",
            sum(|r| r.promotions) as f64,
            "count",
            rows,
        );
        report.metric(
            "core.fleet.rollbacks",
            sum(|r| r.rollbacks) as f64,
            "count",
            rows,
        );
        report.metric(
            "core.fleet.substitutions",
            sum(|r| r.substitutions) as f64,
            "count",
            rows,
        );
        report.metric(
            "faults.injected",
            sum(|r| r.injected_total) as f64,
            "count",
            rows,
        );
    }
    report
}
