//! Table 6: simulation results assuming independence of release
//! failures.
//!
//! Same structure as Table 5, but each release samples its own marginals
//! (Table 3) independently. The paper's headline: under independence the
//! 1-out-of-2 system beats both releases — "fault-tolerance works" —
//! though the assumption is implausible for two releases of the same
//! service.

use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::outcomes::IndependentOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

use crate::midsim::ObsSinks;
use crate::table5::{group_cells, simulate_table_cells, SimulationTable};
use crate::{PAPER_REQUESTS, PAPER_TIMEOUTS};

/// Runs Table 6 with the paper's parameters.
pub fn run_table6(seed: MasterSeed) -> SimulationTable {
    run_table6_with(
        seed,
        PAPER_REQUESTS,
        &PAPER_TIMEOUTS,
        ExecTimeModel::paper(),
    )
}

/// Runs Table 6 with explicit request count, timeouts and timing model.
pub fn run_table6_with(
    seed: MasterSeed,
    requests: u64,
    timeouts: &[f64],
    timing: ExecTimeModel,
) -> SimulationTable {
    run_table6_jobs(
        seed,
        requests,
        timeouts,
        timing,
        &ObsSinks::default(),
        Jobs::serial(),
    )
}

/// [`run_table6_with`] with observability sinks threaded into every
/// simulated cell (tagged `table6/run{n}/t{timeout}`), over a worker
/// pool: every `(run, timeout)` cell is one replication. Results,
/// traces and metrics are merged in replication order, so the output is
/// byte-identical for any `jobs`.
pub fn run_table6_jobs(
    seed: MasterSeed,
    requests: u64,
    timeouts: &[f64],
    timing: ExecTimeModel,
    sinks: &ObsSinks,
    jobs: Jobs,
) -> SimulationTable {
    let specs = RunSpec::all();
    let cells = simulate_table_cells(
        "table6",
        &specs,
        requests,
        timeouts,
        timing,
        seed,
        sinks,
        jobs,
        IndependentOutcomes::from_run,
    );
    SimulationTable {
        title: "Table 6: independent release failures".to_owned(),
        runs: group_cells(&specs, timeouts, cells),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimulationTable {
        run_table6_with(MasterSeed::new(43), 4_000, &[2.0], ExecTimeModel::paper())
    }

    #[test]
    fn system_beats_both_releases_under_independence() {
        // The fault-tolerance headline of Table 6, checked on every run.
        let table = quick();
        for run in &table.runs {
            let cell = &run.cells[0];
            let sys = cell.system.correct_fraction();
            let best = cell
                .rel1
                .correct_fraction()
                .max(cell.rel2.correct_fraction());
            assert!(
                sys > best - 0.005,
                "run {}: system {sys} vs best release {best}",
                run.run
            );
        }
    }

    #[test]
    fn marginals_match_table3() {
        let table = quick();
        // Run 3: Rel2 samples 0.50/0.25/0.25 independently.
        let cell = &table.runs[2].cells[0];
        let frac = cell.rel2.cr as f64 / (cell.rel2.total + cell.rel2.nrdt) as f64;
        // CR among all demands is diluted by NRDT; compare among responses.
        let among_responses = cell.rel2.cr as f64 / cell.rel2.total as f64;
        assert!((among_responses - 0.50).abs() < 0.03, "{among_responses}");
        assert!(frac <= among_responses);
    }

    #[test]
    fn title_distinguishes_the_tables() {
        assert!(quick().title.contains("independent"));
    }
}
