//! Table 5: simulation results assuming positive correlation between
//! release failures.
//!
//! Four runs (Tables 3–4 parameters) × three timeouts (1.5/2.0/3.0 s),
//! 10,000 requests each, reporting per release and for the system: MET,
//! CR, EER, NER, Total and NRDT.

use wsu_simcore::par::{par_map_slice, Jobs};
use wsu_simcore::rng::MasterSeed;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

use crate::midsim::{plan_run, simulate_planned_runs, CellResult, ObsSinks, RunPlan};
use crate::report::TextTable;
use crate::{PAPER_REQUESTS, PAPER_TIMEOUTS};

/// One run's results across the timeout columns.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Run number (1–4).
    pub run: usize,
    /// One cell per timeout, in the order supplied.
    pub cells: Vec<CellResult>,
}

/// The full table.
#[derive(Debug, Clone)]
pub struct SimulationTable {
    /// Display title.
    pub title: String,
    /// Per-run results.
    pub runs: Vec<RunResult>,
}

impl SimulationTable {
    /// Renders the table in the paper's layout (one row group per run,
    /// one column group per timeout).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for run in &self.runs {
            let mut header: Vec<String> = vec!["Observation".into()];
            for cell in &run.cells {
                for who in ["Rel1", "Rel2", "System"] {
                    header.push(format!("{who}@{}s", cell.timeout));
                }
            }
            let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
            let mut table =
                TextTable::new(format!("{} — Run {}", self.title, run.run), &header_refs);
            let groups = |cell: &CellResult| [cell.rel1, cell.rel2, cell.system];
            let mut push_metric = |name: &str, f: &dyn Fn(&crate::midsim::GroupStats) -> String| {
                let mut row = vec![name.to_owned()];
                for cell in &run.cells {
                    for g in groups(cell) {
                        row.push(f(&g));
                    }
                }
                table.push_row(row);
            };
            push_metric("MET", &|g| format!("{:.4}", g.met));
            push_metric("CR", &|g| g.cr.to_string());
            push_metric("EER", &|g| g.eer.to_string());
            push_metric("NER", &|g| g.ner.to_string());
            push_metric("Total", &|g| g.total.to_string());
            push_metric("NRDT", &|g| g.nrdt.to_string());
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }
}

/// Runs Table 5 with the paper's parameters.
pub fn run_table5(seed: MasterSeed) -> SimulationTable {
    run_table5_with(
        seed,
        PAPER_REQUESTS,
        &PAPER_TIMEOUTS,
        ExecTimeModel::paper(),
    )
}

/// Runs Table 5 with explicit request count, timeouts and timing model.
pub fn run_table5_with(
    seed: MasterSeed,
    requests: u64,
    timeouts: &[f64],
    timing: ExecTimeModel,
) -> SimulationTable {
    run_table5_jobs(
        seed,
        requests,
        timeouts,
        timing,
        &ObsSinks::default(),
        Jobs::serial(),
    )
}

/// [`run_table5_with`] with observability sinks threaded into every
/// simulated cell (tagged `table5/run{n}/t{timeout}`), over a worker
/// pool: every `(run, timeout)` cell is one replication. Results,
/// traces and metrics are merged in replication order, so the output is
/// byte-identical for any `jobs`.
pub fn run_table5_jobs(
    seed: MasterSeed,
    requests: u64,
    timeouts: &[f64],
    timing: ExecTimeModel,
    sinks: &ObsSinks,
    jobs: Jobs,
) -> SimulationTable {
    let specs = RunSpec::all();
    let cells = simulate_table_cells(
        "table5",
        &specs,
        requests,
        timeouts,
        timing,
        seed,
        sinks,
        jobs,
        CorrelatedOutcomes::from_run,
    );
    SimulationTable {
        title: "Table 5: correlated release failures".to_owned(),
        runs: group_cells(&specs, timeouts, cells),
    }
}

/// Plans each run once — the runs' plans are built on the worker pool
/// before any cell starts — then fans the `(run, timeout)` grid out as
/// replications, run-major and timeout-minor (the sequential iteration
/// order). Every cell of a run replays that run's one borrowed plan and
/// simulates its own timeout column with its own RNG streams and
/// observability sinks (see [`simulate_planned_runs`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_table_cells<G, F>(
    table_tag: &str,
    specs: &[RunSpec],
    requests: u64,
    timeouts: &[f64],
    timing: ExecTimeModel,
    seed: MasterSeed,
    sinks: &ObsSinks,
    jobs: Jobs,
    make_gen: F,
) -> Vec<CellResult>
where
    G: wsu_workload::outcomes::OutcomePairGen,
    F: Fn(&RunSpec) -> G + Sync,
{
    let runs = par_map_slice(jobs, specs, |_, spec| {
        let tag = format!("{table_tag}/run{}", spec.run);
        let demands = plan_run(&make_gen(spec), timing, requests, seed, &tag);
        RunPlan { tag, demands }
    });
    simulate_planned_runs(&runs, timeouts, seed, sinks, jobs)
}

/// Groups a flat cell vector (run-major, timeout-minor) back into
/// per-run rows.
pub(crate) fn group_cells(
    specs: &[RunSpec],
    timeouts: &[f64],
    cells: Vec<CellResult>,
) -> Vec<RunResult> {
    specs
        .iter()
        .zip(cells.chunks(timeouts.len().max(1)))
        .map(|(spec, chunk)| RunResult {
            run: spec.run,
            cells: chunk.to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::midsim::simulate_run_observed;
    use wsu_obs::{SharedRecorder, SharedRegistry};

    fn quick() -> SimulationTable {
        run_table5_with(
            MasterSeed::new(41),
            2_000,
            &[1.5, 3.0],
            ExecTimeModel::paper(),
        )
    }

    #[test]
    fn four_runs_two_timeouts() {
        let table = quick();
        assert_eq!(table.runs.len(), 4);
        for run in &table.runs {
            assert_eq!(run.cells.len(), 2);
            assert_eq!(run.cells[0].requests, 2_000);
        }
    }

    #[test]
    fn rel2_degrades_across_runs() {
        // Table 3/4: release 2's correctness drops from run 1 to run 4.
        let table = quick();
        let cr = |i: usize| table.runs[i].cells[0].rel2.correct_fraction();
        assert!(cr(0) > cr(3), "run1 {} !> run4 {}", cr(0), cr(3));
    }

    #[test]
    fn high_correlation_keeps_system_close_to_better_release() {
        // Run 1 (diagonal 0.9): system correctness is at least close to
        // the better release's; at lower correlation (run 4) the random
        // pick among disagreeing valid responses drags the system toward
        // the worse release.
        let table = quick();
        let run1 = &table.runs[0].cells[0];
        let run4 = &table.runs[3].cells[0];
        let rel_gap_run1 = run1.rel1.correct_fraction() - run1.system.correct_fraction();
        let rel_gap_run4 = run4.rel1.correct_fraction() - run4.system.correct_fraction();
        assert!(
            rel_gap_run4 > rel_gap_run1,
            "gap run4 {rel_gap_run4} !> gap run1 {rel_gap_run1}"
        );
    }

    #[test]
    fn single_run_path_matches_the_table_path() {
        // `simulate_run_observed` is the tables' per-run code run
        // serially: the same cells, trace and metrics as the table path
        // at any jobs.
        let observed = || ObsSinks {
            recorder: Some(SharedRecorder::new()),
            metrics: Some(SharedRegistry::new()),
        };
        let (seed, timing, timeouts) = (MasterSeed::new(41), ExecTimeModel::paper(), [1.5, 3.0]);
        let spec = RunSpec::run2();
        let table_sinks = observed();
        let table_cells = simulate_table_cells(
            "table5",
            std::slice::from_ref(&spec),
            1_000,
            &timeouts,
            timing,
            seed,
            &table_sinks,
            Jobs::new(2),
            CorrelatedOutcomes::from_run,
        );
        let run_sinks = observed();
        let run_cells = simulate_run_observed(
            &CorrelatedOutcomes::from_run(&spec),
            timing,
            1_000,
            &timeouts,
            seed,
            "table5/run2",
            &run_sinks,
        );
        assert_eq!(run_cells, table_cells);
        let trace = |sinks: &ObsSinks| sinks.recorder.as_ref().map(SharedRecorder::snapshot);
        assert_eq!(trace(&run_sinks), trace(&table_sinks));
        let prom = |sinks: &ObsSinks| sinks.metrics.as_ref().map(SharedRegistry::render_snapshot);
        assert_eq!(prom(&run_sinks), prom(&table_sinks));
    }

    #[test]
    fn render_contains_all_runs_and_metrics() {
        let table = quick();
        let text = table.render();
        for needle in ["Run 1", "Run 4", "MET", "NRDT", "Rel1@1.5s", "System@3s"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
