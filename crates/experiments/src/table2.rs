//! Table 2: duration of the managed upgrade.
//!
//! For each scenario (1, 2), detection regime (perfect, omission 0.15,
//! back-to-back) and switching criterion (1, 2, 3), the experiment
//! reports the number of demands after which the criterion is first met —
//! the paper's "duration of managed upgrade". A criterion never met
//! within the simulated horizon is reported as "Not attainable
//! (> N)", as in the paper's Scenario 1 / Criterion 2 cell.

use wsu_simcore::rng::MasterSeed;
use wsu_workload::scenario::Scenario;

use crate::bayes_study::{run_study, Detection, StudyConfig, StudyRun};
use crate::report::{thousands, TextTable};

/// One cell of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Cell {
    /// First demand count at which the criterion was met, if ever.
    pub first_met: Option<u64>,
    /// First demand count from which the criterion stayed met.
    pub stable_met: Option<u64>,
    /// The simulated horizon.
    pub horizon: u64,
}

impl Table2Cell {
    /// Renders the cell the way the paper does.
    pub fn render(&self) -> String {
        match (self.first_met, self.stable_met) {
            (Some(first), Some(stable)) if stable > first => {
                format!(
                    "{} (oscillates till {})",
                    thousands(first),
                    thousands(stable)
                )
            }
            (Some(first), _) => thousands(first),
            (None, _) => format!("Not attainable (> {})", thousands(self.horizon)),
        }
    }
}

/// One row of Table 2: a (scenario, detection) pair across the three
/// criteria.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Scenario number.
    pub scenario: usize,
    /// Detection regime label.
    pub detection: String,
    /// Cells for criteria 1–3.
    pub cells: [Table2Cell; 3],
}

/// The full Table 2 result.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows in the paper's order (scenario 1 ×3 regimes, scenario 2 ×3).
    pub rows: Vec<Table2Row>,
    /// The underlying study runs (for the figures).
    pub runs: Vec<StudyRun>,
}

impl Table2 {
    /// Renders the table as text.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            "Table 2: Duration of managed upgrade (demands until switch)",
            &[
                "Scenario",
                "Detection",
                "Criterion 1",
                "Criterion 2",
                "Criterion 3",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                format!("Scenario {}", row.scenario),
                row.detection.clone(),
                row.cells[0].render(),
                row.cells[1].render(),
                row.cells[2].render(),
            ]);
        }
        table.render()
    }
}

/// Runs Table 2 with one study configuration per scenario; each
/// configuration carries its own seed.
pub fn run_table2_with(config1: &StudyConfig, config2: &StudyConfig) -> Table2 {
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for (scenario, config) in [(Scenario::one(), config1), (Scenario::two(), config2)] {
        for detection in Detection::paper_regimes() {
            let run = run_study(&scenario, detection, config);
            let cells = [0, 1, 2].map(|i| Table2Cell {
                first_met: run.first_met[i],
                stable_met: run.stable_met[i],
                horizon: config.demands,
            });
            rows.push(Table2Row {
                scenario: scenario.number,
                detection: detection.label(),
                cells,
            });
            runs.push(run);
        }
    }
    Table2 { rows, runs }
}

/// Spread of one Table 2 cell across seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpreadCell {
    /// Durations for the seeds where the criterion was met, sorted.
    pub met: Vec<u64>,
    /// How many seeds were run.
    pub seeds: usize,
}

impl SpreadCell {
    /// Minimum duration among seeds that met the criterion.
    pub fn min(&self) -> Option<u64> {
        self.met.first().copied()
    }

    /// Median duration among seeds that met the criterion.
    pub fn median(&self) -> Option<u64> {
        if self.met.is_empty() {
            None
        } else {
            Some(self.met[self.met.len() / 2])
        }
    }

    /// Maximum duration among seeds that met the criterion.
    pub fn max(&self) -> Option<u64> {
        self.met.last().copied()
    }

    /// Renders `median [min..max] (k/n seeds)`.
    pub fn render(&self) -> String {
        match (self.min(), self.median(), self.max()) {
            (Some(lo), Some(mid), Some(hi)) => format!(
                "{} [{}..{}] ({}/{} seeds)",
                thousands(mid),
                thousands(lo),
                thousands(hi),
                self.met.len(),
                self.seeds
            ),
            _ => format!("not met (0/{} seeds)", self.seeds),
        }
    }
}

/// One row of the multi-seed spread table.
#[derive(Debug, Clone)]
pub struct SpreadRow {
    /// Scenario number.
    pub scenario: usize,
    /// Detection label.
    pub detection: String,
    /// Spread per criterion.
    pub cells: [SpreadCell; 3],
}

/// Runs Table 2 across several seeds and reports the per-cell spread —
/// the Monte-Carlo variability the paper's single-run Table 2 hides.
pub fn run_table2_spread(
    seeds: &[MasterSeed],
    config1: &StudyConfig,
    config2: &StudyConfig,
) -> Vec<SpreadRow> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let mut rows: Vec<SpreadRow> = Vec::new();
    for &seed in seeds {
        let c1 = StudyConfig { seed, ..*config1 };
        let c2 = StudyConfig { seed, ..*config2 };
        let table = run_table2_with(&c1, &c2);
        if rows.is_empty() {
            rows = table
                .rows
                .iter()
                .map(|r| SpreadRow {
                    scenario: r.scenario,
                    detection: r.detection.clone(),
                    cells: std::array::from_fn(|_| SpreadCell {
                        met: Vec::new(),
                        seeds: seeds.len(),
                    }),
                })
                .collect();
        }
        for (row, spread) in table.rows.iter().zip(rows.iter_mut()) {
            for (cell, target) in row.cells.iter().zip(spread.cells.iter_mut()) {
                if let Some(d) = cell.first_met {
                    target.met.push(d);
                }
            }
        }
    }
    for row in &mut rows {
        for cell in &mut row.cells {
            cell.met.sort_unstable();
        }
    }
    rows
}

/// Renders the spread table.
pub fn render_spread(rows: &[SpreadRow]) -> String {
    let mut table = TextTable::new(
        "Table 2 spread across seeds: median [min..max] (seeds meeting criterion)",
        &[
            "Scenario",
            "Detection",
            "Criterion 1",
            "Criterion 2",
            "Criterion 3",
        ],
    );
    for row in rows {
        table.push_row(vec![
            format!("Scenario {}", row.scenario),
            row.detection.clone(),
            row.cells[0].render(),
            row.cells[1].render(),
            row.cells[2].render(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_bayes::whitebox::Resolution;

    fn quick_configs() -> (StudyConfig, StudyConfig) {
        let seed = MasterSeed::new(5);
        let res = Resolution {
            a_cells: 32,
            b_cells: 32,
            q_cells: 8,
        };
        (
            StudyConfig {
                demands: 6_000,
                checkpoint_every: 500,
                resolution: res,
                confidence: 0.99,
                target: 1e-3,
                seed,
            },
            StudyConfig {
                demands: 4_000,
                checkpoint_every: 200,
                resolution: res,
                confidence: 0.99,
                target: 1e-3,
                seed,
            },
        )
    }

    #[test]
    fn spread_aggregates_across_seeds() {
        let (c1, c2) = quick_configs();
        let seeds = [MasterSeed::new(1), MasterSeed::new(2), MasterSeed::new(3)];
        let rows = run_table2_spread(&seeds, &c1, &c2);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            for cell in &row.cells {
                assert_eq!(cell.seeds, 3);
                assert!(cell.met.len() <= 3);
                // Sorted ascending.
                assert!(cell.met.windows(2).all(|w| w[0] <= w[1]));
                if let (Some(lo), Some(mid), Some(hi)) = (cell.min(), cell.median(), cell.max()) {
                    assert!(lo <= mid && mid <= hi);
                }
            }
        }
        let text = render_spread(&rows);
        assert!(text.contains("seeds"));
        // Scenario 2 criterion 3 fires for every seed at this scale.
        let s2 = rows.iter().find(|r| r.scenario == 2).unwrap();
        assert_eq!(s2.cells[2].met.len(), 3, "{:?}", s2.cells[2]);
    }

    #[test]
    fn spread_cell_rendering() {
        let cell = SpreadCell {
            met: vec![1_000, 1_500, 2_000],
            seeds: 5,
        };
        assert_eq!(cell.render(), "1,500 [1,000..2,000] (3/5 seeds)");
        let empty = SpreadCell {
            met: vec![],
            seeds: 4,
        };
        assert_eq!(empty.render(), "not met (0/4 seeds)");
    }

    #[test]
    fn produces_six_rows_in_paper_order() {
        let (c1, c2) = quick_configs();
        let table = run_table2_with(&c1, &c2);
        assert_eq!(table.rows.len(), 6);
        assert_eq!(table.rows[0].scenario, 1);
        assert_eq!(table.rows[3].scenario, 2);
        assert!(table.rows[1].detection.contains("Omission"));
        assert_eq!(table.runs.len(), 6);
    }

    #[test]
    fn scenario2_fires_within_quick_horizon() {
        // Even at reduced scale, scenario 2's criteria 1 and 3 fire fast.
        let (c1, c2) = quick_configs();
        let table = run_table2_with(&c1, &c2);
        let s2_perfect = &table.rows[3];
        assert!(s2_perfect.cells[0].first_met.is_some(), "criterion 1");
        assert!(s2_perfect.cells[2].first_met.is_some(), "criterion 3");
    }

    #[test]
    fn scenario1_criterion2_is_hard() {
        // At a 6k-demand horizon, scenario 1's explicit 1e-3 target at 99%
        // cannot be met (the paper needs >50k even with perfect oracles).
        let (c1, c2) = quick_configs();
        let table = run_table2_with(&c1, &c2);
        let s1_perfect = &table.rows[0];
        assert_eq!(s1_perfect.cells[1].first_met, None);
        assert!(s1_perfect.cells[1].render().contains("Not attainable"));
    }

    #[test]
    fn cell_rendering_variants() {
        assert_eq!(
            Table2Cell {
                first_met: Some(35_500),
                stable_met: Some(35_500),
                horizon: 50_000
            }
            .render(),
            "35,500"
        );
        assert_eq!(
            Table2Cell {
                first_met: Some(22_000),
                stable_met: Some(26_000),
                horizon: 50_000
            }
            .render(),
            "22,000 (oscillates till 26,000)"
        );
        assert_eq!(
            Table2Cell {
                first_met: None,
                stable_met: None,
                horizon: 50_000
            }
            .render(),
            "Not attainable (> 50,000)"
        );
    }

    #[test]
    fn render_contains_headers() {
        let (c1, c2) = quick_configs();
        let table = run_table2_with(&c1, &c2);
        let text = table.render();
        assert!(text.contains("Criterion 1"));
        assert!(text.contains("Scenario 2"));
        assert!(text.contains("Back-to-back"));
    }
}
